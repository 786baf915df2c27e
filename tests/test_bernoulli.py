import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_real_zeros.bernoulli import (
    RATIONAL_CAP,
    IndeterminateSign,
    bernoulli_number,
    bernoulli_polynomial,
    bisect_sign,
    derivative_coefficients,
    eval_poly,
    even_roots,
    sign_on_unit_interval,
)

F = Fraction


# ---------------------------------------------------------------- oracles

def akiyama_tanigawa(n):
    """Independent oracle: B_0..B_n via the Akiyama-Tanigawa transform,
    which also yields the B_1 = +1/2 convention."""
    row = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def generating_function_series(nmax):
    """Second oracle: Taylor coefficients of t*e^t/(e^t - 1) by truncated
    power-series division, B_n = n! * c_n."""
    # numerator t*e^t: coefficient of t^k is 1/(k-1)! for k >= 1
    num = [F(0)] + [F(1, math.factorial(k - 1)) for k in range(1, nmax + 2)]
    # denominator (e^t - 1)/t: coefficient of t^k is 1/(k+1)!
    den = [F(1, math.factorial(k + 1)) for k in range(nmax + 2)]
    # divide num/t by den
    series = num[1:]
    quot = []
    for k in range(nmax + 1):
        c = series[k] - sum(quot[j] * den[k - j] for j in range(k))
        quot.append(c / den[0])
    return [math.factorial(n) * quot[n] for n in range(nmax + 1)]


# ---------------------------------------------------------------- numbers

def test_bernoulli_number_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(12) == F(-691, 2730)


def test_odd_numbers_vanish():
    for n in range(3, 41, 2):
        assert bernoulli_number(n) == 0


def test_against_akiyama_tanigawa():
    oracle = akiyama_tanigawa(40)
    for n in range(41):
        assert bernoulli_number(n) == oracle[n]


def test_against_series_expansion():
    oracle = generating_function_series(12)
    for n in range(13):
        assert bernoulli_number(n) == oracle[n]


def test_recurrence_consistency():
    # sum_{k=0}^{n} C(n+1,k) B_k == n+1 exactly under B_1 = +1/2
    for n in range(41):
        acc = sum(math.comb(n + 1, k) * bernoulli_number(k)
                  for k in range(n + 1))
        assert acc == n + 1


def test_cap_refusal():
    with pytest.raises(ValueError):
        bernoulli_number(RATIONAL_CAP + 1)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


# ------------------------------------------------------------ polynomials

def test_polynomial_examples():
    assert bernoulli_polynomial(0).coefficients == (F(1),)
    assert bernoulli_polynomial(2).coefficients == (F(1, 6), F(-1), F(1))
    assert bernoulli_polynomial(3).coefficients == (
        F(0), F(1, 2), F(-3, 2), F(1))


def test_polynomials_monic():
    for n in range(31):
        assert bernoulli_polynomial(n).coefficients[-1] == 1


def test_derivative_identity():
    for n in range(1, 31):
        dcoeffs = derivative_coefficients(bernoulli_polynomial(n))
        expected = tuple(n * c
                         for c in bernoulli_polynomial(n - 1).coefficients)
        assert dcoeffs == expected


def test_endpoint_identity():
    for n in range(31):
        if n == 1:
            continue
        p = bernoulli_polynomial(n)
        assert eval_poly(p, F(0)) == bernoulli_number(n)
        assert eval_poly(p, F(1)) == bernoulli_number(n)


def test_value_at_one_matches_number_including_n1():
    # B_n(1) = B_n holds for every n under this convention
    for n in range(31):
        assert eval_poly(bernoulli_polynomial(n), F(1)) == bernoulli_number(n)


def test_odd_vanishing():
    for n in range(3, 30, 2):
        p = bernoulli_polynomial(n)
        assert eval_poly(p, F(0)) == 0
        assert eval_poly(p, F(1, 2)) == 0
        assert eval_poly(p, F(1)) == 0


def test_eval_poly_examples():
    assert eval_poly(bernoulli_polynomial(2), F(1)) == F(1, 6)
    assert eval_poly(bernoulli_polynomial(3), F(1, 2)) == 0
    assert eval_poly(bernoulli_polynomial(2), F(3, 10)) == F(-13, 300)


def _fraction_horner(p, x):
    """Oracle: Horner's rule in Fractions, one reduction per step."""
    x = F(x)
    acc = F(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def test_eval_poly_exact_matches_fraction_horner():
    rng = random.Random(64)
    points = [0, 1, 7, -3, F(1, 2), F(-3, 7), F(5e-324)]
    points += [F(rng.uniform(-2.0, 2.0)) for _ in range(12)]
    for n in range(RATIONAL_CAP + 1):
        p = bernoulli_polynomial(n)
        for x in points:
            got = eval_poly(p, x)
            want = _fraction_horner(p, x)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (
                want.numerator, want.denominator)


def test_eval_poly_float_matches_exact():
    for n in (2, 5, 8, 13):
        p = bernoulli_polynomial(n)
        for i in range(1, 10):
            x = i / 10
            assert eval_poly(p, x) == pytest.approx(
                float(eval_poly(p, F(x))), abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    num=st.integers(min_value=-50, max_value=50),
    den=st.integers(min_value=1, max_value=50),
)
def test_reflection_symmetry(n, num, den):
    # B_n(1-x) == (-1)^n B_n(x), exactly
    x = F(num, den)
    p = bernoulli_polynomial(n)
    assert eval_poly(p, 1 - x) == (-1) ** n * eval_poly(p, x)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    num=st.integers(min_value=-50, max_value=50),
    den=st.integers(min_value=1, max_value=50),
)
def test_forward_difference(n, num, den):
    # B_n(x+1) - B_n(x) == n x^(n-1), exactly
    x = F(num, den)
    p = bernoulli_polynomial(n)
    assert eval_poly(p, x + 1) - eval_poly(p, x) == n * x ** (n - 1)


# ------------------------------------------------------------------ roots

def test_b2_closed_form():
    pair = even_roots(2)
    assert pair.b_minus == pytest.approx((3 - math.sqrt(3)) / 6, abs=1e-12)
    assert pair.b_plus == pytest.approx((3 + math.sqrt(3)) / 6, abs=1e-12)


def test_b4_closed_form():
    # B_4(x) = (x^2 - x)^2 - 1/30, solved by hand
    r = math.sqrt(1 - 4 / math.sqrt(30))
    pair = even_roots(4)
    assert pair.b_minus == pytest.approx((1 - r) / 2, abs=1e-12)
    assert pair.b_plus == pytest.approx((1 + r) / 2, abs=1e-12)


def test_root_ordering_and_residuals():
    tol = 1e-13
    for n in range(2, 21, 2):
        pair = even_roots(n)
        assert 0 < pair.b_minus < 0.5 < pair.b_plus < 1
        p = bernoulli_polynomial(n)
        dp = derivative_coefficients(p)
        for b in (pair.b_minus, pair.b_plus):
            deriv = sum(float(c) * b ** k for k, c in enumerate(dp))
            assert abs(eval_poly(p, b)) < tol * max(1.0, abs(deriv))


def test_even_roots_rejects_bad_input():
    with pytest.raises(ValueError):
        even_roots(3)


def test_root_brackets_have_nonzero_float_ends():
    # even_roots reads the sign at 0 and bisects [0, 1/2] and [1/2, 1] on
    # the premise B_n(0) = B_n(1) = B_n and B_n(1/2) = (2^(1-n)-1) B_n
    for n in range(2, RATIONAL_CAP + 1, 2):
        p = bernoulli_polynomial(n)
        b = bernoulli_number(n)
        assert b != 0
        assert eval_poly(p, F(0)) == eval_poly(p, F(1)) == b
        assert eval_poly(p, F(1, 2)) == (F(2) ** (1 - n) - 1) * b


def test_even_roots_brackets_certified_by_exact_signs():
    # each root is an end of a bracket down to neighbouring floats, with
    # opposite exact signs of B_n at its ends; float Horner signs used to
    # miss 17 of these 64 brackets when asked for a bound below 1e-16
    for n in range(2, RATIONAL_CAP + 1, 2):
        pair = even_roots(n)
        p = bernoulli_polynomial(n)
        r = F(pair.residual_bound)
        assert 0 < pair.residual_bound <= 2.0 ** -53
        for b in (pair.b_minus, pair.b_plus):
            lo, hi = eval_poly(p, F(b) - r), eval_poly(p, F(b) + r)
            assert lo * hi < 0, (n, b)


def test_bisect_sign_stops_at_neighbouring_floats():
    def no_midpoint(t):
        raise AssertionError(f"sign asked at {t}")

    lo = 1.0
    hi = math.nextafter(lo, 2.0)
    for tol in (0.0, 1e-300):
        x, h = bisect_sign(no_midpoint, lo, hi, 1, tol)
        assert x in (lo, hi)
        assert h == hi - lo
    # a sign change at the float 1/3 ends on the neighbouring floats there
    x, h = bisect_sign(lambda t: 1 if t < 1 / 3 else -1, 0.0, 1.0, 1, 0.0)
    assert abs(x - 1 / 3) <= h == math.ulp(1 / 3)


def test_bisect_sign_returns_midpoint_of_sign_zero():
    calls = []

    def sign(t):
        calls.append(t)
        return 0

    assert bisect_sign(sign, -1.0, 3.0, -1, 1e-3) == (1.0, 0.0)
    assert calls == [1.0]


def test_bisect_sign_stops_at_tolerance():
    x, h = bisect_sign(lambda t: -1 if t < 0.3 else 1, 0.0, 1.0, -1, 0.1)
    assert h <= 0.1 and abs(x - 0.3) <= h


# ------------------------------------------------------------------ signs

def test_sign_examples():
    assert sign_on_unit_interval(2, 0.4) == -1
    assert sign_on_unit_interval(3, 0.5) == 0
    assert sign_on_unit_interval(4, 0.1) == -1


def test_sign_indeterminate_near_root():
    pair = even_roots(2)
    with pytest.raises(IndeterminateSign):
        sign_on_unit_interval(2, pair.b_minus)


def test_sign_oracle_agrees_with_exact_evaluation():
    for n in range(2, 21, 2):
        pair = even_roots(n)
        for i in range(1001):
            x = F(i, 1000)
            xf = i / 1000
            if min(abs(xf - pair.b_minus), abs(xf - pair.b_plus)) < 1e-9:
                continue
            value = eval_poly(bernoulli_polynomial(n), x)
            expected = 0 if value == 0 else (1 if value > 0 else -1)
            assert sign_on_unit_interval(n, xf) == expected


def test_sign_oracle_exact_just_outside_root_band():
    # the band is the certified bracket width: two widths from a reported
    # root the oracle already matches exact evaluation, for every even n
    for n in range(2, RATIONAL_CAP + 1, 2):
        pair = even_roots(n)
        p = bernoulli_polynomial(n)
        r = pair.residual_bound
        for b in (pair.b_minus, pair.b_plus):
            with pytest.raises(IndeterminateSign):
                sign_on_unit_interval(n, b)
            for x in (b - 2 * r, b + 2 * r):
                value = eval_poly(p, F(x))
                assert sign_on_unit_interval(n, x) == (1 if value > 0
                                                       else -1)


def test_sign_oracle_odd_indices():
    for n in range(1, 22, 2):
        for i in range(1001):
            x = F(i, 1000)
            value = eval_poly(bernoulli_polynomial(n), x)
            expected = 0 if value == 0 else (1 if value > 0 else -1)
            assert sign_on_unit_interval(n, i / 1000) == expected
