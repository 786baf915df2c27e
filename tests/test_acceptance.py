"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the theorem sweep and uniqueness checks dominate the runtime
(about three seconds on one core of a 2-core x86-64 VM).
"""

import csv
import io
import math
import time
from fractions import Fraction

import pytest

from hurwitz_real_zeros.bernoulli import (
    bernoulli_number,
    bernoulli_polynomial,
    derivative_coefficients,
    even_roots,
    eval_poly,
    sign_on_unit_interval,
)
from hurwitz_real_zeros.cli import main
from hurwitz_real_zeros.hurwitz import (
    EvalParams,
    gamma_real,
    hurwitz_zeta,
    hurwitz_zeta_exact_at_nonpositive_integer,
    integral_representation,
)
from hurwitz_real_zeros.zero_analysis import (
    YES,
    polynomial_roots_in_unit,
    predict_zero,
    predict_zero_explicit,
    uniqueness_check,
)

F = Fraction
TIGHT = EvalParams(target_abs_error=1e-12)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_theorem_sweep(capsys):
    start = time.monotonic()
    code = main(["verify", "--nmin", "-1", "--nmax", "6",
                 "--astep", "0.05", "--delta", "1e-3", "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows, "sweep produced no cases"
    disagreements = [r for r in rows if r["agrees"] == "false"]
    assert disagreements == []
    assert elapsed < 120.0
    with capsys.disabled():
        _report(1, f"theorem sweep: {len(rows)} cases, 0 disagreements "
                   f"({elapsed:.0f}s)")


def test_criterion_2_root_values():
    pair2 = even_roots(2)
    assert abs(pair2.b_minus - (3 - math.sqrt(3)) / 6) < 1e-12
    assert abs(pair2.b_plus - (3 + math.sqrt(3)) / 6) < 1e-12
    r = math.sqrt(1 - 4 / math.sqrt(30))
    pair4 = even_roots(4)
    assert abs(pair4.b_minus - (1 - r) / 2) < 1e-12
    assert abs(pair4.b_plus - (1 + r) / 2) < 1e-12
    _report(2, "b_2 and b_4 roots match closed forms within 1e-12")


def test_criterion_3_exact_value_anchoring():
    worst = 0.0
    for n in range(1, 21):
        for i in range(1, 11):
            a = i / 10
            exact = float(
                hurwitz_zeta_exact_at_nonpositive_integer(n, F(a)))
            err = abs(hurwitz_zeta(1 - n, a) - exact)
            worst = max(worst, err)
    assert worst <= 1e-10
    _report(3, f"zeta(1-n, a) anchors, worst error {worst:.2e} <= 1e-10")


def test_criterion_4_integral_representation():
    worst = 0.0
    for N in range(-1, 5):
        for frac, a in ((0.25, 0.3), (0.5, 0.7), (0.8, 0.95)):
            sigma = -N - 1 + frac
            lhs = integral_representation(sigma, a, N)
            rhs = gamma_real(sigma) * hurwitz_zeta(sigma, a, TIGHT)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-7
    _report(4, f"strip integrals match Gamma*zeta, worst {worst:.2e} <= 1e-7")


def test_criterion_5_uniqueness_corollary():
    for M in range(2, 6):
        for i in range(1, 11):
            a = i / 10
            count = uniqueness_check(M, a)
            assert count == 1, f"M={M}, a={a}: count={count}"
    _report(5, "exactly one zero per [-2M-2, -2M) for M=2..5, a=0.1..1.0")


def test_criterion_6_identity_suite():
    worst = 0.0
    sigma = -10.0
    while sigma <= 5.0 + 1e-12:
        if abs(sigma - 1.0) > 1e-3:
            lhs = hurwitz_zeta(sigma, 0.5, TIGHT)
            rhs = (2.0 ** sigma - 1.0) * hurwitz_zeta(sigma, 1.0, TIGHT)
            worst = max(worst, abs(lhs - rhs))
        sigma += 0.25
    assert worst <= 1e-9
    for s in (-2.0, -4.0, -6.0):
        assert abs(hurwitz_zeta(s, 1.0)) <= 1e-10
    _report(6, f"half-shift identity worst {worst:.2e} <= 1e-9; "
               "trivial zeros vanish to 1e-10")


def test_criterion_7_theorem_form_equivalence():
    checked = 0
    for N in range(0, 11):
        boundaries = (polynomial_roots_in_unit(N + 1)
                      + polynomial_roots_in_unit(N + 2) + (0.5,))
        for i in range(1, 1001):
            a = i / 1001
            if min(abs(a - b) for b in boundaries) <= 1e-6:
                continue
            assert predict_zero_explicit(N, a) == \
                (predict_zero(N, a).exists == YES)
            checked += 1
    assert checked > 9000
    _report(7, f"predicate forms agree on {checked} (N, a) samples")


def test_criterion_8_bernoulli_property_suite():
    for n in range(1, 31):
        p = bernoulli_polynomial(n)
        assert derivative_coefficients(p) == tuple(
            n * c for c in bernoulli_polynomial(n - 1).coefficients)
        if n != 1:
            assert eval_poly(p, F(0)) == bernoulli_number(n)
            assert eval_poly(p, F(1)) == bernoulli_number(n)
        if n % 2 == 1 and n >= 3:
            assert eval_poly(p, F(0)) == 0
            assert eval_poly(p, F(1, 2)) == 0
            assert eval_poly(p, F(1)) == 0
    for n in range(2, 31):
        pair = even_roots(n) if n % 2 == 0 else None
        for i in range(101):
            x = F(i, 100)
            if pair is not None and min(abs(i / 100 - pair.b_minus),
                                        abs(i / 100 - pair.b_plus)) < 1e-9:
                continue
            value = eval_poly(bernoulli_polynomial(n), x)
            expected = 0 if value == 0 else (1 if value > 0 else -1)
            assert sign_on_unit_interval(n, i / 100) == expected
    _report(8, "derivative, endpoint, odd-vanishing, and sign-pattern "
               "identities hold exactly for n <= 30")
