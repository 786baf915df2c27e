import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_real_zeros import hurwitz as hurwitz_module
from hurwitz_real_zeros.bernoulli import (
    RATIONAL_CAP,
    bernoulli_polynomial,
    eval_poly,
)
from hurwitz_real_zeros.hurwitz import (
    FOURIER_CROSSOVER,
    AccuracyError,
    EvalParams,
    Evaluator,
    PoleError,
    StripError,
    SIGN_HEAD_TERMS,
    SIGN_SCAN_TARGET,
    SMALL_X_THRESHOLD,
    _EPS,
    _fourier_slope,
    _integrand_G_direct,
    _slope_bounds,
    check_shift,
    gamma_real,
    gamma_sign,
    hurwitz_zeta,
    hurwitz_zeta_detailed,
    hurwitz_zeta_exact_at_nonpositive_integer,
    integral_representation,
    integrand_G,
    riemann_zeta,
)
from hurwitz_real_zeros.zero_analysis import (
    locate_zeros,
    scan_grid,
    verify_theorem,
)

F = Fraction
TIGHT = EvalParams(target_abs_error=1e-12)


def direct_series(sigma, a, cutoff=100_000):
    """Oracle: tail-bounded summation of the defining series (sigma > 1):
    exactly-rounded head sum plus integral and half-term tail estimates."""
    n = np.arange(cutoff, dtype=float)
    head = math.fsum((n + a) ** (-sigma))
    q = cutoff + a
    return head + q ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * q ** (-sigma)


# -------------------------------------------------------------- evaluator

def test_exact_value_examples():
    assert hurwitz_zeta_exact_at_nonpositive_integer(2, F(1)) == F(-1, 12)
    assert hurwitz_zeta_exact_at_nonpositive_integer(1, F(1, 2)) == 0
    assert hurwitz_zeta_exact_at_nonpositive_integer(3, F(2, 5)) == F(-1, 125)


def test_exact_value_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta_exact_at_nonpositive_integer(0, F(1, 2))
    with pytest.raises(ValueError):
        hurwitz_zeta_exact_at_nonpositive_integer(2, F(3, 2))
    with pytest.raises(TypeError):
        hurwitz_zeta_exact_at_nonpositive_integer(2, 0.3)


def test_evaluator_examples():
    assert hurwitz_zeta(-1.0, 1.0) == pytest.approx(-1 / 12, abs=1e-10)
    assert hurwitz_zeta(0.0, 0.3) == pytest.approx(0.2, abs=1e-10)
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6,
                                                   abs=1e-10)


def test_exact_value_anchoring():
    for n in range(1, 21):
        for i in range(1, 11):
            a = i / 10
            exact = float(hurwitz_zeta_exact_at_nonpositive_integer(
                n, F(a)))
            assert hurwitz_zeta(1 - n, a) == pytest.approx(exact, abs=1e-10)


def test_riemann_special_values():
    assert riemann_zeta(-2.0) == pytest.approx(0.0, abs=1e-10)
    assert riemann_zeta(0.0) == pytest.approx(-0.5, abs=1e-10)
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)


def test_pole_rejected():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)


def test_shift_validation():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            check_shift(bad)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.1)


def test_series_agreement():
    for sigma in (1.5, 2.0, 3.0, 6.0):
        for i in range(1, 11):
            a = i / 10
            assert hurwitz_zeta(sigma, a, TIGHT) == pytest.approx(
                direct_series(sigma, a), abs=1e-10)


def test_half_shift_identity_spot():
    for sigma in (-6.5, -2.5, 0.5, 3.25):
        lhs = hurwitz_zeta(sigma, 0.5, TIGHT)
        rhs = (2 ** sigma - 1) * hurwitz_zeta(sigma, 1.0, TIGHT)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_accuracy_failure_reports_bound():
    params = EvalParams(target_abs_error=1e-60)
    with pytest.raises(AccuracyError) as exc:
        hurwitz_zeta(0.5, 0.9, params)
    assert exc.value.achieved_bound > 1e-60


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_target_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        EvalParams(target_abs_error=tol)


def test_correction_order_stays_within_exact_bernoulli_numbers():
    # the loop's remainder bound reads B_(2k+2) for k up to the cap
    assert 2 * hurwitz_module.MAX_CORRECTION_ORDER + 2 <= RATIONAL_CAP


def test_error_bound_monotone_in_correction_order():
    bounds = [hurwitz_module._em_mpf(-3.7, 0.3, 25, k, 1e-12)[1]
              for k in range(6, 17)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_error_bound_monotone_in_cutoff():
    bounds = [hurwitz_module._em_mpf(-3.7, 0.3, m, 12, 1e-12)[1]
              for m in (25, 30, 40, 60)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_exact_termination_at_nonpositive_integers():
    # the correction series terminates, so the reported bound collapses
    res = hurwitz_zeta_detailed(-5.0, 0.7)
    assert res.error_bound == 0.0


def _mp_zeta(sigma, a):
    with mpmath.workdps(40):
        return float(mpmath.zeta(mpmath.mpf(sigma), mpmath.mpf(a)))


def test_evaluator_path_routing():
    def path(sigma, params=EvalParams()):
        return hurwitz_zeta_detailed(sigma, 0.37, params).path
    assert path(-2.5) == "float-em"
    assert path(-7.5) == "fourier"
    assert path(-5.0) == "exact"
    assert path(-2.5, EvalParams(target_abs_error=1e-12)) == "mpf-em"
    assert path(FOURIER_CROSSOVER) == "float-em"
    # past sigma = -21 float rounding alone would exceed half the target
    assert path(-25.5) == "mpf-em"


def test_fourier_against_mpmath():
    rng = random.Random(20161025)
    target = EvalParams().target_abs_error
    points = [(rng.uniform(-21.0, -3.0), rng.uniform(0.0, 1.0) or 1.0)
              for _ in range(150)]
    points += [(rng.uniform(-21.0, -3.0), 1.0) for _ in range(30)]
    points += [(-3.0 - 1e-9, 0.5), (-20.999, 0.01), (-4.5, 1e-9)]
    for sigma, a in points:
        res = hurwitz_zeta_detailed(sigma, a)
        assert res.path == "fourier"
        err = abs(res.value - _mp_zeta(sigma, a))
        assert err <= res.error_bound <= target, (sigma, a, err)


def _mp_error(value, sigma, a):
    """|value - zeta(sigma, a)|, the difference taken at 40 digits."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value)
                         - mpmath.zeta(mpmath.mpf(sigma), mpmath.mpf(a))))


def test_float_em_against_mpmath():
    # the bound covers float rounding as well as truncation
    rng = random.Random(20161027)
    target = EvalParams().target_abs_error
    points = [(rng.uniform(-3.0, 1.0), a)
              for a in (1.0, 0.5, 0.01) for _ in range(80)]
    points += [(rng.uniform(-3.0, 1.0), rng.uniform(0.01, 1.0))
               for _ in range(80)]
    # the largest rounding bounds, about 7.2e-11: head sum and integral
    # term near 4.4e4 each at sigma = -3, a near 1
    points += [(-3.0, 1.0), (-3.0, 0.999), (-3.0 + 1e-13, 0.9999695868408576)]
    # truncation alone was bounded by 9.99e-11 here when rounding was left
    # out; rounding took the error to 1.017e-10, past the target
    points.append((-1.9937549988012389, 0.09755214690691605))
    for sigma, a in points:
        res = hurwitz_zeta_detailed(sigma, a)
        assert res.path == "float-em", (sigma, a)
        err = _mp_error(res.value, sigma, a)
        assert err <= res.error_bound <= target, (sigma, a, err)


def test_float_em_route_kept_at_default_target():
    # every point of the scanned range [-3, 0.99] with a >= 0.01 passes
    # the guard and stays on float-em with rounding in its bound.  (Nearer
    # the pole at 1, where |zeta| passes about 2e4, float rounding alone
    # exceeds 1e-10 and mpf-em serves.)
    rng = random.Random(20161028)
    points = [(rng.uniform(-3.0, 0.99), rng.uniform(0.01, 1.0))
              for _ in range(1500)]
    points += [(rng.uniform(-3.0, 0.99), a)
               for a in (1.0, 0.5, 0.01) for _ in range(100)]
    points += [(-3.0 + 10.0 ** -rng.uniform(1.0, 15.0),
                1.0 - 10.0 ** -rng.uniform(1.0, 15.0)) for _ in range(300)]
    points += [(-3.0, 1.0), (0.99, 0.01)]
    for sigma, a in points:
        assert hurwitz_zeta_detailed(sigma, a).path == "float-em", (sigma, a)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 2e-11, 1e-12, 1e-14])
def test_float_em_rounding_moves_to_mpf_em(tol):
    # where float rounding leaves too little of a target for truncation,
    # the call moves to mpf-em instead of failing
    params = EvalParams(target_abs_error=tol)
    rng = random.Random(20161029)
    for _ in range(40):
        sigma, a = rng.uniform(-3.0, 0.99), rng.uniform(0.01, 1.0)
        res = hurwitz_zeta_detailed(sigma, a, params)
        assert res.path in ("float-em", "mpf-em")
        if res.path == "float-em":
            assert _mp_error(res.value, sigma, a) <= res.error_bound <= tol


def test_float_em_rounding_over_target_moves_to_mpf_em():
    # the float rounding bound, 3.2e-11, exceeds a 2e-11 target
    sigma, a = -2.75, 0.5
    params = EvalParams(target_abs_error=2e-11)
    assert hurwitz_zeta_detailed(sigma, a).path == "float-em"
    res = hurwitz_zeta_detailed(sigma, a, params)
    assert res.path == "mpf-em"
    assert _mp_error(res.value, sigma, a) <= res.error_bound <= 2e-11


def test_float_em_miss_below_crossover():
    # float Euler-Maclaurin missed the 1e-10 target here by 2.6x
    sigma, a = -3.4807649152658082, 0.9493694307689811
    assert abs(hurwitz_zeta(sigma, a) - _mp_zeta(sigma, a)) <= 1e-10


def test_continuity_across_crossover():
    for a in (0.05, 0.37, 0.5, 0.93, 1.0):
        at = float(hurwitz_zeta_exact_at_nonpositive_integer(4, F(a)))
        for delta in (1e-12, 1e-9, 1e-6):
            below = hurwitz_zeta_detailed(FOURIER_CROSSOVER - delta, a)
            above = hurwitz_zeta_detailed(FOURIER_CROSSOVER + delta, a)
            assert (below.path, above.path) == ("fourier", "float-em")
            # |zeta'| < 0.1 on this neighbourhood for 0 < a <= 1
            slack = 0.1 * delta
            assert abs(below.value - at) <= below.error_bound + slack
            assert abs(above.value - at) <= 1e-10 + slack


def test_fourier_term_cap():
    # the Fourier series needs 16650 and 17244 terms at this target, over
    # MAX_CUTOFF, so Euler-Maclaurin serves (float rounding passes the
    # target, so in guarded mpmath).  The value is checked against mpmath,
    # not against the reported bound, which leaves out mpf-em's final
    # rounding to a float
    target = 1e-15
    for sigma in (-3.01, -3.0001):
        result = hurwitz_zeta_detailed(sigma, 0.3, EvalParams(target))
        assert result.path == "mpf-em"
        assert abs(result.value - _mp_zeta(sigma, 0.3)) <= target, sigma


def test_fourier_term_count_overflow_is_accuracy_error():
    # the Fourier term count's root overflows a float at this target; float
    # rounding passes it anyway, so Euler-Maclaurin serves and fails
    with pytest.raises(AccuracyError) as exc:
        hurwitz_zeta(-100.5, 0.3, EvalParams(target_abs_error=1e-300))
    assert exc.value.achieved_bound == math.inf


@pytest.mark.parametrize("sigma", [-math.inf, math.inf, math.nan])
def test_non_finite_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        hurwitz_zeta_detailed(sigma, 0.3)


@pytest.mark.parametrize("sigma", [1e308, -1e6, -150.5])
def test_guard_peak_overflow_is_accuracy_error(sigma, monkeypatch):
    # (M + a)^-sigma or a^-sigma overflows a float: no mpmath work is tried
    def no_mpmath(*args):
        raise AssertionError("guarded mpmath reached")
    monkeypatch.setattr(hurwitz_module, "_em_mpf", no_mpmath)
    with pytest.raises(AccuracyError) as exc:
        hurwitz_zeta_detailed(sigma, 0.3)
    assert exc.value.achieved_bound == math.inf


# --------------------------------------------------------- reused evaluator

def _assert_reused_matches_scalar(sigmas, a, params=EvalParams()):
    """One Evaluator called across sigmas equals fresh scalar calls bit for
    bit, or raises what the scalar loop raises first."""
    ev = Evaluator(a, params)
    try:
        expected = [hurwitz_zeta_detailed(s, a, params) for s in sigmas]
    except (AccuracyError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            for s in sigmas:
                ev(s)
        assert str(got.value) == str(exc)
        if isinstance(exc, AccuracyError):
            assert got.value.achieved_bound == exc.achieved_bound
        return None
    results = [ev(s) for s in sigmas]
    assert [(v.hex(), b.hex(), p) for v, b, p in results] == [
        (r.value.hex(), r.error_bound.hex(), r.path) for r in expected]
    return {r.path for r in expected}


@pytest.mark.parametrize("sigma, a, path, value, bound", [
    (-2.5, 0.37, "float-em",
     "-0x1.4a36461c5ddefp-7", "0x1.eb31d846937c1p-36"),
    (0.5, 0.9, "float-em",
     "-0x1.5306baf2c1959p+0", "0x1.d74718c1fd2c2p-35"),
    (30.0, 1.0, "float-em",
     "0x1.0000000400016p+0", "0x1.0400000410017p-47"),
    (-7.5, 0.37, "fourier",
     "0x1.1c7122d1be607p-13", "0x1.78cc08325c505p-35"),
    (-25.5, 0.37, "mpf-em",
     "-0x1.b3cf24a1884d9p+11", "0x1.716dc9385c899p-43"),
    (0.9, 1e-6, "mpf-em",
     "0x1.ea959b44be285p+17", "0x1.2292c4968add8p-34"),
    (-5.0, 0.7, "exact", "0x1.47be9745f137fp-10", "0x0.0p+0"),
])
def test_values_frozen_bit_for_bit(sigma, a, path, value, bound):
    # sweep output is byte-identical across evaluator refactors only while
    # every rounding step stays the same
    res = hurwitz_zeta_detailed(sigma, a)
    assert (res.path, res.value.hex(), res.error_bound.hex()) == (
        path, value, bound)


def test_many_bit_identical_to_scalar():
    rng = random.Random(20161026)
    special = ([float(n) for n in range(-29, -3)]
               + [-3.0, -3.0 - 1e-12, -3.0 + 1e-12, -21.5, -25.5, -29.9])
    paths = set()
    for a in (1.0, 0.5, 1e-6, 0.37, rng.uniform(0.0, 1.0) or 1.0):
        sigmas = [rng.uniform(-30.0, 1.0) for _ in range(200)] + special
        sigmas += [rng.uniform(0.0, 1.0) for _ in range(10)]
        rng.shuffle(sigmas)  # Fourier term counts rise and fall
        paths |= _assert_reused_matches_scalar(sigmas, a)
    # mpf-em serves sigma < -21 and, with a = 1e-6, sigma > 0
    assert paths == {"float-em", "mpf-em", "fourier", "exact"}
    # float-em head lengths 20, 21, 22 in one grid
    assert _assert_reused_matches_scalar([0.5, 10.5, 11.5, 0.5], 1.0) == {
        "float-em"}
    # a tighter target moves float-em points to mpf-em
    assert "mpf-em" in _assert_reused_matches_scalar([0.5, -2.5, -7.5], 0.3,
                                                     TIGHT)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30.0, 0.999), min_size=1, max_size=40),
       st.floats(1e-9, 1.0))
def test_many_matches_scalar_random(sigmas, a):
    _assert_reused_matches_scalar(sigmas, a)


def test_many_raises_at_first_failing_sigma():
    # exact points pass at any target; the first inexact one fails
    params = EvalParams(target_abs_error=1e-60)
    sigmas = [-5.0, -8.0, -7.5, 0.5, -2.5]
    ev = Evaluator(0.3, params)
    with pytest.raises(AccuracyError, match="sigma=-7.5,"):
        for sigma in sigmas:
            ev(sigma)
    _assert_reused_matches_scalar(sigmas, 0.3, params)
    _assert_reused_matches_scalar([-2.5, 0.5], 0.3, params)
    _assert_reused_matches_scalar([-2.5, math.nan, -1e6], 0.3)
    _assert_reused_matches_scalar([-2.5, -1e6, math.nan], 0.3)
    assert _assert_reused_matches_scalar([], 0.3) == set()


# ------------------------------------------------------------- sign scan

def _signs(sigmas, a, params=EvalParams()):
    ev = Evaluator(a, params)
    return [ev.sign(s) for s in sigmas]


def _assert_signs_match_scalar(sigmas, a, params=EvalParams()):
    """One Evaluator's `sign` across sigmas equals the signs of fresh scalar
    values, or raises what the scalar loop raises first."""
    try:
        values = [hurwitz_zeta(s, a, params) for s in sigmas]
    except (AccuracyError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            _signs(sigmas, a, params)
        assert str(got.value) == str(exc)
        if isinstance(exc, AccuracyError):
            assert got.value.achieved_bound == exc.achieved_bound
        return
    assert _signs(sigmas, a, params) == [
        (v > 0.0) - (v < 0.0) for v in values]


def _strip_grid(N, points):
    return [-N - 1 + (i + 0.5) / points for i in range(points)]


def _count_full_calls(monkeypatch):
    # every full value, the public call's and `sign`'s, goes through
    # `__call__`
    calls = [0]
    full = Evaluator.__call__

    def counted(self, sigma):
        calls[0] += 1
        return full(self, sigma)

    monkeypatch.setattr(Evaluator, "__call__", counted)
    return calls


def test_signs_match_many_on_strip_grids():
    rng = random.Random(5)
    for a in (1.0, 0.5, 1e-6, 1e-300, rng.uniform(0.0, 1.0) or 1.0):
        for N in range(3, 31):
            # guarded mpmath serves N >= 21 in both: fewer points suffice
            points = 200 if N < 21 else 6
            _assert_signs_match_scalar(
                sorted(rng.uniform(-N - 1, -N) for _ in range(points)), a)


def test_signs_match_many_packed_around_zeros(monkeypatch):
    # points 1e-12 apart straddle each zero: the loose sum cannot certify
    # them, so the full evaluator decides, and still agrees
    calls = _count_full_calls(monkeypatch)
    for N, a in ((-1, 0.3), (0, 0.1), (0, 0.7), (1, 0.3), (2, 0.6),
                 (3, 0.3), (4, 0.1), (5, 0.9), (8, 0.7)):
        zeros = locate_zeros(N, a)
        assert zeros
        for z in zeros:
            calls[0] = 0
            sigmas = [z.sigma + i * 1e-12 for i in range(-20, 21)]
            _assert_signs_match_scalar(sigmas, a)
            assert calls[0] >= 2 * len(sigmas)  # sign's and the scalar's


def test_signs_match_many_off_the_fourier_path():
    rng = random.Random(7)
    sigmas = ([float(n) for n in range(-29, 0)]
              + [-3.0, -3.0 - 1e-12, -21.5, -25.5, -29.9, 0.5, 2.0]
              + [rng.uniform(-30.0, 1.0) for _ in range(100)])
    rng.shuffle(sigmas)
    for a in (1.0, 0.37, 1e-6):
        _assert_signs_match_scalar(sigmas, a)
        # a target at or above the loose one evaluates every point in full
        _assert_signs_match_scalar(sigmas, a,
                                   EvalParams(target_abs_error=1e-3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30.0, 0.999), min_size=1, max_size=40),
       st.floats(1e-9, 1.0))
def test_signs_match_many_random(sigmas, a):
    _assert_signs_match_scalar(sigmas, a)


def test_signs_raise_where_many_raises():
    # the full call fails at 1e-60 (no float sum reaches it), from the
    # point named on; the loose sums still certify every sign
    sigmas = [-5.0, -8.0, -7.5, 0.5, -2.5]
    params = EvalParams(target_abs_error=1e-60)
    ev = Evaluator(0.3, params)
    with pytest.raises(AccuracyError, match="sigma=-7.5,"):
        for sigma in sigmas:
            ev(sigma)
    assert _signs(sigmas, 0.3, params) == [
        (z > 0.0) - (z < 0.0) for z in (_mp_zeta(s, 0.3) for s in sigmas)]
    _assert_signs_match_scalar([-2.5, math.nan, -1e6], 0.3)
    _assert_signs_match_scalar([-7.5, -1e6, math.nan], 0.3)
    _assert_signs_match_scalar([-7.5, 1.0], 0.3)
    assert _signs([], 0.3) == []


def test_signs_below_sigma_21_match_mpmath(monkeypatch):
    # guarded mpmath serves these points in full, and from N = 45 on fails;
    # the loose Fourier sum certifies every sign.  mpmath.zeta takes a
    # rational a = p/q through its reflection formula, which keeps it fast;
    # the evaluator gets the float nearest p/q.
    calls = _count_full_calls(monkeypatch)
    rng = random.Random(20161030)
    for _ in range(120):
        N, q = rng.randint(21, 90), rng.randint(2, 24)
        p = rng.randint(1, q)
        sigma = rng.uniform(-N - 1, -N)
        with mpmath.workdps(40):
            z = mpmath.zeta(mpmath.mpf(sigma), (p, q))
        assert Evaluator(p / q).sign(sigma) == mpmath.sign(z), (sigma, p, q)
    assert calls[0] == 0


def test_signs_match_scalar_packed_around_zeros_below_sigma_21():
    # within about 1e-11 of these zeros the loose Fourier sum, off by up to
    # 1e-8, cannot certify a sign, so guarded mpmath decides
    for N, a in ((21, 0.35), (21, 0.46), (22, 0.7)):
        zeros = locate_zeros(N, a, params=EvalParams(1e-13))
        assert zeros
        for z in zeros:
            _assert_signs_match_scalar(
                [z.sigma + i * 1e-12 for i in range(-20, 21)], a)


def test_signs_take_the_cheap_path(monkeypatch):
    calls = _count_full_calls(monkeypatch)
    rng = random.Random(3)
    for _ in range(10):
        a = rng.uniform(0.0, 1.0) or 1.0
        for N in range(-1, 4):  # float-em strips, then the Fourier series
            calls[0] = 0
            _signs(_strip_grid(N, 512), a)
            assert calls[0] <= 5, (N, a)


def test_signs_match_scalar_on_float_em_grids():
    # scan grids of the float-em strips, with a seeded number of points
    rng = random.Random(11)
    for a in (1.0, 0.5, 0.01, 1e-6, rng.uniform(0.0, 1.0) or 1.0):
        for N in range(-1, 3):
            _assert_signs_match_scalar(
                scan_grid(N, rng.randrange(64, 513), 1e-10), a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 0.999), min_size=1, max_size=40),
       st.floats(1e-9, 1.0))
def test_signs_match_scalar_on_float_em_random(sigmas, a):
    _assert_signs_match_scalar(sigmas, a)


def _ball_radius(sigma, a, margin):
    """`Evaluator(a)._ball_radius` at sigma, forward, with its loose sum's
    sign."""
    ev = Evaluator(a)
    val, _ = ev._em_float(sigma, SIGN_HEAD_TERMS, SIGN_SCAN_TARGET)
    return ev._ball_radius(sigma, 1 if val > 0.0 else -1, margin)


def _loose_sum_evaluator(a):
    """`Evaluator(a)` without its pole rung, so that `_loose_sign` takes
    the loose sum and its ball on all of [-3, 1)."""
    ev = Evaluator(a)
    ev._pole_reach = 0.0
    return ev


def _hurwitz_radius(sigma, margin):
    """Hurwitz's forward ball alone, as `_ball_radius` takes it."""
    r1 = min(-0.5 * sigma, margin / _fourier_slope(sigma, 0.0))
    return min(r1, margin / _fourier_slope(sigma, r1))


def _assert_ball_holds(sigma, a, points):
    """`_loose_sign(sigma)` returns (sign, r) when its loose sum certifies;
    every one of `points` points across the ball [sigma, sigma + r] has, at
    30 digits, |zeta| > target and that sign, the sign a scan takes there
    without a sum.  Returns whether a ball was returned."""
    loose = _loose_sum_evaluator(a)._loose_sign(sigma)
    if loose is None:  # the loose sum did not certify
        return False
    ball_sign, radius = loose
    sign = Evaluator(a).sign(sigma)
    # the ball stays halfway to the pole, inside the slope bounds' range
    assert ball_sign == sign and 0.0 <= radius <= (1.0 - sigma) / 2.0
    target = EvalParams().target_abs_error
    with mpmath.workdps(30):
        for i in range(points):
            z = mpmath.zeta(mpmath.mpf(sigma + radius * i / (points - 1)),
                            mpmath.mpf(a))
            assert abs(z) > target and mpmath.sign(z) == sign, (sigma, a, i)
    return True


def test_exclusion_balls_hold_against_mpmath():
    rng = random.Random(1234)
    balls = 0
    while balls < 40:
        balls += _assert_ball_holds(rng.uniform(-3.0, 0.0),
                                    rng.uniform(0.0, 1.0) or 1.0, 5)


def test_em_exclusion_balls_hold_against_mpmath():
    # balls from the Euler-Maclaurin slope bound, on [-3, 1): both sides of
    # sigma = 0, next to the pole, and below -1, where the Fourier series'
    # ball is often the larger
    rng = random.Random(4321)
    for a in (0.01, 0.45, 0.5, 1.0, rng.uniform(0.0, 1.0) or 1.0):
        balls = 0
        while balls < 12:
            sigma = (rng.uniform(0.95, 1.0) if balls % 4 == 0
                     else rng.uniform(-3.0, 1.0))
            if -3.0 <= sigma < 1.0:
                balls += _assert_ball_holds(sigma, a, 9)


def test_exclusion_slope_bound_covers_the_derivative():
    # the helper's pref * L1(s) is at least pref * ((pi/2) zeta(s) -
    # zeta'(s)) >= pref * |S'(s)|, for every a, at s >= 1.3
    rng = random.Random(77)
    for s in [1.3, 4.0] + [rng.uniform(1.3, 4.0) for _ in range(30)]:
        sigma = 1.0 - s
        with mpmath.workdps(30):
            s_mp = 1 - mpmath.mpf(sigma)
            pref = 2 * mpmath.gamma(s_mp) / (2 * mpmath.pi) ** s_mp
            slope = (mpmath.pi / 2 * mpmath.zeta(s_mp)
                     - mpmath.zeta(s_mp, 1, 1))
            assert _fourier_slope(sigma, 0.0) >= pref * slope, s


def test_prefactor_rises_with_sigma_on_float_em_strips():
    # pref = 2 Gamma(s)/(2 pi)^s falls in s while psi(s) < ln 2 pi; psi
    # rises, so s <= 4 (sigma >= -3) suffices, which a ball's lower bound
    # on |zeta| takes for granted
    assert mpmath.digamma(4) < mpmath.log(2 * mpmath.pi)


def _assert_radius_bounds(sigma, a, margin):
    """On [-3, 0) both slope bounds serve and the larger ball stands: the
    forward radius is at least Hurwitz's, finite, and at most halfway to
    the pole."""
    radius = _ball_radius(sigma, a, margin)
    assert _hurwitz_radius(sigma, margin) <= radius < math.inf, (
        sigma, a, margin)
    assert radius <= (1.0 - sigma) / 2.0, (sigma, a, margin)


@pytest.mark.parametrize("sigma", [-5e-324, -1e-17, -3.0])
def test_exclusion_radius_at_strip_ends_is_finite(sigma):
    # the ends of N = 0..2
    for a in (1e-300, 0.3, 1.0):
        for margin in (5e-324, 1e-10, 1.0):
            _assert_radius_bounds(sigma, a, margin)


def test_exclusion_radius_inside_strips_is_at_least_hurwitz():
    # 200 seeded points of [-3, 0) x (0, 1] and three margins; a radius
    # from the Euler-Maclaurin bound alone, without the max, fails here
    rng = random.Random(2024)
    for _ in range(200):
        _assert_radius_bounds(-3.0 * (1.0 - rng.random()), 1.0 - rng.random(),
                              rng.choice((1e-10, 1e-4, 1e-1)))


#: The zeros of zeta(., a) on the strips N = -1..2, each with a sign change
#: of `mpmath.zeta` at 30 digits within 1e-12 of it (`mpmath.findroot`
#: from a scan): the ball tests place points next to them without locating
#: them with the evaluator under test.
_EM_ZEROS = {
    1e-300: (-0.001006109709292148,),
    1e-6: (-0.057787411479888424,),
    0.01: (0.9895692295389451, -0.23623858907326395, -2.052502495748431),
    0.1: (0.8732677483264984, -0.6222024028586, -2.449581311167601),
    0.14533616183328069: (0.8024000252338879, -0.778527397219046,
                          -2.6311539756477558),
    0.3: (0.5059538447012722, -1.2979485679044103),
    0.5: (),
    0.6: (-0.30738557642821457, -2.3726532676436864),
    0.77: (-0.9241493255991118,),
    1.0: (),
}


def _em_zeros(a):
    """The zeros of zeta(., a) on N = -1..2 (`_EM_ZEROS`)."""
    return _EM_ZEROS[a]


def _em_ball_cases():
    """(sigma, a) where `Evaluator(a)._loose_sign` may return a ball from
    the Euler-Maclaurin bound: a in {1e-300, 1e-6, 0.01, 0.5, 1, seeded},
    sigma next to the pole (1 - 10^-k), next to -1, -2 and -3, next to a
    zero of N = -1..2 (closing in on it from either side) and spread over
    [-3, 1)."""
    rng = random.Random(79)
    cases = []
    for a in (1e-300, 1e-6, 0.01, 0.5, 1.0, rng.uniform(0.0, 1.0) or 1.0):
        sigmas = [1.0 - 10.0 ** -k for k in (1, 2, 3, 4)]
        sigmas += [-1.0 + 10.0 ** -k for k in (1, 3, 9)]
        sigmas += [rng.uniform(-1.0, 1.0) for _ in range(4)]
        sigmas += [0.01 * k for k in range(-8, 5)]  # a -> 0 certifies here
        sigmas += [n + 10.0 ** -k for n in (-2.0, -3.0) for k in (1, 3, 9)]
        sigmas += [-1.0 - 1e-3, -2.0 - 1e-3, -3.0]
        sigmas += [rng.uniform(-3.0, -1.0) for _ in range(2)]
        for z in _em_zeros(a):
            sigmas += [z + d for d in (-1e-1, -1e-2, -1e-3, 1e-3, 1e-2)]
        cases += [(s, a) for s in sigmas if -3.0 <= s < 1.0]
    return cases


def _em_ball(sigma, a):
    """(sign, margin, radius) of the ball `_loose_sign(sigma)` returns from
    its loose sum, or None where that sum does not certify."""
    ev = _loose_sum_evaluator(a)
    val, bound = ev._em_float(sigma, SIGN_HEAD_TERMS, SIGN_SCAN_TARGET)
    loose = ev._loose_sign(sigma)
    if loose is None:
        return None
    sgn, radius = loose
    assert sgn == (1 if val > 0.0 else -1)
    assert 0.0 <= radius <= (1.0 - sigma) / 2.0
    margin = (abs(val) - bound - EvalParams().target_abs_error
              - 2.0 * _EPS * abs(val))
    return sgn, margin, radius


@lru_cache(maxsize=4096)
def _mp_zeta30(y, a):
    """zeta(y, a) at 30 digits, y an mpf; a ball's centre is often also
    its first point, and one centre may have two balls."""
    with mpmath.workdps(30):
        return mpmath.zeta(y, mpmath.mpf(a))


def _assert_keeps_sign(sigma, a, sgn, margin, lo, hi,
                       target=EvalParams().target_abs_error, points=10):
    """sgn zeta(y) >= sgn zeta(sigma) - margin > target at `points` points
    across [lo, hi] (its ends included), at 30 digits: a ball's claim."""
    with mpmath.workdps(30):
        start = sgn * _mp_zeta30(mpmath.mpf(sigma), a)
        for i in range(points):
            y = (mpmath.mpf(lo)
                 + (mpmath.mpf(hi) - mpmath.mpf(lo)) * i / (points - 1))
            z = sgn * _mp_zeta30(y, a)
            assert z >= start - margin and z > target, (sigma, a, lo, hi, i)


def test_em_ball_keeps_its_sign_within_its_margin():
    # the loose sums' forward balls, the walk's, on all of [-3, 1)
    balls = 0
    for sigma, a in _em_ball_cases():
        ball = _em_ball(sigma, a)
        if ball is not None:
            sgn, margin, radius = ball
            balls += 1
            _assert_keeps_sign(sigma, a, sgn, margin, sigma, sigma + radius)
    assert balls >= 180


def test_bracket_balls_keep_their_sign_on_both_halves():
    # a bisection's balls, from loose sums and from full values, each
    # two-sided inside its bracket [sigma - h, sigma + h] (h a 512-point
    # grid step): next to zeros of N = -1..2, on both sides of each
    target = EvalParams().target_abs_error
    h = 1.0 / 511.0
    balls = 0
    for a in (1e-6, 0.01, 0.1, 0.3, 0.6, 0.77):
        for z in _em_zeros(a):
            for d in (-1e-3, -1e-5, -1e-7, 1e-7, 1e-5, 1e-3):
                sigma = z + d
                lo, hi = max(-3.0, sigma - h), min(sigma + h, 1.0 - 1e-9)
                ev = _loose_sum_evaluator(a)
                bounds = ev._bracket_bounds(lo, hi)
                found = [(ev._value_sign(sigma, bounds), ev(sigma)[:2])]
                loose = ev._loose_sign(sigma, bounds)
                if loose is not None:
                    found.append((loose, ev._em_float(
                        sigma, SIGN_HEAD_TERMS, SIGN_SCAN_TARGET)))
                for (sgn, radius), (val, bound) in found:
                    margin = (abs(val) - bound - target
                              - 2.0 * _EPS * abs(val))
                    assert radius == 0.0 or margin > 0.0
                    if radius:
                        balls += 1
                        _assert_keeps_sign(sigma, a, sgn, margin,
                                           max(lo, sigma - radius),
                                           min(hi, sigma + radius))
    assert balls >= 100


#: A target tighter than float Euler-Maclaurin reaches on most of N = -1..2,
#: so that guarded mpmath serves the full values next to a zero.
_MPF_EM_TARGET = EvalParams(1e-15)


def test_mpf_em_balls_keep_their_sign():
    # a certified `mpf-em` value gives a ball like a `float-em` one: its
    # radius depends on sigma and the margin alone.  Forward and two-sided
    # inside a bisection's bracket [sigma - h, sigma + h], next to zeros of
    # N = -1..2 on both sides of each
    target = _MPF_EM_TARGET.target_abs_error
    h = 1.0 / 511.0
    balls = 0
    for a in (0.1, 0.3, 0.6, 0.77):
        for z in _em_zeros(a):
            for d in (-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2):
                sigma = z + d
                ev = Evaluator(a, _MPF_EM_TARGET)
                val, bound, path = ev(sigma)
                if path != "mpf-em":
                    continue
                margin = abs(val) - bound - target - 2.0 * _EPS * abs(val)
                assert margin > 0.0, (sigma, a)
                lo, hi = max(-3.0, sigma - h), min(sigma + h, 1.0 - 1e-9)
                # each ball with the span it is clipped to
                for (sgn, radius), left, right in (
                        (ev._value_sign(sigma), sigma, math.inf),
                        (ev._value_sign(sigma, ev._bracket_bounds(lo, hi)),
                         lo, hi)):
                    assert radius > 0.0, (sigma, a, left, right)
                    balls += 1
                    _assert_keeps_sign(sigma, a, sgn, margin,
                                       max(left, sigma - radius),
                                       min(right, sigma + radius),
                                       target, points=5)
    assert balls >= 90


def test_tight_target_sweep_caps_its_mpf_em_calls(monkeypatch):
    # the 1e-15 sweep of N = -1..2 over a = 0.05..0.95: each certified
    # `mpf-em` value leaves a ball, so later grid points and bisection
    # steps inside it need no guarded-mpmath sum.  With no balls from
    # `mpf-em` values the sweep made 1361 calls; it makes 425
    calls = [0]
    em_mpf = hurwitz_module._em_mpf

    def counted(*args):
        calls[0] += 1
        return em_mpf(*args)

    monkeypatch.setattr(hurwitz_module, "_em_mpf", counted)
    report = verify_theorem([0.05 * k for k in range(1, 20)], -1, 2,
                            params=_MPF_EM_TARGET)
    assert report.n_disagree == 0
    assert 0 < calls[0] <= 450


def test_a_margin_inside_the_rounding_term_certifies_nothing(monkeypatch):
    # a loose sum whose bound leaves |v| - b - target = eps |v|: it clears
    # the target but not its own rounding 2 eps |v|.  Testing the margin
    # before subtracting the rounding term gave the ball (-1, -1.5e-17) at
    # (-2.5, 0.6), and the walk below then revisited -2.5 without end
    target = EvalParams().target_abs_error
    em_float = Evaluator._em_float
    loose_sign = Evaluator._loose_sign
    value_sign = Evaluator._value_sign
    injected, balls, visits = set(), [], []

    def squeezed(self, sigma, M, target_):
        val, bound = em_float(self, sigma, M, target_)
        if (sigma, self.a) in injected and M == SIGN_HEAD_TERMS:
            bound = abs(val) - target - _EPS * abs(val)
            assert bound > 0.0
        return val, bound

    def counted(sign):
        def wrapped(self, sigma, *args):
            visits.append(sigma)
            if len(visits) > 1000:
                raise RuntimeError("the walk revisits a grid point")
            got = sign(self, sigma, *args)
            if got is not None:
                balls.append(got)
            return got
        return wrapped

    monkeypatch.setattr(Evaluator, "_em_float", squeezed)
    monkeypatch.setattr(Evaluator, "_loose_sign", counted(loose_sign))
    monkeypatch.setattr(Evaluator, "_value_sign", counted(value_sign))
    for sigma, a in ((-2.5, 0.6), (-0.5, 0.3)):
        injected.add((sigma, a))
        assert Evaluator(a)._loose_sign(sigma) is None
    visits.clear()
    Evaluator(0.6).sign_changes(-2.75, 0.25, 3)
    assert -2.5 in visits
    assert balls and all(r >= 0.0 for _, r in balls)


def _mp_slope_bounds(lo, hi, a, k):
    """(rho, P2) of `_slope_bounds` on [lo, hi] for k corrections, from
    its docstring's formulas at 30 digits, each factor at its worse end."""
    lo, hi, a = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(a)
    q = 1 + a
    lq = mpmath.log(q)
    m = [max(abs(lo + i), abs(hi + i)) for i in range(2 * k + 1)]
    # bounds on |(s)_n|, |(s)_n'| and |(s)_n''|/2, from n = 3 on: the
    # coefficients of t^0..t^2 in a product of (m_i + t)
    s, sd = m[0] * m[1] * m[2], m[0] * m[1] + (m[0] + m[1]) * m[2]
    sd2 = 3 * m[1]
    corr = lq ** 2 / 2 + lq * (2 + m[0] * lq) / (12 * q)
    for j in range(2, k + 1):
        corr += (abs(mpmath.bernoulli(2 * j)) / mpmath.factorial(2 * j)
                 * q ** (1 - 2 * j) * (2 * sd2 + 2 * sd * lq + s * lq ** 2))
        for mi in m[2 * j - 1:2 * j + 1]:
            s, sd, sd2 = s * mi, sd * mi + s, sd2 * mi + sd
    b, e = lo + 2 * k, 1 - hi
    w = max(abs((1 - lo) * lq - 1), abs(e * lq - 1))
    n = 2 * k + 1
    rho = (2 * mpmath.zeta(n) / (2 * mpmath.pi) ** n * q ** (-lo - 2 * k)
           * (sd + s * (lq + 1 / b)) / b)
    p2 = (mpmath.log(a) ** 2 * a ** -hi
          + q ** (1 - lo) * (w ** 2 + 1) / e ** 3 + q ** -lo * corr)
    return rho, p2


def _em_slope(sigma, a, k):
    """P(sigma) of `Evaluator._ball_radius` at 30 digits, by
    differentiating the one-head-term form with k corrections."""
    a = mpmath.mpf(a)
    q = 1 + a

    def em_part(s):
        return (a ** -s + q ** (1 - s) / (s - 1) + q ** -s / 2
                + sum(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                      * mpmath.rf(s, 2 * j - 1) * q ** (-s - 2 * j + 1)
                      for j in range(1, k + 1)))

    return mpmath.diff(em_part, mpmath.mpf(sigma))


def test_em_ball_derivative_bound_holds():
    # for spans [sigma - t, sigma + t], t the forward ball's radius and the
    # cap min(1 - sigma, sigma + 4)/2, with the walk's 2 corrections and a
    # bisection's 4: the slope bounds the evaluator takes are at least the
    # docstring's (rho, P2) with each factor at its worse end, and
    # |zeta'(y) - P(sigma)| <= rho + |y - sigma| P2 there, at 30 digits,
    # where a ball forms (so |zeta| and a^-sigma stay well inside 30
    # digits)
    checked = 0
    for sigma, a in _em_ball_cases():
        ball = _em_ball(sigma, a)
        if ball is None:
            continue
        ev = Evaluator(a)
        for t in {ball[2], min(1.0 - sigma, sigma + 4.0) / 2.0}:
            lo, hi = sigma - t, sigma + t
            if hi >= 1.0:
                continue
            checked += 1
            with mpmath.workdps(30):
                steps = [mpmath.mpf(t) * (i - 4) / 4 for i in range(9)]
                slopes = [mpmath.zeta(sigma + dy, mpmath.mpf(a), 1)
                          for dy in steps]
            for k in (2, 4):
                if lo < -3.0:
                    rho = p2 = math.inf
                elif k == 4:
                    rho, p2 = ev._bracket_bounds(lo, hi)
                else:
                    rho, p2 = _slope_bounds(ev._consts(), lo, hi,
                                            (1.0 + a) ** -lo, a ** -hi, k)
                with mpmath.workdps(30):
                    mp_rho, mp_p2 = _mp_slope_bounds(lo, hi, a, k)
                    assert rho >= mp_rho and p2 >= mp_p2, (sigma, a, t, k)
                    p = _em_slope(sigma, a, k)
                    for i, (dy, slope) in enumerate(zip(steps, slopes)):
                        assert abs(slope - p) <= mp_rho + abs(dy) * mp_p2, (
                            sigma, a, t, k, i)
    assert checked >= 300


def test_bracket_ball_takes_the_four_correction_slope():
    # with rho = P2 = 0 a bisection's ball has radius margin/|P(sigma)|, up
    # to 1e-12 of its terms' sizes: P is the slope of the form with four
    # corrections, whose remainder the bracket's rho bounds
    rng = random.Random(31)
    for _ in range(60):
        sigma, a = rng.uniform(-3.0, 0.9), rng.uniform(0.01, 1.0)
        ev = Evaluator(a)
        radius = ev._ball_radius(sigma, 1, 1.0, (0.0, 0.0))
        with mpmath.workdps(30):
            p = abs(_em_slope(sigma, a, 4))
        assert abs(1 / mpmath.mpf(radius) - p) <= 1e-9 * (1 + p), (sigma, a)


@pytest.mark.parametrize("a", [1e-300, 1e-6, 0.3, 1.0])
def test_em_exclusion_radius_at_range_ends_is_finite(a):
    # both sides of -1 and -2, at -3, and next to the pole
    for sigma in (-3.0, -2.0 - 1e-9, -2.0, -1.0 - 1e-9, -1.0, -1.0 + 1e-9,
                  0.99, 1.0 - 1e-15):
        for margin in (5e-324, 1.0):
            radius = _ball_radius(sigma, a, margin)
            assert 0.0 <= radius < math.inf


@pytest.mark.parametrize("target", [1e-10, 1e3])
def test_pole_rung_holds_against_mpmath(target):
    # `_loose_sign`'s pole rung claims zeta < -target on [1 - d0, 1) with
    # no sum: checked at 30 digits from 1 - d0 to 1 - 1e-12, where `sign`
    # takes the rung's -1 and the full value has that sign too.  Next to
    # the pole zeta(s, a) = 1/(s - 1) - psi(a) + O(1 - s) and -psi(a) = 1/a
    # - psi(1 + a), so at 1 - s = d0 zeta is about -target - K - psi(1 +
    # a): K must cover -psi(1 + a), up to Euler's 0.577 as a -> 0.  At
    # target 1e3, d0 is about 1e-3, close enough to the pole for that to
    # decide: with K = 0, a = 0.0097 and 0.1 fail there
    rng = random.Random(97)
    params = EvalParams(target)
    for a in (0.0097, 0.01, 0.1, 0.5, 1.0,
              *(rng.uniform(0.0, 1.0) or 1.0 for _ in range(4))):
        ev = Evaluator(a, params)
        d0 = ev._pole_reach
        assert 0.0 < d0 < 0.63, a
        candidates = [1.0 - d0, math.nextafter(1.0 - d0, 1.0), 1.0 - 1e-12]
        candidates += [1.0 - d0 * t for t in (0.999, 0.9, 0.5, 0.1, 1e-3)]
        candidates += [1.0 - d0 * rng.random() for _ in range(3)]
        sigmas = [x for x in candidates if 0.0 < 1.0 - x <= d0]
        assert len(sigmas) >= 9, a
        for sigma in sigmas:
            # forward: up to the pole, short of it by 1e-12 of the distance
            assert ev._loose_sign(sigma) == (
                -1, (1.0 - 1e-12) * (1.0 - sigma)), (a, sigma)
            # two-sided, in a bisection's span: down to 1 - d0
            assert ev._loose_sign(sigma, (0.0, 0.0)) == (
                -1, d0 - (1.0 - sigma)), (a, sigma)
            assert ev.sign(sigma) == -1 and ev._value_sign(sigma)[0] == -1
            with mpmath.workdps(30):
                z = mpmath.zeta(mpmath.mpf(sigma), mpmath.mpf(a))
            assert z < -target, (a, sigma, z)


# ------------------------------------------------------------------ gamma

def test_gamma_real_values():
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_real(-0.5) == pytest.approx(-2 * math.sqrt(math.pi),
                                             rel=1e-13)
    assert gamma_real(5.0) == 24.0
    with pytest.raises(ValueError):
        gamma_real(0.0)
    with pytest.raises(ValueError):
        gamma_real(-3.0)


def test_gamma_sign_examples():
    assert gamma_sign(-0.5) == -1
    assert gamma_sign(-1.5) == 1
    assert gamma_sign(-4.5) == -1


def test_gamma_sign_matches_reflection():
    for sigma in (-0.3, -1.2, -2.8, -3.5, -6.7, -9.1):
        assert gamma_sign(sigma) == math.copysign(1, gamma_real(sigma))


def test_gamma_sign_domain():
    for bad in (0.5, -2.0, 0.0):
        with pytest.raises(ValueError):
            gamma_sign(bad)


# -------------------------------------------------------------- integrand

def test_integrand_limit_at_zero():
    # G_(-1)(1, x) = 1/(e^x - 1) - 1/x -> -1/2
    assert integrand_G(-1, 1.0, 1e-8) == pytest.approx(-0.5, abs=1e-6)


def test_integrand_frozen_value():
    # hand value at (N=1, a=1/2, x=1): e^(1/2)/(e-1) - 1 + 1/24
    hand = math.exp(0.5) / (math.e - 1) - 1 + 1 / 24
    assert integrand_G(1, 0.5, 1.0) == pytest.approx(hand, abs=1e-14)


def test_integrand_branches_agree():
    # Laurent tail vs direct difference on both sides of the threshold
    for N in (-1, 0, 2):
        for a in (0.3, 0.5, 1.0):
            x = SMALL_X_THRESHOLD - 1e-2
            assert integrand_G(N, a, x) == pytest.approx(
                _integrand_G_direct(N, a, x), abs=1e-9)
            lo = integrand_G(N, a, SMALL_X_THRESHOLD - 1e-9)
            hi = integrand_G(N, a, SMALL_X_THRESHOLD + 1e-9)
            assert lo == pytest.approx(hi, abs=1e-9)


def test_integrand_domain_errors():
    with pytest.raises(ValueError):
        integrand_G(0, 0.5, 0.0)
    with pytest.raises(ValueError):
        integrand_G(0, 0.5, -1.0)
    with pytest.raises(ValueError):
        integrand_G(-2, 0.5, 1.0)


def test_small_x_vanishing_order():
    for N in (-1, 0, 1, 2, 3, 4):
        for a in (0.2, 0.5, 0.9):
            lead = (eval_poly(bernoulli_polynomial(N + 2), 1.0 - a)
                    / math.factorial(N + 2))
            def ratio(x):
                return (x * math.expm1(x) * integrand_G(N, a, x)
                        / x ** (N + 3))
            err2 = abs(ratio(1e-2) - lead)
            err3 = abs(ratio(1e-3) - lead)
            assert err3 < err2 / 3 + 1e-14


# ----------------------------------------------------- integral transform

def test_integral_representation_matches_gamma_zeta():
    samples = {
        -1: [(0.25, 0.3), (0.5, 0.7), (0.75, 1.0)],
        0: [(-0.75, 0.2), (-0.5, 1.0), (-0.25, 0.6)],
        1: [(-1.75, 0.4), (-1.5, 0.9), (-1.25, 0.5)],
        2: [(-2.7, 0.15), (-2.5, 0.5), (-2.2, 0.8)],
        3: [(-3.6, 0.25), (-3.5, 1.0), (-3.3, 0.45)],
        4: [(-4.8, 0.35), (-4.5, 0.65), (-4.1, 0.95)],
    }
    for N, pairs in samples.items():
        for sigma, a in pairs:
            lhs = integral_representation(sigma, a, N)
            rhs = gamma_real(sigma) * hurwitz_zeta(sigma, a, TIGHT)
            assert lhs == pytest.approx(rhs, abs=1e-7)


def test_integral_representation_strip_violation():
    for sigma in (-1.0, -2.0, -0.5, 0.5):
        with pytest.raises(StripError):
            integral_representation(sigma, 0.5, 1)
    with pytest.raises(StripError):
        integral_representation(-0.5, 1.0, -1)
