import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitz_real_zeros import zero_analysis
from hurwitz_real_zeros.bernoulli import (
    IndeterminateSign,
    bisect_sign,
    even_roots,
)
from hurwitz_real_zeros.hurwitz import (
    SIGN_HEAD_TERMS,
    AccuracyError,
    EvalParams,
    gamma_sign,
    hurwitz_zeta,
    hurwitz_zeta_exact_at_nonpositive_integer,
    integral_representation,
)
from hurwitz_real_zeros.zero_analysis import (
    BOUNDARY,
    NO,
    YES,
    locate_zeros,
    polynomial_roots_in_unit,
    predict_zero,
    predict_zero_explicit,
    scan_grid,
    spira_region_bound,
    uniqueness_check,
    verify_case,
    verify_theorem,
)

F = Fraction


def _far_from_boundaries(N, a, delta=1e-6):
    roots = (polynomial_roots_in_unit(N + 1)
             + polynomial_roots_in_unit(N + 2) + (0.5,))
    return min(abs(a - r) for r in roots) > delta


# ------------------------------------------------------------- predicates

def test_predict_examples():
    assert predict_zero(0, 0.1).exists == YES
    assert predict_zero(0, 0.3).exists == NO
    assert predict_zero(5, 1.0).exists == BOUNDARY


def test_predict_exact_values():
    pred = predict_zero(1, 0.4)
    # a = 0.4 is not exactly 2/5 in binary; evaluate at the true rational
    a = F(0.4)
    assert pred.b_left * pred.b_right < 0
    assert pred.b_left == (a * a - a + F(1, 6))


def test_predict_boundary_cases_exact():
    for a in (0.5, 1.0):
        for N in range(1, 7):
            assert predict_zero(N, a).exists == BOUNDARY


def test_predict_domain():
    with pytest.raises(ValueError):
        predict_zero(-2, 0.3)
    with pytest.raises(ValueError):
        predict_zero(0, 0.0)


def test_explicit_examples():
    assert predict_zero_explicit(1, 0.4) is True
    assert predict_zero_explicit(2, 0.3) is False
    assert predict_zero_explicit(0, 0.1) is True


def test_explicit_boundary_raises():
    with pytest.raises(IndeterminateSign):
        predict_zero_explicit(1, 0.5)
    pair = even_roots(4)
    with pytest.raises(IndeterminateSign):
        predict_zero_explicit(2, pair.b_minus)
    with pytest.raises(ValueError):
        predict_zero_explicit(-1, 0.3)
    with pytest.raises(ValueError):
        predict_zero_explicit(1, 1.0)


def test_theorem_forms_equivalent_on_grid():
    for N in range(0, 7):
        for i in range(1, 200):
            a = i / 200
            if not _far_from_boundaries(N, a):
                continue
            assert predict_zero_explicit(N, a) == \
                (predict_zero(N, a).exists == YES)


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(min_value=0, max_value=8),
    a=st.floats(min_value=1e-3, max_value=1 - 1e-3),
)
def test_theorem_forms_equivalent_random(N, a):
    assume(_far_from_boundaries(N, a))
    assert predict_zero_explicit(N, a) == (predict_zero(N, a).exists == YES)


def test_endpoint_sign_opposition_when_zero_predicted():
    # when existence is predicted, the exact interval-endpoint values of
    # zeta carry opposite signs (Bernoulli values via the exact formula)
    for N in range(-1, 7):
        for i in range(1, 20):
            a = F(i, 20)
            pred = predict_zero(N, float(i / 20))
            left = hurwitz_zeta_exact_at_nonpositive_integer(N + 2, a)
            right = hurwitz_zeta_exact_at_nonpositive_integer(N + 1, a) \
                if N + 1 >= 1 else None
            if pred.exists == YES and right is not None:
                assert left * right < 0


# ----------------------------------------------------------------- harness

def test_locate_zeros_examples():
    zeros = locate_zeros(1, 0.4, 512)
    assert len(zeros) == 1
    assert -2 < zeros[0].sigma < -1
    assert zeros[0].residual < 1e-9
    assert zeros[0].bracket_halfwidth <= 1e-10
    assert locate_zeros(1, 1.0, 512) == []


def test_locate_zeros_unit_interval():
    zeros = locate_zeros(-1, 0.25, 512)
    assert len(zeros) == 1
    assert 0 < zeros[0].sigma < 1
    assert locate_zeros(-1, 0.75, 512) == []


def test_refine_tol_below_float_spacing_returns():
    # bisection used to loop forever once the midpoint rounded to an end
    params = EvalParams(1e-17)
    (zero,) = locate_zeros(0, 0.1, params=params)
    sigma, halfwidth = zero.sigma, zero.bracket_halfwidth
    assert halfwidth >= math.ulp(sigma)
    # the full values bisection saw change sign within halfwidth of sigma
    ev = zero_analysis.Evaluator(0.1, params)
    signs = {ev(x)[0] > 0.0 for x in (sigma - halfwidth, sigma,
                                      sigma + halfwidth)}
    assert signs == {False, True}


@pytest.mark.parametrize("N, a", [(2, 1.0), (4, 1.0), (1, 0.5), (0, 0.5)])
def test_tight_target_reports_no_zero_on_the_strip_ends(N, a):
    # zeta(-N, a) = 0 here: a margin of 10 * 1e-17 used to round the grid's
    # ends onto the integers, and the zero at the end was reported as one
    # inside (-N-1, -N); on 26 points of N = 0 the last point lo + 25 step
    # rounded onto 0 though the end hi did not
    for grid_points in (26, 512):
        assert locate_zeros(N, a, grid_points, EvalParams(1e-17)) == []


def test_scan_grid_ends_stay_inside_the_strip():
    for N in range(-1, 61):
        for tol in (1e-17, 3e-17, 1e-16, 3e-16, 1e-15):
            for grid_points in (16, 511, 512):
                grid = scan_grid(N, grid_points, tol)
                assert -N - 1 < grid[0] and grid[-1] < -N, (N, tol)
    # every grid size where a margin below a float step lets the last
    # point round onto -N (scan_grid(0, 26, 1e-17)[-1] was 0.0)
    for N in range(-1, 8):
        for tol in (1e-17, 3e-17):
            for grid_points in range(16, 700):
                grid = scan_grid(N, grid_points, tol)
                assert -N - 1 < grid[0] and grid[-1] < -N, (
                    N, tol, grid_points)


def test_locate_zeros_validation():
    with pytest.raises(ValueError):
        locate_zeros(1, 0.4, grid_points=8)
    with pytest.raises(ValueError, match="target_abs_error must be finite"):
        locate_zeros(1, 0.4, params=EvalParams(-1e-10))


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_refine_tol_rejected(tol):
    # either one skips bisection: zeros with half-width 9.8e-4 came back
    with pytest.raises(ValueError, match="refine_tol must be finite"):
        scan_grid(1, 512, tol)
    with pytest.raises(ValueError, match="target_abs_error must be finite"):
        locate_zeros(1, 0.4, 512, EvalParams(tol))


def test_scans_count_their_walk_and_bisection_sums(monkeypatch):
    made, scalar_calls, log = [], [0], []
    scalar = zero_analysis.hurwitz_zeta

    class CountedEvaluator(zero_analysis.Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            self.signs = self.walk_points = 0
            self.walking = False
            made.append(self)

        def sign(self, sigma):
            self.signs += 1
            return super().sign(sigma)

        def sign_changes(self, *args):
            log.append("walk")
            self.walking = True
            events = super().sign_changes(*args)
            self.walking = False
            log.append("walked")
            return events

        def bisect(self, *args):
            log.append("bisect")
            return super().bisect(*args)

        def _loose_sign(self, sigma, *args):
            self.walk_points += self.walking
            return super()._loose_sign(sigma, *args)

        def __call__(self, sigma):
            log.append("full")
            return super().__call__(sigma)

        def _em_float(self, sigma, M, target):
            if M == SIGN_HEAD_TERMS:
                log.append("loose")
            return super()._em_float(sigma, M, target)

    def count_scalar(*args):
        scalar_calls[0] += 1
        return scalar(*args)

    monkeypatch.setattr(zero_analysis, "Evaluator", CountedEvaluator)
    monkeypatch.setattr(zero_analysis, "hurwitz_zeta", count_scalar)
    # one evaluator per scan, and each located zero makes one scalar call
    # for its residual.  The walk takes its signs at the 9 grid points
    # that no ball from an earlier one covers, each one loose sum, counted
    # where it runs, all before the one bisection; neither half calls sign
    assert len(locate_zeros(1, 0.4, 512)) == 1
    assert [ev.walk_points for ev in made] == [9] and scalar_calls[0] == 1
    assert log.count("walk") == 1 and log.count("bisect") == 1
    walk = log[log.index("walk") + 1:log.index("walked")]
    assert walk.count("loose") == 9
    assert log.index("walked") < log.index("bisect")
    assert uniqueness_check(2, 0.3) == 1
    assert [ev.signs for ev in made] == [0, 510]
    assert scalar_calls[0] == 1
    # no loose sum runs in a bisection after its first step that no loose
    # sum certifies (these bisections make 1, 2, 1 and 3), and that step's
    # own loose sum runs just before its full value.  Exclusion balls from
    # earlier steps decide the rest without a sum: these bisections make 10,
    # 8, 11 and 4 full values where one per step after the loose sums made
    # 24, 22, 24 and 20
    for N, a, most in ((1, 0.4, 10), (0, 0.1, 8), (2, 0.6, 11),
                       (-1, 0.3, 4)):
        log.clear()
        assert locate_zeros(N, a), (N, a)
        steps = " ".join(log).split("bisect")[1:]
        assert len(steps) == 1, (N, a)
        words = steps[0].split()
        first_full = words.index("full")
        assert words[first_full - 1] == "loose", (N, a)
        assert "loose" not in words[first_full:], (N, a)
        assert words.count("full") <= most, (N, a, words.count("full"))


def test_one_evaluator_signs_match_fresh_ones_on_float_em_strips():
    # sign keeps no state: one evaluator's signs across a grid must be
    # those of a fresh evaluator at every point
    rng = random.Random(12)
    for N in range(-1, 3):
        grid = scan_grid(N, 512, EvalParams().target_abs_error)
        for a in (rng.uniform(0.0, 1.0) or 1.0, 1e-6, 0.01, 0.25, 0.5, 0.75,
                  1.0):
            ev = zero_analysis.Evaluator(a)
            assert [ev.sign(x) for x in grid] == [
                zero_analysis.Evaluator(a).sign(x) for x in grid], (N, a)


def test_walk_loose_sums_stay_at_their_medians(monkeypatch):
    # the median loose sums of a 512-point walk on N = -1..2, over 197 a
    # >= 0.01 from random.Random(100), stay at most 6, 7, 5 and 7.  Balls
    # from three head terms, with no pole rung, made 14, 11, 7 and 15
    loose, walking = [0], [False]
    em_float = zero_analysis.Evaluator._em_float
    sign_changes = zero_analysis.Evaluator.sign_changes

    def counted(self, sigma, M, target):
        loose[0] += walking[0] and M == SIGN_HEAD_TERMS
        return em_float(self, sigma, M, target)

    def walk(self, *args):
        walking[0] = True
        try:
            return sign_changes(self, *args)
        finally:
            walking[0] = False

    monkeypatch.setattr(zero_analysis.Evaluator, "_em_float", counted)
    monkeypatch.setattr(zero_analysis.Evaluator, "sign_changes", walk)
    rng = random.Random(100)
    shifts = []
    while len(shifts) < 197:
        a = rng.random()
        if a >= 0.01:
            shifts.append(a)
    for N, most in ((-1, 6), (0, 7), (1, 5), (2, 7)):
        sums = []
        for a in shifts:
            loose[0] = 0
            locate_zeros(N, a)
            sums.append(loose[0])
        assert sorted(sums)[len(sums) // 2] <= most, (N, sorted(sums))


def test_float_em_scans_skip_loose_sums_inside_balls(monkeypatch):
    loose, certified, walking = [0], [0], [False]
    em_float = zero_analysis.Evaluator._em_float
    loose_sign = zero_analysis.Evaluator._loose_sign
    sign_changes = zero_analysis.Evaluator.sign_changes

    def counted(self, sigma, M, target):
        loose[0] += M == SIGN_HEAD_TERMS
        return em_float(self, sigma, M, target)

    def counted_loose_sign(self, sigma, *args):
        before = loose[0]
        got = loose_sign(self, sigma, *args)
        # the pole rung certifies with no sum
        certified[0] += walking[0] and got is not None and loose[0] > before
        return got

    def walk(self, *args):
        walking[0] = True
        try:
            return sign_changes(self, *args)
        finally:
            walking[0] = False

    monkeypatch.setattr(zero_analysis.Evaluator, "_em_float", counted)
    monkeypatch.setattr(zero_analysis.Evaluator, "_loose_sign",
                        counted_loose_sign)
    monkeypatch.setattr(zero_analysis.Evaluator, "sign_changes", walk)
    # with no balls, (1, 0.4) summed once per grid point and bisection
    # step: 512 + 24.  (-1, 0.7) has no zero, and made 512 sums with balls
    # from the Fourier slope bound alone and 24 with first-order
    # Euler-Maclaurin balls; (0, 0.45) made 82, then 28; (-1, 0.3), with
    # a zero, made 55.  Each walk certification is one loose sum
    for N, a, most in ((1, 0.4, 25), (2, 0.3, 4), (-1, 0.7, 13),
                       (0, 0.45, 8), (-1, 0.3, 21)):
        loose[0] = certified[0] = 0
        locate_zeros(N, a)
        assert 0 < certified[0] <= loose[0] <= most, (
            N, a, certified[0], loose[0])


def _full_value_zeros(N, a, params=EvalParams()):
    """Reference for locate_zeros: the same scan, bisected on the sign of
    each step's full value ev(mid)[0] instead of ev.sign(mid)."""
    tol = params.target_abs_error
    grid = scan_grid(N, 512, tol)
    ev = zero_analysis.Evaluator(a, params)
    signs = [ev.sign(x) for x in grid]
    zeros = []
    for lo, hi, flo, fhi in zip(grid, grid[1:], signs, signs[1:]):
        if fhi == 0:
            zeros.append((hi, 0.0, 0.0))
        elif flo != 0 and flo != fhi:
            while (hi - lo) / 2.0 > tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                fm = ev(mid)[0]
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm < 0.0) == (flo < 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            sigma = 0.5 * (lo + hi)
            halfwidth = (hi - lo) / 2.0 if lo < sigma < hi else hi - lo
            residual = abs(hurwitz_zeta(sigma, a, params))
            zeros.append((sigma, halfwidth, residual))
    return sorted(zeros)


def test_certified_sign_bisection_matches_full_value_bisection():
    # where ev.sign certifies, |zeta| > target >= the full value's bound,
    # so each step goes the way the full value's sign would send it
    rng = random.Random(10)
    cells = 0
    for N in [*range(-1, 8), *range(21, 31)]:
        for _ in range(3):
            a = rng.uniform(0.0, 1.0) or 1.0
            zeros = [(z.sigma, z.bracket_halfwidth, z.residual)
                     for z in locate_zeros(N, a)]
            assert zeros == _full_value_zeros(N, a), (N, a)
            cells += bool(zeros)
    assert cells >= 20


def _reference_scan(N, a, grid_points, params):
    """locate_zeros without the walk or the bisection rule: `sign` at
    every grid point, `bisect_sign` on `sign`, the `hurwitz_zeta`
    residual."""
    tol = params.target_abs_error
    grid = scan_grid(N, grid_points, tol)
    ev = zero_analysis.Evaluator(a, params)
    signs = [ev.sign(x) for x in grid]
    zeros = []
    for lo, hi, slo, shi in zip(grid, grid[1:], signs, signs[1:]):
        if shi == 0:
            zeros.append(zero_analysis.LocatedZero(hi, 0.0, 0.0))
        elif slo != 0 and shi != slo:
            sigma, h = bisect_sign(ev.sign, lo, hi, slo, tol)
            zeros.append(zero_analysis.LocatedZero(
                sigma, h, abs(hurwitz_zeta(sigma, a, params))))
    return zeros


def _outcome(scan, *args):
    try:
        return scan(*args)
    except AccuracyError as exc:
        return f"AccuracyError: {exc}"


def test_walk_and_bisection_rule_change_no_zero():
    # a certified sign is the full value's, so skipping the grid points in
    # a ball, the bisection steps a ball decides and the loose sums after a
    # bisection's first uncertified step changes the cost, and the triples
    # or the first error only where a full value raises at a step a ball or
    # a loose sum would have certified, which no cell here shows, on either
    # side of the mpmath failure at N = 45.  At 1e-15 guarded mpmath serves
    # the full values that balls interleave with
    rng = random.Random(16)
    shifts = [rng.uniform(0.0, 1.0) or 1.0 for _ in range(3)]
    cells = 0
    for a in [*shifts, 1.0, 0.5, 0.01, 1e-6, 1e-300]:
        for N in range(-1, 5):
            for target in (1e-3, 1e-10, 1e-13, 1e-15):
                for grid_points in (16, 64, 512):
                    args = (N, a, grid_points, EvalParams(target))
                    got = _outcome(locate_zeros, *args)
                    assert got == _outcome(_reference_scan, *args), args
                    cells += isinstance(got, list) and len(got) > 0
    assert cells >= 190
    for N, a in ((8, 0.15), (8, 0.6), (30, 0.15), (30, 0.6), (44, 0.15),
                 (44, 0.6), (45, 0.3), (46, 0.15), (46, 0.6)):
        expected = _outcome(_reference_scan, N, a, 512, EvalParams())
        # zeros up to N = 44, the mpmath failure from N = 45 on
        assert isinstance(expected, str) == (N >= 45), (N, a)
        assert expected, (N, a)
        assert _outcome(locate_zeros, N, a, 512, EvalParams()) == expected


def test_loose_sums_serve_at_loose_targets(monkeypatch):
    # a loose sum that certifies gives |zeta| > target at any target, so a
    # scan at 1e-3 takes balls too: (-1, 0.7) has no zero and makes no
    # full call, where one per grid point was made before
    params = EvalParams(1e-3)
    assert locate_zeros(1, 0.4, params=params) == [
        zero_analysis.LocatedZero(*z)
        for z in _full_value_zeros(1, 0.4, params)]
    full = [0]
    call = zero_analysis.Evaluator.__call__

    def counted(self, sigma):
        full[0] += 1
        return call(self, sigma)

    monkeypatch.setattr(zero_analysis.Evaluator, "__call__", counted)
    assert locate_zeros(-1, 0.7, params=params) == []
    assert full[0] == 0


def test_scan_imports_neither_numpy_nor_scipy():
    # the pure-Python grid keeps import time and peak memory small, and
    # the strip integral runs on mpmath's float quadrature
    src = Path(zero_analysis.__file__).resolve().parents[1]
    code = ("import sys, hurwitz_real_zeros as h; h.locate_zeros(2, 0.3); "
            "h.integral_representation(-2.5, 0.37, 2); "
            "print(sorted(m for m in ('numpy', 'scipy') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


def test_cold_start_imports_mpmath_on_first_mpf_em_call():
    # mpmath loads inside _em_mpf: set-up calls, exact values and CLI
    # queries at the default target never import it
    src = Path(zero_analysis.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, sys\n"
        "import hurwitz_real_zeros as h\n"
        "from hurwitz_real_zeros import cli\n"
        "h.hurwitz_zeta(-2.5, 0.37); h.hurwitz_zeta(-7.5, 0.37)\n"
        "assert h.hurwitz_zeta_detailed(-8, 0.37).path == 'exact'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['predict', '--N=3', '--a=0.37'],\n"
        "                 ['eval', '--sigma=-2.5', '--a=0.37'],\n"
        "                 ['roots', '--n=6']):\n"
        "        assert cli.main(argv + ['--format=json']) == 0\n"
        "print('mpmath' in sys.modules)\n"
        "r = h.hurwitz_zeta_detailed(-30.5, 0.3)\n"
        "print(r.path, repr(r.value), repr(r.error_bound))\n"
        "print('mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == [
        "False",
        "mpf-em -188727347.8101171 3.4259145534669814e-12",
        "True",
    ]


def test_zero_count_parity_matches_prediction():
    for N in range(0, 5):
        for a in (0.1, 0.3, 0.45, 0.7, 0.9):
            pred = predict_zero(N, a)
            if pred.exists != YES:
                continue
            zeros = locate_zeros(N, a, 256, EvalParams(1e-9))
            assert len(zeros) % 2 == 1


def test_sign_via_integral_consistency():
    # on intervals with no predicted zero, the zeta sign must equal
    # sign(integral) * sign(Gamma)
    cases = {0: 0.3, 1: 0.1, 2: 0.35, 3: 0.2}
    for N, a in cases.items():
        assert predict_zero(N, a).exists == NO
        for frac in (0.25, 0.5, 0.75):
            sigma = -N - 1 + frac
            z = hurwitz_zeta(sigma, a)
            integral = integral_representation(sigma, a, N)
            assert math.copysign(1, z) == \
                math.copysign(1, integral) * gamma_sign(sigma)


# -------------------------------------------------------------- uniqueness

def test_spira_bound_examples():
    assert spira_region_bound(0.5) == -3.0
    assert spira_region_bound(1.0) == -3.0
    assert spira_region_bound(0.25) == -2.0


def test_uniqueness_spot_checks():
    assert uniqueness_check(2, 0.5) == 1   # zero at sigma = -6 exactly
    assert uniqueness_check(2, 1.0) == 1   # trivial zero at -6
    assert uniqueness_check(2, 0.3) == 1


@pytest.mark.parametrize("a", [0.4999, 0.5001, 0.49999, 0.50001, 0.9999,
                               0.999999, 0.0005, 0.0001])
def test_uniqueness_zero_next_to_endpoint(a):
    # the zero sits within 1e-3 of -2M-2 or -2M (near -5.9996 for
    # a = 0.4999, near -4.0003 for a = 0.5001)
    for M in range(2, 6):
        assert uniqueness_check(M, a) == 1, M


@pytest.mark.parametrize("grid_points", [16, 512])
def test_uniqueness_exact_ends_at_subnormal_shift(grid_points):
    # at a = 1e-322 one end's value -B_n(a)/n underflows to -0.0 as a float
    # (M = 2 and 3); its exact sign still brackets the zero next to it,
    # where the float's sign 0 counted a second zero
    for M in range(2, 6):
        assert uniqueness_check(M, 1e-322, grid_points) == 1, M


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(min_value=2, max_value=5),
    a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_uniqueness_count_is_one(M, a):
    assert uniqueness_check(M, a) == 1


@pytest.mark.parametrize("M", [22, 25])
@pytest.mark.parametrize("a", [0.05, 0.3, 0.7, 0.95])
def test_uniqueness_count_is_one_for_m_22_and_25(M, a):
    # guarded mpmath, which the full evaluator falls back to there, cannot
    # reach the target below about sigma = -45; the grid signs do not need it
    assert uniqueness_check(M, a) == 1


def test_uniqueness_validation():
    with pytest.raises(ValueError):
        uniqueness_check(1, 0.5)


@pytest.mark.parametrize("grid_points", [15, 1, 0])
def test_uniqueness_rejects_small_grid(grid_points):
    with pytest.raises(ValueError, match="grid_points"):
        uniqueness_check(2, 0.3, grid_points=grid_points)


# ------------------------------------------------------------------ sweep

def test_verify_small_sweep_agrees():
    grid = [0.05 + 0.1 * k for k in range(10)]
    report = verify_theorem(grid, -1, 2)
    assert report.n_disagree == 0
    assert report.n_agree > 0


def test_verify_sweep_agrees_below_sigma_21():
    report = verify_theorem([0.1, 0.3, 0.55, 0.7, 0.9], 21, 30)
    assert report.n_disagree == 0
    assert report.n_agree == 50


def test_verify_boundary_a_values():
    report = verify_theorem([1.0], 1, 4)
    for case in report.cases:
        assert case.predicted in (BOUNDARY, NO)
        assert case.agrees in (None, True)
        if case.agrees is True:
            assert case.zeros == ()


def test_verify_case_just_outside_existence_range():
    delta = 1e-3
    a = even_roots(2).b_minus + 10 * delta
    case = verify_case(0, a, exclusion_delta=delta)
    assert case.predicted == NO
    assert case.agrees is True
    assert case.zeros == ()


def test_boundary_predictions_are_always_skipped():
    # B_n's only rational roots are 0, 1/2 and 1 (Inkeri 1959), so an
    # exactly zero product needs a = 1/2 or 1, at distance 0 from a root
    boundary = [(N, a) for N in range(-1, 63) for a in (0.5, 1.0)
                if predict_zero(N, a).exists == BOUNDARY]
    assert len(boundary) == 126
    for N, a in boundary:
        case = verify_case(N, a, exclusion_delta=5e-324)
        assert case.agrees is None
        assert case.note == "skipped: a within delta of a polynomial root"


@settings(max_examples=200, deadline=None)
@given(N=st.integers(min_value=-1, max_value=62),
       a=st.floats(min_value=5e-324, max_value=1.0))
def test_boundary_prediction_only_at_half_and_one(N, a):
    assume(a not in (0.5, 1.0))
    assert predict_zero(N, a).exists != BOUNDARY


def test_verify_skips_accuracy_failure():
    # guarded mpmath cannot reach 1e-10 while bisecting the zero at N = 45
    case = verify_case(45, 0.3)
    assert case.predicted == YES and case.zeros == ()
    assert case.agrees is None
    assert case.note.startswith("skipped: evaluator accuracy failure")


def test_verify_skips_near_roots():
    case = verify_case(0, 0.5)
    assert case.agrees is None
    assert "skipped" in case.note


def test_verify_skips_shifts_next_to_zero():
    # B_(N+1)(0) = 0 for odd N + 1 >= 3, so the zero of an even N >= 2 sits
    # next to -N as a -> 0, inside the scan's end margin; those cells fall
    # in the root band around 0
    for N, a in ((2, 1e-12), (2, 1e-10), (4, 1e-15), (6, 1e-12)):
        case = verify_case(N, a)
        assert case.predicted == YES and case.agrees is None, (N, a)
        assert case.note == "skipped: a within delta of a polynomial root"


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_verify_rejects_non_finite_delta(delta):
    # a NaN delta never skips a cell near a root, an infinite one skips all
    with pytest.raises(ValueError, match="exclusion_delta must be finite"):
        verify_theorem([0.3], 0, 1, exclusion_delta=delta)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
def test_verify_case_rejects_bad_delta(delta):
    # with a NaN delta the cell at a = 1/2, a root of B_1, was not skipped
    with pytest.raises(ValueError,
                       match="exclusion_delta must be finite and positive"):
        verify_case(0, 0.5, exclusion_delta=delta)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_theorem([0.3], 0, 1, exclusion_delta=0.0)
    with pytest.raises(ValueError):
        verify_theorem([0.3], 2, 1)
    with pytest.raises(ValueError):
        verify_theorem([1.5], 0, 1)
