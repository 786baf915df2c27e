"""Executable predicates for real-zero existence of zeta(sigma, a) in the
intervals (-N-1, -N), an independent numeric zero-location harness, and the
exactly-one-zero check for the deep intervals [-2M-2, -2M).

The existence criterion is the sign of B_(N+1)(a) * B_(N+2)(a), evaluated in
exact rational arithmetic; the harness scans the evaluator for sign changes
and refines them by bisection, with neither side trusting the other.  Each
scan builds one `Evaluator`, walks the grid on its certified signs
(`Evaluator.sign_changes`) and bisects each sign change
(`Evaluator.bisect`); each residual is one `hurwitz_zeta` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .bernoulli import (
    IndeterminateSign,
    bernoulli_polynomial,
    eval_poly,
    even_roots,
    sign_on_unit_interval,
)
from .hurwitz import (
    AccuracyError,
    EvalParams,
    Evaluator,
    check_shift,
    hurwitz_zeta,
    hurwitz_zeta_exact_at_nonpositive_integer,
)

__all__ = [
    "YES",
    "NO",
    "BOUNDARY",
    "ZeroPrediction",
    "LocatedZero",
    "CaseResult",
    "VerificationReport",
    "predict_zero",
    "predict_zero_explicit",
    "scan_grid",
    "locate_zeros",
    "spira_region_bound",
    "uniqueness_check",
    "verify_theorem",
    "polynomial_roots_in_unit",
]

YES = "yes"
NO = "no"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class ZeroPrediction:
    N: int
    a: float
    b_left: Fraction      # B_(N+1)(a), exact for the a actually used
    b_right: Fraction     # B_(N+2)(a)
    exists: str           # YES / NO / BOUNDARY


@dataclass(frozen=True)
class LocatedZero:
    sigma: float
    bracket_halfwidth: float
    residual: float


@dataclass(frozen=True)
class CaseResult:
    N: int
    a: float
    b_left: Fraction
    b_right: Fraction
    predicted: str
    zeros: Tuple[LocatedZero, ...]
    agrees: Optional[bool]
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    cases: Tuple[CaseResult, ...]
    n_agree: int
    n_disagree: int
    n_skipped: int


def _check_interval_index(N: int) -> int:
    N = int(N)
    if N < -1:
        raise ValueError("interval index must be >= -1")
    return N


def predict_zero(N: int, a: float) -> ZeroPrediction:
    """Theorem-side existence prediction for the interval (-N-1, -N).

    Both Bernoulli polynomial values are computed exactly at the rational
    number the float a represents, so boundary means the product is exactly
    zero, not merely small.
    """
    N = _check_interval_index(N)
    check_shift(a)
    ar = Fraction(a)
    b_left = eval_poly(bernoulli_polynomial(N + 1), ar)
    b_right = eval_poly(bernoulli_polynomial(N + 2), ar)
    prod = b_left * b_right
    if prod < 0:
        exists = YES
    elif prod == 0:
        exists = BOUNDARY
    else:
        exists = NO
    return ZeroPrediction(N=N, a=float(a), b_left=b_left, b_right=b_right,
                          exists=exists)


def predict_zero_explicit(N: int, a: float) -> bool:
    """Existence via the explicit a-ranges in terms of b_n^- and b_n^+.

    Even N uses the roots of B_(N+2): zeros exist iff 0 < a < b^- or
    1/2 < a < b^+.  Odd N uses the roots of B_(N+1): zeros exist iff
    b^- < a < 1/2 or b^+ < a < 1.  Both read off the signs of B_(N+1) and
    B_(N+2) from `sign_on_unit_interval`, so queries within
    `even_roots(n).residual_bound` of b^- or b^+ raise IndeterminateSign,
    and so do queries at 1/2.
    """
    N = int(N)
    if N < 0:
        raise ValueError("explicit form requires N >= 0")
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0,1) for the explicit form")
    s = sign_on_unit_interval(N + 1, a) * sign_on_unit_interval(N + 2, a)
    if s == 0:
        raise IndeterminateSign("a = 1/2 is a degenerate boundary")
    return s < 0


def _grid_spacing(N: int, grid_points: int,
                  refine_tol: float) -> Tuple[float, float]:
    """(lo, step) of `scan_grid`, whose point i is lo + i * step."""
    N = _check_interval_index(N)
    if grid_points < 16:
        raise ValueError("grid_points must be >= 16")
    if not 0.0 < refine_tol < math.inf:
        raise ValueError("refine_tol must be finite and positive")
    margin = min(1e-4, refine_tol * 10.0)
    # a margin under half the float spacing would round an end onto the
    # integer, outside the strip: each end stays at least one float inside
    lo = max(-N - 1 + margin, math.nextafter(-N - 1, math.inf))
    hi = min(-N - (1e-2 if N == -1 else margin),
             math.nextafter(-N, -math.inf))
    step = (hi - lo) / (grid_points - 1)
    # the last point lo + (n - 1) * step may still round onto -N where the
    # margin is below a float step there: shrink the step until it does not
    while lo + (grid_points - 1) * step >= -N:
        step = math.nextafter(step, 0.0)
    return lo, step


def scan_grid(N: int, grid_points: int, refine_tol: float) -> List[float]:
    """The sigma values locate_zeros samples in (-N-1, -N): grid_points
    equally spaced points from min(1e-4, 10 * refine_tol), but at least one
    float, inside each end; 1e-2 inside the right end for N = -1 (the pole
    at sigma = 1).  Every point lies strictly inside the strip, at any
    target."""
    lo, step = _grid_spacing(N, grid_points, refine_tol)
    return [lo + i * step for i in range(grid_points)]


def locate_zeros(
    N: int,
    a: float,
    grid_points: int = 512,
    params: EvalParams = EvalParams(),
) -> List[LocatedZero]:
    """Numeric witness: one `Evaluator` walks `scan_grid` on the certified
    signs of zeta(., a) (`Evaluator.sign_changes`), then bisects each sign
    change to bracket half-width <= the params target (`Evaluator.bisect`);
    the residual at the final midpoint is one `hurwitz_zeta` call.  A grid
    point of sign 0 is a zero with half-width and residual 0.

    The walk skips the grid points an exclusion ball covers, and each
    bisection stops trying loose sums at its first step they leave
    uncertified.  A certified sign is the full value's, so both change the
    cost and not the result, unless a full value raises at a step a loose
    sum would have certified.
    """
    lo, step = _grid_spacing(N, grid_points, params.target_abs_error)
    ev = Evaluator(a, params)
    zeros: List[LocatedZero] = []
    for x, y, sx in ev.sign_changes(lo, step, grid_points):
        if sx == 0:
            zeros.append(LocatedZero(sigma=x, bracket_halfwidth=0.0,
                                     residual=0.0))
        else:
            sigma, h = ev.bisect(x, y, sx)
            zeros.append(LocatedZero(
                sigma=sigma, bracket_halfwidth=h,
                residual=abs(hurwitz_zeta(sigma, ev.a, ev.params))))
    return zeros


def spira_region_bound(a: float) -> float:
    """Below this sigma all zeros with |t| <= 1 are real, one per interval."""
    a = check_shift(a)
    return -(4.0 * a + 1.0 + 2.0 * math.floor(1.0 - 2.0 * a))


def uniqueness_check(
    M: int,
    a: float,
    grid_points: int = 512,
    params: EvalParams = EvalParams(),
) -> int:
    """Count zeros of zeta(., a) in [-2M-2, -2M): sign changes over a
    closed grid from -2M-2 to -2M, plus an exact zero at a grid point other
    than the right end.  Both ends take the exact value -B_n(a)/n, whose
    sign survives even where its float underflows (subnormal a), so a zero
    next to an end is still bracketed; the interior points take their
    signs from one `Evaluator`'s `sign`.  The corollary predicts exactly 1
    for every M >= 2.
    """
    M = int(M)
    if M < 2:
        raise ValueError("M must be >= 2")
    if grid_points < 16:
        raise ValueError("grid_points must be >= 16")
    ev = Evaluator(a, params)
    left = -2 * M - 2
    step = 2.0 / (grid_points - 1)
    ar = Fraction(ev.a)
    values = [hurwitz_zeta_exact_at_nonpositive_integer(2 * M + 3, ar)]
    values += [ev.sign(left + i * step) for i in range(1, grid_points - 1)]
    values.append(hurwitz_zeta_exact_at_nonpositive_integer(2 * M + 1, ar))
    count = sum(1 for v in values[:-1] if v == 0)
    count += sum(1 for prev, cur in zip(values, values[1:])
                 if prev != 0 and cur != 0 and (prev < 0) != (cur < 0))
    return count


def polynomial_roots_in_unit(m: int):
    """Roots of B_m(x) in [0, 1] (for even m within `even_roots(m)`'s
    `residual_bound`, else exact)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    if m == 0:
        return ()
    if m == 1:
        return (0.5,)
    if m % 2 == 0:
        pair = even_roots(m)
        return (pair.b_minus, pair.b_plus)
    return (0.0, 0.5, 1.0)


def _check_exclusion_delta(delta: float) -> None:
    # a NaN delta would never skip a cell near a root, an infinite one all
    if not 0.0 < delta < math.inf:
        raise ValueError("exclusion_delta must be finite and positive")


def _case_boundary_distance(N: int, a: float) -> float:
    roots = (polynomial_roots_in_unit(N + 1)
             + polynomial_roots_in_unit(N + 2))
    return min(abs(a - r) for r in roots) if roots else math.inf


def verify_case(
    N: int,
    a: float,
    exclusion_delta: float = 1e-3,
    grid_points: int = 512,
    params: EvalParams = EvalParams(),
) -> CaseResult:
    """One (N, a) cell of the theorem sweep: `predict_zero` against
    `locate_zeros(N, a, grid_points, params)`.  A BOUNDARY prediction needs
    a = 1/2 or 1, the only rational roots of B_n in (0, 1] (Inkeri 1959),
    which the exclusion check always skips."""
    _check_exclusion_delta(exclusion_delta)
    pred = predict_zero(N, a)
    zeros, agrees = (), None
    if _case_boundary_distance(N, a) <= exclusion_delta:
        note = "skipped: a within delta of a polynomial root"
    else:
        try:
            zeros = tuple(locate_zeros(N, a, grid_points, params))
        except AccuracyError as exc:
            note = f"skipped: evaluator accuracy failure ({exc})"
        else:
            agrees = (pred.exists == YES) == (len(zeros) > 0)
            note = "" if agrees else "DISAGREEMENT"
    return CaseResult(N=N, a=float(a), b_left=pred.b_left,
                      b_right=pred.b_right, predicted=pred.exists,
                      zeros=zeros, agrees=agrees, note=note)


def verify_theorem(
    a_grid: Sequence[float],
    N_min: int,
    N_max: int,
    exclusion_delta: float = 1e-3,
    grid_points: int = 512,
    params: EvalParams = EvalParams(),
) -> VerificationReport:
    """Sweep predict_zero against locate_zeros over the (N, a) grid, each
    cell a `verify_case` with these grid_points and params.

    Disagreements are recorded, never raised; cases near polynomial roots
    (every boundary prediction among them) or beyond the evaluator's
    accuracy are excluded from the agreement statistics.
    Cases run in deterministic (N, a) order.
    """
    _check_exclusion_delta(exclusion_delta)
    if N_min < -1 or N_max < N_min:
        raise ValueError("need -1 <= N_min <= N_max")
    for a in a_grid:
        check_shift(a)
    cases = []
    for N in range(N_min, N_max + 1):
        for a in sorted(a_grid):
            cases.append(verify_case(N, a, exclusion_delta, grid_points,
                                     params))
    n_agree = sum(1 for c in cases if c.agrees is True)
    n_disagree = sum(1 for c in cases if c.agrees is False)
    n_skipped = sum(1 for c in cases if c.agrees is None)
    return VerificationReport(cases=tuple(cases), n_agree=n_agree,
                              n_disagree=n_disagree, n_skipped=n_skipped)
