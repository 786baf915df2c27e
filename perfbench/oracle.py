"""Correctness oracle, independent of the library's own arithmetic.

Predictions are re-derived from mpmath's Bernoulli numbers at 50 digits,
evaluator values and located zeros from mpmath's Hurwitz zeta.  Each check
returns None for a correct output or a short reason string for a wrong
one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import fp, mp, mpf

TARGET = 1e-10
#: A located zero must show a strict sign change of mpmath's zeta across
#: sigma -/+ ZERO_WIDTH.  Bisection leaves it within 1e-10 and the 1e-10
#: evaluator error moves it by 1e-10/|zeta'|, far below this for the
#: |zeta'| >= 1e-4 seen in the strips the workloads use.
ZERO_WIDTH = 1e4 * TARGET
#: mpmath's float-context zeta is trusted for sigma in this band (checked
#: there to ~1e-12); elsewhere, or when its value is this close to the
#: answer's tolerance, the 30-digit evaluation decides.
FP_SIGMA_MIN = -3.0
FP_MARGIN = 1e-9
BOUNDARY_EPS = mpf(10) ** -40


@lru_cache(maxsize=None)
def _bernpoly_coefficients(n: int) -> tuple:
    """C(n, k) B_k for k = 0..n (mpmath's B_1 = -1/2), highest power first."""
    with mp.workdps(60):
        return tuple(mpmath.binomial(n, k) * mpmath.bernoulli(k)
                     for k in range(n + 1))


def bernpoly(n: int, x):
    """B_n(x) at 50 digits by Horner's rule: the same values as
    `mpmath.bernpoly` (see the tests) at a third of its cost."""
    with mp.workdps(50):
        acc = mpf(0)
        for c in _bernpoly_coefficients(n):
            acc = acc * x + c
        return acc


def bernoulli_pair(N: int, a: float):
    """B_(N+1)(a) and B_(N+2)(a) at the exact binary value of a."""
    x = mpf(a)
    return bernpoly(N + 1, x), bernpoly(N + 2, x)


def expected_prediction(N: int, a: float, pair=None) -> str:
    left, right = pair or bernoulli_pair(N, a)
    prod = left * right
    if abs(prod) < BOUNDARY_EPS:
        return "boundary"
    return "yes" if prod < 0 else "no"


def zeta_ref(sigma: float, a: float, fast_ok: bool = True):
    """mpmath zeta(sigma, a): float context in the float band, else 30
    digits."""
    if fast_ok and sigma >= FP_SIGMA_MIN:
        try:
            return float(fp.zeta(sigma, a))
        except (ValueError, ZeroDivisionError, mpmath.libmp.NoConvergence):
            pass
    with mp.workdps(30):
        return mp.zeta(mpf(sigma), mpf(a))


def _sign(sigma: float, a: float) -> int:
    v = zeta_ref(sigma, a)
    if abs(v) <= FP_MARGIN:
        v = zeta_ref(sigma, a, fast_ok=False)
    return (v > 0) - (v < 0)


def check_zero(N: int, a: float, sigma: float):
    lo, hi = sigma - ZERO_WIDTH, sigma + ZERO_WIDTH
    if not -N - 1 < lo < hi < -N:
        return f"zero {sigma!r} outside ({-N - 1}, {-N})"
    s_lo, s_hi = _sign(lo, a), _sign(hi, a)
    if s_lo * s_hi >= 0:
        return f"no sign change of zeta within {ZERO_WIDTH:g} of {sigma!r}"
    return None


def check_cell(N: int, a: float, case):
    """One verify_theorem cell: prediction, agreement and each zero.

    Returns (reason or None, skip kind or None); a cell skipped for being
    near a polynomial root is not a failure, an accuracy skip is.
    """
    if case.note.startswith("skipped: evaluator accuracy"):
        return "evaluator accuracy failure", "accuracy"
    expected = expected_prediction(N, a)
    if case.predicted != expected:
        return f"predicted {case.predicted}, oracle {expected}", None
    if case.note.startswith("skipped: a within delta"):
        return None, "boundary"
    if case.agrees is False:
        return "library reports a disagreement", None
    if expected == "yes" and not case.zeros:
        return "predicted zero not located", None
    if expected == "no" and case.zeros:
        return f"{len(case.zeros)} zero(s) where none exists", None
    for z in case.zeros:
        reason = check_zero(N, a, z.sigma)
        if reason:
            return reason, None
    return None, None


def check_uniqueness(M: int, a: float, count: int):
    if count != 1:
        return f"uniqueness count {count} in [{-2 * M - 2}, {-2 * M})"
    return None


def _frac(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def _close(exact: Fraction, ref) -> bool:
    with mp.workdps(50):
        diff = abs(mpf(exact.numerator) / exact.denominator - ref)
        return diff <= mpf(10) ** -35 * (1 + abs(ref))


def check_cli(argv, output):
    """A `hzeta predict|eval --format json` query and its (code, stdout)."""
    code, out = output
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:])
    a = float(opts["a"])
    if argv[0] == "predict":
        N = int(opts["N"])
        left, right = bernoulli_pair(N, a)
        expected = expected_prediction(N, a, (left, right))
        if doc["exists"] != expected:
            return f"exists {doc['exists']}, oracle {expected}"
        if not (_close(_frac(doc["b_left"]), left)
                and _close(_frac(doc["b_right"]), right)):
            return "Bernoulli values differ from mpmath's"
        explicit = doc["explicit"]
        if doc["mismatch"] or (explicit is not None and expected != "boundary"
                               and explicit != (expected == "yes")):
            return "explicit a-range form disagrees"
        return None
    sigma = float(opts["sigma"])
    value, bound = doc["value"], doc["error_bound"]
    if not 0 <= bound <= TARGET:
        return f"error bound {bound!r} above the {TARGET:g} target"
    # error_bound covers truncation only; the float path is chosen when its
    # rounding stays below half the target, so that much more is allowed
    tol = bound + TARGET / 2
    if abs(value - zeta_ref(sigma, a)) <= tol - FP_MARGIN / 100:
        return None
    ref = zeta_ref(sigma, a, fast_ok=False)
    if abs(value - ref) > tol:
        return f"value {value!r} differs from mpmath {mpmath.nstr(ref, 15)}"
    return None


def check_sweep(n_min: int, n_max: int, a: float, cases):
    """A verify_theorem([a], n_min, n_max) report: one case per strip."""
    if [c.N for c in cases] != list(range(n_min, n_max + 1)):
        return f"cases for N = {[c.N for c in cases]}", []
    skips = []
    for case in cases:
        reason, skip = check_cell(case.N, a, case)
        if skip:
            skips.append(skip)
        if reason:
            return f"N={case.N}: {reason}", skips
    return None, skips


def check(item, output):
    """(reason the item's output is wrong or None, list of skip kinds)."""
    if item.kind == "sweep":
        return check_sweep(*item.args, output)
    if item.kind == "uniqueness":
        return check_uniqueness(*item.args, output), []
    return check_cli(item.args, output), []
