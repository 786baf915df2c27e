"""Real-line Hurwitz zeta evaluation and the strip-wise integral cross-check.

The adaptive evaluator picks one of four paths from sigma (the `path`
field of `EvalResult` names the one that served a call):

- sigma >= `FOURIER_CROSSOVER` (-3): Euler-Maclaurin -- head sum, integral
  term, half term, then even-Bernoulli corrections with the
  first-omitted-term remainder bound -- in floats (`float-em`, its bound
  covering float rounding too).  Where that bound misses the target, float
  rounding having left truncation too little of it, the point is summed
  again on `mpmath` floats with guard precision (`mpf-em`): at targets
  tighter than the 1e-10 default, for sigma > 0 with small a, and for
  sigma so near the pole that |zeta| passes about 2e4.
- sigma < -3, integer: the exact value -B_n(a)/n at n = 1 - sigma
  (`exact`), rounded once to a float.
- sigma < -3, otherwise: Hurwitz's Fourier series in floats (`fourier`),
  which has no head-sum cancellation for sigma < 0; its bound covers the
  series tail and float rounding.  Where the series needs more than
  `MAX_CUTOFF` terms (targets of about 1e-15 next to sigma = -3), or its
  float rounding alone passes half the target (below sigma = -21 at the
  default), Euler-Maclaurin serves instead, as `float-em` or `mpf-em`.

The returned value is always an ordinary float.  sigma must be finite;
where a float Euler-Maclaurin head, integral or half term overflows, the
call raises `AccuracyError` with an infinite bound.

`Evaluator(a, params)` is zeta(., a) as an object, and the scalar
`hurwitz_zeta` and `hurwitz_zeta_detailed` build one per call.  Reusing
one across many sigma returns the same values and bounds bit for bit, but
computes what does not depend on sigma once: the head bases n + a per
cutoff, and the Fourier angles 2 pi (k a mod 1) up to the most terms a
point needs (the float Euler-Maclaurin coefficients B_2k/(2k)! are cached
per k for the process).  It stays in pure Python: importing numpy costs
more set-up time and memory than a scan.  mpmath is imported on the first
`mpf-em` call, and scans and queries at the default target never import it.

`Evaluator.sign(sigma)` returns the certified sign of zeta(sigma, a),
which is all a zero scan uses.  It tries three rungs in turn:

- next to the pole, on [1 - d0, 1) with d0 = 1/(1/a + K + target) and K
  about 0.6, the pole rung: there zeta < -target is proved with no sum;
- a loose sum to `SIGN_SCAN_TARGET` (1e-4): the Fourier series with a few
  terms below sigma = -3, Euler-Maclaurin with `SIGN_HEAD_TERMS` head terms
  instead of 20 on [-3, 1).  `Evaluator._certify` holds the one rule by
  which a value, loose or full, certifies its sign: then the sign is that
  of zeta and of the full value, at any target;
- the full value, at the few points left, those next to a zero.

So a scan needs no guarded mpmath below sigma = -21 except next to a zero.
The first two rungs are `_loose_sign`, which returns None where neither
certifies, and else the sign with an exclusion ball: the pole rung's
reaches the pole; elsewhere on [-3, 1), the certified value's excess over
its bound gives the radius r of [sigma, sigma + r], over which zeta keeps
that sign (`_ball_radius`); below -3, r = 0.  A certified full value gives
a ball the same way, whatever path served it: a ball depends on sigma and
the margin alone.  No ball is stored, so `sign` depends on (a, params,
sigma) alone, never on earlier calls.  A certified sign is the full
value's, so a caller may skip the points a ball covers, or go straight to
the full value, without changing a sign.  `sign_changes` walks a grid that
way.  `bisect` takes slope bounds once over its bracket, so each certified
value there, loose sum or full value, gives a two-sided ball [sigma - r,
sigma + r] inside the bracket; a midpoint inside the latest ball of either
sign takes its sign with no sum, and other steps take loose sums until the
first uncertified one, then full values.  Balls are second order: the slope
at sigma is taken with its sign from the powers a^-sigma and (1 + a)^-sigma,
and only its change across the ball is bounded, so they reach a zero's
neighbourhood in few steps.  They bound zeta through the Euler-Maclaurin
form with one head term, a^-sigma, whose terms cancel far less than those
of a longer head, and two corrections, four in a bisection.  At 1e-15,
where guarded mpmath serves most full values next to a zero on N = -1..2,
their balls cut a cell's `mpf-em` calls to about a third.  On N = -1..2 (197 a from
`random.Random(100)`) a 512-point walk takes a median of 6, 7, 5 and 7
loose sums, and a bisection 3.1, 2.3, 1.7 and 2.3 loose sums and 4.5, 8.1,
9.9 and 11.4 full values.  On N = 3..7 (40 a per strip) a bisection tries
1.0-1.4 loose sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bernoulli import (
    RATIONAL_CAP,
    bernoulli_number,
    bernoulli_polynomial,
    bisect_sign,
    eval_poly,
)

__all__ = [
    "PoleError",
    "AccuracyError",
    "StripError",
    "EvalParams",
    "EvalResult",
    "Evaluator",
    "check_shift",
    "hurwitz_zeta",
    "hurwitz_zeta_detailed",
    "hurwitz_zeta_exact_at_nonpositive_integer",
    "riemann_zeta",
    "gamma_real",
    "gamma_sign",
    "integrand_G",
    "integral_representation",
]

_EPS = 2.220446049250313e-16
#: 2 zeta(5)/(2 pi)^5, a bound on |B5~(x)|/5! (periodic Bernoulli B_5).
_B5_BOUND = 2.0 * 1.0369277551433699 / (2.0 * math.pi) ** 5
#: 2 zeta(9)/(2 pi)^9, a bound on |B9~(x)|/9!.
_B9_BOUND = 2.0 * 1.0020083928260822 / (2.0 * math.pi) ** 9
_TWO_PI = 2.0 * math.pi

#: Adaptive calls below this sigma leave Euler-Maclaurin.  Against
#: `mpmath.zeta` at 40 digits, float EM misses its 1e-10 target just above
#: the point where head-sum cancellation sends it to guarded mpmath (worst
#: 2.62e-10 at sigma=-3.4807649152658082, a=0.9493694307689811; 597 of 1338
#: samples over target in (-3.6, -3.25) and 213 of 1500 in (-3.25, -3), none
#: in (-3, 0)), and guarded-mpmath EM below that costs 450-860 us per call.
#: The Fourier series reaches 1e-10 in 5-372 float terms for sigma < -3.
FOURIER_CROSSOVER = -3.0

#: `Evaluator.sign` sums the Fourier series, or float Euler-Maclaurin, to
#: this looser target first and keeps that sign where `Evaluator._certify`
#: passes the value.  The `deep`
#: benchmark (8 s runs, seeds 81-84, 2-core x86-64) ran 469-485 items/s at
#: 1e-6, 510-537 at 1e-5, 524-596 at 1e-4 and 556-562 at 1e-3.  Averaged
#: over 40 seeded a, the full evaluator then served at most 0.03, 0.33, 2.4
#: and 7.9 points of a 512-point grid on any strip N = 3..7 or uniqueness
#: interval M = 2..5.  On the float-EM strips N = -1..2 it serves 0.12-0.22
#: points of a 512-point grid (mean over 58 seeded a >= 0.01, any head
#: length below).  1e-4 keeps the speed with few fallbacks.
SIGN_SCAN_TARGET = 1e-4

#: Head terms of `Evaluator.sign`'s loose Euler-Maclaurin sum (20 in full).
#: On the scan grids of N = -1..2 (2-core x86-64, 4 seeded a, median of
#: 150 interleaved rounds) a loose sign cost 0.667, 0.670, 0.680, 0.695,
#: 0.711 and 0.739 full calls with 2, 3, 4, 5, 6 and 8 terms.  Every sum
#: reached 1e-4 within two corrections, but with 2 terms half the points
#: needed the second; 3 also leaves the loop room for five orders.
SIGN_HEAD_TERMS = 3

#: Most Euler-Maclaurin head terms, and most Fourier terms, one call sums.
MAX_CUTOFF = 10_000

#: Most Euler-Maclaurin correction terms B_2k/(2k)! one call adds; the
#: remainder bound then needs B_62, within `RATIONAL_CAP`.
MAX_CORRECTION_ORDER = 30

#: x below this uses the Laurent-tail form of the integrand (validity radius
#: of the expansion is 2*pi, comfortably above it).
SMALL_X_THRESHOLD = 0.5


class PoleError(ValueError):
    """zeta(s, a) has a simple pole at s = 1; values there are rejected."""


class AccuracyError(RuntimeError):
    """Requested accuracy could not be reached within the truncation caps."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class StripError(ValueError):
    """The integral representation only holds for -N-1 < sigma < -N."""


@dataclass(frozen=True)
class EvalParams:
    """The evaluator's absolute error target."""

    target_abs_error: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.target_abs_error < math.inf:
            raise ValueError("target_abs_error must be finite and positive")


@dataclass(frozen=True)
class EvalResult:
    """An evaluator value with its absolute error bound.

    `path` is the evaluator that served the call: `float-em`, `mpf-em`,
    `fourier` or `exact`.
    """

    value: float
    error_bound: float
    path: str


def check_shift(a: float) -> float:
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise ValueError("shift parameter must satisfy 0 < a <= 1")
    return a


def _check_strip(N: int, sigma: float) -> None:
    if N < -1:
        raise ValueError("strip index must be >= -1")
    if not (-N - 1 < sigma < -N):
        raise StripError(
            f"sigma={sigma} is not strictly inside (-{N + 1}, {-N})"
        )


def _default_cutoff(sigma: float) -> int:
    return min(MAX_CUTOFF, max(20, math.ceil(abs(sigma)) + 10))


@lru_cache(maxsize=None)
def _em_coef(j: int) -> float:
    """B_j / j! as float(numerator) / denominator / j!; the float
    Euler-Maclaurin values depend on this rounding order."""
    b = bernoulli_number(j)
    return float(b.numerator) / b.denominator / math.factorial(j)


def _correction_loop(s, q, total, kmax, target, coef):
    """Shared Euler-Maclaurin correction loop (float or mpf arithmetic).

    Adds T_k = B_2k/(2k)! * (s)(s+1)...(s+2k-2) * q^(-s-2k+1) for k = 1..,
    bounding the remainder after K terms by |T_(K+1)|, valid from the
    first K with sigma + 2K + 1 > 0.  `coef(j)` is B_j/j! in the loop's
    arithmetic.  Returns the partial sum at the best bound seen, so the
    reported bound is monotone in the order cap.
    """
    kmin = max(1, math.floor((-float(s) - 1.0) / 2.0) + 1)
    poch = s
    tpow = q ** (-s - 1)
    qm2 = q ** -2
    best_bound = math.inf
    best_val = total
    val = total
    c = coef(2)
    for k in range(1, kmax + 1):
        val = val + c * poch * tpow
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        tpow = tpow * qm2
        c = coef(2 * k + 2)
        bound = float(abs(c * poch * tpow))
        if k >= kmin and bound < best_bound:
            best_bound = bound
            best_val = val
            if bound <= target:
                break
    return best_val, best_bound


def _em_mpf(sigma: float, a: float, M: int, kmax: int, target: float):
    # imported here: no scan or query at the default target reaches mpf-em
    from mpmath import mp, mpf

    q0 = M + a
    guard = max(0.0, -sigma) * math.log10(q0 + 2.0)
    dps = 18 + int(guard) + max(0, int(-math.log10(target)) - 10)
    with mp.workdps(dps):
        s = mpf(sigma)
        af = mpf(a)
        q = mpf(M) + af
        head = mpf(0)
        for n in range(M):
            head += (mpf(n) + af) ** -s
        total = head + q ** (1 - s) / (s - 1) + q ** -s / 2

        def coef(j):
            b = bernoulli_number(j)
            return mpf(b.numerator) / b.denominator / math.factorial(j)

        val, bound = _correction_loop(s, q, total, kmax, target, coef)
        return float(val), bound


def _fourier_slope(sigma: float, t: float) -> float:
    """L(t) >= 0 with |zeta(y, a)| >= |zeta(sigma, a)| - (y - sigma) L(t) for
    y in [sigma, sigma + t] where zeta keeps its sign, any a, if -3 <=
    sigma < 0 and 0 <= t <= -sigma/2: the slope bound of Hurwitz's series.
    zeta = pref * S as in `Evaluator._fourier_plan`, s = 1 - sigma, and
    |S'| <= sum (pi/2 + ln k) k^-s <= L1(s) = (pi/2)(1 + 1/(s-1)) +
    1/(s-1)^2 + 1/(e s) (integral test), falling in s; pref rises with
    sigma, as psi(4) < ln 2 pi, so L(t) = pref(sigma) L1(1 - sigma - t),
    inflated by 1e-12 for rounding."""
    d = -sigma  # s - 1 at s = 1 - sigma, exactly
    e = d - t  # s - 1 at s = 1 - sigma - t
    u = 1.0 / e
    return ((1.0 + 1e-12) * 2.0 * math.gamma(1.0 + d) / _TWO_PI ** (1.0 + d)
            * (0.5 * math.pi * (1.0 + u) + u * u
               + 1.0 / (math.e * (1.0 + e))))


def _quadratic_root(slope: float, p2: float, margin: float) -> float:
    """The r >= 0 with r slope + r^2 p2/2 = margin, for p2, margin > 0."""
    root = math.sqrt(slope * slope + 2.0 * p2 * margin)
    return (2.0 * margin / (slope + root) if slope > 0.0
            else (root - slope) / p2)


def _em_slope_consts(a: float):
    """The per-a factors of `Evaluator._ball_radius`'s Euler-Maclaurin
    bound: q = 1 + a, ln q, ln a and its square, |B_2j|/(2j)! q^(1-2j) for
    its corrections j = 1..4, the factors of rho for 2 and for 4
    corrections, and those of P2."""
    q = 1.0 + a
    ln_q = math.log(q)
    ln_a = math.log(a)
    c1, c2 = 1.0 / (12.0 * q), 1.0 / (720.0 * q ** 3)
    return (
        q, ln_q, ln_a, ln_a * ln_a, c1, c2, 1.0 / (30240.0 * q ** 5),
        1.0 / (1209600.0 * q ** 7),
        {2: (1.0 + 1e-12) * _B5_BOUND / q ** 4,
         4: (1.0 + 1e-12) * _B9_BOUND / q ** 8},
        0.5 * ln_q * ln_q + 2.0 * c1 * ln_q, c1 * ln_q * ln_q, 6.0 * c2,
        2.0 * c2 * ln_q, c2 * ln_q * ln_q)


def _slope_bounds(consts, lo: float, hi: float, q_s: float, a_hi: float,
                  k: int):
    """(rho, P2): bounds on |R'| and |P'| over [lo, hi], -2k < lo <= hi <
    1, for `Evaluator._ball_radius`'s form with k = 2 or 4 corrections,
    given consts = `_em_slope_consts(a)`, q_s >= q^-lo and a_hi >= a^-hi.

    Each factor is bounded at its worse end of the span: with c and h
    its centre and half-length, m_i = |c + i| + h bounds |s + i|.  A j-th
    derivative of (s)_n = s (s + 1) ... (s + n - 1) is j! times a sum of
    products of n - j of its factors, so |(s)_n^(j)| <= j! times the
    coefficient of t^j in (m_0 + t) ... (m_(n-1) + t); each product term
    may take any such bounds on its factors.  So |(s)_3| <= S3 = m0 m1 m2,
    |(s)_3'| <= S3' = m0 m1 + (m0 + m1) m2, |(s)_3''| = 6 |s + 1| <= 6 m1,
    and times (m3 + t) (m4 + t), |(s)_5| <= S5 = S3 m3 m4, |(s)_5'| <= S5'
    = S3' m3 m4 + S3 (m3 + m4), and so on to (s)_9; |s ln q - 2| <= 2 + m0
    ln q.  Powers of q > 1 fall in s, so they take lo: q^-s <= q_s, q^u
    <= q q_s; a^-s rises, so a^-s <= a_hi; 1/u^3 <= 1/e^3, e = 1 - hi;
    the square is convex in u, so w = its larger end value on [e, 1 -
    lo].  With n = 2k + 1, |Bn~|/n! <= c = 2 zeta(n)/(2 pi)^n, int_1^oo
    (x+a)^(-b-1) = q^-b/b and int ln(x+a) (x+a)^(-b-1) = q^-b (ln q/b +
    1/b^2), b = s + 2k >= lo + 2k = b0: rho = c q_s q^-2k (Sn' + Sn (ln q
    + 1/b0))/b0, and P2 = ln^2 a a_hi + q q_s (w^2 + 1)/e^3 + q_s (ln^2
    q/2 + ln q (2 + m0 ln q)/(12 q) + (6 m1 + 2 S3' ln q + S3 ln^2
    q)/(720 q^3) and, for k = 4, the same for (s)_5/(30240 q^5) and
    (s)_7/(1209600 q^7)).  Both are inflated by 1 + 1e-12 for rounding.
    """
    q, ln_q, _, ln_a2, _, _, c3, c4, rho_c, p2_0, k1, k2, k3, k4 = consts
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n0, n1, n2 = abs(c) + h, abs(c + 1.0) + h, abs(c + 2.0) + h
    n3, n4 = abs(c + 3.0) + h, abs(c + 4.0) + h
    s3 = n0 * n1 * n2
    s3d = n0 * n1 + (n0 + n1) * n2
    corr = p2_0 + k1 * n0 + k2 * n1 + k3 * s3d + k4 * s3
    s, sd = s3 * n3 * n4, s3d * n3 * n4 + s3 * (n3 + n4)  # S5, S5'
    if k == 4:
        sd2 = 3.0 * n1 * n3 * n4 + s3d * (n3 + n4) + s3  # S5''/2
        for cj, i in ((c3, 5.0), (c4, 7.0)):
            corr += cj * (2.0 * sd2 + ln_q * (2.0 * sd + ln_q * s))
            for n in (abs(c + i) + h, abs(c + i + 1.0) + h):
                s, sd, sd2 = s * n, sd * n + s, sd2 * n + sd
    b = lo + 2.0 * k
    e = 1.0 - hi
    w = max((1.0 - lo) * ln_q - 1.0, 1.0 - e * ln_q)
    rho = rho_c[k] * q_s / b * (sd + s * (ln_q + 1.0 / b))
    return rho, (1.0 + 1e-12) * (
        ln_a2 * a_hi + q * q_s * (w * w + 1.0) / (e * e * e) + q_s * corr)


class Evaluator:
    """zeta(., a) under one `EvalParams`.

    Work that does not depend on sigma is done once per instance: the head
    bases n + a for each cutoff, the Fourier angles 2 pi (k a mod 1),
    extended to the most terms any sigma has needed, the logarithms of the
    exclusion balls' slope bounds and the pole rung's reach.  Calling it
    at sigma returns (value, error_bound, path), the same bit for bit as a
    fresh instance would; float Euler-Maclaurin's own bound alone decides
    whether a point moves to `mpf-em`.  `sign` returns the certified sign
    of zeta: that of the pole rung or a cheaper sum where its bound
    allows, else that of the value.  No call depends on an earlier one.
    Every certified value on [-3, 1), loose sum or full value, whatever
    path served it, leaves an exclusion ball (`_certify`).  `sign_changes`
    and `bisect` are a zero scan's two halves: the grid walk on forward
    exclusion balls, and the bisection of each sign change it finds, on
    balls two-sided inside its bracket.
    """

    def __init__(self, a: float, params: EvalParams = EvalParams()):
        self.a = check_shift(a)
        self.params = params
        self._heads = {}  # M: (bases n + a, q = M + a, ln q, sqrt(2) pi q)
        self._angles = [0.0]  # index k; k = 0 is never summed
        self._em_slopes = None  # `_em_slope_consts(a)`, on first use
        # d0 of the pole rung (`_loose_sign`): zeta(sigma, a) < -target
        # where 0 < 1 - sigma <= d0.  For 0 <= s < 1, with `_ball_radius`'s
        # form stopped after two corrections (q = 1 + a; its B_5 remainder
        # R is the smaller there), q^(1-s)/(s-1) <= 1/(s-1), q^-s/2 <= 1/2,
        # s q^(-s-1)/12 <= 1/12, |(s)_3| q^(-s-3)/720 <= 6/720, |R| <= c
        # |(s)_5| q^(-s-4)/(s+4) <= 30 c and a^-s <= 1/a, so
        # zeta(s, a) <= 1/a + K - 1/(1 - s), K = 7/12 + 1/120 + 30 c.  So
        # d0 = 1/(1/a + K + target) < 0.63; 1 - 1e-12 covers the rounding
        # of d0, of 1 - sigma (exact from sigma = 1/2 on) and of the ends
        # of the rung's balls.
        self._pole_reach = (1.0 - 1e-12) / (
            1.0 / self.a + 7.0 / 12.0 + 1.0 / 120.0 + 30.0 * _B5_BOUND
            + params.target_abs_error)

    def __call__(self, sigma: float):
        a = self.a
        sigma = float(sigma)
        if not math.isfinite(sigma):
            raise ValueError("sigma must be finite")
        if sigma == 1.0:
            raise PoleError("zeta(s, a) has a pole at s = 1")
        target = self.params.target_abs_error
        if sigma < FOURIER_CROSSOVER:
            if sigma.is_integer() and sigma >= 1 - RATIONAL_CAP:
                val = hurwitz_zeta_exact_at_nonpositive_integer(
                    1 - int(sigma), Fraction(a))
                return float(val), 0.0, "exact"
            plan = self._fourier_plan(sigma, target)
            # where the terms pass MAX_CUTOFF or rounding alone passes
            # target/2, Euler-Maclaurin serves
            if (plan is not None and plan[0] <= MAX_CUTOFF
                    and plan[3] <= target / 2.0):
                n, pref, tail, rounding = plan
                return (pref * self._fourier_sum(sigma, n), tail + rounding,
                        "fourier")
        M = _default_cutoff(sigma)
        val, bound = self._em_float(sigma, M, target)
        if bound <= target:
            return val, bound, "float-em"
        # rounding left truncation too little room
        val, bound = _em_mpf(sigma, a, M, MAX_CORRECTION_ORDER, target)
        if bound > target:
            raise AccuracyError(
                f"achieved bound {bound:.3e} exceeds target {target:.3e} "
                f"at sigma={sigma}, a={a}",
                achieved_bound=bound,
            )
        return val, bound, "mpf-em"

    def _em_float(self, sigma: float, M: int, target: float):
        """Euler-Maclaurin in floats with M head terms: (value, bound),
        the bound covering truncation and float rounding.  It is infinite
        when rounding alone reaches `target`; a head, integral or half term
        that overflows a float raises `AccuracyError` with an infinite
        bound.  A value's exclusion ball does not depend on this sum:
        `_ball_radius` takes its own powers."""
        head_plan = self._heads.get(M)
        if head_plan is None:
            a = self.a
            q = M + a
            head_plan = self._heads[M] = (
                [n + a for n in range(M)], q, math.log(q),
                math.sqrt(2.0) * math.pi * q)
        bases, q, ln_q, reach = head_plan
        x = 1.0 - sigma
        try:
            head = math.fsum([b ** -sigma for b in bases])
            q_x = q ** x
            q_s = q ** -sigma
        except OverflowError:
            raise AccuracyError(
                f"head-sum magnitude overflows a float at sigma={sigma}, "
                f"a={self.a}",
                achieved_bound=math.inf,
            ) from None
        integral = q_x / (sigma - 1.0)
        half = 0.5 * q_s
        partial = head + integral
        total = partial + half
        # First-order rounding in units u = eps/2, libm's pow taken as good
        # to 1 ulp (2u):
        # - head: b = n + a is off by u relative, so b^-sigma by |sigma| u,
        #   plus 2u for the pow, and fsum rounds once.  Every term is
        #   positive, so their magnitudes sum to head: (|sigma| + 3) u head.
        # - integral q^x/(sigma - 1): q off by u moves it by |x| u; x =
        #   fl(1 - sigma) is off by dx, computed exactly, which moves q^x by
        #   |dx| ln q and, as sigma - 1 rounds to -x, the divisor by |dx/x|;
        #   pow and division 3u.  Half term (|sigma| + 2) u, two additions.
        # - corrections: below kmax, |T_(k+1)/T_k| <= ((|sigma| + 2k) /
        #   (2 pi q))^2 <= 1/2 (as |B_2k|/(2k)! = 2 zeta(2k)/(2 pi)^2k), so
        #   |T_k| <= 2^(1-k) |T_1|, |T_1| = |sigma| half/(6q).  Term k is off
        #   by at most (9k + |sigma| + |sigma + 1| ln q) u: 4u in B_2k/(2k)!,
        #   4u per Pochhammer step, |sigma + 2k - 1| u from q and
        #   |sigma + 1| u ln q from -sigma - 1 in q^(-sigma-2k+1), 3u per
        #   q^-2 step, 2u for pow and 2u for the product.  Summed over k:
        #   (36 + 2|sigma| + 2|sigma + 1| ln q) u |T_1|.  Each of the at
        #   most 30 additions rounds a partial sum under |total| + 2|T_1|,
        #   hence the 96 and the 31 below.
        s_abs = abs(sigma)
        integral_abs = abs(integral)
        rounding = 0.5 * _EPS * (
            (s_abs + 3.0) * head + (abs(x) + 3.0) * integral_abs
            + (s_abs + 2.0 + (96.0 + 2.0 * (s_abs + abs(sigma + 1.0) * ln_q))
               * s_abs / (6.0 * q)) * half
            + abs(partial) + 31.0 * abs(total))
        dx = math.fsum((1.0, -sigma, -x))
        if dx:
            rounding += abs(dx) * (ln_q + 1.0 / abs(x)) * integral_abs
        if rounding >= target:
            return total, math.inf
        kmax = MAX_CORRECTION_ORDER
        if s_abs + 2 * kmax > reach:
            kmax = int((reach - s_abs) / 2.0)
        val, bound = _correction_loop(sigma, q, total, kmax,
                                      target - rounding, _em_coef)
        return val, bound + rounding

    def sign(self, sigma: float) -> int:
        """Certified sign (-1, 0 or 1) of zeta(sigma, a).

        Below sigma = 1 `_loose_sign` comes first.  Next to the pole, on
        [1 - d0, 1), zeta < -target is proved with no sum (d0 as in
        `__init__`).  Elsewhere a loose sum to `SIGN_SCAN_TARGET` runs: the
        Fourier series with a few terms for sigma < -3, Euler-Maclaurin with
        `SIGN_HEAD_TERMS` head terms on [-3, 1).  Where `_certify` passes
        it, its sign is that of zeta and of the full value.  Where neither
        certifies, the sign is that of self(sigma)[0].  So `sign` raises
        only where self(sigma) raises and `_loose_sign` does not certify,
        and it depends on sigma alone, never on earlier calls.
        """
        sigma = float(sigma)
        return (self._loose_sign(sigma) or self._value_sign(sigma))[0]

    def _value_sign(self, sigma: float, bounds=None):
        """(sign, r): the sign of the full value self(sigma)[0], with the
        exclusion ball that `_certify` gives it, else r = 0."""
        val, bound, _ = self(sigma)
        return (self._certify(sigma, val, bound, bounds)
                or ((val > 0.0) - (val < 0.0), 0.0))

    def _loose_sign(self, sigma: float, bounds=None):
        """`sign`'s cheap rungs: (sign, r) where the pole rung or the loose
        sum certifies the sign of zeta(sigma, a), else None.  On the pole
        rung [1 - d0, 1) the sign is -1 and zeta keeps it on [sigma, sigma
        + r], r short of the pole by 1e-12 of 1 - sigma, which rounding in a
        caller's ball test cannot bridge; given a bisection's `bounds`, on
        [sigma - r, sigma + r] back to 1 - d0.  Elsewhere the loose sum
        certifies through `_certify`."""
        if sigma < FOURIER_CROSSOVER:
            plan = self._fourier_plan(sigma, SIGN_SCAN_TARGET)
            if plan is not None:
                n, pref, tail, rounding = plan
                return self._certify(sigma, pref * self._fourier_sum(sigma, n),
                                     tail + rounding)
        elif sigma < 1.0:
            d = 1.0 - sigma
            if d <= self._pole_reach:
                return -1, ((1.0 - 1e-12) * d if bounds is None
                            else self._pole_reach - d)
            val, bound = self._em_float(sigma, SIGN_HEAD_TERMS,
                                        SIGN_SCAN_TARGET)
            return self._certify(sigma, val, bound, bounds)
        return None

    def _certify(self, sigma: float, val: float, bound: float, bounds=None):
        """(sign, r) where the value `val` at sigma, within `bound` of
        zeta(sigma, a), certifies its sign, else None.

        The one certification rule: with target the params target, the
        value certifies where margin = |val| - bound - target - 2 eps |val|
        > 0, 2 eps |val| covering the value's own rounding.  Then |zeta| >
        target, so sign(val) is the sign of zeta and of any value within
        target of it, the full value's included, at any target.  On [-3,
        1) every certified value gives the exclusion ball of `_ball_radius`
        on the margin, whatever path served it: forward, or, given a
        bisection's slope `bounds`, two-sided inside its bracket.
        Elsewhere r = 0."""
        margin = (abs(val) - bound - self.params.target_abs_error
                  - 2.0 * _EPS * abs(val))
        if not margin > 0.0:
            return None
        sgn = 1 if val > 0.0 else -1
        if not FOURIER_CROSSOVER <= sigma < 1.0:
            return sgn, 0.0
        return sgn, self._ball_radius(sigma, sgn, margin, bounds)

    def sign_changes(self, lo: float, step: float, n: int):
        """The sign changes of zeta(., a) over the grid lo + i * step, i <
        n, on certified signs: (x, x, 0) for a grid point x of sign 0
        other than the first, and (x, y, sign at x) for neighbouring
        sampled points x < y of opposite signs.  Every sign is taken before
        this returns, so a failing grid point raises before any bisection.

        Each point takes its loose sign, else its full value's.  Where
        either leaves a ball [x, x + r], every later grid point in it
        has x's sign, so the walk records x's sign change first and then
        goes on from grid index i + int(r/step), stepped back until the
        point lies in the ball: that spares testing each of the ~480
        covered points of a 512-point scan on N = -1..2 in turn.  Rounding
        may leave the last covered point to be tested, which costs a sum
        and never moves a sign.
        """
        events = []
        prev_x = prev_s = None
        i = 0
        while i < n:
            x = lo + i * step
            sx, r = self._loose_sign(x) or self._value_sign(x)
            if sx == 0:
                if i:  # the first point only opens the first bracket
                    events.append((x, x, 0))
            elif prev_s and sx != prev_s:
                events.append((prev_x, x, prev_s))
            if r:
                j = min(n - 1, i + int(r / step))
                while lo + j * step - x > r:
                    j -= 1
                i, x = j, lo + j * step
            prev_x, prev_s = x, sx
            i += 1
        return events

    def bisect(self, lo: float, hi: float, slo: int):
        """`bisect_sign` on [lo, hi], whose ends have the signs slo and
        -slo, to half-width <= the params target: (x, half-width).

        On [-3, 1) every certified sign, from the pole rung, a loose sum
        or a full value, leaves an exclusion ball, two-sided inside the
        bracket, whose slope bounds `_bracket_bounds` takes once.  The
        latest ball of each sign is kept, and a midpoint inside one takes
        its sign with no sum.  Other steps take loose signs up to the first
        one the loose sum leaves uncertified, then full values: later steps
        are closer to the zero, where loose sums seldom certify.  Each sign
        is `sign`'s, unless a full value raises at a step a ball or a loose
        sum would have certified."""
        bounds = self._bracket_bounds(lo, hi)
        loose = True
        # the latest ball of each sign, (centre, radius); none yet
        lo_c, lo_r, hi_c, hi_r = lo, 0.0, hi, 0.0

        def sign(x: float) -> int:
            nonlocal loose, lo_c, lo_r, hi_c, hi_r
            if abs(x - lo_c) <= lo_r:
                return slo
            if abs(x - hi_c) <= hi_r:
                return -slo
            got = None
            if loose:
                got = self._loose_sign(x, bounds)
                loose = got is not None
            s, r = got or self._value_sign(x, bounds)
            if r and bounds:
                if s == slo:
                    lo_c, lo_r = x, r
                else:
                    hi_c, hi_r = x, r
            return s

        return bisect_sign(sign, lo, hi, slo, self.params.target_abs_error)

    def _bracket_bounds(self, lo: float, hi: float):
        """A bisection's slope bounds (rho, P2): `_slope_bounds` with four
        corrections on its bracket [lo, hi], from the powers at the
        bracket's ends, where -3 <= lo and hi < 1; else None."""
        if not (FOURIER_CROSSOVER <= lo and hi < 1.0):
            return None
        consts = self._consts()
        q, _, ln_a = consts[:3]
        ea = -hi * ln_a  # ln a^-hi; past 690, P2 = inf and balls have r = 0
        a_hi = math.exp(ea) if ea < 690.0 else math.inf
        return _slope_bounds(consts, lo, hi, q ** -lo, a_hi, 4)

    def _consts(self):
        """`_em_slope_consts(a)`, computed on first use."""
        consts = self._em_slopes
        if consts is None:
            consts = self._em_slopes = _em_slope_consts(self.a)
        return consts

    def _ball_radius(self, sigma: float, sgn: int, margin: float,
                     bounds=None) -> float:
        """r >= 0 with zeta(., a) of sign `sgn` and |zeta| > |zeta(sigma, a)|
        - margin on [sigma, sigma + r], or, given `_slope_bounds` (rho, P2)
        over a span around sigma, on [sigma - r, sigma + r] inside that
        span, if -3 <= sigma < 1, 0 < margin < |zeta(sigma, a)| and sgn is
        its sign: the exclusion ball of a certified value.  It depends on
        (a, sigma, margin) alone, not on the sum that gave the value.

        With one head term and k corrections (Apostol Ch. 12), for s > -2k,
        zeta(s, a) = a^-s + q^(1-s)/(s-1) + q^-s/2 + sum_(j<=k) C_j (s)_m
        q^(1-s-m) + R, m = 2j - 1, C_j = B_2j/(2j)!, R = -(s)_n/n! int_1^oo
        Bn~(x) (x+a)^(-s-n) dx, n = 2k + 1, (s)_m the rising factorial.  Its
        integral term cancels far less than that of a longer head would.  A
        forward ball, which P2 limits, takes k = 2; a bisection's, which rho
        limits next to a zero, takes k = 4, whose R' is about 3 times
        smaller on N = -1 and 100 times on N = 2.  So zeta' = P + R', P the
        derivative of the rest: P(s) = -ln a a^-s - q^u (1 - u ln q)/u^2 -
        (ln q/2) q^-s + sum_j C_j q^(1-s-m) ((s)_m' - (s)_m ln q), u = 1 -
        s, and P' = ln^2 a a^-s - q^u ((u ln q - 1)^2 + 1)/u^3 + (ln^2 q/2)
        q^-s + sum_j C_j q^(1-s-m) ((s)_m'' - 2 (s)_m' ln q + (s)_m ln^2
        q).  `_slope_bounds` bounds |R'| by rho and |P'| by P2 over a span.
        P(sigma) takes a^-sigma and q^-sigma, with sign; 1e-12 times the
        sum of its terms' sizes covers its rounding.

        Inside the span, |zeta'(y)| <= |P(sigma)| + rho + |y - sigma| P2,
        so zeta keeps its sign and |zeta| falls by at most r (rho +
        |P(sigma)|) + r^2 P2/2 <= margin within r of sigma, either way: r
        solves that quadratic.  Forward, sgn zeta'(y) >= sgn P(sigma) - rho
        - (y - sigma) P2, so |zeta| falls by at most r (rho - sgn P(sigma))
        + r^2 P2/2 over [sigma, sigma + r], with rho and P2 on [sigma,
        sigma + u], r <= u (the left side is convex in r, so its end bounds
        it).  u is at most d/2, halfway to the pole (d = 1 - sigma), and at
        most the root with rho = 0 and P2 at sigma alone without its
        Pochhammer terms, which bounds r.
        On [-3, 0) Hurwitz's ball comes first: r1 = min(-sigma/2,
        margin/L(0)), then r = min(r1, margin/L(r1)), so L r <= margin with
        L(r1) >= L(r) (`_fourier_slope`).  The Euler-Maclaurin ball is
        solved once, only where u passes r, and the larger stands.  Where
        a^-sigma passes e^690, sigma > 0 and r = 0; where a forward ball's
        a^(-sigma-u) does, no Euler-Maclaurin ball forms.  So P2 stays a
        float.
        """
        consts = self._consts()
        q, ln_q, ln_a, ln_a2, c1, c2, c3, c4, _, p2_0 = consts[:10]
        if -sigma * ln_a > 690.0:
            return 0.0
        a_s, q_s = self.a ** -sigma, q ** -sigma
        d = 1.0 - sigma
        q_d = q * q_s
        g = (1.0 - d * ln_q) / (d * d)
        head = ln_a * a_s
        half = 0.5 * ln_q * q_s
        t1 = c1 * q_s * (1.0 - sigma * ln_q)
        poch = sigma * (sigma + 1.0) * (sigma + 2.0)  # (s)_3, then (s)_5
        dpoch = 3.0 * sigma * sigma + 6.0 * sigma + 2.0
        t2 = c2 * q_s * (dpoch - poch * ln_q)
        minus_p = head + q_d * g + half - t1 + t2
        # size sums the terms' sizes
        size = abs(head) + q_d * abs(g) + half + abs(t1) + abs(t2)
        if bounds is not None:
            # a bisection's form has the corrections of (s)_5 and (s)_7
            f = (sigma + 3.0) * (sigma + 4.0)
            poch, dpoch = poch * f, dpoch * f + poch * (2.0 * sigma + 7.0)
            t3 = c3 * q_s * (dpoch - poch * ln_q)
            f = (sigma + 5.0) * (sigma + 6.0)
            t4 = c4 * q_s * (dpoch * f + poch * (2.0 * sigma + 11.0)
                             - poch * f * ln_q)
            minus_p += t4 - t3
            size += abs(t3) + abs(t4)
            rho, p2 = bounds
            return _quadratic_root(rho + 1e-12 * size + abs(minus_p), p2,
                                   margin)
        # r slope + r^2 P2/2 <= margin, slope = rho - sgn P(sigma)
        slope = 1e-12 * size + sgn * minus_p
        w = d * ln_q - 1.0
        u = min(0.5 * d, _quadratic_root(
            slope, ln_a2 * a_s + q_d * (w * w + 1.0) / (d * d * d)
            + q_s * p2_0, margin))
        r = 0.0
        if sigma < 0.0:
            r = min(-0.5 * sigma, margin / _fourier_slope(sigma, 0.0))
            r = min(r, margin / _fourier_slope(sigma, r))
        # ln a^(-sigma-u); past 690 its ln^2 a multiple in P2 could overflow
        # a float (ln^2 a < e^14)
        ea = -(sigma + u) * ln_a
        if u > r and ea <= 690.0:
            rho, p2 = _slope_bounds(consts, sigma, sigma + u, q_s,
                                    math.exp(ea), 2)
            r = max(r, min(u, _quadratic_root(slope + rho, p2, margin)))
        return r

    def _fourier_plan(self, sigma: float, target: float):
        """Term count of Hurwitz's formula for sigma < -3 (the rounding
        bound below assumes s > 4).

        With s = 1 - sigma > 1 and 0 < a <= 1,
        zeta(sigma, a) = pref * sum_(k>=1) cos(pi s/2 - 2 pi k a) / k^s with
        pref = 2 Gamma(s)/(2 pi)^s (Apostol, Thm 12.6).  To reach `target`,
        the first n terms are summed, n least with tail bound
        pref * n^(1-s)/(s-1) <= target/2.  Returns (n, pref, tail, rounding),
        rounding being the float rounding bound of the n-term value, or None
        where Gamma(s) overflows.  The caller judges whether rounding leaves
        room for the target and whether n is within `MAX_CUTOFF`.
        """
        s = 1.0 - sigma
        if s > 170.0:
            return None  # Gamma(s) overflows; rounding passed any target
        pref = 2.0 * math.gamma(s) / _TWO_PI ** s
        # First-order rounding, in ulps of pref, for s > 4 (so sum k^-s <
        # 1.09, sum k^(1-s) < 1.21) and n <= MAX_CUTOFF: the rounded s (s/2
        # ulps times log s + log n + 4 for the slope of each term), the
        # cosine argument (pi s + pi k + 11 ulps, k*a included), k^-s and
        # the product (1.5), the correctly rounded fsum (0.5) and pref
        # itself (22.5 + s/2, Gamma taken as good to 20 ulps).
        rounding = _EPS * pref * (s * (math.log(s * MAX_CUTOFF) + 12.0) + 44.0)
        # n is the root of pref * n^(1-s)/(s-1) = target/2, rounded up (at
        # least 1), up to a rounding short by one; a root that overflows a
        # float (a target so tight that rounding swamps it) reads as one
        # term over MAX_CUTOFF
        root = (2.0 * pref / ((s - 1.0) * target)) ** (1.0 / (s - 1.0))
        n = MAX_CUTOFF + 1 if root == math.inf else max(1, math.ceil(root))
        tail = pref * n ** (1.0 - s) / (s - 1.0)
        if tail > target / 2.0:  # the rounded root fell just short
            n += 1
            tail = pref * n ** (1.0 - s) / (s - 1.0)
        return n, pref, tail, rounding

    def _fourier_sum(self, sigma: float, n: int) -> float:
        """sum_(k=1..n) cos(pi s/2 - 2 pi k a) / k^s, s = 1 - sigma."""
        a = self.a
        angles = self._angles
        for k in range(len(angles), n + 1):
            angles.append(_TWO_PI * (k * a % 1.0))
        s = 1.0 - sigma
        phase = 0.5 * math.pi * s
        return math.fsum([math.cos(phase - angles[k]) * k ** -s
                          for k in range(1, n + 1)])


def hurwitz_zeta_detailed(sigma: float, a: float,
                          params: EvalParams = EvalParams()) -> EvalResult:
    """Evaluate zeta(sigma, a) with an explicit achieved error bound.

    sigma < `FOURIER_CROSSOVER` is served exactly at integers and by the
    Fourier series elsewhere, where its terms and rounding allow;
    Euler-Maclaurin serves every other point, with the head length
    max(20, ceil(|sigma|) + 10), growing the correction order until the
    first-omitted-term bound clears the target.
    """
    return EvalResult(*Evaluator(a, params)(sigma))


def hurwitz_zeta(sigma: float, a: float,
                 params: EvalParams = EvalParams()) -> float:
    """zeta(sigma, a) on the real line, absolute error <= the params target."""
    return Evaluator(a, params)(sigma)[0]


def riemann_zeta(sigma: float, params: EvalParams = EvalParams()) -> float:
    """zeta(sigma) = zeta(sigma, 1)."""
    return hurwitz_zeta(sigma, 1.0, params)


def hurwitz_zeta_exact_at_nonpositive_integer(n: int, a) -> Fraction:
    """Exact zeta(1-n, a) = -B_n(a)/n for integer n >= 1 and rational a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(a, numbers.Rational):
        raise TypeError("a must be rational for the exact value")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("shift parameter must satisfy 0 < a <= 1")
    return -eval_poly(bernoulli_polynomial(n), a) / n


def gamma_real(x: float) -> float:
    """Gamma on the real line; plumbing for the integral cross-check."""
    x = float(x)
    if x <= 0.0 and x.is_integer():
        raise ValueError("gamma pole at nonpositive integer")
    return math.gamma(x)


def gamma_sign(sigma: float) -> int:
    """Sign of Gamma(sigma) for negative non-integer sigma.

    On (-k-1, -k) the sign is (-1)^(k-1): negative on (-1,0), positive on
    (-2,-1), and alternating onward.
    """
    sigma = float(sigma)
    if sigma >= 0.0 or sigma.is_integer():
        raise ValueError("sigma must be negative and non-integer")
    k = math.floor(-sigma)
    return 1 if (k - 1) % 2 == 0 else -1


@lru_cache(maxsize=256)
def _laurent_coeffs(a: float):
    """Float coefficients B_n(1-a)/n!, n <= `RATIONAL_CAP`, of the
    expansion of e^((1-a)x)/(e^x-1)."""
    out = []
    fact = 1.0
    for n in range(RATIONAL_CAP + 1):
        if n > 0:
            fact *= n
        out.append(eval_poly(bernoulli_polynomial(n), 1.0 - a) / fact)
    return tuple(out)


def _integrand_G_scaled(N: int, a: float, x: float) -> float:
    """G_N(a,x) / x^(N+1); finite and smooth down to x = 0."""
    c = _laurent_coeffs(a)
    if x < SMALL_X_THRESHOLD:
        acc = 0.0
        xp = 1.0
        small_run = 0
        for n in range(N + 2, len(c)):
            term = c[n] * xp
            acc += term
            if abs(term) < 1e-18 * (abs(acc) + 1.0):
                # odd-index coefficients can be exactly zero (a = 1/2, 1);
                # stop only on two negligible terms in a row
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
            xp *= x
        return acc
    return _integrand_G_direct(N, a, x) / x ** (N + 1)


def _integrand_G_direct(N: int, a: float, x: float) -> float:
    c = _laurent_coeffs(a)
    # e^((1-a)x)/(e^x - 1) written as e^(-ax)/(1 - e^(-x)) to avoid overflow
    kernel = math.exp(-a * x) / (-math.expm1(-x))
    partial = math.fsum(c[n] * x ** (n - 1) for n in range(N + 2))
    return kernel - partial


def integrand_G(N: int, a: float, x: float) -> float:
    """The subtracted kernel G_N(a,x) of the strip integral representation.

    For x below `SMALL_X_THRESHOLD` the convergent Laurent tail is summed
    instead of the direct difference, which loses all digits as x -> 0
    because the subtracted partial sum matches the leading terms.
    """
    a = check_shift(a)
    if N < -1:
        raise ValueError("strip index must be >= -1")
    if x <= 0.0:
        raise ValueError("x must be positive")
    if x < SMALL_X_THRESHOLD:
        return _integrand_G_scaled(N, a, x) * x ** (N + 1)
    return _integrand_G_direct(N, a, x)


#: Absolute tolerance of each quadrature in `integral_representation`.
QUAD_TOL = 5e-11


def integral_representation(sigma: float, a: float, N: int) -> float:
    """Gamma(sigma)*zeta(sigma,a) via the strip integral, for sigma in
    (-N-1, -N), each quadrature to absolute error `QUAD_TOL`.

    Split at x = 1 mirroring the proof decomposition P + Q_N + R_N: the tail
    piece P integrates the exponential kernel out to where its envelope
    clears the budget, Q_N is the closed-form rational part, and R_N handles
    (0,1] with the algebraic endpoint weight x^(N+sigma) factored out.
    """
    # imported here: scipy would dominate the package's cold import time
    from scipy.integrate import quad

    a = check_shift(a)
    sigma = float(sigma)
    _check_strip(N, sigma)
    c = _laurent_coeffs(a)

    # R_N: (0,1], integrand (G_N/x^(N+1)) * x^(N+sigma), weight exponent
    # in (-1,0) handled by the QUADPACK algebraic-weight rule.
    r_val, _ = quad(
        lambda x: _integrand_G_scaled(N, a, x),
        0.0,
        1.0,
        weight="alg",
        wvar=(N + sigma, 0.0),
        epsabs=QUAD_TOL,
        epsrel=1e-10,
        limit=200,
    )

    # Q_N: the continued rational part sum_n c_n/(n+sigma-1); all
    # denominators are strictly negative inside the strip.
    q_val = math.fsum(c[n] / (n + sigma - 1.0) for n in range(N + 2))

    # P: [1, X], envelope e^(-a x) bounds the tail beyond X.
    x_max = max(50.0, -math.log(QUAD_TOL * a) / a + 20.0)
    p_val, _ = quad(
        lambda x: math.exp(-a * x) / (-math.expm1(-x)) * x ** (sigma - 1.0),
        1.0,
        x_max,
        epsabs=QUAD_TOL,
        epsrel=1e-10,
        limit=200,
    )
    return p_val + q_val + r_val
