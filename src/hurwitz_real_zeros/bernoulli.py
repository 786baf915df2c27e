"""Exact Bernoulli numbers and polynomials, their sign structure on [0,1],
and the roots b_n^- in [0,1/2) and b_n^+ in [1/2,1).

Convention: the generating function is t*e^t/(e^t - 1), so B_1 = +1/2 and
B_n(1) = B_n for every n.  Odd-index numbers vanish for n >= 3.  All numbers
and polynomial coefficients are exact `fractions.Fraction` values up to
`RATIONAL_CAP`; beyond the cap the library refuses instead of degrading.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm
from typing import Callable, Sequence, Tuple, Union

__all__ = [
    "RATIONAL_CAP",
    "IndeterminateSign",
    "BernoulliPolynomial",
    "EvenRootPair",
    "bernoulli_number",
    "bernoulli_polynomial",
    "eval_poly",
    "derivative_coefficients",
    "sign_on_unit_interval",
    "bisect_sign",
    "even_roots",
]

#: Largest index for which exact rational values are produced.
RATIONAL_CAP = 64

Number = Union[int, Fraction, float]


class IndeterminateSign(ValueError):
    """Raised when a sign query falls inside the numeric uncertainty band of
    a polynomial root, where the strict-inequality criteria do not apply."""


@dataclass(frozen=True)
class BernoulliPolynomial:
    """Power-basis coefficients of B_n(x); coefficients[k] multiplies x^k."""

    degree: int
    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("coefficient vector must have degree+1 entries")

    @cached_property
    def float_coefficients(self) -> Tuple[float, ...]:
        return tuple(float(c) for c in self.coefficients)

    @cached_property
    def _integer_coefficients(self) -> Tuple[Tuple[int, ...], int]:
        """(numerators, d): coefficients[k] == numerators[k] / d, with d the
        least common denominator."""
        d = lcm(*(c.denominator for c in self.coefficients))
        return tuple(c.numerator * (d // c.denominator)
                     for c in self.coefficients), d


@dataclass(frozen=True)
class EvenRootPair:
    """The two roots of an even-index Bernoulli polynomial in (0,1): each
    float is an end of a bracket with opposite exact signs of B_n at its
    ends, so the root lies within `residual_bound` of it."""

    n: int
    b_minus: float
    b_plus: float
    residual_bound: float


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = +1/2)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > RATIONAL_CAP:
        raise ValueError(
            f"exact Bernoulli values are capped at index {RATIONAL_CAP}"
        )
    if n == 0:
        return Fraction(1)
    if n % 2 == 1 and n >= 3:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1,k) B_k = n+1 under the B_1 = +1/2 convention
    acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n))
    return Fraction(n + 1 - acc, n + 1)


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> BernoulliPolynomial:
    """Exact B_n(x) as a monic power-basis polynomial.

    B_n(x) = sum_k C(n,k) B_k(0) x^(n-k), where B_k(0) equals B_k except
    B_1(0) = -1/2 (the polynomial generating function t*e^(xt)/(e^t-1) pins
    the constant terms at x = 0, not at x = 1).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        bk = Fraction(-1, 2) if k == 1 else bernoulli_number(k)
        coeffs[n - k] = comb(n, k) * bk
    return BernoulliPolynomial(n, tuple(coeffs))


def _float_horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_poly(p: BernoulliPolynomial, x: Number):
    """Evaluate p at x: exact when x is rational, float Horner otherwise.

    The exact path runs Horner on x = u/v homogeneously in integers,
    sum_k n_k u^k v^(deg-k) over d v^deg with p's integer numerators n_k
    over their common denominator d, and reduces one Fraction at the end.
    The floating path runs nested multiplication from the highest degree
    down, so results are reproducible bit-for-bit on a given platform.
    """
    if isinstance(x, numbers.Rational):
        u, v = int(x.numerator), int(x.denominator)
        nums, d = p._integer_coefficients
        acc = nums[-1]
        vpow = 1
        for c in reversed(nums[:-1]):
            vpow *= v
            acc = acc * u + c * vpow
        return Fraction(acc, d * vpow)
    return _float_horner(p.float_coefficients, float(x))


def derivative_coefficients(p: BernoulliPolynomial) -> Tuple[Fraction, ...]:
    """Coefficients of p'; equals n * B_(n-1) coefficient-by-coefficient."""
    return tuple(k * c for k, c in enumerate(p.coefficients) if k > 0)


def bisect_sign(sign: Callable[[float], int], lo: float, hi: float,
                slo: int, tol: float) -> Tuple[float, float]:
    """Bisect [lo, hi], whose ends have the signs slo and -slo, on `sign`
    to half-width <= tol or neighbouring floats.  Returns (x, half-width);
    a midpoint of sign 0 returns (mid, 0.0)."""
    while (hi - lo) / 2.0 > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are neighbouring floats
            break
        sm = sign(mid)
        if sm == 0:
            return mid, 0.0
        if sm == slo:
            lo = mid
        else:
            hi = mid
    # at neighbouring floats x is an end, hi - lo from the other
    x = 0.5 * (lo + hi)
    return x, ((hi - lo) / 2.0 if lo < x < hi else hi - lo)


@lru_cache(maxsize=None)
def even_roots(n: int) -> EvenRootPair:
    """Locate b_n^- and b_n^+ for even n >= 2 by bisection on the exact sign
    of B_n at each float midpoint, down to neighbouring floats;
    `residual_bound` is the larger bracket width reached, <= 2^-53.

    The initial brackets [0,1/2] and [1/2,1] are guaranteed: B_n(0) = B_n
    and B_n(1/2) = (2^(1-n)-1) B_n carry opposite signs for even n.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("even index >= 2 required")
    p = bernoulli_polynomial(n)

    def sign(x: float) -> int:
        v = eval_poly(p, Fraction(x))
        return (v > 0) - (v < 0)

    s0 = sign(0.0)
    b_minus, r_minus = bisect_sign(sign, 0.0, 0.5, s0, 0.0)
    b_plus, r_plus = bisect_sign(sign, 0.5, 1.0, -s0, 0.0)
    return EvenRootPair(n, b_minus, b_plus, max(r_minus, r_plus))


def sign_on_unit_interval(n: int, x: Number) -> int:
    """Sign of B_n(x) on [0,1] from the root structure, not from evaluation.

    Serves as an independent oracle against `eval_poly`.  For even n = 2k the
    sign of (-1)^(k-1) B_2k(x) is positive outside (b^-, b^+) and negative
    inside; for odd n = 2k+1 it is positive on (0,1/2), negative on (1/2,1),
    and zero at 1/2, and at 0 and 1 too for n >= 3 (B_1 = x - 1/2).
    Queries within `even_roots(n).residual_bound` of an even-index root
    raise `IndeterminateSign`.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    xf = float(x)
    if not 0.0 <= xf <= 1.0:
        raise ValueError("x must lie in [0,1]")
    if n % 2 == 0:
        k = n // 2
        base = 1 if (k - 1) % 2 == 0 else -1
        pair = even_roots(n)
        band = pair.residual_bound
        if abs(xf - pair.b_minus) <= band or abs(xf - pair.b_plus) <= band:
            raise IndeterminateSign(
                f"a={xf} within {band} of a root of B_{n}"
            )
        if pair.b_minus < xf < pair.b_plus:
            return -base
        return base
    k = (n - 1) // 2
    base = 1 if (k - 1) % 2 == 0 else -1
    if xf == 0.5 or (n >= 3 and (xf == 0.0 or xf == 1.0)):
        return 0
    return base if xf < 0.5 else -base
