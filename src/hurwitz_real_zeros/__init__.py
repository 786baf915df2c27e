"""Real zeros of the Hurwitz zeta function on the negative axis.

Exact Bernoulli-polynomial arithmetic, a real-line evaluator for
zeta(sigma, a) with an explicit error bound (Euler-Maclaurin, Hurwitz's
Fourier series and exact values; `Evaluator` keeps one a's work across
calls), and a numeric harness checking that zeros appear in (-N-1, -N)
exactly when B_(N+1)(a) * B_(N+2)(a) < 0.
"""

__version__ = "0.1.0"

from .bernoulli import (
    RATIONAL_CAP,
    BernoulliPolynomial,
    EvenRootPair,
    IndeterminateSign,
    bernoulli_number,
    bernoulli_polynomial,
    derivative_coefficients,
    eval_poly,
    even_roots,
    sign_on_unit_interval,
)
from .hurwitz import (
    AccuracyError,
    EvalParams,
    EvalResult,
    Evaluator,
    PoleError,
    StripError,
    gamma_real,
    gamma_sign,
    hurwitz_zeta,
    hurwitz_zeta_detailed,
    hurwitz_zeta_exact_at_nonpositive_integer,
    integral_representation,
    integrand_G,
    riemann_zeta,
)
from .zero_analysis import (
    BOUNDARY,
    NO,
    YES,
    CaseResult,
    LocatedZero,
    VerificationReport,
    ZeroPrediction,
    locate_zeros,
    polynomial_roots_in_unit,
    predict_zero,
    predict_zero_explicit,
    scan_grid,
    spira_region_bound,
    uniqueness_check,
    verify_theorem,
)
