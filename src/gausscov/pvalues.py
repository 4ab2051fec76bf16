"""Gaussian-covariate P-values and the incomplete Beta machinery behind them.

The selection procedures rest on one distributional fact: if a covariate in a
least-squares fit is replaced by pure Gaussian noise, the ratio of the two
residual sums of squares (with / without the tested covariate) follows a
Beta((n-k)/2, 1/2) law, whatever the data.  The P-value of a real covariate is
therefore an exact tail probability of that Beta distribution (``P_F``), and
the P-value against the best of N independent Gaussian competitors is
``P_G = 1 - (1 - P_F)^N``.

Everything here is scalar double-precision arithmetic.  The incomplete Beta
and its inverse are scipy's ``betainc``/``betaincinv``, which keep relative
error near 1e-13 even for shapes in the hundreds of thousands and reach tail
values far below 1e-100 without underflow.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import betainc, betaincinv

from .errors import DomainError, RatioClampWarning

__all__ = [
    "PvalueContext",
    "beta_cdf",
    "beta_cdf_inv",
    "gaussian_pvalue",
    "pf_from_rss_ratio",
    "pf_threshold",
    "pg_all_subset",
    "pg_stepwise",
]

RATIO_SLACK = 1e-12
# overshoot below this is indistinguishable from float cancellation noise
RATIO_EPS = 1e-14


def _check_shapes(a, b):
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"Beta shape parameters must be positive, got a={a}, b={b}")


def beta_cdf(a, b, x):
    """Regularized incomplete Beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float
        Evaluation point in [0, 1].

    Returns
    -------
    float
        P(X <= x) for X ~ Beta(a, b), with relative error near 1e-13.
        Left-tail values down to the smallest normal double are returned
        rather than flushed to zero.
    """
    _check_shapes(a, b)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"Beta argument must lie in [0, 1], got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return float(betainc(a, b, x))


@lru_cache(maxsize=16384)
def beta_cdf_inv(a, b, p):
    """Inverse of ``beta_cdf`` in its x argument.

    Used to turn a P-value threshold into an rss-ratio threshold once per
    (shape, level) pair; results are cached.
    """
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    _check_shapes(a, b)
    return float(betaincinv(a, b, p))


def gaussian_pvalue(p_f, n_gauss):
    """P-value against the best of ``n_gauss`` independent Gaussian covariates.

    Computes 1 - (1 - p_f)^N through expm1/log1p, which is exact both for
    p_f * N below 1e-8 (where it degrades gracefully to N * p_f) and for p_f
    near 1.
    """
    if math.isnan(p_f) or p_f < 0.0 or p_f > 1.0:
        raise DomainError(f"P-value must lie in [0, 1], got {p_f}")
    if n_gauss < 1:
        raise DomainError(f"competitor count must be >= 1, got {n_gauss}")
    if p_f == 1.0:
        return 1.0
    return -math.expm1(n_gauss * math.log1p(-p_f))


def pf_threshold(p0, n_gauss):
    """Largest P_F whose Gaussian P-value against ``n_gauss`` competitors stays below ``p0``."""
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"threshold must lie in (0, 1), got {p0}")
    if n_gauss < 1:
        raise DomainError(f"competitor count must be >= 1, got {n_gauss}")
    return -math.expm1(math.log1p(-p0) / n_gauss)


@dataclass(frozen=True)
class PvalueContext:
    """Dimensions entering a single covariate test.

    Attributes
    ----------
    n : int
        Number of observations.
    k : int
        Number of regressors in the fit that contains the tested covariate,
        counting the intercept when one is fitted.
    q_remaining : int
        Candidate covariates outside the selected subset.  The stepwise test
        competes against ``q_remaining`` Gaussian covariates, the all-subset
        membership test against ``q_remaining + 1`` (the tested covariate is
        itself replaced as well).
    """

    n: int
    k: int
    q_remaining: int

    def __post_init__(self):
        if self.n - self.k < 2:
            raise DomainError(
                f"need at least 2 residual degrees of freedom, got n={self.n}, k={self.k}"
            )
        if self.k < 1:
            raise DomainError(f"fit size must be >= 1, got {self.k}")
        if self.q_remaining < 0:
            raise DomainError(f"q_remaining must be >= 0, got {self.q_remaining}")


def pf_from_rss_ratio(ctx, rss_with, rss_without):
    """Exact F-test P-value of one covariate from the two residual sums of squares.

    ``rss_with`` is the rss of the fit containing the covariate, ``rss_without``
    the rss after removing it.  Cancellation noise pushes the ratio a few ulps
    outside [0, 1] routinely; such overshoot (within ``RATIO_EPS``) is clamped
    silently.  Overshoot up to ``RATIO_SLACK`` is still clamped but raises a
    ``RatioClampWarning``, since it suggests the two sums were computed
    inconsistently; anything further out is an error.
    """
    if rss_without <= 0.0:
        raise DomainError(f"rss without the covariate must be positive, got {rss_without}")
    ratio = rss_with / rss_without
    if ratio < 0.0 or ratio > 1.0:
        overshoot = -ratio if ratio < 0.0 else ratio - 1.0
        if overshoot > RATIO_SLACK:
            raise DomainError(f"rss ratio {ratio} outside [0, 1] beyond slack")
        if overshoot > RATIO_EPS:
            warnings.warn(
                f"rss ratio {ratio!r} clamped into [0, 1]", RatioClampWarning, stacklevel=2
            )
        ratio = min(1.0, max(0.0, ratio))
    return beta_cdf((ctx.n - ctx.k) / 2.0, 0.5, ratio)


def pg_stepwise(ctx, p_f):
    """Gaussian P-value of the best candidate joining the current subset.

    The candidate competes against one Gaussian replacement for each of the
    ``q_remaining`` covariates still outside the subset.
    """
    if ctx.q_remaining < 1:
        raise DomainError("stepwise test needs at least one remaining candidate")
    return gaussian_pvalue(p_f, ctx.q_remaining)


def pg_all_subset(ctx, p_f):
    """Gaussian P-value of a covariate as a member of a chosen subset.

    The member competes against Gaussian replacements for itself and every
    covariate outside the subset: ``q_remaining + 1`` in total.
    """
    return gaussian_pvalue(p_f, ctx.q_remaining + 1)
