"""Observed Fisher information and the standard error of the EM estimate.

The production route is Oakes's identity: the curvature of the
expectation step plus the mixed partial collapses to

    I = N/lam^2 - sum_i sum_{j=1..k_i} 1/(lam + j)^2,

and standard_error is 1/sqrt(I). Two cross-checks compute the same
quantity another way and are kept for the tests. The Louis-style route
assembles it from complete-data moments: minus expected complete-data
curvature B = N/lam^2, the expected squared score built from beta
log-moments, the pairwise score cross-products, and the squared
observed score. The last term vanishes at a converged estimate; keeping
it makes the two routes agree at any evaluation point. A
finite-difference curvature of the observed log-likelihood is a slow
third route.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .distribution import CountSample, _check_lambda
from .em import observed_loglik
from .special import beta_log_moments, pooled_harmonic_sum_sq

__all__ = [
    "oakes_information",
    "louis_information",
    "numeric_information",
    "standard_error",
]


def _warn_if_nonpositive(info: float, label: str) -> None:
    if info <= 0.0:
        warnings.warn(
            f"{label} information is not positive ({info:.6g}); "
            "lambda is not an interior maximum for this data",
            RuntimeWarning,
            stacklevel=3,
        )


def oakes_information(data: CountSample, lambda_hat: float) -> float:
    """N/lam^2 minus the pooled squared-reciprocal sum."""
    lam = _check_lambda(lambda_hat)
    info = data.n / lam**2 - pooled_harmonic_sum_sq(lam, data)
    _warn_if_nonpositive(info, "Oakes")
    return info


def louis_information(data: CountSample, lambda_hat: float) -> float:
    """Louis assembly from complete-data moments.

    Per observation, with (m_i, v_i) the mean and variance of log p
    under Beta(lam+1, k_i):

        E[S_i]   = 1/lam + m_i
        E[S_i^2] = v_i + m_i^2 + 1/lam^2 + 2 m_i / lam

    and the information is B - sum E[S_i^2] - cross + score^2 with
    B = N/lam^2, the pairwise cross-term computed in O(N) through
    (sum E[S_i])^2 - sum E[S_i]^2, and score = sum E[S_i] the observed
    score (zero at the converged estimate).
    """
    lam = _check_lambda(lambda_hat)
    u, c = data.histogram()
    mean_log, var_log = beta_log_moments(lam + 1.0, u.astype(np.float64))
    inv = 1.0 / lam
    e_s = inv + mean_log
    e_s2 = var_log + mean_log**2 + inv * inv + 2.0 * mean_log * inv
    score = float(np.sum(c * e_s))
    sum_e_s2 = float(np.sum(c * e_s2))
    sum_sq = float(np.sum(c * e_s * e_s))
    cross = score * score - sum_sq
    info = data.n * inv * inv - sum_e_s2 - cross + score * score
    _warn_if_nonpositive(info, "Louis")
    return info


def numeric_information(data: CountSample, lambda_hat: float, step: float | None = None) -> float:
    """Negated five-point central second difference of the observed
    log-likelihood; step scales with lambda and stays inside (0, inf)."""
    lam = _check_lambda(lambda_hat)
    h = step if step is not None else 0.01 * max(1.0, lam)
    h = min(h, lam / 4.0)
    f = [observed_loglik(data, lam + i * h) for i in (-2, -1, 0, 1, 2)]
    second = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h * h)
    return -second


def standard_error(data: CountSample, lambda_hat: float) -> float:
    """Standard error of lambda_hat, 1/sqrt(oakes_information); NaN
    when the information is not positive, which happens only off an
    interior maximum."""
    info = oakes_information(data, lambda_hat)
    return math.sqrt(1.0 / info) if info > 0.0 else math.nan
