"""Observed Fisher information and the standard error of the EM estimate.

The production route is Oakes's identity: the curvature of the
expectation step plus the mixed partial collapses to

    I = N/lam^2 - sum_i sum_{j=1..k_i} 1/(lam + j)^2,

and standard_error is 1/sqrt(I). The formula needs only N, lam and the
pooled sum S2, so it is written once (_information, _standard_error)
for two sources of S2: a finished fit carries S2 at its estimate from
the fit's own last pass (_fit_standard_error, which ys fit and the
experiments read), and oakes_information and standard_error take it
from special.pooled_harmonic_sum_sq at any lambda.
Two cross-checks compute the same quantity another way and are kept for
the tests. The Louis-style route assembles it from complete-data
moments: minus expected complete-data curvature B = N/lam^2, the
expected squared score built from beta log-moments, the pairwise score
cross-products, and the squared observed score. The last term vanishes
at a converged estimate; keeping it makes the two routes agree at any
evaluation point. A finite-difference curvature of the observed
log-likelihood is a slow third route.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .distribution import CountSample, _check_lambda
from .em import observed_loglik
from .special import _warn, beta_log_moments, pooled_harmonic_sum_sq

__all__ = [
    "oakes_information",
    "louis_information",
    "numeric_information",
    "standard_error",
]


def _warn_if_nonpositive(info: float, label: str) -> None:
    if info <= 0.0:
        _warn(f"{label} information is not positive ({info:.6g}); "
              "lambda is not an interior maximum for this data")


def oakes_information(data: CountSample, lambda_hat: float) -> float:
    """N/lam^2 minus the pooled squared-reciprocal sum."""
    lam = _check_lambda(lambda_hat)
    return _information(data.n, lam, pooled_harmonic_sum_sq(lam, data))


def _information(n: int, lam: float, s2: float) -> float:
    """The Oakes information N/lam^2 - S2 from the pooled sum S2 at lam,
    with a warning where it is not positive; N/lam^2 is inf where lam^2
    underflows to 0 (lam below about 1e-162) and 0 where it overflows to
    inf (lam above about 1.34e154), so the information there is not
    positive."""
    square = lam * lam
    info = (n / square if square else math.inf) - s2
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


def numeric_information(data: CountSample, lambda_hat: float) -> float:
    """Negated five-point central second difference of the observed
    log-likelihood, with step h = lam/100: the points lam +- 2h stay
    inside (0, inf) and the step scales with lambda."""
    lam = _check_lambda(lambda_hat)
    h = lam / 100.0
    f = [observed_loglik(data, lam + i * h) for i in (-2, -1, 0, 1, 2)]
    second = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h * h)
    return -second


def standard_error(data: CountSample, lambda_hat: float) -> float:
    """Standard error of lambda_hat, 1/sqrt(oakes_information); NaN
    when the information is not positive, which happens only off an
    interior maximum or where lam^2 overflows."""
    lam = _check_lambda(lambda_hat)
    return _standard_error(data.n, lam, pooled_harmonic_sum_sq(lam, data))


def _fit_standard_error(fit) -> float:
    """standard_error of a finished em.FitResult at its estimate, from the
    pooled sum S2 that the fit carries there."""
    return _standard_error(fit.sample.n, _check_lambda(fit.lambda_hat), fit.sums[1])


def _standard_error(n: int, lam: float, s2: float) -> float:
    """1/sqrt(I) for I = _information(n, lam, s2), NaN where I is not
    positive. Where 1/I is 0 or subnormal, as at a lam so small that
    N/lam^2 overflows or lam^2 underflows, it is lam/sqrt(N - lam^2 S2),
    the same quantity with its digits kept."""
    info = _information(n, lam, s2)
    if not info > 0.0:
        return math.nan
    if 1.0 / info < sys.float_info.min:
        return lam / math.sqrt(n - lam * lam * s2)
    return math.sqrt(1.0 / info)
