"""Observed Fisher information and the standard error of the EM estimate.

The production route is Oakes's identity: the curvature of the
expectation step plus the mixed partial collapses to

    I = N/lam^2 - sum_i sum_{j=1..k_i} 1/(lam + j)^2,

and standard_error is 1/sqrt(I). The pooled sum comes from
special.HistogramStack.pooled with trigamma, the kernel the EM update
takes with digamma; standard_errors stacks the count histograms of many
samples so that one trigamma call serves them all.
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
from .special import HistogramStack, _warn, beta_log_moments, trigamma

__all__ = [
    "oakes_information",
    "louis_information",
    "numeric_information",
    "standard_error",
    "standard_errors",
]


def _warn_if_nonpositive(info: float, label: str) -> None:
    if info <= 0.0:
        _warn(f"{label} information is not positive ({info:.6g}); "
              "lambda is not an interior maximum for this data")


def oakes_information(data: CountSample, lambda_hat: float) -> float:
    """N/lam^2 minus the pooled squared-reciprocal sum."""
    return _oakes([data], [lambda_hat])[0][0]


def _oakes(samples, lambda_hats) -> list[tuple]:
    """(I, N, lam, s) of every sample at its own estimate, from one
    trigamma call over the stacked histograms: I = N/lam^2 + s, the
    oakes_information, with s = sum_u c_u psi_1(lam+1+u) - N psi_1(lam+1);
    I is inf where lam^2 underflows to 0 (lam below about 1e-162)."""
    lams = [_check_lambda(lam) for lam in lambda_hats]
    stack = HistogramStack(samples)
    terms = [
        ((n / lam**2 if lam**2 else math.inf) + s, n, lam, s)
        for n, lam, s in zip(stack.n, lams, stack.pooled(trigamma, lams))
    ]
    for info, *_ in terms:
        _warn_if_nonpositive(info, "Oakes")
    return terms


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
    interior maximum."""
    return standard_errors([data], [lambda_hat])[0]


def standard_errors(samples, lambda_hats) -> list[float]:
    """standard_error of every sample at its own estimate, with one
    trigamma call for all of them. Where 1/I is 0 or subnormal, as at a
    lam so small that N/lam^2 overflows or lam^2 underflows, the SE is
    lam/sqrt(N + lam^2 s), the same quantity with its digits kept."""
    ses = []
    for info, n, lam, s in _oakes(samples, lambda_hats):
        if not info > 0.0:
            ses.append(math.nan)
        elif 1.0 / info < sys.float_info.min:
            ses.append(lam / math.sqrt(n + lam * lam * s))
        else:
            ses.append(math.sqrt(1.0 / info))
    return ses
