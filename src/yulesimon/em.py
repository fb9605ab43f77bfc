"""EM / MAP fitting of the Yule-Simon rate parameter.

The complete-data expectation step is available in closed form, so one
iteration is the single update

    lam' = (N + a - 1) / (b + sum_i sum_{j=1..k_i} 1/(lam + j))

with Gamma(a, rate b) prior; a=1, b=0 reduces it to the pure-likelihood
fixed point lam' = N / sum_i [psi(lam+1+k_i) - psi(lam+1)]. Both
denominator forms are identical through the digamma recurrence; fits
use the digamma-difference form and the ``method`` argument exposes the
finite sum as a cross-check.

The likelihood, the update and the curvature read the data through its
cached count histogram (CountSample.histogram), so a whole fit
compresses the sample once and an iteration costs O(#distinct counts).
The likelihood takes log B(lam+1, u) from special.log_beta, as log_pmf
does, which keeps its digits for counts up to the int64 limit.

There is one iteration loop, em_fit_stacked: it fits many samples at
once on their stacked histograms (special.HistogramStack), one digamma
and one log_beta call per iteration for all of them, and em_fit is its
one-sample call.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distribution import CountSample, _check_lambda
from .special import (
    HistogramStack,
    digamma,
    log_beta,
    pooled_harmonic_sum,
    pooled_harmonic_sum_sq,
)

__all__ = [
    "CONVEXITY_BOUND",
    "FitConfig",
    "FitResult",
    "observed_loglik",
    "q_function",
    "em_step",
    "em_fit",
    "em_fit_stacked",
    "init_lambda",
    "convexity_check",
]

# Radius of the interval on which the per-observation log-likelihood is
# certified concave: second derivative -1/lam^2 + sum 1/(lam+j)^2 stays
# negative while 1/lam^2 exceeds the Basel sum pi^2/6.
CONVEXITY_BOUND = math.sqrt(6.0) / math.pi

CONVERGED = "converged"
MAX_ITER_REACHED = "max_iter_reached"
DIVERGING = "diverging"

INIT_MODE_ONE = "mode_one"
INIT_MOMENTS = "moments"


@dataclass
class FitConfig:
    """EM controls.

    prior_a, prior_b
        Gamma prior shape and rate; the defaults (1, 0) make the MAP
        update coincide bitwise with the maximum-likelihood update.
    tol
        Stop when |lam_{t+1} - lam_t| < tol.
    init
        Starting point: a number fixes lam_0 directly, "mode_one"
        starts at 1.0, "moments" uses kbar/(kbar - 1) and falls back to
        1.0 (with a warning) when the sample mean is not above one.
    divergence_ceiling
        Iterates above this report status "diverging" instead of
        raising; data whose likelihood has no interior maximum (all
        counts equal to one) walk off to infinity.
    """

    prior_a: float = 1.0
    prior_b: float = 0.0
    tol: float = 2e-4
    max_iter: int = 500
    init: float | str = INIT_MODE_ONE
    divergence_ceiling: float = 1e6

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.prior_a < 0.0 or self.prior_b < 0.0:
            raise ValueError("prior parameters must be >= 0")
        if self.divergence_ceiling <= 0.0:
            raise ValueError("divergence_ceiling must be positive")
        _check_init(self.init)


@dataclass
class FitResult:
    """Estimate bundle: trace has one entry per iterate including the
    start, so len(trace) == iterations + 1."""

    lambda_hat: float
    iterations: int
    trace: list[float]
    loglik_trace: list[float]
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def observed_loglik(data: CountSample, lam: float) -> float:
    """Observed-data log-likelihood sum_i log g(k_i | lam) =
    N log lam + sum_u c_u log B(lam+1, u) on the count histogram."""
    return _logliks(HistogramStack([data]), [_check_lambda(lam)])[0]


def _logliks(stack: HistogramStack, lams: list[float]) -> list[float]:
    """observed_loglik of every sample of the stack at its own lam, one
    log_beta call; -inf where lam is 0."""
    log_b = log_beta(stack.spread(lams) + 1.0, stack.u)
    return [
        float(n * math.log(lam) + d) if lam > 0.0 else -math.inf
        for n, lam, d in zip(stack.n, lams, stack.dots(log_b))
    ]


def _updates(
    stack: HistogramStack, lams: list[float], prior_a: float, prior_b: float
) -> list[float]:
    """em_step of every sample of the stack from its own lam, one digamma
    call: (N + a - 1) / (b + sum_u c_u psi(lam+1+u) - N psi(lam+1))."""
    psi_u, psi_1 = stack.polygamma(digamma, lams)
    return [
        (n + prior_a - 1.0) / (prior_b + float(s - n * p1))
        for n, s, p1 in zip(stack.n, stack.weighted_sums(psi_u), psi_1)
    ]


def q_function(lam: float, lam_prev: float, data: CountSample) -> float:
    """Expected complete-data log-likelihood given the previous iterate.

    Q(lam | lam') = N lam psi(lam'+1) - lam sum_i psi(lam'+1+k_i)
                    + sum_i (k_i-1)[psi(k_i) - psi(lam'+1+k_i)]
                    + N log lam
    """
    lam = _check_lambda(lam)
    lam_prev = _check_lambda(lam_prev, "lam_prev")
    u, c = data.histogram()
    uf = u.astype(np.float64)
    n = data.n
    psi_shift = digamma(lam_prev + 1.0 + uf)
    value = n * lam * digamma(lam_prev + 1.0) - lam * np.sum(c * psi_shift)
    value += np.sum(c * (uf - 1.0) * (digamma(uf) - psi_shift))
    return float(value + n * math.log(lam))


def em_step(
    lam_prev: float,
    data: CountSample,
    prior_a: float = 1.0,
    prior_b: float = 0.0,
    method: str = "polygamma",
) -> float:
    """One EM/MAP update; lam_prev = 0 is a legal start."""
    lam_prev = float(lam_prev)
    if not (lam_prev >= 0.0 and math.isfinite(lam_prev)):
        raise ValueError("lam_prev must be finite and >= 0")
    numerator = data.n + prior_a - 1.0
    if numerator <= 0.0:
        raise ValueError("degenerate update: N + a - 1 must be positive")
    denominator = prior_b + pooled_harmonic_sum(lam_prev, data, method=method)
    return numerator / denominator


def _check_init(policy) -> float | str:
    """An init policy as em_fit resolves it: one of the two policy names,
    or a fixed start as a float >= 0 (a real number, not a bool)."""
    if isinstance(policy, str) and policy in (INIT_MODE_ONE, INIT_MOMENTS):
        return policy
    if isinstance(policy, bool) or not isinstance(policy, numbers.Real):
        raise ValueError(f"unknown init policy {policy!r}")
    value = float(policy)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError("fixed init must be a finite value >= 0")
    return value


def init_lambda(data: CountSample, policy) -> float:
    """Resolve an initialization policy to a starting value."""
    policy = _check_init(policy)
    if policy == INIT_MODE_ONE:
        return 1.0
    if policy == INIT_MOMENTS:
        kbar = data.sample_mean()
        if kbar <= 1.0:
            warnings.warn(
                "moments init needs a sample mean above 1; falling back to 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1.0
        return kbar / (kbar - 1.0)
    return policy


def em_fit(data: CountSample, config: FitConfig | None = None) -> FitResult:
    """Iterate em_step until the parameter change drops below tol: the
    one-sample call of em_fit_stacked."""
    return em_fit_stacked([data], config)[0]


def em_fit_stacked(samples, config: FitConfig | None = None) -> list[FitResult]:
    """Fit every sample with the same config, iterating all of them
    together on their stacked histograms: each iteration makes one
    digamma and one log_beta call for all samples still running, and a
    sample leaves the stack when it stops. Each fit equals em_fit of its
    sample alone.

    Never raises mid-run on degenerate data: samples with every count
    equal to one (and a flat-or-increasing prior) have no interior
    maximum, so the iterates grow without bound and the fit reports
    status "diverging" - immediately when an iterate crosses the
    ceiling, otherwise once the iteration budget is exhausted.
    """
    config = config or FitConfig()
    samples = list(samples)
    starts = [init_lambda(data, config.init) for data in samples]
    stack = HistogramStack(samples)
    fits = [
        FitResult(lam, 0, [lam], [ll], MAX_ITER_REACHED)
        for lam, ll in zip(starts, _logliks(stack, starts))
    ]
    if any(n + config.prior_a - 1.0 <= 0.0 for n in stack.n):
        raise ValueError("degenerate update: N + a - 1 must be positive")
    running = list(range(len(samples)))
    for _ in range(config.max_iter):
        prev = [fits[r].lambda_hat for r in running]
        lams = _updates(stack, prev, config.prior_a, config.prior_b)
        still = []
        for r, lam, ll in zip(running, lams, _logliks(stack, lams)):
            fit = fits[r]
            delta = abs(lam - fit.lambda_hat)
            fit.lambda_hat = lam
            fit.iterations += 1
            fit.trace.append(lam)
            fit.loglik_trace.append(ll)
            if lam > config.divergence_ceiling:
                fit.status = DIVERGING
            elif delta < config.tol:
                fit.status = CONVERGED
            else:
                still.append(r)
        if not still:
            break
        if len(still) < len(running):
            running = still
            stack = HistogramStack([samples[r] for r in running])
    # exact no-interior-maximum condition: likelihood factors are
    # strictly increasing in lambda iff every count is 1, and a Gamma
    # prior with b = 0, a >= 1 does not pull the update back down
    if config.prior_b == 0.0 and config.prior_a >= 1.0:
        for fit, data in zip(fits, samples):
            if fit.status == MAX_ITER_REACHED and data.histogram()[0][-1] == 1:
                fit.status = DIVERGING
    return fits


def convexity_check(data: CountSample, lam: float) -> tuple[float, bool]:
    """Second derivative of the log-likelihood at lam and whether lam
    lies inside the certified concavity interval (0, sqrt(6)/pi)."""
    lam = _check_lambda(lam)
    second = -data.n / lam**2 + pooled_harmonic_sum_sq(lam, data)
    return second, lam < CONVEXITY_BOUND
