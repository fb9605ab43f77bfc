"""EM / MAP fitting of the Yule-Simon rate parameter.

The complete-data expectation step is available in closed form, so one
iteration is the single update

    lam' = (N + a - 1) / (b + sum_i sum_{j=1..k_i} 1/(lam + j))

with Gamma(a, rate b) prior; a=1, b=0 reduces it to the pure-likelihood
fixed point lam' = N / sum_i [psi(lam+1+k_i) - psi(lam+1)]. Both
denominator forms are identical through the digamma recurrence; the
update takes the digamma-difference form from HistogramStack.pooled,
and the tests keep the finite sum as their reference.

The likelihood, the update and the curvature read the data through its
cached count histogram (CountSample.histogram), so a whole fit
compresses the sample once and an iteration costs O(#distinct counts).
The likelihood takes log B(lam+1, u) from special.log_beta, as log_pmf
does, which keeps its digits for counts up to the int64 limit.

There is one update, _updates, and one iteration loop, em_fit_stacked:
it fits many samples at once on their stacked histograms
(special.HistogramStack), one digamma call per iteration for all of
them. em_step and em_fit are their one-sample calls. No update, stopping
rule or status needs the likelihood, so the loop does not compute it.
The fit ends with one pass of the joint kernel special._polygammas at
every estimate, and each FitResult carries the pooled sums S1 = sum sum
1/(lam+j) and S2 = sum sum 1/(lam+j)^2 there: the standard error, the
rate and the Jacobian at the estimate read them, with no pass of their
own. A FitResult built or changed by hand makes its own pass when its
sums are first read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .distribution import CountSample, FieldError, _check_lambda, _check_prior
from .special import HistogramStack, _polygammas, _warn, digamma, log_beta

__all__ = [
    "FitConfig",
    "FitResult",
    "observed_loglik",
    "em_step",
    "em_fit",
    "em_fit_stacked",
    "init_lambda",
]

CONVERGED = "converged"
MAX_ITER_REACHED = "max_iter_reached"
DIVERGING = "diverging"

INIT_MODE_ONE = "mode_one"
INIT_MOMENTS = "moments"

# an iterate above this reports status "diverging": data whose
# likelihood has no interior maximum (all counts equal to one) walk off
# to infinity
DIVERGENCE_CEILING = 1e6


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
    """

    prior_a: float = 1.0
    prior_b: float = 0.0
    tol: float = 2e-4
    max_iter: int = 500
    init: float | str = INIT_MODE_ONE

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise FieldError("{tol} must be positive and finite")
        if self.max_iter < 1:
            raise FieldError("{max_iter} must be >= 1")
        _check_prior(self.prior_a, self.prior_b)
        _check_init(self.init)


@dataclass
class FitResult:
    """Estimate bundle: trace has one entry per iterate including the
    start, so len(trace) == iterations + 1. sample and config are the data
    and FitConfig it ran on, and sums the pooled sums (S1, S2) at
    lambda_hat, so convergence.diagnose reads the fit alone. Equality
    compares the estimate, the iteration count, the trace and the status
    alone."""

    lambda_hat: float
    iterations: int
    trace: list[float]
    status: str
    sample: CountSample = field(repr=False, compare=False)
    config: FitConfig = field(repr=False, compare=False)
    # (sample, lambda_hat, S1, S2) as of the last pass over the sample
    _sums: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def sums(self) -> tuple[float, float]:
        """(S1, S2) at lambda_hat: those of the fit's last pass, or of a
        pass of its own where the fit's sample or estimate has changed
        since, or it was built by hand."""
        at = self._sums
        if at is None or at[0] is not self.sample or at[1] != self.lambda_hat:
            _carry_sums([self], HistogramStack([self.sample]))
        return self._sums[2:]


def _carry_sums(fits, stack: HistogramStack) -> None:
    """Give every fit its sums at its estimate from one pass of the joint
    kernel over stack, the histograms of the fits' samples. An estimate
    of inf (an update whose numerator is near the float limit) gets NaN
    sums, which no reader takes: they refuse that estimate."""
    with np.errstate(invalid="ignore"):
        sums = stack.pooled(_polygammas, [fit.lambda_hat for fit in fits])
    for fit, (s1, minus_s2) in zip(fits, sums):
        # 0.0 - x, not -x: a sum that underflowed to 0.0 gives S2 = +0.0
        fit._sums = (fit.sample, fit.lambda_hat, s1, 0.0 - minus_s2)


def observed_loglik(data: CountSample, lam: float) -> float:
    """Observed-data log-likelihood sum_i log g(k_i | lam) =
    N log lam + sum_u c_u log B(lam+1, u) on the count histogram."""
    lam = _check_lambda(lam)
    u, c = data.histogram()
    return float(data.n * math.log(lam) + c @ log_beta(lam + 1.0, u.astype(np.float64)))


def _updates(
    stack: HistogramStack, lams: list[float], prior_a: float, prior_b: float,
    start: tuple[str, object],
) -> list[float]:
    """em_step of every sample of the stack from its own lam, one digamma
    call: (N + a - 1) / (b + sum_u c_u psi(lam+1+u) - N psi(lam+1)).

    At a lam so large (about 1e15 and up) that the digamma difference
    loses every digit, the denominator can round to 0; that raises a
    FieldError naming start, the (field, value) the iterates began from."""
    sums = stack.pooled(digamma, lams)
    try:
        return [(n + prior_a - 1.0) / (prior_b + s) for n, s in zip(stack.n, sums)]
    except ZeroDivisionError:
        field, value = start
        raise FieldError("no EM update from {%s} {!r}: the pooled sum b + S1 rounds to 0"
                         % field, value) from None


def em_step(
    lam_prev: float,
    data: CountSample,
    prior_a: float = 1.0,
    prior_b: float = 0.0,
) -> float:
    """One EM/MAP update, the one-sample call of _updates; lam_prev = 0
    is a legal start."""
    _check_prior(prior_a, prior_b)
    lam_prev = float(lam_prev)
    if not (lam_prev >= 0.0 and math.isfinite(lam_prev)):
        raise ValueError("lam_prev must be finite and >= 0")
    _check_numerator([data.n], prior_a)
    return _updates(HistogramStack([data]), [lam_prev], prior_a, prior_b,
                    ("lam_prev", lam_prev))[0]


def _check_numerator(ns, prior_a: float) -> None:
    """FieldError unless N + a - 1, the numerator of the update, is
    positive for every N of ns."""
    if any(n + prior_a - 1.0 <= 0.0 for n in ns):
        raise FieldError("degenerate update: N + {prior_a} - 1 must be positive", prior_a="a")


def _check_init(policy) -> float | str:
    """An init policy as em_fit resolves it: one of the two policy names,
    or a fixed start as a float >= 0 (a real number, not a bool)."""
    if isinstance(policy, str) and policy in (INIT_MODE_ONE, INIT_MOMENTS):
        return policy
    if isinstance(policy, bool) or not isinstance(policy, numbers.Real):
        raise FieldError("unknown {init} policy {!r}", policy)
    value = float(policy)
    if not (value >= 0.0 and math.isfinite(value)):
        raise FieldError("fixed {init} must be a finite value >= 0")
    return value


def init_lambda(data: CountSample, policy) -> float:
    """Resolve an initialization policy to a starting value."""
    policy = _check_init(policy)
    if policy == INIT_MODE_ONE:
        return 1.0
    if policy == INIT_MOMENTS:
        kbar = data.sample_mean()
        if kbar <= 1.0:
            _warn("moments init needs a sample mean above 1; falling back to 1.0")
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
    digamma call for all samples still running, and a sample leaves the
    stack when it stops. The loop computes no likelihood. One joint pass
    over the whole stack at the estimates then gives each fit its sums.
    Each fit equals em_fit of its sample alone.

    Never raises mid-run on degenerate data: samples with every count
    equal to one (and a flat-or-increasing prior) have no interior
    maximum, so the iterates grow without bound and the fit reports
    status "diverging" - immediately when an iterate rises above the
    ceiling, otherwise once the iteration budget is exhausted.
    """
    config = config or FitConfig()
    samples = list(samples)
    starts = [init_lambda(data, config.init) for data in samples]
    stack = everyone = HistogramStack(samples)
    fits = [FitResult(lam, 0, [lam], MAX_ITER_REACHED, data, config)
            for lam, data in zip(starts, samples)]
    _check_numerator(stack.n, config.prior_a)
    running = list(range(len(samples)))
    for _ in range(config.max_iter):
        prev = [fits[r].lambda_hat for r in running]
        lams = _updates(stack, prev, config.prior_a, config.prior_b, ("init", config.init))
        still = []
        for r, lam, old in zip(running, lams, prev):
            fit = fits[r]
            fit.lambda_hat = lam
            fit.iterations += 1
            fit.trace.append(lam)
            # an iterate falling from a start above the ceiling is not
            # diverging; one that rose above it is
            if lam > max(old, DIVERGENCE_CEILING):
                fit.status = DIVERGING
            elif abs(lam - old) < config.tol:
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
    _carry_sums(fits, everyone)
    return fits
