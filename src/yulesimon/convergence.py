"""Convergence-rate diagnostics for the EM fixed-point iteration.

The update map M(lam) = (N+a-1)/(b + S1), with S1 = sum_i sum_{j=1..k_i}
1/(lam+j) and S2 the same sum of 1/(lam+j)^2, has the derivative

    M'(lam) = (N+a-1) S2 / (b + S1)^2,

and at its fixed point, where b + S1 = (N+a-1)/lam, that is the rate

    r = lam^2 S2 / (N+a-1),

the missing-to-complete information ratio lam^2 S2 / N under the
likelihood (a = 1, b = 0; complete information 1/lam^2 per
observation). The Jacobian is so a cross-check of the rate formula, and
ratios of successive iterate differences give empirical rate paths from
any recorded trace. Each formula is written once (_rate, _jacobian):
rate_theoretical (the likelihood's rate) and em_map_jacobian take the
sums from their own pooled calls at any lam, while diagnose reads the
sample, the trace, the prior of its config and the sums at the estimate
from the fit alone, and so reports the rate of the map that ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distribution import CountSample, _check_lambda, _check_prior
from .em import FitResult
from .special import pooled_harmonic_sum, pooled_harmonic_sum_sq

__all__ = [
    "SUBLINEAR_THRESHOLD",
    "ConvergenceReport",
    "rate_theoretical",
    "em_map_jacobian",
    "empirical_rates",
    "diagnose",
]

# reporting threshold only: rates this close to 1 behave sublinearly in
# practice even though convergence is still formally linear
SUBLINEAR_THRESHOLD = 0.9

# successive differences below this are floating-point noise; rate
# entries needing them are dropped and the path marked truncated
_DENOMINATOR_FLOOR = 1e-14


def rate_theoretical(data: CountSample, lam: float) -> float:
    """Missing/complete information ratio lam^2 S2 / N at lam, the rate
    of the likelihood EM at its fixed point; inf or nan where lam^2
    overflows."""
    lam = _check_lambda(lam)
    return _rate(data.n, lam, pooled_harmonic_sum_sq(lam, data), 1.0)


def _rate(n: int, lam: float, s2: float, prior_a: float) -> float:
    """lam^2 S2 / (N+a-1), the rate of the EM/MAP iteration at its fixed
    point lam; the prior rate b acts through the fixed point alone.
    Squares here are products, which overflow to inf without raising."""
    return lam * lam * s2 / (n + prior_a - 1.0)


def em_map_jacobian(
    data: CountSample,
    lam: float,
    prior_a: float = 1.0,
    prior_b: float = 0.0,
) -> float:
    """Exact derivative of the EM update map at lam:

        M'(lam) = (N+a-1) * sum sum (lam+j)^-2 / (b + sum sum (lam+j)^-1)^2

    which reduces to rate_theoretical at the fixed point.
    A denominator that overflows gives 0, one that is 0 (b = 0 and the
    sums underflowed at a huge lam) inf, or nan over a numerator of 0.
    """
    lam = _check_lambda(lam)
    _check_prior(prior_a, prior_b)
    s1 = pooled_harmonic_sum(lam, data)
    return _jacobian(data.n, s1, pooled_harmonic_sum_sq(lam, data), prior_a, prior_b)


def _jacobian(n: int, s1: float, s2: float, prior_a: float, prior_b: float) -> float:
    root = prior_b + s1
    numerator, denominator = (n + prior_a - 1.0) * s2, root * root
    if not denominator:
        return math.inf if numerator else math.nan
    return numerator / denominator


def empirical_rates(trace) -> tuple[list[float], bool]:
    """Empirical convergence rates r_{t+1} = (lam_{t+1}-lam_t)/(lam_t-lam_{t-1})
    from an iterate trace of at least 3 iterates, as (values, truncated);
    truncated flags that trailing entries were dropped because successive
    differences vanished."""
    trace = [float(x) for x in trace]
    if len(trace) < 3:
        raise ValueError("trace must hold at least 3 iterates")
    gaps = [b - a for a, b in zip(trace, trace[1:])]
    values: list[float] = []
    for num, denom in zip(gaps[1:], gaps):
        if abs(denom) < _DENOMINATOR_FLOOR:
            return values, True
        values.append(num / denom)
    return values, False


@dataclass
class ConvergenceReport:
    """Theoretical rate, Jacobian at the estimate, and the empirical
    per-iteration rate path of a finished fit; regime is None when the
    rate is NaN."""

    r_theoretical: float
    jacobian_at_hat: float
    regime: str | None
    empirical_rates: list[float]
    truncated: bool


def diagnose(fit: FitResult) -> ConvergenceReport:
    """The convergence report of a finished fit, on the fit's own sample,
    under the prior of its own config, and from the pooled sums it
    carries at its estimate. An estimate of inf, where an update
    overflowed and the fit stopped as diverging, has NaN sums and so a
    NaN rate and Jacobian; any other estimate must be positive and
    finite."""
    lam = fit.lambda_hat
    if lam != math.inf:
        lam = _check_lambda(lam)
    n, config, (s1, s2) = fit.sample.n, fit.config, fit.sums
    rate = _rate(n, lam, s2, config.prior_a)
    rates, truncated = empirical_rates(fit.trace) if len(fit.trace) >= 3 else ([], False)
    # a NaN rate (an estimate of inf, or inf * 0 at a huge one) has no regime
    regime = None if math.isnan(rate) else "linear" if rate <= SUBLINEAR_THRESHOLD else "sublinear"
    return ConvergenceReport(
        r_theoretical=rate,
        jacobian_at_hat=_jacobian(n, s1, s2, config.prior_a, config.prior_b),
        regime=regime,
        empirical_rates=rates,
        truncated=truncated,
    )
