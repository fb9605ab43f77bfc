"""Convergence-rate diagnostics for the EM fixed-point iteration.

The linear rate equals the missing-to-complete information ratio

    r = lam^2 * sum_i sum_{j=1..k_i} 1/(lam+j)^2 / N

(complete information 1/lam^2 per observation). The same number is the
derivative of the update map M(lam) = (N+a-1)/(b + sum sum 1/(lam+j))
evaluated at the fixed point, so the analytic Jacobian below doubles as
a cross-check of the rate formula, and ratios of successive iterate
differences give empirical rate paths from any recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distribution import CountSample, _check_lambda
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
    """Missing/complete information ratio at lam."""
    lam = _check_lambda(lam)
    return lam**2 * pooled_harmonic_sum_sq(lam, data) / data.n


def em_map_jacobian(
    data: CountSample,
    lam: float,
    prior_a: float = 1.0,
    prior_b: float = 0.0,
) -> float:
    """Exact derivative of the EM update map at lam:

        M'(lam) = (N+a-1) * sum sum (lam+j)^-2 / (b + sum sum (lam+j)^-1)^2

    which reduces to rate_theoretical at the fixed point when a=1, b=0.
    """
    lam = _check_lambda(lam)
    s1 = pooled_harmonic_sum(lam, data)
    s2 = pooled_harmonic_sum_sq(lam, data)
    return (data.n + prior_a - 1.0) * s2 / (prior_b + s1) ** 2


def empirical_rates(trace, lambda_infinity: float | None = None) -> tuple[list[float], bool]:
    """Empirical convergence rates from an iterate trace, as (values,
    truncated); truncated flags that trailing entries were dropped
    because successive differences vanished.

    Without lambda_infinity: r_{t+1} = (lam_{t+1}-lam_t)/(lam_t-lam_{t-1})
    (needs at least 3 iterates). With a known limit: r_{t+1} =
    (lam_t - lam_inf)/(lam_{t-1} - lam_inf) (needs at least 2).
    """
    trace = [float(x) for x in trace]
    if lambda_infinity is None:
        if len(trace) < 3:
            raise ValueError("trace must hold at least 3 iterates")
        gaps = [b - a for a, b in zip(trace, trace[1:])]
    else:
        if len(trace) < 2:
            raise ValueError("trace must hold at least 2 iterates")
        gaps = [x - float(lambda_infinity) for x in trace]
    # both forms are ratios of consecutive gaps
    values: list[float] = []
    for num, denom in zip(gaps[1:], gaps):
        if abs(denom) < _DENOMINATOR_FLOOR:
            return values, True
        values.append(num / denom)
    return values, False


@dataclass
class ConvergenceReport:
    """Theoretical rate, Jacobian at the estimate, and the empirical
    per-iteration rate path of a finished fit."""

    r_theoretical: float
    jacobian_at_hat: float
    regime: str = "linear"
    empirical_rates: list[float] = field(default_factory=list)
    truncated: bool = False


def diagnose(
    data: CountSample,
    fit: FitResult,
    prior_a: float = 1.0,
    prior_b: float = 0.0,
) -> ConvergenceReport:
    """Assemble the convergence report for a finished fit."""
    lam = fit.lambda_hat
    rate = rate_theoretical(data, lam)
    jac = em_map_jacobian(data, lam, prior_a, prior_b)
    rates, truncated = empirical_rates(fit.trace) if len(fit.trace) >= 3 else ([], False)
    return ConvergenceReport(
        r_theoretical=rate,
        jacobian_at_hat=jac,
        regime="sublinear" if rate > SUBLINEAR_THRESHOLD else "linear",
        empirical_rates=rates,
        truncated=truncated,
    )
