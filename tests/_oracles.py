"""Test-side oracles, independent of the library code paths they check."""

import math

import numpy as np
import pytest

from yulesimon import (
    CountSample,
    FitConfig,
    FitResult,
    RngStream,
    em_step,
    init_lambda,
    sample_mixture,
)
from yulesimon.special import log_beta, pooled_harmonic_sum_sq

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(fn, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Bracketed golden-section maximization of a unimodal function."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def random_dataset(lam: float, n: int, seed: int, stream: int = 0) -> CountSample:
    """Seeded synthetic count sample with at least one count above 1."""
    sample, _ = sample_mixture(lam, n, RngStream(seed, stream))
    if sample.counts.max() == 1:  # keep the likelihood maximizable
        counts = sample.counts.copy()
        counts[0] = 2
        sample = CountSample(counts)
    return sample


def int64_limit_sample() -> CountSample:
    """sample_mixture(0.05, 3000, RngStream(2)): 327 of its draws sit at
    the generator's 2**62 cap, and the counts sum far beyond int64."""
    with pytest.warns(RuntimeWarning, match="clipped 327 of 3000"):
        return sample_mixture(0.05, 3000, RngStream(2))[0]


def dataset_grid(seed0: int, how_many: int, lams=(0.6, 0.8, 1.25, 5.0, 10.0), ns=(50, 500, 5000)):
    """Deterministic mix of (lambda, N) cells used by several suites."""
    rng = np.random.default_rng(seed0)
    out = []
    for i in range(how_many):
        lam = float(rng.choice(lams))
        n = int(rng.choice(ns))
        out.append((lam, n, random_dataset(lam, n, seed0 + 1000 + i)))
    return out


def urn_loop(lam: float, total_items: int, rng: RngStream) -> CountSample:
    """The urn arrival by arrival, from the same two draws as
    sample_urn: arrival t innovates, or copies the category of arrival
    int(pick[t] * t)."""
    g = rng.generator()
    innovate = g.random(total_items) < 1.0 - 1.0 / lam
    pick = g.random(total_items)
    category = np.empty(total_items, dtype=np.int64)
    n_cat = 0
    for t in range(total_items):
        if t == 0 or innovate[t]:
            category[t] = n_cat
            n_cat += 1
        else:
            category[t] = category[int(pick[t] * t)]
    return CountSample(np.bincount(category))


def _loglik(data: CountSample, lam: float) -> float:
    if lam <= 0.0:
        return -math.inf
    u, c = data.histogram()
    return float(data.n * math.log(lam) + c @ log_beta(lam + 1.0, u.astype(np.float64)))


def em_fit_loop(data: CountSample, config: FitConfig | None = None) -> FitResult:
    """EM on one sample, iteration by iteration through em_step, with
    the same stopping rules as em_fit: the ceiling, tol, max_iter, and
    "diverging" for an all-ones sample that ran out of iterations."""
    config = config or FitConfig()
    lam = init_lambda(data, config.init)
    trace, loglik_trace = [lam], [_loglik(data, lam)]
    status, iterations = "max_iter_reached", 0
    for _ in range(config.max_iter):
        new = em_step(lam, data, config.prior_a, config.prior_b)
        delta = abs(new - lam)
        lam = new
        iterations += 1
        trace.append(lam)
        loglik_trace.append(_loglik(data, lam))
        if lam > config.divergence_ceiling:
            status = "diverging"
            break
        if delta < config.tol:
            status = "converged"
            break
    degenerate = config.prior_b == 0.0 and config.prior_a >= 1.0 and data.counts.max() == 1
    if status == "max_iter_reached" and degenerate:
        status = "diverging"
    return FitResult(lam, iterations, trace, loglik_trace, status)


def oakes_standard_error(data: CountSample, lam: float) -> float:
    """1/sqrt(N/lam^2 - sum_i sum_j (lam+j)^-2), NaN when that is not positive."""
    info = data.n / lam**2 - pooled_harmonic_sum_sq(lam, data)
    return math.sqrt(1.0 / info) if info > 0.0 else math.nan
