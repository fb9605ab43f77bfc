"""Gibbs sampler for the posterior of the Yule-Simon rate under a
Gamma(a, rate b) prior, via the exponential/geometric augmentation.

Each sweep alternates

    p_i | lam, k_i ~ Beta(lam+1, k_i)        i = 1..N
    w_i = -log(p_i)
    lam | w ~ Gamma(a + N, rate = b + sum_i w_i)

The prior rate is included in the conditional's rate: that is what
conjugacy of the Gamma prior gives, and at text scale the difference
from dropping it is far below reporting precision anyway. Only the sum
of the w_i enters the lambda draw, and -log Beta(lam+1, k) for integer
k is a sum of k independent exponentials with rates lam+1 .. lam+k, so
for any split level T the sweep draws the distributionally identical

    sum_i w_i = sum_{t<=T} Gamma(m_t) / (lam + t)      m_t = #{i : k_i >= t}
              + sum_{i: k_i > T} -log Beta(lam+T+1, k_i-T)

with each beta remainder evaluated as log1p(G_b/G_a) of two gammas.
T = 0 is one beta per observation, T = max(k) one gamma per level; T is
chosen once per dataset among {0} and the distinct counts to minimise
the T + 2 #{k_i > T} variates of a sweep. They all come from one
standard_gamma call on a preallocated shape vector whose lam+T+1 slots
alone change between sweeps. Chains are reproducible given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import CountSample, RngStream, _as_generator, _check_lambda
from .special import _tail_multiplicity

__all__ = [
    "GibbsConfig",
    "GibbsResult",
    "gibbs_run",
    "autocorrelation",
    "conditional_lambda_draw",
    "split_level",
]

_ACF_LAGS = 100


@dataclass
class GibbsConfig:
    """Sampler controls; defaults are 8000 draws, 500 burn-in, no
    thinning, Gamma(0.05, 0.25) prior. The retained chain, draws
    burn_in, burn_in + thin, ... below n_samples, must hold at least
    two draws for its standard deviation and autocorrelations."""

    prior_a: float = 0.05
    prior_b: float = 0.25
    n_samples: int = 8000
    burn_in: int = 500
    thin: int = 1
    seed: RngStream = field(default_factory=lambda: RngStream(0))
    lambda_init: float = 1.0

    def __post_init__(self):
        if self.prior_a < 0.0 or self.prior_b < 0.0:
            raise ValueError("prior parameters must be >= 0")
        if self.burn_in < 0 or self.n_samples <= self.burn_in:
            raise ValueError("need n_samples > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        retained = len(range(self.burn_in, self.n_samples, self.thin))
        if retained < 2:
            raise ValueError(
                f"the retained chain needs at least 2 draws, got {retained} "
                f"(n_samples={self.n_samples}, burn_in={self.burn_in}, thin={self.thin})"
            )
        _check_lambda(self.lambda_init, "lambda_init")


@dataclass
class GibbsResult:
    """Posterior summary over the retained chain (post burn-in, post
    thinning); the raw chain is kept for diagnostics."""

    chain: np.ndarray
    posterior_mean: float
    posterior_sd: float
    autocorrelations: np.ndarray
    raw_chain: np.ndarray


def conditional_lambda_draw(sum_w, n: int, prior_a: float, prior_b: float, rng, size=None):
    """Draw lam | w, k ~ Gamma(shape a+n, rate b+sum_w); one float when
    size is None, else an array."""
    if not (sum_w > 0.0):
        raise ValueError("sum_w must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _as_generator(rng)
    draw = g.gamma(prior_a + n, 1.0 / (prior_b + sum_w), size=size)
    return float(draw) if size is None else draw


def split_level(counts) -> int:
    """Level T in {0} and the distinct counts minimising the variates
    drawn per sweep, T + 2 #{k_i > T}; ties go to the smaller T."""
    k = np.sort(counts)
    cost = k + 2 * (k.size - np.searchsorted(k, k, side="right"))
    best = int(np.argmin(cost))
    return int(k[best]) if cost[best] < 2 * k.size else 0


def _sum_w_sampler(counts: np.ndarray, split: int, g: np.random.Generator):
    """Return lam -> one draw of sum_i w_i, split at level `split`."""
    levels = np.arange(1.0, split + 1.0)
    tail = counts[counts > split] - split
    g_a = slice(split, split + tail.size)
    below = np.unique(np.minimum(counts, split), return_counts=True)
    shape = np.concatenate([_tail_multiplicity(*below), np.empty(tail.size), tail])

    def draw(lam: float) -> float:
        shape[g_a] = lam + split + 1.0
        x = g.standard_gamma(shape)
        return float(x[:split] @ (1.0 / (lam + levels)) + np.log1p(x[g_a.stop:] / x[g_a]).sum())

    return draw


def gibbs_run(data: CountSample, config: GibbsConfig | None = None) -> GibbsResult:
    """Run the sampler and summarize the retained chain."""
    config = config or GibbsConfig()
    g = config.seed.generator()
    draw_sum_w = _sum_w_sampler(data.counts, split_level(data.counts), g)
    lam = config.lambda_init
    raw = np.empty(config.n_samples)
    for t in range(config.n_samples):
        lam = conditional_lambda_draw(draw_sum_w(lam), data.n, config.prior_a, config.prior_b, g)
        raw[t] = lam

    chain = raw[config.burn_in :: config.thin]
    max_lag = min(_ACF_LAGS, chain.size - 1)
    return GibbsResult(
        chain=chain,
        posterior_mean=float(chain.mean()),
        posterior_sd=float(chain.std(ddof=1)),
        autocorrelations=autocorrelation(chain, max_lag),
        raw_chain=raw,
    )


def autocorrelation(chain, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag.

    A zero-variance chain has no defined autocorrelation; it returns
    all zeros with a warning rather than NaNs.
    """
    x = np.asarray(chain, dtype=np.float64)
    if x.size <= max_lag:
        raise ValueError("chain must be longer than max_lag")
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        warnings.warn("zero-variance chain: autocorrelation undefined, returning zeros",
                      RuntimeWarning, stacklevel=2)
        return np.zeros(max_lag)
    return np.array(
        [np.dot(centered[:-lag], centered[lag:]) / denom for lag in range(1, max_lag + 1)]
    )
