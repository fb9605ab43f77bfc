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

with each beta remainder evaluated as log1p(G_b/G_a) of two gammas,
G_b ~ Gamma(k_i - T) and G_a ~ Gamma(lam + T + 1). T = 0 is one beta per
observation, T = max(k) one gamma per level; T is chosen once per
dataset among {0} and the distinct counts to minimise the T + 2 #{k_i > T}
variates of a sweep. T and the level multiplicities m_t come from the
sample's cached count histogram, the representation the EM fit and the
information read as well.

Of those variates only the G_a depend on lam. The sweeps run in blocks
of _BLOCK (fewer when the block's lam-free variates would pass
_BLOCK_VARIATES), and each block first draws its lam-free variates, the
level gammas, the G_b and the Gamma(a + N) variate G behind each lam
draw, in one standard_gamma call apiece; a sweep then makes one call,
which draws its G_a into a buffer it reuses, and sets lam = G / (b +
sum_i w_i), the Gamma(a + N, rate b + sum_i w_i) draw. A sweep is one
division,

    (1 per level t <= T, G_b per remainder) / (lam + t per level, G_a per remainder)

then log1p of the remainder slice, then one dot product of its row of
the block's weights, the level gammas Gamma(m_t) followed by a 1 per
remainder, against the quotients. Chains are reproducible given the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import (CountSample, FieldError, RngStream, _check_lambda, _check_prior,
                           _check_size)
from .special import _warn

__all__ = [
    "GibbsConfig",
    "GibbsResult",
    "gibbs_run",
    "autocorrelation",
    "split_level",
]

_ACF_LAGS = 100
# sweeps per block, and the most lam-free variates a block may hold
_BLOCK = 256
_BLOCK_VARIATES = 2**18


@dataclass
class GibbsConfig:
    """Sampler controls; defaults are 8000 draws (at most MAX_DRAWS of
    yulesimon.distribution), 500 burn-in, no thinning, Gamma(0.05, 0.25)
    prior. The retained chain, draws burn_in, burn_in + thin, ... below
    n_samples, must hold at least two draws for its standard deviation
    and autocorrelations."""

    prior_a: float = 0.05
    prior_b: float = 0.25
    n_samples: int = 8000
    burn_in: int = 500
    thin: int = 1
    seed: RngStream = field(default_factory=RngStream)
    lambda_init: float = 1.0

    def __post_init__(self):
        _check_prior(self.prior_a, self.prior_b)
        _check_size(self.n_samples, "n_samples")
        if self.burn_in < 0 or self.n_samples <= self.burn_in:
            raise FieldError("need {n_samples} > {burn_in} >= 0, got {} and {}",
                             self.n_samples, self.burn_in)
        if self.thin < 1:
            raise FieldError("{thin} must be >= 1")
        retained = len(range(self.burn_in, self.n_samples, self.thin))
        if retained < 2:
            raise FieldError(
                "the retained chain needs at least 2 draws, got {} "
                "({n_samples}={}, {burn_in}={}, {thin}={})",
                retained, self.n_samples, self.burn_in, self.thin,
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


def split_level(u: np.ndarray, c: np.ndarray) -> int:
    """Level T in {0} and the distinct counts u (ascending, with
    multiplicities c) minimising the variates drawn per sweep,
    T + 2 #{k_i > T}; ties go to the smaller T."""
    n = int(c.sum())
    # a cost of 2n or more never wins, and capping u there keeps the sum
    # from wrapping for counts near 2**63 - 1
    cost = np.minimum(u, 2 * n) + 2 * (n - np.cumsum(c))
    best = int(np.argmin(cost))
    return int(u[best]) if cost[best] < 2 * n else 0


def _tail_multiplicity(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m[t-1] = #{i : k_i >= t} for t = 1..max(u), from counts u
    (ascending, >= 0, repeats allowed) and their multiplicities c."""
    return np.repeat(c[::-1].cumsum()[::-1], np.diff(u, prepend=0))


def _sweeps(data: CountSample, split: int, g: np.random.Generator, lam: float,
            n_sweeps: int, shape: float, rate_b: float) -> np.ndarray:
    """lam after each of n_sweeps sweeps from lam, split at level `split`.
    A sweep draws sum_i w_i given lam and sets lam = G / (rate_b + sum_w),
    with G ~ Gamma(shape) drawn in its block and sum_w a Python float.
    A block is _BLOCK sweeps, or as many as keep its split + #{k_i > split}
    lam-free variates per sweep within _BLOCK_VARIATES, and at least one.
    A sweep writes lam + t for t = 1..split, then its G_a, into den;
    divides its row of the block's numerators (a 1 per level, then the
    remainders' G_b) by den in one call; takes log1p of the remainder
    slice of the quotients; and sums sum_w as one dot product of its row
    of the block's weights (the level gammas, then a 1 per remainder)
    against them. 1.0/(lam + t) is what np.reciprocal computes, bit for
    bit. With no level (split = 0) or no remainder (split = max k) the
    sweep makes no call on the empty slice."""
    u, c = data.histogram()
    levels = np.arange(1.0, split + 1.0)
    tail = data.counts[data.counts > split] - split
    n_tail = tail.size
    m = _tail_multiplicity(np.minimum(u, split), c)
    block = max(1, min(_BLOCK, _BLOCK_VARIATES // (split + n_tail)))
    weights = np.ones((block, split + n_tail))
    numer = np.ones((block, split + n_tail))
    den = np.empty(split + n_tail)
    terms = np.empty(split + n_tail)
    lam_t, g_a, rem = den[:split], den[split:], terms[split:]
    rows = list(zip(weights, numer))
    add, divide, log1p, gamma_into = np.add, np.divide, np.log1p, g.standard_gamma
    out = np.empty(n_sweeps)
    for start in range(0, n_sweeps, block):
        size = min(block, n_sweeps - start)
        weights[:size, :split] = g.standard_gamma(m, size=(size, split))
        numer[:size, split:] = g.standard_gamma(tail, size=(size, n_tail))
        g_lam = g.standard_gamma(shape, size=size)
        for i, (w, num), gamma in zip(range(start, start + size), rows, g_lam.tolist()):
            if split:
                add(lam, levels, lam_t)
            if n_tail:
                gamma_into(lam + split + 1.0, out=g_a)
            divide(num, den, terms)
            if n_tail:
                log1p(rem, rem)
            lam = gamma / (rate_b + float(w.dot(terms)))
            out[i] = lam
    return out


def gibbs_run(data: CountSample, config: GibbsConfig | None = None) -> GibbsResult:
    """Run the sampler and summarize the retained chain.

    For large lam the posterior density falls as lam**(a - 1 + N - sum k_i)
    times exp(-b lam), so with prior_b = 0 it is proper only when the
    counts exceed 1 by more than prior_a in all; otherwise lam drifts
    upward without bound. That case, and a chain whose mean, SD or
    autocorrelations overflow, raise a FieldError on prior_b."""
    config = config or GibbsConfig()
    rate_b = config.prior_b
    if rate_b == 0.0:
        excess = data.total() - data.n
        if excess <= config.prior_a:
            raise FieldError("{prior_b} = 0 leaves the posterior improper: the counts exceed 1 "
                             "by {} in all, not by more than {prior_a} = {}", excess,
                             config.prior_a)
    raw = _sweeps(data, split_level(*data.histogram()), config.seed.generator(),
                  config.lambda_init, config.n_samples, config.prior_a + data.n, rate_b)

    chain = raw[config.burn_in :: config.thin]
    max_lag = min(_ACF_LAGS, chain.size - 1)
    # a posterior far wider than the data, under a prior rate near 0,
    # gives draws whose squares overflow
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = float(chain.mean()), float(chain.std(ddof=1))
        autocorrelations = autocorrelation(chain, max_lag)
    if not (math.isfinite(mean) and math.isfinite(sd) and np.isfinite(autocorrelations).all()):
        raise FieldError("the mean, SD or autocorrelations of the chain under {prior_b} = {} "
                         "overflow; a larger {prior_b} narrows the posterior", rate_b)
    return GibbsResult(
        chain=chain,
        posterior_mean=mean,
        posterior_sd=sd,
        autocorrelations=autocorrelations,
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
        _warn("zero-variance chain: autocorrelation undefined, returning zeros")
        return np.zeros(max_lag)
    return np.array(
        [np.dot(centered[:-lag], centered[lag:]) / denom for lag in range(1, max_lag + 1)]
    )
