"""Test-side oracles, independent of the library code paths they check."""

import math

import numpy as np
import pytest

from yulesimon import CountSample, RngStream, sample_mixture

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
