"""The Yule-Simon probability model.

Counts k take values 1, 2, ... with mass g(k | lam) = lam * B(lam+1, k).
The model has an exact mixture representation

    w ~ Exponential(lam),  p = exp(-w),  k ~ Geometric(p) on {1, 2, ...}

whose marginal over p recovers g, and the conditional of the latent
success probability given an observation is p | k, lam ~ Beta(lam+1, k).
This module provides the mass function, moments, both data generators
(mixture and preferential-attachment urn) and the latent conditional.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .special import log_beta

__all__ = [
    "RngStream",
    "CountSample",
    "LatentDraws",
    "CountFileError",
    "log_pmf",
    "pmf",
    "mean",
    "sample_mixture",
    "sample_urn",
    "latent_posterior_params",
    "read_count_file",
    "write_count_file",
]

# ceil() of the geometric inversion is clipped here before the cast to
# int64; beyond this the count is unrepresentable anyway
_MAX_COUNT = 2**62
# lines per write in write_count_file
_WRITE_BLOCK = 4096


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: identical (seed, stream_id) replays
    the same draws, distinct stream_ids are statistically independent.

    child() derives nested independent streams (one per replication,
    one per sampler) without coordination.
    """

    seed: int
    stream_id: int = 0
    subkeys: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        key = (self.stream_id, *self.subkeys)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def child(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subkeys + keys)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


class CountSample:
    """Ordered collection of observed counts, every entry an integer >= 1.

    histogram() computes the count histogram once and caches it; the
    counts array is read-only, so the cache cannot go stale."""

    __slots__ = ("counts", "_histogram")

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if not np.issubdtype(arr.dtype, np.integer):
            as_int = np.asarray(arr, dtype=np.int64)
            if not np.array_equal(as_int, arr):
                raise ValueError("counts must be integers")
            arr = as_int
        else:
            arr = arr.astype(np.int64, copy=True)
        if arr.min() < 1:
            raise ValueError("every count must be >= 1")
        arr.flags.writeable = False
        self.counts = arr
        self._histogram = None

    @property
    def n(self) -> int:
        return int(self.counts.size)

    def __len__(self) -> int:
        return self.counts.size

    def __eq__(self, other) -> bool:
        return isinstance(other, CountSample) and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"CountSample(n={self.n}, total={self.total()})"

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, c): the distinct counts in ascending order and how often
        each occurs."""
        if self._histogram is None:
            self._histogram = np.unique(self.counts, return_counts=True)
        return self._histogram

    def total(self) -> int:
        """Exact sum of the counts: Python-int arithmetic, no int64 wrap."""
        u, c = self.histogram()
        return u.astype(object) @ c

    def sample_mean(self) -> float:
        return float(self.counts.mean())


@dataclass(frozen=True)
class LatentDraws:
    """Latent variables of the mixture sampler, one entry per count:
    w exponential, p = exp(-w) the geometric success probability."""

    w: np.ndarray
    p: np.ndarray
    k: np.ndarray

    def __len__(self) -> int:
        return self.w.size


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    return lam


def log_pmf(k, lam: float):
    """log g(k | lam) = log(lam) + log B(lam+1, k) for integer k >= 1."""
    lam = _check_lambda(lam)
    arr = np.asarray(k)
    scalar = arr.ndim == 0
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ValueError("k must be integer")
        arr = rounded
    if np.any(arr < 1):
        raise ValueError("k must be >= 1")
    out = math.log(lam) + log_beta(lam + 1.0, np.asarray(arr, dtype=np.float64))
    return float(out) if scalar else out


def pmf(k, lam: float):
    """g(k | lam) = lam * B(lam+1, k)."""
    return np.exp(log_pmf(k, lam))


def mean(lam: float) -> float:
    """lam/(lam-1) for lam > 1; the mean is infinite otherwise."""
    lam = _check_lambda(lam)
    if lam <= 1.0:
        return math.inf
    return lam / (lam - 1.0)


def sample_mixture(lam: float, n: int, rng) -> tuple[CountSample, LatentDraws]:
    """Draw n counts through the exponential/geometric mixture.

    p is drawn as a Beta(lam, 1) variate by inverse CDF (U**(1/lam),
    computed in log space), w = -log p, and k by geometric inversion
    k = ceil(log(U') / log(1-p)), which avoids trial-by-trial Bernoulli
    loops on heavy-tailed draws. The latents are returned alongside the
    counts so tests can check the hierarchy directly. Draws beyond 2**62
    are clipped to it with a RuntimeWarning that says how many.
    """
    lam = _check_lambda(lam)
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _as_generator(rng)
    log_p = np.log1p(-g.random(n)) / lam
    p = np.exp(log_p)
    w = -log_p
    log_u = np.log1p(-g.random(n))
    with np.errstate(divide="ignore"):
        raw = np.ceil(log_u / np.log1p(-p))
    clipped = int(np.count_nonzero(raw > _MAX_COUNT))
    if clipped:
        warnings.warn(f"sample_mixture clipped {clipped} of {n} draws at 2**62",
                      RuntimeWarning, stacklevel=2)
    k = np.minimum(np.maximum(raw, 1.0), float(_MAX_COUNT)).astype(np.int64)
    return CountSample(k), LatentDraws(w=w, p=p, k=k)


def sample_urn(lam: float, total_items: int, rng) -> CountSample:
    """Simon preferential-attachment process returning category counts.

    Each arrival starts a new category with the innovation probability
    1 - 1/lam, otherwise joins an existing category with probability
    proportional to its current size (realised by copying the category
    of a uniformly chosen earlier arrival). The classical result for
    this process makes the stationary size distribution Yule-Simon with
    parameter lam, which is why lam <= 1 is rejected: the innovation
    probability would leave (0, 1).

    The copies form a forest: arrival t points at itself when it
    innovates and at arrival floor(pick * t) otherwise, so its category
    is the root of its tree. Pointer jumping (parent <- parent[parent])
    reaches every root in O(log depth) array passes. The roots are the
    innovations, so the tree sizes taken in arrival order of the roots
    are the counts the arrival-by-arrival process gives for the same
    draws, category by category in order of creation.
    """
    lam = _check_lambda(lam)
    if lam <= 1.0:
        raise ValueError("the urn generator requires lambda > 1")
    if total_items < 1:
        raise ValueError("total_items must be >= 1")
    g = _as_generator(rng)
    alpha = 1.0 - 1.0 / lam
    innovate = g.random(total_items) < alpha
    pick = g.random(total_items)
    innovate[0] = True
    parent = np.arange(total_items, dtype=np.int64)
    pick *= parent
    # truncation of the float product pick * t, as int() takes it
    np.copyto(parent, pick, casting="unsafe", where=~innovate)
    # each spent buffer is freed, so no more than two 8-byte arrays of
    # total_items are alive at a time
    del pick
    hop = np.empty_like(parent)
    while True:
        # every index is in [0, t], so "clip" never clips; it only skips
        # the bounds check
        np.take(parent, parent, out=hop, mode="clip")
        if np.array_equal(hop, parent):
            break
        parent, hop = hop, parent
    del hop
    return CountSample(np.bincount(parent, minlength=total_items)[innovate])


def latent_posterior_params(k: int, lam: float) -> tuple[float, float]:
    """Parameters of p | k, lam ~ Beta(lam+1, k)."""
    lam = _check_lambda(lam)
    if k < 1 or int(k) != k:
        raise ValueError("k must be an integer >= 1")
    return lam + 1.0, float(k)


class CountFileError(ValueError):
    """Malformed count-sample file (non-integer or < 1 entry)."""


def read_count_file(path) -> CountSample:
    """Read the count format: one integer from 1 to 2**63 - 1 per line,
    written in ASCII digits; surrounding whitespace and blank lines are
    ignored. Errors name the offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    tokens = [text for text in map(str.strip, lines) if text]
    if not tokens:
        raise CountFileError("count file holds no counts")
    # one check over the whole file; a file that fails it is parsed again
    # line by line, which names the offending line
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            counts = np.array(tokens, dtype=np.int64)
        except (OverflowError, ValueError):  # beyond int64, or too long for int()
            pass
        else:
            if counts.min() >= 1:
                return CountSample(counts)
    return CountSample(np.array(_parse_lines(lines), dtype=np.int64))


def _parse_lines(lines) -> list[int]:
    """The counts, read one line at a time; the first line outside the
    format raises CountFileError with its number."""
    counts = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if not (text.isascii() and text.isdigit()):
            raise CountFileError(f"line {lineno}: expected ASCII digits, got {text!r}")
        digits = text.lstrip("0")
        if not digits:
            raise CountFileError(f"line {lineno}: counts must be >= 1, got 0")
        if len(digits) > 19 or int(digits) > np.iinfo(np.int64).max:
            raise CountFileError(f"line {lineno}: count exceeds 2**63 - 1")
        counts.append(int(digits))
    return counts


def write_count_file(path, sample: CountSample) -> None:
    """Write the count format, one count per line, in blocks of
    _WRITE_BLOCK lines: one join per block keeps the Python strings of
    a block alive, never those of the whole sample."""
    counts = sample.counts
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, counts.size, _WRITE_BLOCK):
            fh.write("\n".join(map(str, counts[start:start + _WRITE_BLOCK].tolist())) + "\n")
