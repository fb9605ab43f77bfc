"""The Yule-Simon probability model.

Counts k take values 1, 2, ... with mass g(k | lam) = lam * B(lam+1, k).
The model has an exact mixture representation

    w ~ Exponential(lam),  p = exp(-w),  k ~ Geometric(p) on {1, 2, ...}

whose marginal over p recovers g, and the conditional of the latent
success probability given an observation is p | k, lam ~ Beta(lam+1, k)
(the Gibbs sampler draws from it). This module provides the mass
function, both data generators (mixture and preferential-attachment
urn) and their lookup by name, the count sample and the count-file
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import FieldError, _check_lambda, _warn, log_beta

__all__ = [
    "RngStream",
    "CountSample",
    "CountFileError",
    "log_pmf",
    "pmf",
    "sample_mixture",
    "sample_urn",
    "read_count_file",
    "write_count_file",
]

# ceil() of the geometric inversion is clipped here before the cast to
# int64; beyond this the count is unrepresentable anyway
_MAX_COUNT = 2**62
# counts per block of write_count_file and of CountSample.histogram: a
# block's working arrays take at most about 60 bytes a count, so under
# 4 MB at any sample size, which the allocator serves from its heap
# again and again instead of mapping and faulting in fresh pages
_WRITE_BLOCK = 2**16
# bytes per block of the array reader: a block's working arrays take a
# few hundred KB, which the allocator serves from its heap again and
# again; arrays the size of a large file would be mapped, and their
# pages faulted in, afresh on every read
_READ_BLOCK = 2**16
# the digits of a count that the array reader accumulates: 19 stay
# below 2**64, and any further left must be 0
_MAX_DIGITS = 19
# 10**1 .. 10**18: a count has one digit more than the powers it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, _MAX_DIGITS, dtype=np.uint64)
# the largest size accepted for n of sample_mixture and sample_urn,
# GibbsConfig.n_samples and ExperimentSpec.n and n_rep: each builds a
# few 8-byte arrays of that length, so this bounds a run to a few GB,
# and a larger size is refused before anything is allocated
MAX_DRAWS = 10**8


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: identical (seed, stream_id) replays
    the same draws, distinct stream_ids are statistically independent.

    child() derives nested independent streams (one per replication,
    one per sampler) without coordination. RngStream() is seed 0,
    stream 0: the default of every config and of ys --seed. The
    samplers take an RngStream only.
    """

    seed: int = 0
    stream_id: int = 0
    subkeys: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (isinstance(value, (int, np.integer)) and value >= 0):
                raise FieldError("{%s} must be a non-negative integer, got {!r}" % name, value)

    def generator(self) -> np.random.Generator:
        key = (self.stream_id, *self.subkeys)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def child(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subkeys + keys)


def _as_generator(rng) -> np.random.Generator:
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng).__name__}")
    return rng.generator()


class CountSample:
    """Ordered collection of observed counts, every entry an integer >= 1.

    histogram() computes the count histogram once, in blocks of
    _WRITE_BLOCK counts, and caches it; the counts array is a read-only
    copy of the caller's, so the cache cannot go stale. read_count_file
    hands over the array it parsed through _adopt instead, with no
    copy, and _mixture_block its rows, whose histograms it may also set
    as it makes them."""

    __slots__ = ("counts", "_histogram")

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        # a bool is not a count, and the int64 cast of a complex array
        # warns before the comparison below could refuse it
        if arr.dtype.kind in "bc":
            raise ValueError("counts must be integers")
        if arr.dtype.kind in "fO":
            # inf and nan would warn in the int64 cast (an object nan
            # already in a comparison), and a non-number in an object
            # array fails the comparison with a TypeError
            try:
                with np.errstate(invalid="ignore"):
                    finite = np.all((arr > -math.inf) & (arr < math.inf))
            except TypeError:
                finite = False
            if not finite:
                raise ValueError("counts must be integers")
        # an unsigned, float or object array can hold a count the int64
        # cast would wrap; 2**63 compares exactly in each of them
        if arr.dtype.kind in "ufO" and np.any(arr >= 2**63):
            raise ValueError("count exceeds 2**63 - 1")
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

    @classmethod
    def _adopt(cls, counts: np.ndarray) -> CountSample:
        """A sample that holds counts itself, made read-only: a fresh 1-d
        int64 array of counts >= 1 (or a row of a fresh 2-d one) that
        nothing else holds, so neither the checks nor the copy of
        __init__ are needed."""
        sample = cls.__new__(cls)
        counts.flags.writeable = False
        sample.counts = counts
        sample._histogram = None
        return sample

    @property
    def n(self) -> int:
        return int(self.counts.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountSample) and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"CountSample(n={self.n}, total={self.total()})"

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, c): the distinct counts in ascending order and how often
        each occurs, as np.unique(counts, return_counts=True) gives them.

        Each block of _WRITE_BLOCK counts is sorted on its own by
        _row_histograms, and the blocks' histograms are merged by one
        np.unique of their distinct counts, so no copy of the whole
        array is made; a sample of one block takes a single sort."""
        if self._histogram is None:
            counts = self.counts
            blocks = [_row_histograms(counts[None, i:i + _WRITE_BLOCK])[0]
                      for i in range(0, counts.size, _WRITE_BLOCK)]
            if len(blocks) == 1:
                self._histogram = blocks[0]
            else:
                u, where = np.unique(np.concatenate([u for u, _ in blocks]), return_inverse=True)
                c = np.zeros(u.size, dtype=np.int64)
                np.add.at(c, where, np.concatenate([c for _, c in blocks]))
                self._histogram = u, c
        return self._histogram

    def total(self) -> int:
        """Exact sum of the counts: Python-int arithmetic, no int64 wrap."""
        u, c = self.histogram()
        return u.astype(object) @ c

    def sample_mean(self) -> float:
        return float(self.counts.mean())


def _row_histograms(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(u, c) of each row of a 2-d int64 array, as np.unique(row,
    return_counts=True) gives them: one np.sort along the rows, then
    the starts of the runs of equal values in the flattened sort, with
    a run forced at each row's start so that no run spans two rows."""
    n = rows.shape[1]
    flat = np.sort(rows, axis=1).ravel()
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::n] = True
    at = np.flatnonzero(starts)
    u, c = flat[at], np.diff(at, append=flat.size)
    # each row's first run, and the end of the last row's runs
    bounds = np.searchsorted(at, np.arange(0, flat.size + 1, n)).tolist()
    return [(u[a:b], c[a:b]) for a, b in zip(bounds, bounds[1:])]


def _check_prior(prior_a: float, prior_b: float) -> None:
    """FieldError unless the Gamma prior shape and rate are finite and >= 0."""
    for name, value in (("prior_a", prior_a), ("prior_b", prior_b)):
        if not (value >= 0.0 and math.isfinite(value)):
            raise FieldError("{%s} must be finite and >= 0, got {!r}" % name, value)


def _check_size(value: int, field: str) -> None:
    """FieldError on field unless 1 <= value <= MAX_DRAWS."""
    if not 1 <= value <= MAX_DRAWS:
        raise FieldError("{%s} must be between 1 and {}, got {}" % field, MAX_DRAWS, value)


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


def sample_mixture(lam: float, n: int, rng) -> CountSample:
    """Draw n counts through the exponential/geometric mixture.

    p is drawn as a Beta(lam, 1) variate by inverse CDF (U**(1/lam),
    computed in log space, so w = -log p is exponential with rate lam),
    and k by geometric inversion k = ceil(log(U') / log(1-p)), which
    avoids trial-by-trial Bernoulli loops on heavy-tailed draws. The
    latents are not returned: the first n uniforms of the stream fix p
    and the next n fix k. Draws beyond 2**62 are clipped to it with a
    RuntimeWarning that says how many. n is at most MAX_DRAWS.

    This is the one-rep call of _mixture_block, which run_experiment
    calls once per block of reps.
    """
    return _mixture_block(lam, n, [rng])[0]


def _mixture_block(lam: float, n: int, rngs) -> list[CountSample]:
    """sample_mixture of each stream of rngs, in one array pass.

    Row r of one (reps, 2n) array takes the 2n uniforms of rngs[r], and
    each step of the transform (log1p, the division by lam, exp, log1p,
    the division, ceil and the clip) then runs in place on the whole
    block, before one int64 cast; numpy's elementwise kernels give each
    count the bits a one-rep call gives it. Clipped draws warn once per
    clipped rep, in rep order, as the one-rep calls would. A
    block of at most _WRITE_BLOCK counts also gets its histograms from
    one _row_histograms call; a larger one, a single rep as
    run_experiment cuts its blocks, leaves them to
    CountSample.histogram's blocks.
    """
    lam = _check_lambda(lam)
    _check_size(n, "n")
    draws = np.empty((len(rngs), 2 * n))
    for row, rng in zip(draws, rngs):
        _as_generator(rng).random(out=row)
    # log(1 - U) of every uniform: the first n of a row become log(1 - p),
    # the next n the counts
    np.negative(draws, out=draws)
    np.log1p(draws, out=draws)
    log_q, raw = draws[:, :n], draws[:, n:]
    log_q /= lam
    np.exp(log_q, out=log_q)
    np.negative(log_q, out=log_q)
    np.log1p(log_q, out=log_q)
    # a quotient past the float limit is a draw the clip warning counts
    with np.errstate(divide="ignore", over="ignore"):
        raw /= log_q
    np.ceil(raw, out=raw)
    for clipped in np.count_nonzero(raw > _MAX_COUNT, axis=1).tolist():
        if clipped:
            _warn(f"sample_mixture clipped {clipped} of {n} draws at 2**62")
    np.maximum(raw, 1.0, out=raw)
    np.minimum(raw, float(_MAX_COUNT), out=raw)
    counts = raw.astype(np.int64)
    samples = [CountSample._adopt(row) for row in counts]
    if counts.size <= _WRITE_BLOCK:
        for sample, histogram in zip(samples, _row_histograms(counts)):
            sample._histogram = histogram
    return samples


def sample_urn(lam: float, n: int, rng) -> CountSample:
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
    is the root of its tree. Every arrival's pick is cast into the
    pointer array in one unmasked pass, and the roots, found by index,
    are then written back over their own slots. Pointer jumping
    (parent <- parent[parent]) reaches every root in O(log depth) array
    passes, and stops when a pass leaves the sum of the pointers
    unchanged. That test is exact: parent[t] <= t from the start and a
    pass never raises a pointer, so the pointers are unchanged exactly
    when their sum is, and the sum stays below n**2 / 2, within int64.
    The tree sizes taken in arrival order of the roots are the counts
    the arrival-by-arrival process gives for the same draws, category by
    category in order of creation. n, the number of arrivals, is at most
    MAX_DRAWS, and no more than two 8-byte arrays of n are alive at a
    time, besides the roots.
    """
    lam = _check_lambda(lam)
    if lam <= 1.0:
        raise FieldError("the urn generator requires {lam} > 1", lam="lambda")
    _check_size(n, "n")
    g = _as_generator(rng)
    alpha = 1.0 - 1.0 / lam
    innovate = g.random(n) < alpha
    pick = g.random(n)
    innovate[0] = True
    # each array is freed once spent: the draws' flags before the pointers
    # are made, the pointers before the sizes are gathered. No third
    # 8-byte array of n is ever alive, and a process that draws urn after
    # urn faults in fewer fresh pages than with the flags kept longer
    roots = np.flatnonzero(innovate)
    del innovate
    parent = np.arange(n, dtype=np.int64)
    pick *= parent
    # truncation of the float product pick * t, as int() takes it
    np.copyto(parent, pick, casting="unsafe")
    del pick
    parent[roots] = roots
    total = parent.sum()
    hop = np.empty_like(parent)
    while True:
        # every index is in [0, t], so "clip" never clips; it only skips
        # the bounds check
        np.take(parent, parent, out=hop, mode="clip")
        hop_total = hop.sum()
        if hop_total == total:
            break
        parent, hop, total = hop, parent, hop_total
    del hop
    sizes = np.bincount(parent, minlength=n)
    del parent
    sizes = sizes[roots]
    return CountSample(sizes)


GENERATORS = {"mixture": "sample_mixture", "urn": "sample_urn"}  # sampler names in this module


def generate(generator: str, lam: float, n: int, rng) -> CountSample:
    """n draws of the named generator at rate lam. The sampler is looked up in
    this module's globals at each call, so a wrapper installed here sees it."""
    return globals()[GENERATORS[generator]](lam, n, rng)


class CountFileError(ValueError):
    """Malformed count-sample file (non-integer or < 1 entry)."""


def read_count_file(path) -> CountSample:
    """Read the count format: one integer from 1 to 2**63 - 1 per line,
    written in ASCII digits; LF, CRLF or CR line ends, ASCII whitespace
    (space, tab, VT, FF) around a count, leading zeros and blank lines
    are accepted. Errors name the file's first bad line.

    A pre-pass cuts the bytes into blocks, each just after an LF and of
    at most _READ_BLOCK bytes unless one line is longer, and counts each
    block's LFs with numpy. The LFs size one output array, into which
    _parse_block parses each block in turn."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # universal newlines, as a text-mode read translates them; the
    # search alone costs a fraction of the replace on a file without CR
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # a last line without its LF gets one, which ends its count
    if not raw.endswith(b"\n"):
        raw += b"\n"
    view = np.frombuffer(raw, np.uint8)
    blocks = []
    start = 0
    while start < len(raw):
        # a window without an LF is part of a long line, a block of its own
        stop = raw.rfind(b"\n", start, start + _READ_BLOCK) + 1 or raw.find(b"\n", start) + 1
        blocks.append((start, stop, int(np.count_nonzero(view[start:stop] == 10))))
        start = stop
    out = np.empty(sum(lines for _, _, lines in blocks), dtype=np.uint64)
    done = 0
    for start, stop, lines in blocks:
        found, bad = _parse_block(view[start:stop], out[done:done + lines])
        if bad is not None:
            raise _bad_line(raw, start + bad)
        done += found
    if not done:
        raise CountFileError("count file holds no counts")
    return CountSample._adopt(out[:done].view(np.int64))


def _parse_block(block: np.ndarray, out: np.ndarray) -> tuple[int, int | None]:
    """Parse one block of read_count_file (uint8 bytes, the last an LF)
    into the head of out, which has a slot per LF: the number of counts
    and None, or in place of None the offset of a byte on the block's
    first bad line.

    A byte less 48 is a digit 0-9 and every other byte is above 9. A
    count is a run of digits ended by the non-digit right of it; index
    -1, the final LF, bounds the block's first run on the left. When
    each non-digit is an LF, the runs are the lines but the blank ones.
    Each run's last digit is taken in one gather; each pass then steps
    one byte left and adds digit * 10**j to the runs that still have a
    digit there, and as most Yule-Simon counts have one or two digits,
    the passes shrink fast. 19 digits accumulate in uint64 without
    wrapping; viewed as int64, a value above 2**63 - 1 turns negative,
    so one check refuses it and 0 alike."""
    digits = block - 48
    ends = np.flatnonzero(digits > 9)
    pos = ends - 1
    last = digits[pos]
    bad = []
    if ends.size != out.size or last.max() > 9:
        # the non-digits that end a run
        at = np.flatnonzero(last <= 9)
        if ends.size != out.size:
            byte = block[ends]
            # tab, LF, VT, FF and space: bytes.strip()'s ASCII whitespace
            # but CR, a line end by now
            space = (byte - 9 <= 3) | (byte == 32)
            if not space.all():
                bad.append(ends[~space])
            # two runs share a line unless an LF lies from the first's end
            # to the second's start, which only a run ended by other
            # whitespace can fail; the second is refused, not parsed, so
            # out keeps a slot for every run parsed
            if np.any(byte[at[:-1]] != 10):
                again = np.flatnonzero(~np.logical_or.reduceat(byte == 10, at)[:-1]) + 1
                bad.append(ends[at[again]])
                at = np.delete(at, again)
        ends, pos, last = ends[at], pos[at], last[at]
    value = out[:ends.size]
    value[:] = last
    rows = np.arange(ends.size)
    for power in _POWERS_OF_TEN:
        pos -= 1
        digit = digits[pos]
        more = np.flatnonzero(digit <= 9)
        if not more.size:
            break
        rows, pos = rows[more], pos[more]
        value[rows] += digit[more] * power
    else:
        # a run of more than 19 digits: the nearest byte left of its 19th
        # that is not a 0 must be the non-digit before the run
        long = pos[digits[pos - 1] <= 9]
        not_zero = np.flatnonzero(digits)
        bad.append(long[digits[not_zero[np.searchsorted(not_zero, long) - 1]] <= 9])
    signed = value.view(np.int64)
    if signed.min(initial=1) < 1:
        bad.append(ends[signed < 1])
    return ends.size, min((int(where[0]) for where in bad if where.size), default=None)


def _bad_line(raw: bytes, at: int) -> CountFileError:
    """The refusal of the line of raw that holds byte at, numbered by the
    LFs before it and worded from its bytes stripped of ASCII whitespace."""
    lineno = raw.count(b"\n", 0, at) + 1
    text = raw[raw.rfind(b"\n", 0, at) + 1:raw.find(b"\n", at)].strip()
    if not text.isdigit():
        got = text.decode("utf-8", errors="replace")
        return CountFileError(f"line {lineno}: expected ASCII digits, got {got!r}")
    if not text.strip(b"0"):
        return CountFileError(f"line {lineno}: counts must be >= 1, got 0")
    return CountFileError(f"line {lineno}: count exceeds 2**63 - 1")


def write_count_file(path, sample: CountSample) -> None:
    """Write the count format: each count in ASCII digits, no leading
    zero, followed by LF. The counts go out in blocks of _WRITE_BLOCK
    (2**16), each laid out as one byte array by _digit_lines and
    written in one call; a block's working arrays stay under 4 MB,
    whatever the size of the sample."""
    counts = sample.counts
    with open(path, "wb") as fh:
        for start in range(0, counts.size, _WRITE_BLOCK):
            fh.write(_digit_lines(counts[start:start + _WRITE_BLOCK]))


def _digit_lines(counts: np.ndarray) -> np.ndarray:
    """The lines of counts (int64, each >= 1) as one uint8 array, the
    inverse of read_count_file's parse.

    A count's digit count is found by binary search on the powers of
    ten, the line ends are the cumulative sum of the line lengths, and
    the digits are filled right to left, one division by 10 a pass; each
    pass keeps only the counts that still have digits left."""
    values = counts.astype(np.uint64)
    # a line is searchsorted's count + 1 digits and an LF; pos runs from
    # each line's end to the position of the next digit to fill
    pos = np.cumsum(np.searchsorted(_POWERS_OF_TEN, values, side="right") + 2)
    buf = np.empty(int(pos[-1]), dtype=np.uint8)
    pos -= 1
    buf[pos] = 10
    pos -= 1
    while True:
        # floor division by a scalar takes numpy's multiply-and-shift
        # path, which divmod does not
        high = values // 10
        values -= high * 10
        values += 48
        buf[pos] = values
        left = np.flatnonzero(high)
        if not left.size:
            return buf
        values = high[left]
        pos = pos[left] - 1
