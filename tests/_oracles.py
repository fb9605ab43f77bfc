"""Test-side oracles, independent of the library code paths they check."""

import math
import re
import warnings
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from yulesimon import (
    CountFileError,
    CountSample,
    FitConfig,
    RngStream,
    TokenizerOptions,
    em_step,
    init_lambda,
    oakes_information,
    observed_loglik,
    sample_mixture,
)
from yulesimon.convergence import _DENOMINATOR_FLOOR
from yulesimon.corpus import _token_pattern
from yulesimon.em import DIVERGENCE_CEILING
from yulesimon.special import (_check_lambda, digamma, log_beta, pooled_harmonic_sum,
                               pooled_harmonic_sum_sq)

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


def posterior_mode(data: CountSample, prior_a: float, prior_b: float) -> float:
    """Mode of the posterior of lam under a Gamma(a, rate b) prior,

        log pi(lam | k) = (a+N-1) log lam - b lam + sum_u c_u log B(lam+1, u),

    by golden-section search on log_beta alone, which shares no code
    with the digamma kernel of the EM update. The posterior is unimodal:
    its score is [(a+N-1) - b lam - sum_i sum_j lam/(lam+j)] / lam, whose
    numerator decreases in lam."""
    u, c = data.histogram()
    uf = u.astype(np.float64)
    shape = prior_a + data.n - 1.0

    def log_post(lam: float) -> float:
        return shape * math.log(lam) - prior_b * lam + float(c @ log_beta(lam + 1.0, uf))

    # searched in log lam, so the bracket shrinks to a relative width
    t = golden_section_maximize(lambda t: log_post(math.exp(t)), math.log(1e-6), math.log(1e3),
                                tol=1e-10)
    return math.exp(t)


def posterior_moments(data: CountSample, prior_a: float, prior_b: float,
                      nodes: int = 400) -> tuple[float, float]:
    """Posterior mean and SD of lam under a Gamma(a, rate b) prior, by
    the trapezoid rule in t = log lam on `nodes` equally spaced nodes.

    The density of t is pi(e^t | k) e^t, smooth and fast-decaying, on
    which the trapezoid rule converges geometrically (Trefethen &
    Weideman 2014, SIAM Rev. 56:385). The nodes span the posterior mode
    +- 12 SD, in log lam that is +- 12 SD / mode, with the SD taken from
    the Oakes information at the mode plus the prior curvature
    (a-1)/lam^2. At small N the density of t has an exponential left
    tail, e^{(a+N) t}, that this normal scale underrates, so each end
    moves out by another 12 SD until the density there is e^-40 of its
    value at the mode. The integrand is one log_beta call over the
    (nodes x distinct counts) grid."""
    u, c = data.histogram()
    uf = u.astype(np.float64)

    def log_f(t):
        lam = np.exp(t)
        return ((prior_a + data.n) * t - prior_b * lam
                + log_beta(np.atleast_1d(lam)[:, None] + 1.0, uf[None, :]) @ c)

    mode = posterior_mode(data, prior_a, prior_b)
    info = oakes_information(data, mode) + (prior_a - 1.0) / mode**2
    if not info > 0.0:
        raise ValueError("the log posterior is not concave at its mode")
    t0 = math.log(mode)
    step = 12.0 / (mode * math.sqrt(info))
    floor = log_f(t0)[0] - 40.0
    lo, hi = t0 - step, t0 + step
    while log_f(lo)[0] > floor:
        lo -= step
    while log_f(hi)[0] > floor:
        hi += step
    t = np.linspace(lo, hi, nodes)
    lam = np.exp(t)
    log_w = log_f(t)
    w = np.exp(log_w - log_w.max())
    w[[0, -1]] *= 0.5
    mean = float(w @ lam / w.sum())
    sd = math.sqrt(float(w @ (lam - mean) ** 2 / w.sum()))
    return mean, sd


def batch_means_se(chain: np.ndarray, batches: int = 25) -> float:
    """Standard error of the chain mean from the means of `batches`
    equal consecutive batches (a remainder at the end is dropped)."""
    size = chain.size // batches
    means = chain[: size * batches].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def random_dataset(lam: float, n: int, seed: int, stream: int = 0) -> CountSample:
    """Seeded synthetic count sample with at least one count above 1."""
    sample = sample_mixture(lam, n, RngStream(seed, stream))
    if sample.counts.max() == 1:  # keep the likelihood maximizable
        counts = sample.counts.copy()
        counts[0] = 2
        sample = CountSample(counts)
    return sample


def int64_limit_sample() -> CountSample:
    """sample_mixture(0.05, 3000, RngStream(2)): 327 of its draws sit at
    the generator's 2**62 cap, and the counts sum far beyond int64."""
    with pytest.warns(RuntimeWarning, match="clipped 327 of 3000"):
        return sample_mixture(0.05, 3000, RngStream(2))


def write_count_file_join(path, sample: CountSample) -> None:
    """The count format written as text: str() of each count, the
    lines of each block of 4096 counts joined with LF in one string."""
    counts = sample.counts
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, counts.size, 4096):
            fh.write("\n".join(map(str, counts[start:start + 4096].tolist())) + "\n")


def parse_digit_lines_by_width(raw: bytes) -> np.ndarray | None:
    """The counts of a file of 1- to 19-digit ASCII lines, each ended
    by LF, all from 1 to 2**63 - 1; None for any other file. The whole
    file is one byte array.

    Lines are grouped by digit count L, and each group's values are
    built by L Horner steps over uint8 gathers. They accumulate in
    uint64, where 19 digits cannot wrap; viewed as int64, a value above
    2**63 - 1 turns negative, so one check rejects it and 0 alike."""
    if not raw.endswith(b"\n"):
        return None
    digits = np.frombuffer(raw, np.uint8) - 48
    ends = np.flatnonzero(digits > 9)
    # uint8 arithmetic takes LF (10) to 10 - 48 + 256
    if np.any(digits[ends] != 218):
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > 19:
        return None
    out = np.empty(ends.size, dtype=np.uint64)
    for width in range(1, longest + 1):
        rows = np.flatnonzero(lengths == width)
        if not rows.size:
            continue
        pos = ends[rows] - width
        value = digits[pos].astype(np.uint64)
        for _ in range(width - 1):
            pos += 1
            value *= 10
            value += digits[pos]
        out[rows] = value
    counts = out.view(np.int64)
    return counts if counts.min() >= 1 else None


# the whitespace a count file may hold around a count: the characters
# that bytes.strip() strips
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def parse_lines(lines) -> list[int]:
    """The counts of a count file's lines of text, read one line at a
    time, each stripped of ASCII whitespace; the first line outside the
    format raises CountFileError with its number."""
    counts = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip(ASCII_WHITESPACE)
        if not text:
            continue
        if not (text.isascii() and text.isdigit()):
            raise CountFileError(f"line {lineno}: expected ASCII digits, got {text!r}")
        digits = text.lstrip("0")
        if not digits:
            raise CountFileError(f"line {lineno}: counts must be >= 1, got 0")
        if len(digits) > 19 or int(digits) > 2**63 - 1:
            raise CountFileError(f"line {lineno}: count exceeds 2**63 - 1")
        counts.append(int(digits))
    return counts


def conditional_lambda_draw(sum_w, n: int, prior_a: float, prior_b: float, rng, size=None):
    """Draw lam | w, k ~ Gamma(shape a+n, rate b+sum_w); one float when
    size is None, else an array."""
    if not (sum_w > 0.0):
        raise ValueError("sum_w must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    draw = rng.generator().gamma(prior_a + n, 1.0 / (prior_b + sum_w), size=size)
    return float(draw) if size is None else draw


def sweeps_two_reductions(data: CountSample, split: int, g: np.random.Generator, lam: float,
                          n_sweeps: int, shape: float, rate_b: float) -> np.ndarray:
    """The Gibbs sweep loop with sum_w built from two reductions, a dot
    over the levels and a sum over the remainders: the same draws, in
    the same order and sizes, as yulesimon.gibbs._sweeps."""
    from yulesimon.gibbs import _BLOCK, _BLOCK_VARIATES, _tail_multiplicity

    u, c = data.histogram()
    levels = np.arange(1.0, split + 1.0)
    tail = data.counts[data.counts > split] - split
    m = _tail_multiplicity(np.minimum(u, split), c)
    block = max(1, min(_BLOCK, _BLOCK_VARIATES // (split + tail.size)))
    out = np.empty(n_sweeps)
    for start in range(0, n_sweeps, block):
        size = min(block, n_sweeps - start)
        x = g.standard_gamma(m, size=(size, split))
        g_b = g.standard_gamma(tail, size=(size, tail.size))
        g_lam = g.standard_gamma(shape, size=size)
        for i in range(size):
            sum_w = x[i] @ (1.0 / (lam + levels))
            if tail.size:
                g_a = g.standard_gamma(lam + split + 1.0, size=tail.size)
                sum_w += np.log1p(g_b[i] / g_a).sum()
            lam = g_lam[i] / (rate_b + sum_w)
            out[start + i] = lam
    return out


def sweeps_reciprocal(data: CountSample, split: int, g: np.random.Generator, lam: float,
                      n_sweeps: int, shape: float, rate_b: float) -> np.ndarray:
    """The Gibbs sweep loop with the level terms from np.reciprocal and
    the remainder ratios from their own np.divide, each G_a a fresh
    array: the same draws, in the same order and sizes, and the same
    sum_w bits as yulesimon.gibbs._sweeps."""
    from yulesimon.gibbs import _BLOCK, _BLOCK_VARIATES, _tail_multiplicity

    u, c = data.histogram()
    levels = np.arange(1.0, split + 1.0)
    tail = data.counts[data.counts > split] - split
    m = _tail_multiplicity(np.minimum(u, split), c)
    block = max(1, min(_BLOCK, _BLOCK_VARIATES // (split + tail.size)))
    weights = np.ones((block, split + tail.size))
    terms = np.empty(split + tail.size)
    inv, rem = terms[:split], terms[split:]
    out = np.empty(n_sweeps)
    for start in range(0, n_sweeps, block):
        size = min(block, n_sweeps - start)
        weights[:size, :split] = g.standard_gamma(m, size=(size, split))
        g_b = g.standard_gamma(tail, size=(size, tail.size))
        g_lam = g.standard_gamma(shape, size=size)
        for i, (w, b, gamma) in enumerate(zip(weights, g_b, g_lam.tolist()), start):
            np.reciprocal(np.add(lam, levels, out=inv), out=inv)
            if tail.size:
                g_a = g.standard_gamma(lam + split + 1.0, size=tail.size)
                np.log1p(np.divide(b, g_a, out=rem), out=rem)
            lam = gamma / (rate_b + float(w @ terms))
            out[i] = lam
    return out


def mixture_latents(lam: float, n: int, rng: RngStream):
    """(p, w, k) of the exponential/geometric mixture, rebuilt from the
    same two blocks of uniforms that sample_mixture draws from rng:
    w = -log(1 - U) / lam is exponential with rate lam, p = exp(-w), and
    k = ceil(log(1 - U') / log(1 - p)) is geometric on {1, 2, ...},
    capped at 2**62 as the generator caps it."""
    g = rng.generator()
    w = -np.log1p(-g.random(n)) / lam
    p = np.exp(-w)
    with np.errstate(divide="ignore"):
        k = np.ceil(np.log1p(-g.random(n)) / np.log1p(-p))
    return p, w, np.clip(k, 1.0, 2.0**62).astype(np.int64)


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


def loglik_trace(fit) -> list:
    """The library's observed_loglik at every iterate of a FitResult's
    trace, -inf at a start of 0."""
    return [observed_loglik(fit.sample, lam) if lam > 0.0 else -math.inf for lam in fit.trace]


class LoopFit(NamedTuple):
    """em_fit_loop's result: the fields of a FitResult, with the
    likelihood trace evaluated at each iterate as the loop runs."""

    lambda_hat: float
    iterations: int
    trace: list
    loglik_trace: list
    status: str


def em_fit_loop(data: CountSample, config: FitConfig | None = None) -> LoopFit:
    """EM on one sample, iteration by iteration through em_step, with
    the same stopping rules as em_fit: an iterate that rose above the
    ceiling, tol, max_iter, and "diverging" for an all-ones sample that
    ran out of iterations."""
    config = config or FitConfig()
    lam = init_lambda(data, config.init)
    trace, loglik_trace = [lam], [_loglik(data, lam)]
    status, iterations = "max_iter_reached", 0
    for _ in range(config.max_iter):
        new = em_step(lam, data, config.prior_a, config.prior_b)
        delta = abs(new - lam)
        rose = new > lam
        lam = new
        iterations += 1
        trace.append(lam)
        loglik_trace.append(_loglik(data, lam))
        if lam > DIVERGENCE_CEILING and rose:
            status = "diverging"
            break
        if delta < config.tol:
            status = "converged"
            break
    degenerate = config.prior_b == 0.0 and config.prior_a >= 1.0 and data.counts.max() == 1
    if status == "max_iter_reached" and degenerate:
        status = "diverging"
    return LoopFit(lam, iterations, trace, loglik_trace, status)


# Radius of the interval on which the per-observation log-likelihood is
# certified concave: second derivative -1/lam^2 + sum 1/(lam+j)^2 stays
# negative while 1/lam^2 exceeds the Basel sum pi^2/6.
CONVEXITY_BOUND = math.sqrt(6.0) / math.pi


def q_function(lam: float, lam_prev: float, data: CountSample) -> float:
    """Expected complete-data log-likelihood given the previous iterate.

    Q(lam | lam') = N log lam - lam sum_i sum_{j=1..k_i} 1/(lam'+j)
                    + sum_i (k_i-1)[psi(k_i) - psi(lam'+1+k_i)]
    """
    lam = _check_lambda(lam)
    lam_prev = _check_lambda(lam_prev, "lam_prev")
    u, c = data.histogram()
    uf = u.astype(np.float64)
    rest = np.sum(c * (uf - 1.0) * (digamma(uf) - digamma(lam_prev + 1.0 + uf)))
    return float(data.n * math.log(lam) - lam * pooled_harmonic_sum(lam_prev, data) + rest)


def convexity_check(data: CountSample, lam: float) -> tuple[float, bool]:
    """Second derivative of the log-likelihood at lam and whether lam
    lies inside the certified concavity interval (0, sqrt(6)/pi)."""
    lam = _check_lambda(lam)
    second = -data.n / lam**2 + pooled_harmonic_sum_sq(lam, data)
    return second, lam < CONVEXITY_BOUND


def empirical_rates_known_limit(trace, lambda_infinity: float) -> tuple[list[float], bool]:
    """The rate path of a trace of at least 2 iterates against a known
    limit, r_{t+1} = (lam_t - lam_inf)/(lam_{t-1} - lam_inf), as (values,
    truncated), with the floor of convergence.empirical_rates."""
    trace = [float(x) for x in trace]
    if len(trace) < 2:
        raise ValueError("trace must hold at least 2 iterates")
    gaps = [x - float(lambda_infinity) for x in trace]
    values: list[float] = []
    for num, denom in zip(gaps[1:], gaps):
        if abs(denom) < _DENOMINATOR_FLOOR:
            return values, True
        values.append(num / denom)
    return values, False


def harmonic_sum(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j) term by term, the finite-sum form of
    psi(lam+k+1) - psi(lam+1)."""
    return float(np.sum(1.0 / (lam + np.arange(1.0, k + 1.0))))


def harmonic_sum_sq(lam: float, k: int) -> float:
    """sum_{j=1..k} 1/(lam + j)^2 term by term, the finite-sum form of
    psi_1(lam+1) - psi_1(lam+k+1)."""
    j = lam + np.arange(1.0, k + 1.0)
    return float(np.sum(1.0 / (j * j)))


def _tail_levels(lam: float, data: CountSample):
    """(m, lam + t) for t = 1..max(k), with m[t-1] = #{i : k_i >= t}
    built from the histogram: an array of length max(k)."""
    u, c = data.histogram()
    m = np.repeat(c[::-1].cumsum()[::-1], np.diff(u, prepend=0))
    return m, lam + np.arange(1.0, m.size + 1.0)


def finite_pooled_sum(lam: float, data: CountSample) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j) as sum_t m_t / (lam + t), the
    finite form the polygamma kernel is checked against."""
    m, j = _tail_levels(lam, data)
    return float(np.sum(m / j))


def finite_pooled_sum_sq(lam: float, data: CountSample) -> float:
    """sum_i sum_{j=1..k_i} 1/(lam + j)^2 as sum_t m_t / (lam + t)^2."""
    m, j = _tail_levels(lam, data)
    return float(np.sum(m / (j * j)))


def finite_em_step(lam: float, data: CountSample, prior_a: float = 1.0,
                   prior_b: float = 0.0) -> float:
    """The EM/MAP update (N + a - 1) / (b + sum_i sum_j 1/(lam + j)) on
    the finite sum."""
    return (data.n + prior_a - 1.0) / (prior_b + finite_pooled_sum(lam, data))


def oakes_standard_error(data: CountSample, lam: float) -> float:
    """1/sqrt(N/lam^2 - sum_i sum_j (lam+j)^-2), NaN when that is not positive."""
    info = data.n / lam**2 - pooled_harmonic_sum_sq(lam, data)
    return math.sqrt(1.0 / info) if info > 0.0 else math.nan


def tokenize_count_findall(text: str, options: TokenizerOptions | None = None) -> dict:
    """The vocabulary of tokenize_count by one findall of the token
    pattern over the whole lowered text, in order of first occurrence."""
    return dict(Counter(_token_pattern(options or TokenizerOptions()).findall(text.lower())))


def chunk_counts_split(data: bytes) -> tuple[list[bytes], list[int]]:
    """The distinct chunks of data between ASCII whitespace and their
    counts, in order of first occurrence, by bytes.split and Counter:
    one bytes object per chunk."""
    counts = Counter(data.split())
    return list(counts), list(counts.values())


# the markers as a per-line search reads them, with blanks that may be
# any whitespace: a line holds a break only at its end
_START_LINE = re.compile(r"\*+\s*START OF", re.IGNORECASE)
_END_LINE = re.compile(r"\*+\s*END OF", re.IGNORECASE)


def strip_gutenberg_lines(text: str) -> str:
    """strip_gutenberg with both marker searches on every line."""
    lines = text.splitlines(keepends=True)
    start = end = None
    for idx, line in enumerate(lines):
        if start is None and _START_LINE.search(line):
            start = idx
        elif start is not None and _END_LINE.search(line):
            end = idx
            break
    if start is None and end is None:
        warnings.warn("no Gutenberg markers found; text left unchanged",
                      RuntimeWarning, stacklevel=2)
        return text
    if start is None or end is None:
        warnings.warn("malformed Gutenberg markers; text left unchanged",
                      RuntimeWarning, stacklevel=2)
        return text
    return "".join(lines[start + 1 : end])


def sorted_items_keyed(vocabulary: dict[str, int]) -> list[tuple[str, int]]:
    """(word, count) pairs by one sort on the key (-count, word)."""
    return sorted(vocabulary.items(), key=lambda item: (-item[1], item[0]))
