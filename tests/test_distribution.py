import hashlib
import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from yulesimon import (
    CountFileError,
    CountSample,
    FitConfig,
    RngStream,
    em_fit,
    log_pmf,
    pmf,
    read_count_file,
    sample_mixture,
    sample_urn,
    to_count_sample,
    tokenize_count,
    write_count_file,
)
from yulesimon.distribution import _WRITE_BLOCK, _mixture_block, _row_histograms
from _oracles import mixture_latents, parse_lines, urn_loop


def test_log_pmf_known_values():
    assert log_pmf(1, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
    for k in (2, 3, 4):
        assert log_pmf(k, 1.0) == pytest.approx(math.log(1.0 / (k * (k + 1))), abs=1e-12)
    assert log_pmf(1, 2.0) == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)


def test_log_pmf_matches_gamma_ratio_form():
    # lam*B(lam+1,k) == lam*G(k)G(lam+1)/G(k+lam+1), checked in log space
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = float(rng.uniform(0.1, 20.0))
        k = int(rng.integers(1, 10_000))
        ref = float(
            mp.log(lam) + mp.loggamma(k) + mp.loggamma(lam + 1) - mp.loggamma(k + lam + 1)
        )
        assert abs(log_pmf(k, lam) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_pmf_domain_errors():
    with pytest.raises(ValueError):
        log_pmf(0, 1.0)
    with pytest.raises(ValueError):
        log_pmf(1, 0.0)
    with pytest.raises(ValueError):
        log_pmf(1.5, 1.0)


def test_pmf_normalization_partial_sums():
    k = np.arange(1, 1_000_001)
    for lam in (0.6, 1.25, 5.0):
        probs = pmf(k, lam)
        assert np.all(probs > 0)
        total = probs.sum()
        assert total >= 0.999
        assert total < 1.0 + 1e-9
        partial = np.cumsum(probs)
        assert np.all(np.diff(partial) >= 0)
        # strict growth while the increments are still representable
        assert np.all(np.diff(partial[:100]) > 0)


def test_pmf_strictly_decreasing_and_mode_one():
    k = np.arange(1, 10_001)
    for lam in (0.6, 1.25, 5.0, 10.0):
        probs = pmf(k, lam)
        assert np.all(np.diff(probs) < 0)
        assert probs[0] == max(probs)


def test_joint_marginalizes_to_pmf():
    # integrating lam p^lam (1-p)^(k-1) over (0,1) recovers the mass
    for lam in (0.6, 1.25, 5.0):
        for k in (1, 2, 5, 17, 50):
            val, _ = integrate.quad(
                lambda p: lam * p**lam * (1.0 - p) ** (k - 1), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-12,
            )
            assert val == pytest.approx(pmf(k, lam), abs=1e-8)


def test_sample_mixture_reproducible():
    stream = RngStream(seed=99, stream_id=3)
    a = sample_mixture(1.25, 500, stream)
    b = sample_mixture(1.25, 500, stream)
    assert a == b
    assert np.array_equal(mixture_latents(1.25, 500, stream)[2], a.counts)
    c = sample_mixture(1.25, 500, RngStream(seed=99, stream_id=4))
    assert c != a


def test_samplers_take_only_an_rng_stream():
    for sampler in (sample_mixture, sample_urn):
        with pytest.raises(TypeError, match="RngStream"):
            sampler(1.25, 10, RngStream(3).generator())


def test_sample_mixture_warns_when_it_clips():
    with pytest.warns(RuntimeWarning, match=r"clipped 327 of 3000 draws at 2\*\*62"):
        sample = sample_mixture(0.05, 3000, RngStream(2))
    assert np.count_nonzero(sample.counts == 2**62) == 327
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_mixture(0.6, 3000, RngStream(2))


def test_mixture_block_warns_once_per_clipped_rep_in_rep_order():
    rngs = [RngStream(5), RngStream(2), RngStream(1), RngStream(2, 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        block = _mixture_block(0.05, 3000, rngs)
    assert all(w.category is RuntimeWarning for w in caught)
    clipped = [int(np.count_nonzero(sample.counts == 2**62)) for sample in block]
    assert clipped[1] == 327 and len(set(clipped)) == len(clipped)
    assert [str(w.message) for w in caught] == [
        f"sample_mixture clipped {k} of 3000 draws at 2**62" for k in clipped]


def test_draws_past_the_float_limit_warn_once_as_clipped():
    # at lambda 1e-3 most quotients overflow to inf before the clip; the
    # clip warning counts them, and numpy's overflow warning stays quiet
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = sample_mixture(0.001, 700, RngStream(1))
    assert [str(w.message) for w in caught] == ["sample_mixture clipped 674 of 700 draws at 2**62"]
    assert np.count_nonzero(sample.counts == 2**62) == 674


def test_sample_mixture_takes_three_8_byte_arrays_of_the_counts():
    # the block's 2n uniforms are transformed in place, then cast once
    n = 10**6
    tracemalloc.start()
    try:
        sample = sample_mixture(0.6, n, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n == n
    assert peak <= 26 * n


def test_sample_mixture_latent_consistency():
    sample = sample_mixture(0.8, 2000, RngStream(5))
    p, w, k = mixture_latents(0.8, 2000, RngStream(5))
    assert np.allclose(p, np.exp(-w))
    assert np.all((p > 0) & (p < 1))
    assert np.array_equal(k, sample.counts)
    assert k.size == sample.n


def test_sample_mixture_mean_matches_formula():
    sample = sample_mixture(5.0, 1_000_000, RngStream(42))
    assert sample.sample_mean() == pytest.approx(1.25, rel=0.01)


def test_sample_mixture_matches_pmf_at_one():
    sample = sample_mixture(1.25, 1_000_000, RngStream(43))
    frac_ones = np.mean(sample.counts == 1)
    assert frac_ones == pytest.approx(pmf(1, 1.25), abs=0.005)


def test_sample_mixture_chi_square_gof():
    # pooled bins {1..20, >=21} against the exact pmf
    edges = np.arange(1, 21)
    for lam, seed in ((0.6, 1), (1.25, 2), (5.0, 3)):
        sample = sample_mixture(lam, 1_000_000, RngStream(7, seed))
        observed = np.array(
            [np.sum(sample.counts == k) for k in edges] + [np.sum(sample.counts >= 21)]
        )
        p_bins = pmf(edges, lam)
        expected = np.concatenate([p_bins, [1.0 - p_bins.sum()]]) * sample.n
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


def test_sample_urn_reproducible_and_validates():
    a = sample_urn(5.0, 2000, RngStream(1))
    b = sample_urn(5.0, 2000, RngStream(1))
    assert a == b
    with pytest.raises(ValueError):
        sample_urn(1.0, 100, RngStream(1))
    with pytest.raises(ValueError):
        sample_urn(0.8, 100, RngStream(1))


def test_sample_urn_innovation_dominated_limit():
    # huge lambda -> innovation probability near 1 -> nearly all counts 1
    sample = sample_urn(1000.0, 20_000, RngStream(2))
    assert np.mean(sample.counts == 1) > 0.99


def test_sample_urn_total_preserved():
    total = 5000
    sample = sample_urn(2.0, total, RngStream(3))
    assert sample.total() == total


def test_sample_urn_em_recovery():
    # repeated-seed median of the EM fit recovers the urn parameter
    estimates = []
    for s in range(5):
        sample = sample_urn(5.0, 100_000, RngStream(60, s))
        fit = em_fit(sample, FitConfig(tol=1e-8))
        assert fit.converged
        estimates.append(fit.lambda_hat)
    assert abs(float(np.median(estimates)) - 5.0) < 0.5


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 200_000])
@pytest.mark.parametrize("lam", [1.0001, 1.25, 3.0, 50.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_sample_urn_matches_the_arrival_loop(n, lam, seed):
    sample = sample_urn(lam, n, RngStream(seed))
    assert sample == urn_loop(lam, n, RngStream(seed))
    innovate = RngStream(seed).generator().random(n) < 1.0 - 1.0 / lam
    assert sample.total() == n
    assert sample.n == 1 + np.count_nonzero(innovate[1:])


# sha256 of sample_urn(lam, 10**6, RngStream(7)).counts.tobytes(): a size
# at which urn_loop is too slow to be the reference, with the deepest copy
# forests near lam = 1
URN_DIGESTS = {
    1.0001: "399f8bcbb83e3194fa7bf92ad44a858bd6cee3d2e79b8311aa2540cdcb373993",
    1.25: "9707bd8ed41d5598711ae3666ac37dfeb1666144a4bea595923db59827e3b3ce",
}


@pytest.mark.parametrize("lam", URN_DIGESTS)
def test_sample_urn_reproduces_pinned_counts_at_a_million_items(lam):
    counts = sample_urn(lam, 10**6, RngStream(7)).counts
    assert hashlib.sha256(counts.tobytes()).hexdigest() == URN_DIGESTS[lam]


def test_sample_urn_keeps_two_arrays_of_the_items_alive():
    # two 8-byte arrays of n, the roots (8 bytes for each of about n/5
    # innovations) and the bool draws fit in 20 bytes an item; a third
    # 8-byte array of n would not
    n = 200_000
    tracemalloc.start()
    try:
        sample = sample_urn(1.25, n, RngStream(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.total() == n
    assert peak <= 20 * n


def test_latent_posterior_mean_monte_carlo():
    # the mixture's p among the draws that gave k = 7 follows the latent
    # conditional p | k, lam ~ Beta(lam+1, k)
    k, lam = 7, 0.6
    p, _, counts = mixture_latents(lam, 1_000_000, RngStream(17))
    draws = p[counts == k]
    posterior = stats.beta(lam + 1.0, k)
    assert draws.size > 10_000
    sem = posterior.std() / math.sqrt(draws.size)
    assert draws.mean() == pytest.approx(posterior.mean(), abs=5.0 * sem)
    assert stats.kstest(draws, posterior.cdf).pvalue > 0.001


def test_count_sample_validation():
    with pytest.raises(ValueError):
        CountSample([])
    with pytest.raises(ValueError):
        CountSample([1, 0, 2])
    with pytest.raises(ValueError):
        CountSample([1.5, 2.0])
    sample = CountSample([3.0, 1.0])  # integral floats accepted
    assert sample.counts.dtype == np.int64
    assert sample.n == 2


@pytest.mark.parametrize("counts", [
    np.array([2**63], dtype=np.uint64), [5, 2**63], [5.0, 1e20], [3, 2.0**63], [5, 2**64],
], ids=["uint64", "int", "float", "float_at_limit", "object"])
def test_count_sample_refuses_counts_above_the_int64_limit(counts):
    """A count above 2**63 - 1 is refused with the count file's message,
    whatever array it comes in, before a cast to int64 can wrap it."""
    with pytest.raises(ValueError, match=r"^count exceeds 2\*\*63 - 1$"):
        CountSample(counts)
    assert CountSample(np.array([3, 2**63 - 1], dtype=np.uint64)).counts[-1] == 2**63 - 1


@pytest.mark.parametrize("counts", [
    [5, None], np.array([5, "7"], dtype=object), [3, object()],
    [math.inf], [math.nan], [-math.inf], np.array([1.0, math.nan], dtype=np.float32),
    np.array([5, math.inf], dtype=object), np.array([5, math.nan], dtype=object),
    [1 + 1j, 2], np.array([3, 2], dtype=np.complex64), [True, True], np.array([True]),
], ids=["none", "object_str", "object", "inf", "nan", "minus_inf", "float32_nan",
        "object_inf", "object_nan", "complex", "complex_integral", "bool", "bool_array"])
def test_count_sample_refuses_a_non_number_or_non_finite_count(counts):
    """A non-number, a non-finite float, a complex or a bool is refused
    as not an integer, with a ValueError and no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^counts must be integers$"):
            CountSample(counts)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
def test_count_sample_never_shares_the_callers_array(dtype):
    for given in (np.array([3, 1, 2], dtype=dtype), np.array([3, 1, 2], dtype=dtype)[::2]):
        sample = CountSample(given)
        assert not np.shares_memory(sample.counts, given)
        given[0] = 9
        assert sample.counts[0] == 3
    frozen = np.array([3, 1, 2])
    frozen.flags.writeable = False
    assert not np.shares_memory(CountSample(frozen).counts, frozen)


def test_every_sample_is_read_only(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("3\n1\n2\n")
    padded = tmp_path / "padded.txt"
    padded.write_text(" 3\n1\n\n2\n")
    samples = [
        CountSample([3, 1, 2]),
        CountSample(np.array([3.0, 1.0])),
        sample_mixture(0.8, 50, RngStream(1)),
        sample_urn(1.5, 50, RngStream(1)),
        read_count_file(path),
        read_count_file(padded),
        to_count_sample(tokenize_count("b b a")),
    ]
    for sample in samples:
        assert sample.counts.dtype == np.int64
        assert not sample.counts.flags.writeable
        with pytest.raises(ValueError):
            sample.counts[0] = 5


def test_count_file_roundtrip(tmp_path):
    path = tmp_path / "counts.txt"
    sample = CountSample([3, 1, 1, 7])
    write_count_file(path, sample)
    assert path.read_bytes() == b"3\n1\n1\n7\n"
    assert read_count_file(path) == sample


@pytest.mark.parametrize("n", [2 * 4096, 2 * 4096 + 1, _WRITE_BLOCK, _WRITE_BLOCK + 1])
def test_count_file_blocks_write_one_line_per_count(tmp_path, n):
    # n ends on, and one past, a boundary of write_count_file's blocks of
    # _WRITE_BLOCK (2**16) counts, or of blocks of 4096 counts; the counts
    # run from 1 to the int64 limit
    draws = np.random.default_rng(n).integers(1, 2**63 - 1, size=n, endpoint=True)
    counts = np.maximum(draws >> (np.arange(n) % 63), 1)
    counts[:2] = 1, 2**63 - 1
    sample = CountSample(counts)
    path = tmp_path / "counts.txt"
    write_count_file(path, sample)
    assert path.read_text(encoding="utf-8") == "".join(f"{k}\n" for k in counts)
    assert read_count_file(path) == sample


def padded(raw: bytes) -> bytes:
    # one space before every line
    return (b" " + raw.replace(b"\n", b"\n "))[:-1]


def with_blank_lines(raw: bytes) -> bytes:
    # a blank line after every tenth line
    lines = raw.split(b"\n")
    for at in range(len(lines) - 10, 0, -10):
        lines.insert(at, b"")
    return b"\n".join(lines)


@pytest.mark.parametrize("layout", [bytes, padded, with_blank_lines],
                         ids=["written", "padded", "blank_lines"])
def test_reading_a_count_file_takes_little_more_than_the_counts(tmp_path, layout):
    # the traced peak of a read may hold the file's bytes, the parsed
    # counts and CountSample's copy of them (8 bytes a count each), and
    # 2 MB of working arrays, whatever the file's size or layout
    n = 2**18
    path = tmp_path / "counts.txt"
    sample = sample_mixture(0.6, n, RngStream(5))
    write_count_file(path, sample)
    path.write_bytes(layout(path.read_bytes()))
    tracemalloc.start()
    try:
        got = read_count_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == sample
    assert peak <= path.stat().st_size + 16 * n + 2 * 2**20


def test_a_file_without_its_final_line_end_takes_the_array_reader(tmp_path):
    # a copy without the last LF, or without the last CRLF, reads as the
    # whole file does
    sample = sample_mixture(0.6, 2 * _WRITE_BLOCK + 1, RngStream(3))
    path = tmp_path / "counts.txt"
    write_count_file(path, sample)
    raw = path.read_bytes()
    for cut, want in ((raw[:-1], sample), (raw.replace(b"\n", b"\r\n")[:-2], sample),
                      (b"7", CountSample([7]))):
        path.write_bytes(cut)
        assert read_count_file(path) == want


def test_histogram_takes_a_few_bytes_a_count():
    # blocks of _WRITE_BLOCK counts are sorted one at a time; a sort of
    # the whole array would copy it, 8 bytes a count
    sample = sample_mixture(0.6, 10**6, RngStream(5))
    tracemalloc.start()
    try:
        u, c = sample.histogram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.sum() == sample.n
    assert peak <= 3 * sample.n


@pytest.mark.parametrize("reps, n, values", [
    (1, 1, "geometric"), (1, 1000, "geometric"), (12, 500, "geometric"), (20, 3001, "wide"),
    # runs of one value in every row, which the flat sort would join
    (9, 7, "constant"), (8, 1, "geometric"),
])
def test_row_histograms_are_np_unique_of_each_row(reps, n, values):
    g = np.random.default_rng(reps * n)
    if values == "geometric":
        rows = g.geometric(0.3, size=(reps, n))
    elif values == "wide":
        rows = np.maximum(g.integers(1, 2**63 - 1, size=(reps, n)) >> g.integers(0, 63, size=(reps, n)), 1)
    else:
        rows = np.repeat(g.integers(1, 3, size=(reps, 1)), n, axis=1)
    histograms = _row_histograms(rows)
    assert len(histograms) == reps
    for row, (u, c) in zip(rows, histograms):
        want_u, want_c = np.unique(row, return_counts=True)
        assert u.dtype == want_u.dtype and c.dtype == want_c.dtype
        assert np.array_equal(u, want_u) and np.array_equal(c, want_c)


def test_histogram_of_one_count_past_a_block_is_np_unique():
    # a full row, then a row of one count, merged
    counts = np.random.default_rng(3).geometric(0.01, size=_WRITE_BLOCK + 1)
    u, c = CountSample(counts).histogram()
    want_u, want_c = np.unique(counts, return_counts=True)
    assert u.dtype == want_u.dtype and c.dtype == want_c.dtype
    assert np.array_equal(u, want_u) and np.array_equal(c, want_c)


def test_count_file_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n5\n0\n1\n")
    with pytest.raises(CountFileError, match="line 3"):
        read_count_file(path)
    path.write_text("2\nfoo\n")
    with pytest.raises(CountFileError, match="line 2"):
        read_count_file(path)
    path.write_text("")
    with pytest.raises(CountFileError):
        read_count_file(path)
    # only ASCII digits: no digit separators, signs or non-ASCII digits
    for bad in ("1_0", "+3", "-3", "\u0663", "1 2"):
        path.write_text(f"2\n\n{bad}\n4\n", encoding="utf-8")
        with pytest.raises(CountFileError, match="line 3"):
            read_count_file(path)
    for big in (str(2**63), "9" * 5000):
        path.write_text(f"1\n{big}\n")
        with pytest.raises(CountFileError, match="line 2"):
            read_count_file(path)
    # a byte that is not UTF-8 is named by its line, not by a decode error
    path.write_bytes(b"2\n\n\xff\n4\n")
    with pytest.raises(CountFileError, match="line 3"):
        read_count_file(path)
    # a last line without its LF keeps its number
    path.write_text("2\n5\n0")
    with pytest.raises(CountFileError, match="line 3"):
        read_count_file(path)
    path.write_text(f" 7 \n\n{2**63 - 1}\n{'0' * 5000}3\n")
    assert read_count_file(path).counts.tolist() == [7, 2**63 - 1, 3]


# a line of each kind the reader refuses, each found by its own check
BAD_LINES = {"byte": "7:", "two_runs": "1 2", "zero": " 0", "too_big": str(2**63),
             "twenty_digits": "1" + "0" * 19}


@pytest.mark.parametrize("first, second", itertools.permutations(BAD_LINES, 2))
def test_a_refusal_names_the_first_of_two_bad_lines(tmp_path, first, second):
    # both lines are in one read block: the refusal is the earlier one's,
    # worded as the line-by-line oracle words it
    text = f"3\n{BAD_LINES[first]}\n5\n{BAD_LINES[second]}\n"
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(CountFileError) as want:
        parse_lines(text.split("\n"))
    assert str(want.value).startswith("line 2: ")
    with pytest.raises(CountFileError) as got:
        read_count_file(path)
    assert str(got.value) == str(want.value)
