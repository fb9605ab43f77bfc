"""Properties of the corpus layer, of the count-file reader and writer, of
the urn generator, of the count-histogram core and of the paper's EM
invariants over the whole parameter range: lambda in [0.02, 50], samples
of up to 10^5 counts (3000 for the fits and the urn), counts up to the
int64 limit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from yulesimon import (
    CorpusCounts,
    CountFileError,
    CountSample,
    FitConfig,
    GibbsConfig,
    RngStream,
    TokenizerOptions,
    diagnose,
    em_fit,
    em_map_jacobian,
    gibbs_run,
    louis_information,
    oakes_information,
    rate_theoretical,
    read_count_file,
    sample_mixture,
    sample_urn,
    standard_error,
    strip_gutenberg,
    to_count_sample,
    tokenize_count,
    write_count_file,
    write_tsv,
)
from yulesimon import corpus
from yulesimon.corpus import _chunk_counts
from yulesimon.distribution import _READ_BLOCK, _WRITE_BLOCK
from yulesimon.em import em_fit_stacked
from yulesimon.information import _fit_standard_error
from yulesimon.special import (_polygammas, digamma, pooled_harmonic_sum, pooled_harmonic_sum_sq,
                               trigamma)

from _oracles import (
    batch_means_se,
    chunk_counts_split,
    em_fit_loop,
    finite_pooled_sum,
    finite_pooled_sum_sq,
    loglik_trace,
    oakes_standard_error,
    parse_digit_lines_by_width,
    parse_lines,
    posterior_mode,
    posterior_moments,
    sorted_items_keyed,
    strip_gutenberg_lines,
    tokenize_count_findall,
    urn_loop,
    write_count_file_join,
)

# a fixed example sequence, so the suite is reproducible run to run
reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=60)

lambdas = st.floats(min_value=0.02, max_value=50.0)
# the same range on a log grid, so the heavy tails of small rates show up
# in the data as often as the light tails of large ones
log_lambdas = st.integers(0, 1000).map(lambda i: 0.02 * 2500.0 ** (i / 1000))


def magnitudes(top: int):
    """Integers from 1 to top, spread over every power of ten: d * 10**e."""
    digits = len(str(top)) - 1
    return st.builds(lambda d, e: min(d * 10**e, top), st.integers(1, 10), st.integers(0, digits))


@st.composite
def mixture_samples(draw, max_count=None, max_n=100_000, rates=log_lambdas):
    """Yule-Simon samples of 1..max_n counts at a drawn rate; with
    max_count, counts above a drawn cap are set to the cap. Small rates
    reach the generator's 2**62 cap, which is expected here."""
    lam = draw(rates)
    n = draw(magnitudes(max_n))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "sample_mixture clipped", RuntimeWarning)
        counts = sample_mixture(lam, n, RngStream(draw(st.integers(0, 2**32 - 1)))).counts
    if max_count is not None:
        counts = np.minimum(counts, draw(magnitudes(max_count)))
    return counts


@reproducible
@given(counts=mixture_samples(max_count=1_000_000), lam=lambdas)
def test_finite_and_polygamma_sums_agree(counts, lam):
    sample = CountSample(counts)
    for pooled, finite in ((pooled_harmonic_sum, finite_pooled_sum),
                           (pooled_harmonic_sum_sq, finite_pooled_sum_sq)):
        assert pooled(lam, sample) == pytest.approx(finite(lam, sample), rel=1e-12)


# log-uniform over [1e-3, 1e16], and floats on both sides of the shift
# threshold 6: within 64 ulp of it, within 1 of it, and the whole numbers
# below it, where the shift takes the most steps
kernel_arguments = st.one_of(
    st.floats(0.0, 1.0).map(lambda t: 1e-3 * 1e19**t),
    st.integers(-64, 64).map(lambda k: 6.0 + k * math.ulp(6.0)),
    st.floats(5.0, 7.0),
    st.integers(1, 7).map(float),
)


@reproducible
@given(x=st.lists(kernel_arguments, min_size=1, max_size=40))
def test_joint_kernel_is_digamma_and_trigamma_bit_for_bit(x):
    x = np.array(x)
    psi, psi1 = _polygammas(x)
    assert np.array_equal(psi.view(np.int64), digamma(x).view(np.int64))
    assert np.array_equal(psi1.view(np.int64), trigamma(x).view(np.int64))


@reproducible
@given(counts=mixture_samples())
def test_cached_histogram_is_np_unique(counts):
    sample = CountSample(counts)
    u, c = sample.histogram()
    want_u, want_c = np.unique(counts, return_counts=True)
    assert np.array_equal(u, want_u) and np.array_equal(c, want_c)
    assert sample.histogram() is sample.histogram()
    assert not sample.counts.flags.writeable


def block_edge_counts(n, tail, seed):
    """n counts with light tails, heavy tails, or half of them at the
    int64 limit."""
    g = np.random.default_rng(seed)
    if tail == "light":
        return g.geometric(0.5, size=n)
    counts = np.maximum(g.integers(1, 2**63 - 1, size=n, endpoint=True) >> g.integers(0, 63, size=n), 1)
    if tail == "at_limit":
        counts[g.random(n) < 0.5] = 2**63 - 1
    return counts


# one count short of, at and past one histogram block of _WRITE_BLOCK
# counts, two blocks, and three blocks and a drawn part of a fourth
@pytest.mark.parametrize("tail", ["light", "heavy", "at_limit"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 0), (3, None)])
@settings(derandomize=True, database=None, deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1), part=st.integers(1, _WRITE_BLOCK - 1))
def test_histogram_across_blocks_is_np_unique(blocks, extra, tail, seed, part):
    counts = block_edge_counts(blocks * _WRITE_BLOCK + (part if extra is None else extra), tail, seed)
    u, c = CountSample(counts).histogram()
    want_u, want_c = np.unique(counts, return_counts=True)
    assert u.dtype == want_u.dtype and c.dtype == want_c.dtype
    assert np.array_equal(u, want_u) and np.array_equal(c, want_c)


@reproducible
@given(st.lists(st.integers(min_value=1, max_value=2**63 - 1), min_size=1, max_size=200))
def test_total_is_exact(values):
    sample = CountSample(np.array(values, dtype=np.int64))
    assert sample.total() == sum(values)
    assert repr(sample) == f"CountSample(n={len(values)}, total={sum(values)})"


# every separator of str.splitlines, CRLF included
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
# ASCII word pieces and the characters the byte table cannot settle:
# letters outside ASCII, a superscript and an Arabic-Indic digit, a
# curly apostrophe and an em dash, letters whose lowercase is longer or
# ASCII (U+0130, the Kelvin sign, the long s), a capital sigma whose
# lowercase depends on its neighbours, a lone surrogate, and separators
# that str.split knows and bytes.split does not
TEXT_PIECES = st.one_of(
    st.text("abcXYZ", min_size=1, max_size=5),
    st.sampled_from(list("09_' .,*") + list("\u00e9\u00b2\u2019\u2014\u0130\u212a\u017f\u0663")
                    + ["\u03a3", "\ud800", "\x1f", "\t"] + LINE_BREAKS),
)
texts = st.lists(TEXT_PIECES, max_size=40).map("".join)
TOKENIZER_OPTIONS = [TokenizerOptions(apostrophes, digits)
                     for apostrophes in (False, True) for digits in (False, True)]


@reproducible
@given(text=texts)
# a capital sigma lowers to the final form unless a letter follows it,
# past any case-ignorable "." or "'": the whole text is lowered at once
@example(text="\u0391\u03a3'\u0391 \u0391\u03a3.\u0391 \u0391\u03a3 \u0391")
def test_tokenizer_matches_findall_over_the_whole_text(text):
    for options in TOKENIZER_OPTIONS:
        got = tokenize_count(text, options)
        vocabulary = tokenize_count_findall(text, options)
        assert list(got.vocabulary.items()) == list(vocabulary.items())
        assert (got.n_unique, got.n_tokens) == (len(vocabulary), sum(vocabulary.values()))


# lengths on both sides of the 8-byte word edges, bytes a chunk can hold
# (letters, "'" and bytes >= 0x80; never 0x00 or a space), and prefixes
# that make chunks share their first word or two
CHUNK_LENGTHS = st.sampled_from([1, 7, 8, 9, 15, 16, 17, 24, 25])
CHUNK_BYTES = st.sampled_from(list(b"abzAZ'") + [0x80, 0xa9, 0xc3, 0xff])
CHUNK_PREFIXES = st.sampled_from([b"", b"q" * 8, b"q" * 16])


@st.composite
def chunked_bytes(draw):
    """Bytes as the tokenizer's translate table leaves them: chunks drawn
    from a pool of up to 8, between runs of spaces, with 0 to 9 spaces
    at either end."""
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(CHUNK_LENGTHS)
        tail = bytes(draw(st.lists(CHUNK_BYTES, min_size=length, max_size=length)))
        pool.append((draw(CHUNK_PREFIXES) + tail)[:length])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    gaps = [b" " * draw(st.integers(1, 3)) for _ in picks]
    body = b"".join(pool[pick] + gap for pick, gap in zip(picks, gaps))
    return b" " * draw(st.integers(0, 9)) + body.rstrip(b" ") + b" " * draw(st.integers(0, 9))


@reproducible
@given(data=chunked_bytes())
@example(data=b"")
@example(data=b" " * 20)
def test_chunk_counts_match_split_and_counter(data):
    assert _chunk_counts(data) == chunk_counts_split(data)


CHUNK_CASES = ["one 1 MB chunk", "a 1 MB chunk twice among short words",
               "300 widths among short words", "chunks that differ only in byte 9 or 17"]


def chunk_case(name: str) -> bytes:
    g = np.random.default_rng(23)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)
    megabyte = g.choice(letters, 2**20).tobytes()
    if name == "one 1 MB chunk":
        return megabyte
    if name == "a 1 MB chunk twice among short words":
        return b" ".join([b"a", megabyte, b"b", megabyte, b"a"])
    if name == "300 widths among short words":
        # chunks of 1 to 300 words, each twice
        wide = [g.choice(letters, 8 * w - int(g.integers(0, 8))).tobytes() for w in range(1, 301)]
        return b" ".join(g.permutation(np.array(wide * 2 + [b"a", b"the"] * 600, dtype=object)))
    base = b"abcdefghijklmnopqrstuvwxy"
    ninth, seventeenth = base[:8] + b"Z" + base[9:], base[:16] + b"Z" + base[17:]
    return b" ".join([base, ninth, seventeenth, base, seventeenth, ninth, base])


@pytest.mark.parametrize("name", CHUNK_CASES)
def test_chunk_counts_match_split_and_counter_on_wide_chunks(name):
    data = chunk_case(name)
    assert _chunk_counts(data) == chunk_counts_split(data)


def zero_multipliers(width: int) -> np.ndarray:
    """Multipliers that hash every key to 0, so that every group of
    chunks with two different keys is ordered by the np.lexsort fallback."""
    return np.zeros(width, np.uint64)


@reproducible
@given(data=chunked_bytes())
def test_chunk_counts_match_split_and_counter_by_the_lexsort_fallback(data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_multipliers", zero_multipliers)
        assert _chunk_counts(data) == chunk_counts_split(data)


@pytest.mark.parametrize("name", CHUNK_CASES)
def test_chunk_counts_match_split_and_counter_on_wide_chunks_by_the_lexsort_fallback(
        name, monkeypatch):
    monkeypatch.setattr(corpus, "_multipliers", zero_multipliers)
    data = chunk_case(name)
    assert _chunk_counts(data) == chunk_counts_split(data)


# words with tied counts, a non-ASCII letter that sorts after "z" by code
# point, and inner or curly apostrophes
vocabularies = st.dictionaries(st.text("aez\u00e9'\u2019", min_size=1, max_size=4),
                               st.integers(1, 4), min_size=1, max_size=40)


@reproducible
@given(vocabulary=vocabularies)
def test_count_sample_and_tsv_match_the_keyed_sort(vocabulary, tmp_path_factory):
    counts = CorpusCounts(vocabulary)
    items = sorted_items_keyed(vocabulary)
    assert to_count_sample(counts).counts.tolist() == [count for _, count in items]
    path = tmp_path_factory.mktemp("tsv") / "w.tsv"
    write_tsv(counts, path)
    assert path.read_bytes() == "".join(f"{w}\t{c}\n" for w, c in items).encode("utf-8")


MARKER_LINES = st.sampled_from([
    "*** START OF THE EBOOK ***", "*** END OF THE EBOOK ***", "** start of x",
    "*end of", "***", "START OF", "END OF", "a * b", "body text", "",
])


LF = ["\n"] * 12
LONG = "x" * 20_000


@reproducible
@given(lines=st.lists(MARKER_LINES, max_size=12),
       breaks=st.lists(st.sampled_from(LINE_BREAKS), min_size=12, max_size=12),
       final=st.booleans())
# an END marker on the START line, alone or before a later END line
@example(lines=["head", "*** START OF A *** END OF A", "body", "tail"], breaks=LF, final=True)
@example(lines=["*** START OF A *** END OF A", "body", "*** END OF A", "tail"], breaks=LF,
         final=True)
# text before the END marker's stars on its line
@example(lines=["*** START OF A", "body", "the last line *** END OF A", "tail"], breaks=LF,
         final=True)
# a START line that is the last line and has no break
@example(lines=["head", "*** START OF A"], breaks=LF, final=False)
@example(lines=["head", "*** START OF A"], breaks=["\r\n"] * 12, final=True)
# CRLF breaks, and U+2028 breaks only
@example(lines=["head", "*** START OF A", "", "body", "*** END OF A", "tail"],
         breaks=["\r\n"] * 12, final=True)
@example(lines=["head", "*** START OF A", "body", "", "*** END OF A", "tail"],
         breaks=["\u2028"] * 12, final=False)
# lines of more than 10**4 characters just before the END line, and
# before the END marker on its line, which is the first line of the body
@example(lines=["*** START OF A", "body", LONG, "*** END OF A"], breaks=LF, final=True)
@example(lines=["*** START OF A", LONG + " *** END OF A", "tail"], breaks=LF, final=True)
@example(lines=["*** START OF A", "body", LONG + "*** END OF A"], breaks=["\r\n"] * 12,
         final=False)
# body lines of stars only, and runs of stars before a marker
@example(lines=["*** START OF A", "* * *", "*****", "*", "body", "***** END OF A", "*"],
         breaks=LF, final=True)
@example(lines=["** * ***START OF A", "**", "*** *END OF A"], breaks=["\x1e"] * 12,
         final=True)
def test_strip_gutenberg_matches_the_line_loop(lines, breaks, final):
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if not final and lines:
        text = text[: -len(breaks[len(lines) - 1])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = strip_gutenberg(text)
    with warnings.catch_warnings(record=True) as caught_loop:
        warnings.simplefilter("always")
        want = strip_gutenberg_lines(text)
    assert got == want
    assert _warning_texts(caught) == _warning_texts(caught_loop)


def values_of_width(g: np.random.Generator, width: np.ndarray) -> np.ndarray:
    """A value drawn uniformly among those of each digit count in width
    (1 to 19), none above 2**63 - 1."""
    # the largest value of each width; 10**19 is beyond int64
    high = np.where(width < 19, 10 ** np.minimum(width, 18) - 1, 2**63 - 1)
    return g.integers(10 ** (width - 1), high, endpoint=True)


@st.composite
def count_file_texts(draw):
    """Text in write_count_file's layout: 1 to about 5000 lines, each
    of 1 to 19 digits with leading zeros, values from 1 to 2**63 - 1."""
    n = draw(magnitudes(5000))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a drawn longest line, so files of short lines only occur as well
    width = g.integers(1, draw(st.integers(1, 19)), size=n, endpoint=True)
    values = values_of_width(g, width)
    if draw(st.booleans()):
        top = g.integers(n)
        width[top], values[top] = 19, 2**63 - 1
    # leading zeros pad a line up to the widest value of the file
    padded = g.random(n) < draw(st.floats(0.0, 1.0))
    zeros = padded * g.integers(0, width.max() - width, endpoint=True)
    return "".join(f"{'0' * z}{v}\n" for z, v in zip(zeros.tolist(), values.tolist()))


def filler_lines(g: np.random.Generator, size: int) -> list[str]:
    """Lines of 1 to 19 digits, a tenth of them with leading zeros, of
    size >= 2 bytes in all."""
    width = g.integers(1, 19, size=size // 2, endpoint=True)
    # the lines that end at least 2 bytes before size; the rest, 2 to 21
    # bytes, is one line or two
    n = int(np.searchsorted(np.cumsum(width + 1), size - 2, side="right"))
    rest = size - int((width[:n] + 1).sum())
    tail = [rest] if rest <= 20 else [rest // 2, rest - rest // 2]
    width = np.concatenate([width[:n], np.array(tail) - 1])
    digits = np.where(g.random(width.size) < 0.1, g.integers(1, width, endpoint=True), width)
    values = values_of_width(g, digits)
    return [f"{v:0{w}d}\n" for w, v in zip(width.tolist(), values.tolist())]


@st.composite
def read_block_texts(draw):
    """Text of 2 to 4 blocks of the array reader, each block but the
    last cut next to a line of 2**63 - 1 and a line of another 19-digit
    value, drawn in either order. The first of the two lines ends a
    drawn 0 to 19 bytes before the last byte of the reader's window of
    _READ_BLOCK bytes, and the block is cut after it, or 1 to 19 bytes
    past that byte, and the block is cut before it."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines, size, start = [], 0, 0
    for _ in range(draw(st.integers(1, 3))):
        shift = draw(st.integers(-19, 19))
        first_end = start + _READ_BLOCK - 1 - shift
        pair = [f"{2**63 - 1}\n", f"{int(values_of_width(g, 19))}\n"]
        lines += filler_lines(g, first_end - 19 - size) + pair[::draw(st.sampled_from([1, -1]))]
        size = first_end + 21
        start = first_end + 1 if shift >= 0 else first_end - 19
    # at most one block from the last cut on
    lines += filler_lines(g, draw(st.integers(2, _READ_BLOCK - 40)))
    return "".join(lines)


def _read_outcome(path):
    try:
        return read_count_file(path).counts.tolist()
    except CountFileError as exc:
        return str(exc)


def _line_parser_outcome(text):
    """What the line-by-line oracle gives on text after the universal-
    newline translation of a text-mode read."""
    try:
        return parse_lines(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
    except CountFileError as exc:
        return str(exc)


@reproducible
@given(text=count_file_texts())
def test_array_reader_matches_int_on_valid_files(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("counts") / "valid.txt"
    path.write_bytes(text.encode("ascii"))
    want = [int(x) for x in text.split()]
    assert read_count_file(path).counts.tolist() == want


@reproducible
@given(text=read_block_texts())
def test_array_reader_matches_int_across_read_blocks(text, tmp_path_factory):
    raw = text.encode("ascii")
    assert _READ_BLOCK < len(raw) <= 4 * _READ_BLOCK
    want = [int(x) for x in text.split()]
    assert parse_digit_lines_by_width(raw).tolist() == want
    path = tmp_path_factory.mktemp("counts") / "blocks.txt"
    path.write_bytes(raw)
    assert read_count_file(path).counts.tolist() == want


# twenty_digits puts a 1 before the line padded to 19 digits: its last
# 19 digits are a valid count, but the line is 10**19 or more;
# leading_zeros pads the line with zeros past 19 digits, and long_line
# past _READ_BLOCK bytes, both valid; two_runs and nbsp (U+00A0 around a
# count) are refused
PERTURBATIONS = ("crlf", "cr", "spaces", "tabs", "vt", "ff", "blank", "no_final_newline", "zero",
                 "too_big", "twenty_digits", "leading_zeros", "long_line", "two_runs", "nbsp")
REFUSED = ("zero", "too_big", "twenty_digits", "two_runs", "nbsp")


# two read blocks, the second holding a single line, on which the
# perturbation falls
TWO_BLOCKS = "7\n" * (_READ_BLOCK // 2) + "12\n"


# at = 1 perturbs the last line, which is in the last read block
@reproducible
@given(text=st.one_of(count_file_texts(), read_block_texts()),
       kind=st.sampled_from(PERTURBATIONS), at=st.floats(0.0, 1.0) | st.just(1.0))
@example(text=TWO_BLOCKS, kind="zero", at=1.0)
@example(text=TWO_BLOCKS, kind="too_big", at=1.0)
@example(text=TWO_BLOCKS, kind="twenty_digits", at=1.0)
@example(text=TWO_BLOCKS, kind="cr", at=1.0)
@example(text=TWO_BLOCKS, kind="tabs", at=0.0)
@example(text=TWO_BLOCKS, kind="long_line", at=0.5)
@example(text=TWO_BLOCKS, kind="two_runs", at=1.0)
@example(text=TWO_BLOCKS, kind="nbsp", at=1.0)
def test_reader_matches_line_parser_off_the_array_format(text, kind, at, tmp_path_factory):
    lines = text.split("\n")[:-1]
    i = min(int(at * len(lines)), len(lines) - 1)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "cr":
        text = text.replace("\n", "\r")
    elif kind == "no_final_newline":
        text = text[:-1]
    else:
        lines[i] = {"spaces": f"  {lines[i]} ", "tabs": f"\t{lines[i]}\t",
                    "vt": f"\x0b{lines[i]}", "ff": f"{lines[i]}\x0c", "blank": f"\n{lines[i]}",
                    "zero": "0", "too_big": "9" * 19, "twenty_digits": f"1{lines[i]:0>19}",
                    "leading_zeros": f"{lines[i]:0>25}",
                    "long_line": f"{lines[i]:0>{_READ_BLOCK + 5}}", "two_runs": f"{lines[i]} 2",
                    "nbsp": f"\xa0{lines[i]}\xa0"}[kind]
        text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("counts") / f"{kind}.txt"
    path.write_bytes(text.encode("utf-8"))
    got = _read_outcome(path)
    assert got == _line_parser_outcome(text)
    if kind in REFUSED:
        assert got.startswith(f"line {i + 1}: ")


def _with_stray_byte(byte, place):
    """TWO_BLOCKS with byte inside a first-block line, just before the LF
    that ends the first block, or inside the last line; the bytes and the
    number of the line that holds it."""
    raw = TWO_BLOCKS.encode("ascii")
    end = _READ_BLOCK - 1
    assert raw.rfind(b"\n", 0, _READ_BLOCK) == end
    if place == "first_block":
        # lines 1 and 2 become the line 7?7
        return raw[:1] + byte + raw[2:], 1
    if place == "block_end":
        # the last two lines of the first block become the line 77?
        return raw[:end - 2] + b"7" + byte + raw[end:], end // 2
    # the last line, 12, becomes 1?2
    return raw[:-2] + byte + raw[-2:], _READ_BLOCK // 2 + 1


@pytest.mark.parametrize("place", ["first_block", "block_end", "last_line"])
def test_array_reader_refuses_every_byte_but_digits_and_lf(place, tmp_path):
    # every byte but the digits, LF and ASCII whitespace (CR a line end)
    # is refused, and the refusal names its line
    path = tmp_path / "stray.txt"
    for value in range(256):
        byte = bytes([value])
        raw, lineno = _with_stray_byte(byte, place)
        path.write_bytes(raw)
        got = _read_outcome(path)
        if byte.isspace() or byte in (b":", b"a", b"\x00", b"\xff"):
            assert got == _line_parser_outcome(raw.decode("utf-8", errors="replace")), byte
        if byte == b"\t" and place == "block_end":
            # whitespace around a count is accepted
            assert got == [7] * (lineno - 1) + [77, 12]
        elif not (byte.isspace() or byte.isdigit()):
            assert got.startswith(f"line {lineno}: "), (byte, got)


# both ends of every width from 1 to 19 digits, with 1 and 2**63 - 1
WIDTH_EDGES = np.array(sorted({1, 2**63 - 1, *(10**k - 1 for k in range(1, 19)),
                               *(10**k for k in range(1, 19))}), dtype=np.int64)


@st.composite
def written_counts(draw):
    """1 count to more than two of write_count_file's blocks, the last
    partial, each count of a width drawn from 1 to 19 digits, with the
    width edges at drawn places."""
    n = draw(st.one_of(st.integers(1, 200),
                       st.integers(2 * _WRITE_BLOCK + 1, 3 * _WRITE_BLOCK - 1)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = values_of_width(g, g.integers(1, 19, size=n, endpoint=True))
    at = g.choice(n, size=min(n, WIDTH_EDGES.size), replace=False)
    counts[at] = g.permutation(WIDTH_EDGES)[:at.size]
    return counts


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(counts=written_counts())
@example(counts=np.resize(WIDTH_EDGES, 2 * _WRITE_BLOCK + 1))
def test_count_file_writer_matches_the_join_oracle(counts, tmp_path_factory):
    sample = CountSample(counts)
    folder = tmp_path_factory.mktemp("written")
    write_count_file(folder / "array.txt", sample)
    write_count_file_join(folder / "join.txt", sample)
    written = (folder / "array.txt").read_bytes()
    assert written == (folder / "join.txt").read_bytes()
    assert read_count_file(folder / "array.txt") == sample


# urn rates in (1, 50], about half of them within 10**-3 of 1, where nearly
# every arrival copies and the copy forest is deepest
urn_rates = st.one_of(st.floats(1.0, 1.001, exclude_min=True),
                      st.floats(1.0, 50.0, exclude_min=True))


@reproducible
@given(lam=urn_rates, n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_sample_urn_matches_the_arrival_loop_over_its_range(lam, n, seed):
    assert sample_urn(lam, n, RngStream(seed)) == urn_loop(lam, n, RngStream(seed))


# EM fits: up to 3000 counts, since at lambda near 50 a fit takes about
# a thousand iterations; the rate comes from a float on the log scale,
# which spreads the examples over the range where log_lambdas' integer
# index keeps most of them near 0.02
fit_rates = st.floats(0.0, 1.0).map(lambda t: 0.02 * 2500.0**t)
fit_samples = mixture_samples(max_n=3000, rates=fit_rates)


def converged_fit(counts, config=None):
    assume(counts.max() > 1)  # all-ones samples have no interior maximum
    data = CountSample(counts)
    fit = em_fit(data, config)
    assume(fit.converged)
    return data, fit


@reproducible
@given(counts=fit_samples)
def test_em_loglik_trace_ascends(counts):
    # at the default tol; test_em checks a tol = 1e-10 fit near lambda =
    # 50, whose last steps gain ~1e-12
    _, fit = converged_fit(counts)
    assert np.all(np.diff(loglik_trace(fit)[1:]) >= -1e-10)


@reproducible
@given(counts=fit_samples)
def test_louis_equals_oakes_at_the_estimate(counts):
    data, fit = converged_fit(counts)
    i_o = oakes_information(data, fit.lambda_hat)
    i_l = louis_information(data, fit.lambda_hat)
    assert abs(i_l - i_o) <= 1e-9 * max(1.0, abs(i_o))


@reproducible
@given(counts=fit_samples)
def test_em_map_jacobian_equals_rate_at_the_fixed_point(counts):
    data, fit = converged_fit(counts, FitConfig(tol=1e-10, max_iter=4000))
    lam = fit.lambda_hat
    assert abs(em_map_jacobian(data, lam) - rate_theoretical(data, lam)) <= 1e-8


@reproducible
@given(counts=fit_samples, prior_a=st.floats(1.0, 30.0), prior_b=st.floats(0.0, 5.0))
def test_map_rate_equals_the_jacobian_at_the_fixed_point(counts, prior_a, prior_b):
    """Under a Gamma(a, b) prior the reported rate lam^2 S2 / (N + a - 1)
    is the derivative of the MAP map at its fixed point, within
    criterion 08's bound."""
    data = CountSample(counts)
    fit = em_fit(data, FitConfig(prior_a=prior_a, prior_b=prior_b, tol=1e-10, max_iter=4000))
    assume(fit.converged)
    report = diagnose(fit)
    s2 = pooled_harmonic_sum_sq(fit.lambda_hat, data)
    assert report.r_theoretical == fit.lambda_hat**2 * s2 / (data.n + prior_a - 1.0)
    assert abs(report.r_theoretical - report.jacobian_at_hat) <= 1e-8


# Golden-section search finds the mode to sqrt(eps |log pi| / (lam^2
# |d^2 log pi / d lam^2|)) relative: about 1e-8 at large N, a few 1e-7 at
# N = 1, where the curvature is only (a + N - 1)/lam^2 = 0.05/lam^2. The
# EM fit at tol 1e-10 stops within about 1e-9 of its fixed point.
MODE_REL_TOL = 1e-6


# log-uniform over [0.3, 10], the rates the posterior checks cover
posterior_rates = st.floats(0.0, 1.0).map(lambda t: 0.3 * (10.0 / 0.3) ** t)


@reproducible
@given(counts=mixture_samples(max_n=3000, rates=posterior_rates))
def test_map_fit_is_the_log_beta_posterior_mode(counts):
    data = CountSample(counts)
    prior = GibbsConfig()
    fit = em_fit(data, FitConfig(prior_a=prior.prior_a, prior_b=prior.prior_b, tol=1e-10))
    assert fit.converged
    mode = posterior_mode(data, prior.prior_a, prior.prior_b)
    assert fit.lambda_hat == pytest.approx(mode, rel=MODE_REL_TOL)


# Fixed before the sampler was first run against the quadrature: the
# chain mean lies within 5 batch-means standard errors (25 batches of
# the retained chain) of the exact posterior mean. The standardised
# error is about t with 24 degrees of freedom, beyond 5 with probability
# 4e-5 per example, so a failure indicts the sampler, not the bound.
GIBBS_MEAN_Z = 5.0
# doubling the quadrature nodes moves the mean and SD by less than this
QUADRATURE_REL_TOL = 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(counts=mixture_samples(max_n=3000, rates=posterior_rates),
       seed=st.integers(0, 2**32 - 1))
def test_gibbs_mean_matches_the_quadrature_posterior_mean(counts, seed):
    data = CountSample(counts)
    prior = GibbsConfig()
    mean, sd = posterior_moments(data, prior.prior_a, prior.prior_b)
    finer = posterior_moments(data, prior.prior_a, prior.prior_b, nodes=800)
    assert finer == pytest.approx((mean, sd), rel=QUADRATURE_REL_TOL, abs=0.0)
    res = gibbs_run(data, GibbsConfig(n_samples=5000, burn_in=500, seed=RngStream(seed)))
    assert abs(res.posterior_mean - mean) < GIBBS_MEAN_Z * batch_means_se(res.chain)


INT64_MAX = 2**63 - 1
# 1-6 counts within 8 of the int64 limit, in any order with 0-6 small ones
near_limit_samples = st.tuples(
    st.lists(st.integers(INT64_MAX - 8, INT64_MAX), min_size=1, max_size=6),
    st.lists(st.integers(1, 20), max_size=6),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@reproducible
@given(counts=near_limit_samples)
@example(counts=[INT64_MAX - 2, INT64_MAX - 1, INT64_MAX])
@example(counts=[1, 2, 1, INT64_MAX])
def test_counts_near_the_int64_limit_get_an_estimate(counts):
    """The fit, its standard error and diagnostics and a short chain
    each give an estimate, or a status their docstrings name, on counts
    within a few units of 2**63 - 1."""
    data = CountSample(counts)
    fit = em_fit(data)
    assert fit.status in ("converged", "max_iter_reached", "diverging")
    assert math.isfinite(fit.lambda_hat) and fit.lambda_hat > 0
    se = standard_error(data, fit.lambda_hat)
    # NaN only off an interior maximum
    assert se > 0 if fit.converged else (math.isnan(se) or se > 0)
    report = diagnose(fit)
    assert report.regime in ("linear", "sublinear") and math.isfinite(report.jacobian_at_hat)
    result = gibbs_run(data, GibbsConfig(n_samples=60, burn_in=10, seed=RngStream(len(counts))))
    assert np.all(np.isfinite(result.raw_chain)) and np.all(result.raw_chain > 0)
    assert math.isfinite(result.posterior_sd)


@st.composite
def fit_blocks(draw):
    """1-3 samples of up to 300 counts at rates over [0.02, 50] and one
    all-ones sample, with a config drawn so that over the examples reps
    stop every way: converged, out of iterations (max_iter 3), over the
    ceiling (the all-ones sample under prior_a 30), and the all-ones
    divergence out of iterations (prior_a 1); the init policies
    include 0.0 and moments, whose fallback the all-ones sample takes.
    The last item is where to split the block in two."""
    samples = [CountSample(c) for c in draw(
        st.lists(mixture_samples(max_n=300, rates=fit_rates), min_size=1, max_size=3))]
    ones = CountSample(np.ones(draw(st.integers(1, 50)), dtype=np.int64))
    samples.insert(draw(st.integers(0, len(samples))), ones)
    config = FitConfig(
        init=draw(st.sampled_from([0.0, "moments", "mode_one", 2.5])),
        max_iter=draw(st.sampled_from([3, 60])),
        prior_a=draw(st.sampled_from([1.0, 30.0])),
    )
    return samples, config, draw(st.integers(0, len(samples)))


def _close(got, want) -> bool:
    """Equal within 1e-12 relative; NaN matches NaN, -inf matches -inf."""
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-12 * abs(want)


def _warning_texts(caught) -> list[str]:
    return sorted(str(w.message) for w in caught)


@reproducible
@given(block=fit_blocks())
def test_stacked_fits_match_the_one_sample_loop(block):
    samples, config, split = block
    with warnings.catch_warnings(record=True) as caught_stacked:
        warnings.simplefilter("always")
        fits = em_fit_stacked(samples, config)
    with warnings.catch_warnings(record=True) as caught_se:
        warnings.simplefilter("always")
        se = [_fit_standard_error(fit) for fit in fits]
    with warnings.catch_warnings(record=True) as caught_loop:
        warnings.simplefilter("always")
        want = [em_fit_loop(data, config) for data in samples]
        want_se = [oakes_standard_error(data, f.lambda_hat) for data, f in zip(samples, want)]
    assert _warning_texts(caught_stacked) == _warning_texts(caught_loop)
    # under prior_a 30 a fit can stop off an interior maximum of the
    # likelihood: the SE warns once for each NaN of the oracle's
    assert len(caught_se) == sum(map(math.isnan, want_se))
    assert [f.status for f in fits] == [f.status for f in want]
    assert [f.iterations for f in fits] == [f.iterations for f in want]
    for fit, ref, got_se, ref_se in zip(fits, want, se, want_se):
        assert _close(fit.lambda_hat, ref.lambda_hat)
        assert all(map(_close, fit.trace, ref.trace))
        assert all(map(_close, loglik_trace(fit), ref.loglik_trace))
        assert _close(got_se, ref_se)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parts = em_fit_stacked(samples[:split], config) + em_fit_stacked(samples[split:], config)
    assert parts == fits
