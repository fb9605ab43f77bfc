import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from yulesimon import (
    CountSample,
    TokenizerOptions,
    strip_gutenberg,
    to_count_sample,
    tokenize_count,
)
from yulesimon.corpus import CorpusCounts, write_tsv

from _oracles import tokenize_count_findall

FIXTURE = Path(__file__).parent / "fixtures" / "gutenberg_excerpt.txt"


def test_strip_keeps_only_interior():
    text = FIXTURE.read_text(encoding="utf-8")
    body = strip_gutenberg(text)
    assert "Stately voices" in body
    assert "START OF" not in body
    assert "END OF" not in body
    assert "boilerplate" not in body
    assert "trailing license" not in body


def test_strip_without_markers_warns_and_returns_input():
    text = "just some plain text\nwith two lines\n"
    with pytest.warns(RuntimeWarning):
        assert strip_gutenberg(text) == text


def test_strip_end_before_start_warns_and_returns_input():
    text = "*** END OF THE EBOOK ***\nbody\n*** START OF THE EBOOK ***\n"
    with pytest.warns(RuntimeWarning):
        assert strip_gutenberg(text) == text


def test_strip_is_idempotent():
    text = FIXTURE.read_text(encoding="utf-8")
    with pytest.warns(RuntimeWarning):
        # second pass sees no markers and must leave the body untouched
        assert strip_gutenberg(strip_gutenberg(text)) == strip_gutenberg(text)


def test_strip_marker_variants():
    for stars in ("***", "****", "** *".replace(" ", "")):
        text = f"head\n{stars} START OF THE EBOOK\nbody\n{stars} END OF THE EBOOK\ntail\n"
        assert strip_gutenberg(text) == "body\n"
    lower = "head\n*** start of the ebook\nbody\n*** end of the ebook\ntail\n"
    assert strip_gutenberg(lower) == "body\n"


def test_tokenize_case_folding():
    counts = tokenize_count("The the THE")
    assert counts.vocabulary == {"the": 3}
    assert counts.n_unique == 1
    assert counts.n_tokens == 3


def test_tokenize_splits_on_non_letters():
    counts = tokenize_count("don't stop-me now, 42 times")
    assert counts.vocabulary["don"] == 1
    assert counts.vocabulary["t"] == 1
    assert "42" not in counts.vocabulary
    assert counts.vocabulary["stop"] == 1
    assert counts.vocabulary["me"] == 1


def test_tokenize_empty_input():
    counts = tokenize_count("")
    assert counts.vocabulary == {}
    assert counts.n_unique == 0
    assert counts.n_tokens == 0
    with pytest.raises(ValueError):
        to_count_sample(counts)


def test_tokenize_options():
    keep = tokenize_count("don't", TokenizerOptions(keep_apostrophes=True))
    assert keep.vocabulary == {"don't": 1}
    digits = tokenize_count("route 66", TokenizerOptions(keep_digits=True))
    assert digits.vocabulary == {"route": 1, "66": 1}
    unicode_text = tokenize_count("misérables Misérables")
    assert unicode_text.vocabulary == {"misérables": 2}


def test_tokenize_deterministic():
    text = FIXTURE.read_text(encoding="utf-8")
    a = tokenize_count(text)
    b = tokenize_count(text)
    assert a.vocabulary == b.vocabulary


def test_to_count_sample_ordering_and_totals(tmp_path):
    counts = tokenize_count("b b b a c c")
    sample = to_count_sample(counts)
    assert sample == CountSample([3, 2, 1])
    write_tsv(counts, tmp_path / "words.tsv")
    assert (tmp_path / "words.tsv").read_bytes() == b"b\t3\nc\t2\na\t1\n"
    assert sample.total() == counts.n_tokens


def test_to_count_sample_permutation_invariance():
    counts = tokenize_count("x y y z z z")
    reordered = tokenize_count("z z z y y x")
    assert to_count_sample(counts) == to_count_sample(reordered)


def test_fixture_pipeline_counts():
    text = FIXTURE.read_text(encoding="utf-8")
    counts = tokenize_count(strip_gutenberg(text))
    sample = to_count_sample(counts)
    assert counts.vocabulary["the"] == 7
    assert counts.vocabulary["morning"] == 2
    assert counts.vocabulary["don"] == 2  # "don't" split at the apostrophe
    assert counts.n_tokens == sample.total()
    assert sample.counts[0] == max(counts.vocabulary.values())
    assert np.all(np.diff(sample.counts) <= 0)


def test_write_tsv(tmp_path):
    counts = tokenize_count("b b a")
    out = tmp_path / "words.tsv"
    write_tsv(counts, out)
    assert out.read_text(encoding="utf-8") == "b\t2\na\t1\n"


def test_write_tsv_of_no_words_writes_an_empty_file(tmp_path):
    out = tmp_path / "words.tsv"
    write_tsv(CorpusCounts({}), out)
    assert out.read_bytes() == b""


def synthetic_novel(tokens: int, seed: int) -> str:
    """tokens words over a Zipf-weighted vocabulary of 5000 lowercase
    words of 1 to 12 letters, a tenth capitalized, each followed by a
    space, punctuation or a line break."""
    g = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocabulary = np.array(["".join(g.choice(letters, g.integers(1, 13))) for _ in range(5000)],
                          dtype=object)
    words = vocabulary[np.minimum(g.zipf(1.3, tokens), vocabulary.size) - 1]
    capital = g.random(tokens) < 0.1
    words[capital] = [word.capitalize() for word in words[capital]]
    gaps = np.array([" "] * 12 + [", ", ". ", "; ", "\n", " -- "], dtype=object)
    return "".join((words + gaps[g.integers(0, gaps.size, tokens)]).tolist())


def test_hashed_grouping_needs_no_lexsort_fallback_on_novels(monkeypatch):
    # no two different keys of one width share their kept hash bits, on
    # the fixture nor on a novel of the benchmark's kind, so no group is
    # ordered again by np.lexsort; the hash wraps without a warning
    def refuse(keys):
        raise AssertionError("a group took the np.lexsort fallback")

    monkeypatch.setattr(np, "lexsort", refuse)
    texts = [FIXTURE.read_text(encoding="utf-8"), synthetic_novel(100_000, 3),
             synthetic_novel(100_000, 4)]
    for text in texts:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vocabulary = tokenize_count(text).vocabulary
        assert list(vocabulary.items()) == list(tokenize_count_findall(text).items())


def test_tokenizer_peak_memory_is_a_small_multiple_of_the_text():
    # the text's translated UTF-8 bytes and a padded copy (1 byte a byte
    # each) and some 8-byte arrays of the chunks' positions, keys and
    # sort orders; the bound is 1.5 times the 7.3 bytes a byte that the
    # bytes.split and Counter route took on the same text
    text = synthetic_novel(100_000, 3)
    size = len(text.encode("utf-8"))
    tracemalloc.start()
    try:
        counts = tokenize_count(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.n_tokens == 100_000
    assert peak <= 11.0 * size


def test_strip_peak_memory_is_a_small_multiple_of_the_text():
    # a body of one word a line: the stripped slice holds one byte a
    # character, while a list of the lines would hold some 60 bytes a line
    body = synthetic_novel(100_000, 5).replace(" ", "\n")
    text = f"head\n*** START OF A NOVEL ***\n{body}\n*** END OF A NOVEL ***\ntail\n"
    assert text.isascii()
    tracemalloc.start()
    try:
        stripped = strip_gutenberg(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stripped == body + "\n"
    assert peak <= 2.0 * len(text)
