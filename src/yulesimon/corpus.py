"""Word-frequency extraction from raw text, with Project Gutenberg
boilerplate stripping."""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from .distribution import CountSample

__all__ = [
    "TokenizerOptions",
    "CorpusCounts",
    "strip_gutenberg",
    "tokenize_count",
    "to_count_sample",
    "write_tsv",
]

_START_MARKER = re.compile(r"\*+\s*START OF", re.IGNORECASE)
_END_MARKER = re.compile(r"\*+\s*END OF", re.IGNORECASE)


@dataclass(frozen=True)
class TokenizerOptions:
    """Default pipeline: lowercase, split on any non-letter, drop empty
    tokens; no stemming, no stop words."""

    lowercase: bool = True
    keep_apostrophes: bool = False
    keep_digits: bool = False


@dataclass
class CorpusCounts:
    """word -> frequency table plus a record of the applied options."""

    vocabulary: dict[str, int]
    n_unique: int
    n_tokens: int
    preprocessing: dict


def strip_gutenberg(text: str) -> str:
    """Keep only the content between the boilerplate markers.

    The markers are lines containing "*** START OF" / "*** END OF"
    (case-insensitive, tolerant of the asterisk count). Missing or
    out-of-order markers leave the text unchanged with a warning.

    Lines are those of str.splitlines. Both markers need a "*", so the
    two marker searches run only on the lines that hold one.
    """
    lines = text.splitlines(keepends=True)
    starred = [idx for idx, line in enumerate(lines) if "*" in line]
    start = end = None
    for idx in starred:
        if start is None and _START_MARKER.search(lines[idx]):
            start = idx
        elif start is not None and _END_MARKER.search(lines[idx]):
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


def _token_pattern(options: TokenizerOptions) -> re.Pattern:
    letter = r"[^\W_]" if options.keep_digits else r"[^\W\d_]"
    if options.keep_apostrophes:
        return re.compile(f"{letter}+(?:'{letter}+)*")
    return re.compile(f"{letter}+")


def _space_table(keep_digits: bool, keep_apostrophes: bool) -> bytes:
    """bytes.translate table taking every ASCII byte that no token
    holds to a space; ASCII letters, digits under keep_digits, "'"
    under keep_apostrophes and every byte >= 0x80 map to themselves."""
    kept = set(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    if keep_digits:
        kept.update(b"0123456789")
    if keep_apostrophes:
        kept.add(ord("'"))
    return bytes(b if b in kept or b >= 0x80 else 0x20 for b in range(256))


_SPACE_TABLES = {(digits, apostrophes): _space_table(digits, apostrophes)
                 for digits in (False, True) for apostrophes in (False, True)}


def tokenize_count(text: str, options: TokenizerOptions | None = None) -> CorpusCounts:
    """Tokenize and count; empty input yields an empty table.

    A token is a match of _token_pattern(options) in the text, lowered
    first under options.lowercase, and vocabulary lists the tokens in
    order of first occurrence. One pass finds them: the UTF-8 bytes of
    the text go through a translate table that turns every ASCII byte
    no token holds into a space, the result is split on spaces, and the
    chunks are counted. A distinct chunk of ASCII letters (and digits
    under keep_digits) is one token. Every other distinct chunk, one
    that holds a byte >= 0x80 or an apostrophe, is decoded and refined
    by the token pattern, and each token found in it takes the chunk's
    count. No match of the pattern spans a space-mapped byte, and UTF-8
    multibyte sequences hold no ASCII byte, so every chunk decodes and
    the counts are those of the pattern over the whole text.
    """
    options = options or TokenizerOptions()
    if options.lowercase:
        text = text.lower()
    table = _SPACE_TABLES[options.keep_digits, options.keep_apostrophes]
    chunks = Counter(text.encode("utf-8", "surrogatepass").translate(table).split())
    findall = _token_pattern(options).findall
    vocabulary: dict[str, int] = {}
    for chunk, count in chunks.items():
        if chunk.isalnum():
            word = chunk.decode("ascii")
            vocabulary[word] = vocabulary.get(word, 0) + count
        else:
            for word in findall(chunk.decode("utf-8", "surrogatepass")):
                vocabulary[word] = vocabulary.get(word, 0) + count
    return CorpusCounts(
        vocabulary=vocabulary,
        n_unique=len(vocabulary),
        n_tokens=sum(vocabulary.values()),
        preprocessing=asdict(options),
    )


def sorted_items(counts: CorpusCounts) -> list[tuple[str, int]]:
    """(word, count) pairs by descending count, ties by word in
    code-point order: a sort by word, then a stable sort by count."""
    items = sorted(counts.vocabulary.items(), key=itemgetter(0))
    items.sort(key=itemgetter(1), reverse=True)
    return items


def to_count_sample(counts: CorpusCounts) -> CountSample:
    """The counts in descending order, as the rows of write_tsv hold
    them; ties share a count, so no word order is needed."""
    if not counts.vocabulary:
        raise ValueError("empty corpus: no tokens to count")
    return CountSample(np.sort(np.fromiter(counts.vocabulary.values(), np.int64))[::-1])


def write_tsv(counts: CorpusCounts, path) -> None:
    """word<TAB>count rows in the order of sorted_items."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{word}\t{count}\n" for word, count in sorted_items(counts))
