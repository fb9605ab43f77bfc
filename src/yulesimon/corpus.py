"""Word-frequency extraction from raw text, with Project Gutenberg
boilerplate stripping."""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass

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
    """
    lines = text.splitlines(keepends=True)
    start = end = None
    for idx, line in enumerate(lines):
        if start is None and _START_MARKER.search(line):
            start = idx
        elif start is not None and _END_MARKER.search(line):
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


def tokenize_count(text: str, options: TokenizerOptions | None = None) -> CorpusCounts:
    """Tokenize and count; empty input yields an empty table."""
    options = options or TokenizerOptions()
    if options.lowercase:
        text = text.lower()
    vocabulary = Counter(_token_pattern(options).findall(text))
    return CorpusCounts(
        vocabulary=dict(vocabulary),
        n_unique=len(vocabulary),
        n_tokens=sum(vocabulary.values()),
        preprocessing={
            "lowercase": options.lowercase,
            "keep_apostrophes": options.keep_apostrophes,
            "keep_digits": options.keep_digits,
        },
    )


def sorted_items(counts: CorpusCounts) -> list[tuple[str, int]]:
    """(word, count) pairs ordered by descending count then word."""
    return sorted(counts.vocabulary.items(), key=lambda item: (-item[1], item[0]))


def to_count_sample(counts: CorpusCounts) -> CountSample:
    """Frequency multiset in the deterministic order of sorted_items."""
    if not counts.vocabulary:
        raise ValueError("empty corpus: no tokens to count")
    return CountSample(np.array([c for _, c in sorted_items(counts)], dtype=np.int64))


def write_tsv(counts: CorpusCounts, path) -> None:
    """word<TAB>count rows in the same order as to_count_sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{word}\t{count}\n" for word, count in sorted_items(counts))
