"""Word-frequency extraction from raw text, with Project Gutenberg
boilerplate stripping."""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .distribution import CountSample
from .special import _warn

__all__ = [
    "TokenizerOptions",
    "CorpusCounts",
    "strip_gutenberg",
    "tokenize_count",
    "to_count_sample",
    "write_tsv",
]

# the line breaks of str.splitlines; "\r\n" is one break
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(f"\r\n|[{_BREAKS}]")
# the blanks of a marker are whitespace but no break, so a match in the
# whole text lies within one line, as a match in that line alone would
_START_MARKER = re.compile(rf"\*+[^\S{_BREAKS}]*START OF", re.IGNORECASE)
_END_MARKER = re.compile(rf"\*+[^\S{_BREAKS}]*END OF", re.IGNORECASE)


@dataclass(frozen=True)
class TokenizerOptions:
    """The text is always lowered first. Default pipeline: split on any
    non-letter, drop empty tokens; no stemming, no stop words."""

    keep_apostrophes: bool = False
    keep_digits: bool = False


@dataclass
class CorpusCounts:
    """word -> frequency table, in order of first occurrence."""

    vocabulary: dict[str, int]

    @property
    def n_unique(self) -> int:
        return len(self.vocabulary)

    @property
    def n_tokens(self) -> int:
        return sum(self.vocabulary.values())


def strip_gutenberg(text: str) -> str:
    """Keep only the content between the boilerplate markers.

    The markers are lines containing "*** START OF" / "*** END OF"
    (case-insensitive, tolerant of the asterisk count). Missing or
    out-of-order markers leave the text unchanged with a warning.

    Lines are those of str.splitlines. The body runs from the break of
    the first START line to the start of the first END line after it.
    No line is split out: each marker is matched only at the stars of
    the text, and its line's bounds are found around the match.
    """
    start = _marker(_START_MARKER, text, 0)
    if start is None:
        _warn("no Gutenberg markers found; text left unchanged")
        return text
    brk = _BREAK.search(text, start.end())
    begin = len(text) if brk is None else brk.end()
    end = _marker(_END_MARKER, text, begin)
    if end is None:
        _warn("malformed Gutenberg markers; text left unchanged")
        return text
    return text[begin : _line_start(text, end.start(), begin)]


def _marker(pattern: re.Pattern, text: str, pos: int) -> re.Match | None:
    """The first match of a marker pattern in text[pos:], tried by .match
    at the first "*" of each run of stars only: a match at a later star
    of the run would also be one at its first. A .search would try every
    position, as SRE has no fast scan for a pattern that opens with a
    repeat."""
    star = text.find("*", pos)
    while star >= 0:
        if star == pos or text[star - 1] != "*":
            found = pattern.match(text, star)
            if found:
                return found
        star = text.find("*", star + 1)
    return None


def _line_start(text: str, pos: int, floor: int) -> int:
    """Where the line holding pos starts, at or after floor: one past the
    last break before pos. The search looks back from pos in a window
    that doubles, so it reads about as much as the line holds."""
    width = 64
    while True:
        low = max(floor, pos - width)
        last = max(text.rfind(brk, low, pos) for brk in _BREAKS)
        if last >= 0:
            return last + 1
        if low == floor:
            return floor
        width *= 2


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


# _LOW_BYTES[j] keeps the first j bytes of a little-endian uint64 word
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)
# odd, so each power of it is odd too
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _multipliers(width: int) -> np.ndarray:
    """The odd uint64 multiplier of each key column, _GOLDEN ** (j + 1)
    with wrapping arithmetic: a key's hash, the words times these summed,
    is a polynomial in its words."""
    return np.multiply.accumulate(np.full(width, _GOLDEN))


def _chunk_counts(data: bytes) -> tuple[list[bytes], list[int]]:
    """The distinct chunks of data between spaces and their counts, in
    order of first occurrence: the keys and values of
    Counter(data.split()) for data that holds no byte 0x00 and no ASCII
    whitespace but 0x20.

    Each chunk's bounds are where the bytes change between space and
    non-space. Its key is its bytes as little-endian uint64 words, each
    read through one unaligned 8-byte window and the last masked to the
    chunk's length. No chunk byte is 0x00 or 0x20, so two chunks of the
    same width in words are equal exactly when their keys are. The
    chunks are grouped by width (the wider ones ordered by one stable
    argsort of it), and each group of m chunks by one np.sort of packed
    uint64 values: the high bits of the key's hash, with the chunk's row
    in the group in the low bit_length(m - 1) bits. Equal keys then lie
    in runs in ascending row order, so each run's first row is its first
    occurrence. Comparing the sorted keys row by row checks the hash
    exactly: if two different keys share the kept hash bits, the group
    is ordered again by np.lexsort of its word columns, which is stable.
    Each run gives a count and its first chunk; an argsort of those
    first chunks gives the order of the items."""
    padded = b" " + data + b" " * 8
    is_chunk = np.frombuffer(padded, np.uint8) != 0x20
    # padded starts and ends with a space, so the edges alternate
    # between a chunk's first byte and the space after its last
    edges = np.flatnonzero(is_chunk[1:] != is_chunk[:-1])
    edges += 1
    # each array is dropped once spent, so the byte mask, the chunk
    # lengths and the gathered positions are gone before the sorts
    del is_chunk
    if not edges.size:
        return [], []
    starts, ends = edges[0::2], edges[1::2]
    # windows[i] is padded[i:i + 8] as a little-endian uint64
    windows = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))
    lengths = ends - starts
    short = lengths <= 8
    wide = np.flatnonzero(~short)
    widths = (lengths[wide] + 7) >> 3
    del lengths
    by_width = np.argsort(widths, kind="stable")
    cuts = np.flatnonzero(np.diff(widths[by_width])) + 1
    groups = [np.flatnonzero(short), *np.split(wide[by_width], cuts)]
    del short, wide, widths, by_width
    firsts, counts = [], []
    for tokens in groups:
        if not tokens.size:
            continue
        at = starts[tokens]
        # the bytes of each chunk's last word
        last = ends[tokens] - at
        width = int(last[0] + 7) >> 3
        last -= 8 * (width - 1)
        if width > 1:
            at = at[:, None] + np.arange(0, 8 * width, 8)
        words = windows[at].reshape(tokens.size, width)
        del at
        words[:, -1] &= _LOW_BYTES[last]
        del last
        bits = (tokens.size - 1).bit_length()
        low = np.uint64((1 << bits) - 1)
        if width > 1:
            packed = words @ _multipliers(width)
        else:
            packed = words[:, 0] * _multipliers(1)
        # a product's low bits depend only on its factors' low bits, so
        # the row number takes the place of the hash's low bits
        packed &= ~low
        packed |= np.arange(tokens.size, dtype=np.uint64)
        packed.sort()
        order = (packed & low).view(np.int64)
        packed >>= bits
        keys = words.take(order, axis=0)
        new = np.ones(tokens.size, bool)
        np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
        if (new[1:] & (packed[1:] == packed[:-1])).any():
            order = np.lexsort(words.T)
            keys = words.take(order, axis=0)
            np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
        del words, keys, packed
        runs = np.flatnonzero(new)
        firsts.append(tokens.take(order.take(runs)))
        counts.append(np.diff(runs, append=tokens.size))
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    firsts = firsts.take(order)
    # padded holds data one byte on
    chunks = [data[begin:end] for begin, end in
              zip((starts[firsts] - 1).tolist(), (ends[firsts] - 1).tolist())]
    return chunks, np.concatenate(counts).take(order).tolist()


def tokenize_count(text: str, options: TokenizerOptions | None = None) -> CorpusCounts:
    """Tokenize and count; empty input yields an empty table.

    A token is a match of _token_pattern(options) in the lowered text,
    and vocabulary lists the tokens in order of first occurrence. One
    pass finds them: the UTF-8 bytes of the text go through a translate
    table that turns every ASCII byte no token holds into a space, and
    _chunk_counts counts the chunks between spaces with numpy, keyed
    exactly by their bytes packed into uint64 words, with no Python
    object made per token. A distinct chunk of ASCII letters (and digits
    under keep_digits) is one token. Every other distinct chunk, one
    that holds a byte >= 0x80 or an apostrophe, is decoded and refined
    by the token pattern, and each token found in it takes the chunk's
    count. No match of the pattern spans a space-mapped byte, and UTF-8
    multibyte sequences hold no ASCII byte, so every chunk decodes and
    the counts are those of the pattern over the whole text.
    """
    options = options or TokenizerOptions()
    text = text.lower()
    table = _SPACE_TABLES[options.keep_digits, options.keep_apostrophes]
    data = text.encode("utf-8", "surrogatepass").translate(table)
    del text  # a lowered copy is not needed past this point
    chunks, counts = _chunk_counts(data)
    findall = _token_pattern(options).findall
    vocabulary: dict[str, int] = {}
    for chunk, count in zip(chunks, counts):
        if chunk.isalnum():
            word = chunk.decode("ascii")
            vocabulary[word] = vocabulary.get(word, 0) + count
        else:
            for word in findall(chunk.decode("utf-8", "surrogatepass")):
                vocabulary[word] = vocabulary.get(word, 0) + count
    return CorpusCounts(vocabulary)


def _count_groups(counts: CorpusCounts) -> list[tuple[int, list[str]]]:
    """(count, words) by descending count, the words of each count in
    code-point order: one dict pass groups the words by count, and each
    group is sorted once."""
    groups = defaultdict(list)
    for word, count in counts.vocabulary.items():
        groups[count].append(word)
    return [(count, sorted(groups[count])) for count in sorted(groups, reverse=True)]


def to_count_sample(counts: CorpusCounts) -> CountSample:
    """The counts in descending order, as the rows of write_tsv hold
    them; ties share a count, so no word order is needed."""
    if not counts.vocabulary:
        raise ValueError("empty corpus: no tokens to count")
    return CountSample(np.sort(np.fromiter(counts.vocabulary.values(), np.int64))[::-1])


def write_tsv(counts: CorpusCounts, path) -> None:
    """word<TAB>count rows by descending count, ties by word in
    code-point order, written one join per distinct count."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for count, words in _count_groups(counts):
            end = f"\t{count}\n"
            fh.write(end.join(words) + end)
