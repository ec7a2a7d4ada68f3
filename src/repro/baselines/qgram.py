"""q-gram extraction and global gram ordering.

The q-gram baselines (ED-Join, Part-Enum) both start from the
same substrate: chop every string into overlapping substrings of length
``q`` ("q-grams"), optionally remembering their positions, and impose a
single global ordering on grams — ascending document frequency, ties broken
lexicographically — so that the *prefix* of a string's ordered gram list
contains its rarest grams, maximising the pruning power of prefix filtering.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence


class PositionalGram(NamedTuple):
    """A q-gram together with its 0-based start position in the string."""

    gram: str
    position: int


def qgrams(text: str, q: int) -> list[str]:
    """Return the overlapping q-grams of ``text`` (without positions).

    Strings shorter than ``q`` produce a single gram consisting of the whole
    string, so every non-empty string has at least one gram (this mirrors the
    common "pad-free" convention and keeps count filtering sound because the
    bound in :mod:`repro.filters.count_filter` is computed independently).

    >>> qgrams("vldb", 2)
    ['vl', 'ld', 'db']
    """
    if q <= 0:
        raise ValueError(f"gram length q must be positive, got {q}")
    if not text:
        return []
    if len(text) <= q:
        return [text]
    return [text[i:i + q] for i in range(len(text) - q + 1)]


def positional_qgrams(text: str, q: int) -> list[PositionalGram]:
    """Return the q-grams of ``text`` with their start positions.

    >>> positional_qgrams("vldb", 3)
    [PositionalGram(gram='vld', position=0), PositionalGram(gram='ldb', position=1)]
    """
    return [PositionalGram(gram, position)
            for position, gram in enumerate(qgrams(text, q))]


def gram_document_frequencies(strings: Iterable[str], q: int) -> Counter:
    """Count, for every gram, how many strings contain it at least once."""
    frequencies: Counter = Counter()
    for text in strings:
        frequencies.update(set(qgrams(text, q)))
    return frequencies


def order_grams(grams: Sequence[PositionalGram],
                frequencies: Counter) -> list[PositionalGram]:
    """Sort positional grams by (document frequency, gram, position).

    Rare grams come first, so a prefix of the result is the most selective
    subset of the string's grams — exactly what prefix filtering wants.
    Unknown grams (absent from ``frequencies``) sort first as frequency 0.
    """
    return sorted(grams, key=lambda pg: (frequencies.get(pg.gram, 0), pg.gram,
                                         pg.position))
