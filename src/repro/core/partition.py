"""The partition scheme of Section 3.1.

A string of length ``l`` is split into ``τ + 1`` disjoint segments.  With the
*even* partition the segment lengths differ by at most one: writing
``k = l − ⌊l / (τ+1)⌋ · (τ+1)``, the first ``τ + 1 − k`` segments have length
``⌊l / (τ+1)⌋`` and the last ``k`` have length ``⌈l / (τ+1)⌉``.

The layout (start position and length of every segment) depends only on the
string *length*, not its contents — a property the substring-selection step
relies on: given the length of the indexed strings it can compute where
their segments start without looking at any of them.

Two deliberately unbalanced strategies (``LEFT_HEAVY`` / ``RIGHT_HEAVY``)
are provided for the partition ablation benchmark: they assign ``τ``
single-character segments to one end, which produces very unselective
segments and demonstrates why the paper uses the even scheme.
"""

from __future__ import annotations

from functools import lru_cache

from ..config import PartitionStrategy, validate_threshold
from ..exceptions import InvalidPartitionError


def minimum_partition_length(tau: int) -> int:
    """Smallest string length that can be split into ``τ + 1`` segments."""
    return validate_threshold(tau) + 1


@lru_cache(maxsize=65536)
def segment_lengths(length: int, tau: int,
                    strategy: PartitionStrategy = PartitionStrategy.EVEN) -> tuple[int, ...]:
    """Return the lengths of the ``τ + 1`` segments for strings of ``length``.

    Raises :class:`InvalidPartitionError` when ``length < τ + 1`` (each
    segment must contain at least one character, per the paper's footnote).
    """
    tau = validate_threshold(tau)
    pieces = tau + 1
    if length < pieces:
        raise InvalidPartitionError(
            f"cannot split a string of length {length} into {pieces} non-empty segments"
        )
    if strategy == PartitionStrategy.EVEN:
        base = length // pieces
        longer = length - base * pieces
        return tuple([base] * (pieces - longer) + [base + 1] * longer)
    if strategy == PartitionStrategy.LEFT_HEAVY:
        # tau single-character segments first, the remainder in the last one.
        return tuple([1] * tau + [length - tau])
    if strategy == PartitionStrategy.RIGHT_HEAVY:
        return tuple([length - tau] + [1] * tau)
    raise InvalidPartitionError(f"unknown partition strategy {strategy!r}")


@lru_cache(maxsize=65536)
def segment_layout(length: int, tau: int,
                   strategy: PartitionStrategy = PartitionStrategy.EVEN) -> tuple[tuple[int, int], ...]:
    """Return ``(start, segment_length)`` for each of the ``τ + 1`` segments.

    Start offsets are 0-based.  The layout is cached because it is looked up
    once per indexed string and once per (probe string, indexed length)
    pair during a join.  The segments of a string are its slices:

    >>> text = "vankatesh"
    >>> [text[start:start + seg_len] for start, seg_len in segment_layout(9, 3)]
    ['va', 'nk', 'at', 'esh']
    """
    lengths = segment_lengths(length, tau, strategy)
    layout: list[tuple[int, int]] = []
    start = 0
    for seg_len in lengths:
        layout.append((start, seg_len))
        start += seg_len
    return tuple(layout)


def can_partition(length: int, tau: int) -> bool:
    """True when a string of ``length`` can be partitioned for threshold ``tau``."""
    return length >= minimum_partition_length(tau)
