"""Core value types shared across the Pass-Join reproduction library.

The types in this module are deliberately small, immutable (where practical)
data carriers:

* :class:`StringRecord` — a string plus its stable identifier in a collection.
* :class:`Segment` — one piece of an even partition of an indexed string.
* :class:`SimilarPair` — one join result (ids, strings, and edit distance).
* :class:`JoinStatistics` — instrumentation counters collected by a join run.
* :class:`JoinResult` — the pairs plus the statistics of a completed join.

Join algorithms in :mod:`repro.core` and :mod:`repro.baselines` all speak in
these types so that results from different algorithms are directly comparable
(in tests and in the benchmark harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class StringRecord:
    """A string together with its position in the source collection.

    Join results refer to strings by ``id`` so callers can map pairs back to
    their own records (database rows, file line numbers, ...).
    """

    id: int
    text: str

    @property
    def length(self) -> int:
        """Length of the record's text in characters."""
        return len(self.text)

    def __len__(self) -> int:  # pragma: no cover - trivial delegation
        return len(self.text)


def as_records(strings: Iterable[str | StringRecord]) -> list[StringRecord]:
    """Normalise an iterable of strings (or records) to ``StringRecord``s.

    Plain strings are numbered by their position in the iterable.  Existing
    :class:`StringRecord` instances are passed through unchanged, which lets
    callers keep their own identifier space.
    """
    records: list[StringRecord] = []
    for position, item in enumerate(strings):
        if isinstance(item, StringRecord):
            records.append(item)
        else:
            records.append(StringRecord(id=position, text=str(item)))
    return records


@dataclass(frozen=True, slots=True)
class Segment:
    """One segment of an even partition of a string.

    Attributes
    ----------
    ordinal:
        1-based segment index ``i`` (the paper's :math:`L_l^i` ordinal).
    start:
        0-based start offset of the segment inside its source string.
    text:
        The segment's characters.
    """

    ordinal: int
    start: int
    text: str

    @property
    def length(self) -> int:
        """Number of characters in the segment."""
        return len(self.text)

    @property
    def end(self) -> int:
        """0-based exclusive end offset of the segment in its source string."""
        return self.start + len(self.text)


@dataclass(frozen=True, slots=True, order=True)
class SimilarPair:
    """One similar pair produced by a join.

    The pair is normalised so that ``left_id < right_id`` for self joins;
    for R–S joins ``left_id`` always refers to ``R`` and ``right_id`` to ``S``.
    """

    left_id: int
    right_id: int
    distance: int
    left: str = field(compare=False, default="")
    right: str = field(compare=False, default="")

    def ids(self) -> tuple[int, int]:
        """Return the pair of record identifiers as a tuple."""
        return (self.left_id, self.right_id)


@dataclass(slots=True)
class JoinStatistics:
    """Counters describing the work performed by one join run.

    These counters back the paper's evaluation: Figure 12 counts selected
    substrings, Figure 14 counts verification work, Table 3 reports index
    size.  Every algorithm fills in the counters that make sense for it and
    leaves the others at zero.
    """

    num_strings: int = 0
    num_indexed_segments: int = 0
    num_selected_substrings: int = 0
    num_index_probes: int = 0
    num_postings_scanned: int = 0
    num_candidates: int = 0
    num_verifications: int = 0
    #: Verifications decided by the default verifier's histogram signature
    #: alone (zero DP cells); included in ``num_verifications``.
    num_signature_rejects: int = 0
    num_accepted: int = 0
    num_results: int = 0
    num_matrix_cells: int = 0
    num_early_terminations: int = 0
    num_windows_cache_hits: int = 0
    num_postings_fanout: int = 0
    index_entries: int = 0
    index_bytes: int = 0
    selection_seconds: float = 0.0
    verification_seconds: float = 0.0
    indexing_seconds: float = 0.0
    total_seconds: float = 0.0

    def merge(self, other: "JoinStatistics", *,
              coexisting: bool = True) -> "JoinStatistics":
        """Return a new statistics object with the counters of both runs.

        Every field adds, except that ``index_entries`` / ``index_bytes``
        are the size of an index, not a count of work: they add only when
        the two indices are resident together (``coexisting`` — the shards
        of one router).  Runs that each build and drop their own index —
        the span jobs of a join, the rounds of a top-k join — pass
        ``coexisting=False`` and report the larger peak.
        """
        merged = JoinStatistics()
        for name in self.__dataclass_fields__:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        if not coexisting:
            merged.index_entries = max(self.index_entries, other.index_entries)
            merged.index_bytes = max(self.index_bytes, other.index_bytes)
        return merged

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary (for reporting)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(slots=True)
class JoinResult:
    """The outcome of a join: the similar pairs plus run statistics."""

    pairs: list[SimilarPair]
    statistics: JoinStatistics = field(default_factory=JoinStatistics)

    def __iter__(self) -> Iterator[SimilarPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_ids(self) -> set[tuple[int, int]]:
        """Return the set of (left_id, right_id) tuples, useful in tests."""
        return {pair.ids() for pair in self.pairs}

    def sorted_pairs(self) -> list[SimilarPair]:
        """Return the pairs sorted by (left_id, right_id, distance)."""
        return sorted(self.pairs)


def normalise_pair(id_a: int, id_b: int, distance: int,
                   text_a: str = "", text_b: str = "") -> SimilarPair:
    """Build a :class:`SimilarPair` with the smaller id on the left.

    Self joins must report each unordered pair exactly once; normalising the
    orientation here keeps the dedup logic in one place.
    """
    if id_a <= id_b:
        return SimilarPair(left_id=id_a, right_id=id_b, distance=distance,
                           left=text_a, right=text_b)
    return SimilarPair(left_id=id_b, right_id=id_a, distance=distance,
                       left=text_b, right=text_a)


def records_by_length(records: Sequence[StringRecord]) -> dict[int, list[StringRecord]]:
    """Group records by string length (ascending key order not guaranteed)."""
    groups: dict[int, list[StringRecord]] = {}
    for record in records:
        groups.setdefault(record.length, []).append(record)
    return groups
