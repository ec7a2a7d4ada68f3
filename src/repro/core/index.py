"""Segment inverted indices ``L_l^i`` (Section 3.2), columnar edition.

For every indexed string length ``l`` and segment ordinal ``i`` the index
keeps a dictionary mapping segment text to the inverted list of strings
whose ``i``-th segment equals that text.  Postings are stored columnar: the
records themselves live once in the index's own
:class:`~repro.core.store.RecordStore` (parallel ``(id, length, text)``
columns, one row per indexed record) and every inverted list is a compact
``array('q')`` of store row ordinals.  :meth:`SegmentIndex.lookup` hands the
probe loop a :class:`~repro.core.store.PostingList` of ordinals, so record
objects are only materialised for candidates that survive the probe-side
filters — and ``fork`` workers inherit flat arrays copy-on-write instead of
touching refcounts on millions of record objects.

The lists preserve insertion order.  The Pass-Join driver inserts strings
in sorted (length, text) order, so in a join every inverted list is sorted
alphabetically by the indexed string, which lets the shared-prefix
verifier share DP rows between neighbours.  A serving index appends in
arrival order; no verifier depends on the order for its answers.

The index also implements the paper's memory optimisation: once the driver
has moved on to strings of length ``l``, indices for lengths smaller than
``l − τ`` can never be probed again and are evicted
(:meth:`SegmentIndex.evict_below`).
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

from ..config import PartitionStrategy, validate_threshold
from ..types import StringRecord
from .partition import can_partition, partition, segment_layout
from .store import PostingList, RecordStore

#: Bytes of one posting in the approximate accounting (one machine word —
#: exactly one ``array('q')`` slot in the columnar layout).  Segment keys
#: count one byte per character, in the incremental counters and in
#: :meth:`SegmentIndex.approximate_bytes` alike.
POSTING_BYTES = 8


class SegmentIndex:
    """The collection of inverted indices ``L_l^i`` used by Pass-Join.

    Parameters
    ----------
    tau:
        Edit-distance threshold; every indexed string is split into
        ``tau + 1`` segments.
    strategy:
        Partition strategy (even by default, see
        :mod:`repro.core.partition`).
    """

    def __init__(self, tau: int,
                 strategy: PartitionStrategy = PartitionStrategy.EVEN) -> None:
        self.tau = validate_threshold(tau)
        self.strategy = strategy
        self.store = RecordStore()
        # _indices[length][ordinal][segment_text] -> array('q') of store rows
        self._indices: dict[int, dict[int, dict[str, array]]] = {}
        self._records_per_length: dict[int, int] = {}
        # Incremental accounting, maintained by add()/evict_below() so the
        # driver can record the *peak* concurrent index size cheaply.
        self._entries_by_length: dict[int, int] = {}
        self._bytes_by_length: dict[int, int] = {}
        self._current_entries = 0
        self._current_bytes = 0
        # Bumped whenever the *set* of indexed lengths changes (a length
        # group appears or disappears) — the invalidation signal consumed
        # by the kernel backends' persistent window caches.
        self._lengths_version = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, record: StringRecord) -> int:
        """Partition ``record`` and add its segments; return the segment count.

        Strings shorter than ``tau + 1`` cannot be partitioned and are not
        indexed (the driver keeps them in a separate short-string pool);
        ``0`` is returned for them.
        """
        if not can_partition(record.length, self.tau):
            return 0
        return self.add_row(self.store.add(record))

    def add_row(self, row: int) -> int:
        """Index the segments of the record stored at ``row`` (appending
        to each inverted list); return the segment count.

        The row then belongs to the index: :meth:`remove` and
        :meth:`evict_below` release it.  The caller has checked that its
        length can be partitioned.
        """
        text = self.store.text_at(row)
        length = len(text)
        if length not in self._indices:
            self._lengths_version += 1
        per_length = self._indices.setdefault(length, {})
        added_bytes = 0
        for segment in partition(text, self.tau, self.strategy):
            per_ordinal = per_length.setdefault(segment.ordinal, {})
            postings = per_ordinal.get(segment.text)
            if postings is None:
                per_ordinal[segment.text] = array("q", (row,))
                added_bytes += len(segment.text) + POSTING_BYTES
            else:
                postings.append(row)
                added_bytes += POSTING_BYTES
        self._records_per_length[length] = self._records_per_length.get(length, 0) + 1
        self._entries_by_length[length] = (
            self._entries_by_length.get(length, 0) + self.tau + 1)
        self._bytes_by_length[length] = (
            self._bytes_by_length.get(length, 0) + added_bytes)
        self._current_entries += self.tau + 1
        self._current_bytes += added_bytes
        return self.tau + 1

    def add_all(self, records: Iterable[StringRecord]) -> int:
        """Index every record; return the total number of segments added."""
        return sum(self.add(record) for record in records)

    def remove(self, row: int) -> int:
        """Remove the postings of the record indexed at ``row``.

        This is the compaction hook for the online service layer
        (:class:`repro.service.DynamicSearcher`): tombstoned records are
        physically purged from the inverted lists here, keeping the
        remaining entries in their original relative order.  Emptied
        segment buckets *and* their enclosing per-ordinal dictionaries are
        pruned, so a long-lived dynamic index never accumulates empty dict
        shells.  The row itself is released.  Returns the number of
        postings removed (``tau + 1``).
        """
        text = self.store.text_at(row)
        length = len(text)
        per_length = self._indices[length]
        removed_bytes = 0
        for segment in partition(text, self.tau, self.strategy):
            per_ordinal = per_length[segment.ordinal]
            postings = per_ordinal[segment.text]
            postings.remove(row)
            removed_bytes += POSTING_BYTES
            if not postings:
                del per_ordinal[segment.text]
                removed_bytes += len(segment.text)
                if not per_ordinal:
                    del per_length[segment.ordinal]
        self.store.release(row)
        removed = self.tau + 1
        remaining = self._records_per_length[length] - 1
        if remaining > 0:
            self._records_per_length[length] = remaining
            self._entries_by_length[length] -= removed
            self._bytes_by_length[length] -= removed_bytes
        else:
            del self._records_per_length[length]
            del self._entries_by_length[length]
            del self._bytes_by_length[length]
        if not per_length:
            del self._indices[length]
            self._lengths_version += 1
        self._current_entries -= removed
        self._current_bytes -= removed_bytes
        return removed

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def has_length(self, length: int) -> bool:
        """True when at least one string of ``length`` is indexed."""
        return length in self._indices

    def indexed_lengths(self) -> list[int]:
        """Return the indexed string lengths in ascending order."""
        return sorted(self._indices)

    def layout(self, length: int) -> tuple[tuple[int, int], ...]:
        """Return the segment layout used for indexed strings of ``length``."""
        return segment_layout(length, self.tau, self.strategy)

    def lookup(self, length: int, ordinal: int, text: str) -> PostingList | tuple:
        """Return the inverted list ``L_length^ordinal(text)``, or ``()``.

        Hits come back as a :class:`~repro.core.store.PostingList` of store
        row ordinals; :meth:`RecordStore.record_at` turns a row back into
        its record.
        """
        per_length = self._indices.get(length)
        if per_length is None:
            return ()
        per_ordinal = per_length.get(ordinal)
        if per_ordinal is None:
            return ()
        postings = per_ordinal.get(text)
        if postings is None:
            return ()
        return PostingList(self.store, postings)

    def records_with_length(self, length: int) -> int:
        """Number of indexed strings of exactly ``length``."""
        return self._records_per_length.get(length, 0)

    # ------------------------------------------------------------------
    # Lifecycle / accounting
    # ------------------------------------------------------------------
    def evict_below(self, min_length: int) -> int:
        """Drop indices for lengths smaller than ``min_length``.

        Returns the number of length groups removed.  The Pass-Join driver
        calls this as it advances through the sorted input, which bounds the
        number of live length groups by ``τ + 1``.  The store rows of the
        evicted records are released (every record appears exactly once per
        ``add`` in its ordinal-1 list), so the sliding-window join keeps
        the record table bounded by the live window too.
        """
        stale = [length for length in self._indices if length < min_length]
        if stale:
            self._lengths_version += 1
        for length in stale:
            per_length = self._indices.pop(length)
            for postings in per_length.get(1, {}).values():
                for row in postings:
                    self.store.release(row)
            self._records_per_length.pop(length, None)
            self._current_entries -= self._entries_by_length.pop(length, 0)
            self._current_bytes -= self._bytes_by_length.pop(length, 0)
        return len(stale)

    @property
    def lengths_version(self) -> int:
        """Generation counter of the indexed length *set*.

        Changes exactly when a length group is created or destroyed
        (:meth:`add` of a first record, :meth:`remove` of a last record,
        :meth:`evict_below`).  Persistent window caches compare it against
        the value they last saw and clear themselves on mismatch.
        """
        return self._lengths_version

    @property
    def current_entry_count(self) -> int:
        """Number of postings currently stored (cheap incremental counter)."""
        return self._current_entries

    @property
    def current_approximate_bytes(self) -> int:
        """Approximate bytes currently stored (cheap incremental counter)."""
        return self._current_bytes

    def entry_count(self) -> int:
        """Total number of (segment text → row) postings currently stored."""
        total = 0
        for per_length in self._indices.values():
            for per_ordinal in per_length.values():
                for postings in per_ordinal.values():
                    total += len(postings)
        return total

    def distinct_segment_count(self) -> int:
        """Number of distinct (length, ordinal, segment text) keys stored."""
        total = 0
        for per_length in self._indices.values():
            for per_ordinal in per_length.values():
                total += len(per_ordinal)
        return total

    def approximate_bytes(self) -> int:
        """Rough memory footprint of the inverted lists (Table 3 comparison).

        The estimate counts the segment key strings (one byte per
        character) plus one machine word (8 bytes) per posting — exactly one ``array('q')`` slot in the
        columnar layout — mirroring how the paper counts "an integer to
        encode a segment" plus the inverted lists.  Python object overhead
        is deliberately excluded so the number reflects the data structure,
        not the runtime; the record columns are accounted separately by
        :meth:`RecordStore.approximate_bytes` (see :meth:`memory_report`).
        """
        total = 0
        for per_length in self._indices.values():
            for per_ordinal in per_length.values():
                for text, postings in per_ordinal.items():
                    total += len(text)
                    total += POSTING_BYTES * len(postings)
        return total

    def deep_bytes(self) -> int:
        """Actual ``sys.getsizeof``-based footprint (includes dict overhead)."""
        total = sys.getsizeof(self._indices) + self.store.deep_bytes()
        for per_length in self._indices.values():
            total += sys.getsizeof(per_length)
            for per_ordinal in per_length.values():
                total += sys.getsizeof(per_ordinal)
                for text, postings in per_ordinal.items():
                    total += sys.getsizeof(text) + sys.getsizeof(postings)
        return total

    def memory_report(self) -> dict[str, int]:
        """Memory figures of the columnar layout, for the ``stats`` op and
        the batch-search benchmark.

        ``records`` counts live store rows (for a dynamic index this
        includes tombstoned records until compaction physically purges
        them); ``approximate_bytes`` is the inverted lists plus the record
        columns.
        """
        store_bytes = self.store.approximate_bytes()
        return {
            "records": self.store.live_count,
            "postings": self._current_entries,
            "distinct_segments": self.distinct_segment_count(),
            "postings_bytes": self._current_bytes,
            "store_bytes": store_bytes,
            "approximate_bytes": self._current_bytes + store_bytes,
        }

    def object_layout_bytes(self) -> int:
        """Estimated footprint of the pre-columnar object-list layout.

        The counterfactual the memory benchmark compares against: the same
        inverted lists holding per-posting references to heap
        ``StringRecord`` objects — so each live record pays one record
        object plus one string object on top of its text, where the
        columnar layout pays three machine words.  Posting and segment-key
        bytes are identical in both layouts and counted the same way as
        :meth:`approximate_bytes`.
        """
        record_overhead = sys.getsizeof(StringRecord(id=0, text=""))
        str_overhead = sys.getsizeof("")
        store = self.store
        # A free row's text is "", so summing the column counts live text.
        return (self.approximate_bytes()
                + store.live_count * (record_overhead + str_overhead)
                + sum(map(len, store.texts)))

    def __len__(self) -> int:
        return self.entry_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SegmentIndex(tau={self.tau}, lengths={len(self._indices)}, "
                f"entries={self.entry_count()})")
