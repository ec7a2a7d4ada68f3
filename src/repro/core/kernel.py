"""The searchers' backend: the Pass-Join pipeline over one mutable index.

Every searcher in this library — static, dynamic, sharded — probes the same
three-phase pipeline: *signatures* (the ``max_tau + 1`` partition segments
of a record) when a record is indexed, *substring selection* when a query
arrives, and *verification* of the candidates the segments let through.
:class:`EditDistanceBackend` holds one searcher's share of it — a
:class:`~repro.core.index.SegmentIndex`, the short-string pool and the
selection-window cache — and answers probes by delegating to the engine's
two drivers, :func:`repro.core.engine.probe_record` (one query, optionally
traced) and :func:`~repro.core.engine.probe_many` (a batch).

The library serves one similarity, edit distance, because the paper solves
one problem.  :func:`get_kernel` still names it ``"edit-distance"``: a
wire request may carry that name, and any other name is refused rather
than answered under edit distance.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..config import DEFAULT_VERIFICATION, validate_threshold
from ..exceptions import UnknownMethodError
from ..types import JoinStatistics, StringRecord
from .engine import probe_many, probe_record
from .index import SegmentIndex
from .partition import can_partition
from .selection import MultiMatchAwareSelector, WindowCache
from .verify import make_verifier

if TYPE_CHECKING:
    from ..obs.trace import ProbeTrace


class EditDistanceBackend:
    """Segment index + short pool + selector, probed via the shared engine.

    The backend is also the one place a searcher's records are held:
    :meth:`record` answers by id from ``_rows`` (id → store row of every
    indexed record) or ``short_pool`` (records too short to partition).
    The searcher above it keeps the bookkeeping: ids, epochs.  Deleting
    a record is :meth:`unpool` for a pooled one and
    :meth:`remove_indexed` for an indexed one.

    Every served index is built one way: the even partition and
    :data:`~repro.config.DEFAULT_VERIFICATION`.  The paper's skewed
    partitions and its extension verifiers are join options
    (:class:`~repro.config.JoinConfig`) only.
    """

    def __init__(self, max_tau: int) -> None:
        self.max_tau = validate_threshold(max_tau)
        self.index = SegmentIndex(self.max_tau)
        self.selector = MultiMatchAwareSelector(self.max_tau)
        self.short_pool: dict[int, StringRecord] = {}
        # id -> store row of every indexed record: what record() reads and
        # remove_indexed() purges by.  Joins drive a bare SegmentIndex and
        # never pay for it.
        self._rows: dict[int, int] = {}
        # Persistent probe-plan cache, shared across search /
        # search_many / explain calls and across batches.  Plans are pure
        # in (probe length, indexed-length range) under this backend's
        # fixed partition threshold and never hold row ordinals, so no
        # write makes one stale; the LRU bound caps the keys of lengths
        # gone cold.
        self.window_cache = WindowCache(self.selector)

    def add(self, record: StringRecord) -> int:
        """Index ``record`` (or pool it); return the segment entries added."""
        if can_partition(record.length, self.max_tau):
            row = self._rows[record.id] = self.index.store.add(record)
            return self.index.add_row(row)
        self.short_pool[record.id] = record
        return 0

    def record(self, record_id: int) -> StringRecord | None:
        """The record held under ``record_id`` (indexed or pooled), or None."""
        row = self._rows.get(record_id)
        if row is None:
            return self.short_pool.get(record_id)
        return self.index.store.record_at(row)

    def record_ids(self) -> Iterator[int]:
        """Ids of every record held, indexed then pooled."""
        return chain(self._rows, self.short_pool)

    def __len__(self) -> int:
        """Number of records held, indexed or pooled."""
        return len(self._rows) + len(self.short_pool)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows or record_id in self.short_pool

    def unpool(self, record_id: int) -> bool:
        """Drop a pooled record; True when it was in the short pool."""
        return self.short_pool.pop(record_id, None) is not None

    def remove_indexed(self, record: StringRecord) -> int:
        """Remove an indexed record's segments and release its store row;
        return the number of segments removed."""
        row = self._rows.pop(record.id, None)
        return 0 if row is None else self.index.remove(row)

    def new_verifier(self, tau: int, stats: JoinStatistics) -> Any:
        """The verifier :meth:`probe` uses at ``tau`` (explain reports it)."""
        return make_verifier(DEFAULT_VERIFICATION, tau, stats)

    def probe(self, query: str, tau: int, *, stats: JoinStatistics,
              trace: "ProbeTrace | None" = None,
              verifier: Any = None) -> list[tuple[StringRecord, int]]:
        """All indexed/pooled records within ``tau`` of ``query``.

        ``trace`` collects the per-stage explain breakdown; ``verifier``
        overrides the default verifier (the explain path passes the
        instance it will report on).
        """
        if verifier is None:
            verifier = self.new_verifier(tau, stats)
        window_cache = self.window_cache
        hits = window_cache.hits
        matches = probe_record(
            StringRecord(id=-1, text=query), tau=tau, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier=verifier, stats=stats,
            max_length=len(query) + tau, allow_same_id=True, trace=trace,
            window_cache=window_cache)
        stats.num_windows_cache_hits += window_cache.hits - hits
        return matches

    def probe_many(self, queries: Sequence[tuple[str, int]], *,
                   stats: JoinStatistics,
                   verifier_factory: Callable[[int], Any] | None = None,
                   ) -> list[list[tuple[StringRecord, int]]]:
        """Batch :meth:`probe`: one result list per ``(query, tau)`` input.

        ``verifier_factory`` maps a tau to the verifier of its group
        (default: :meth:`new_verifier`).
        """
        if verifier_factory is None:
            def verifier_factory(tau: int) -> Any:
                return self.new_verifier(tau, stats)
        window_cache = self.window_cache
        hits = window_cache.hits
        found = probe_many(
            queries, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier_factory=verifier_factory,
            stats=stats, window_cache=window_cache)
        stats.num_windows_cache_hits += window_cache.hits - hits
        return found

    def entry_count(self) -> int:
        """Segment entries currently stored (postings)."""
        return self.index.current_entry_count

    def approximate_bytes(self) -> int:
        """Approximate bytes of the inverted lists."""
        return self.index.current_approximate_bytes

    def memory_report(self) -> dict[str, int]:
        """Memory figures for the ``stats`` op (``records``,
        ``approximate_bytes``, and the index's detail)."""
        return self.index.memory_report()


class EditDistanceKernel:
    """Partition-based edit-distance similarity (the paper's pipeline)."""

    name = "edit-distance"

    def make_backend(self, max_tau: int) -> EditDistanceBackend:
        """A fresh backend answering thresholds up to ``max_tau``."""
        return EditDistanceBackend(max_tau)


_EDIT_DISTANCE = EditDistanceKernel()


def get_kernel(name: str) -> EditDistanceKernel:
    """The kernel called ``name``; only ``"edit-distance"`` exists."""
    if name != _EDIT_DISTANCE.name:
        raise UnknownMethodError("similarity kernel", str(name),
                                 (_EDIT_DISTANCE.name,))
    return _EDIT_DISTANCE
