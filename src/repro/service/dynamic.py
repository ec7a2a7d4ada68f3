"""A mutable build-once index: similarity search over a living collection.

:class:`DynamicSearcher` is the online counterpart of
:class:`~repro.search.searcher.PassJoinSearcher`: the same segment index
and filter-and-verify pipeline, but the collection may change between
queries.

* :meth:`~DynamicSearcher.insert` generates the new record's signatures and
  appends them to the inverted lists.  Results never depend on posting
  order: candidates are deduplicated by id and answers sorted by
  ``(distance, id)``.
* The :class:`~repro.core.kernel.EditDistanceBackend` is the one record
  table: it holds every indexed or pooled record and answers
  :attr:`~DynamicSearcher.records`, :meth:`~DynamicSearcher.get_many` and
  the duplicate-id check by id.  A record is live when the backend holds
  it and it is not tombstoned.
* :meth:`~DynamicSearcher.delete` is a **tombstone**: the record's postings
  stay in the index but every search filters its id out, which makes
  deletion O(1).  Once ``compact_interval`` tombstones accumulate,
  :meth:`~DynamicSearcher.compact` physically purges them via the
  backend's ``remove_indexed`` (deletion cost is amortised and the index
  never drifts far from the fresh-build footprint).

Every mutation bumps :attr:`~DynamicSearcher.epoch`, the invalidation token
consumed by :class:`~repro.service.cache.QueryCache`.

Exactness: search and top-k results are identical — element for element —
to re-building a fresh ``PassJoinSearcher`` over the surviving records,
because both run the same backend over the same logical collection and the
result ordering is canonical.  The property-based test suite asserts this
equivalence on random interleavings.
"""

from __future__ import annotations

from typing import Iterable

from ..config import PartitionStrategy
from ..core.kernel import EditDistanceBackend
from ..search.searcher import KernelSearcher
from ..types import JoinStatistics, StringRecord, as_records


def coerce_insert_record(text: str | StringRecord, id: int | None,
                         next_id: int) -> StringRecord:
    """Resolve an ``insert(text, id=...)`` call to the record to store.

    Shared by :class:`DynamicSearcher` and the sharded router so the two
    can never diverge on id semantics: a ready-made record keeps its id
    unless ``id=`` overrides it; plain text takes ``id=`` or the caller's
    next auto id (one above the largest ever seen).
    """
    if isinstance(text, StringRecord):
        return text if id is None else StringRecord(id=id, text=text.text)
    return StringRecord(id=next_id if id is None else id, text=str(text))


class DynamicSearcher(KernelSearcher):
    """Approximate similarity search over a mutable collection.

    This class owns mutation and compaction; every query
    method (``search`` / ``search_many`` / ``search_top_k`` /
    ``search_top_k_many`` / ``explain``) is the shared
    :class:`~repro.search.searcher.KernelSearcher` surface, filtering
    tombstones through its accept hook.

    Parameters
    ----------
    strings:
        Initial collection (plain strings or
        :class:`~repro.types.StringRecord` objects with caller-chosen ids;
        ids must be unique — a duplicate raises ``ValueError``, as it
        would leave one record's postings behind as a searchable ghost).
    max_tau:
        Largest edit-distance threshold any query may use.
    partition:
        Partition strategy (the paper's even scheme by default).
    compact_interval:
        Tombstone budget: once this many deleted records are still
        physically present in the index, the next mutation compacts.
        ``0`` compacts on every delete.

    Examples
    --------
    >>> searcher = DynamicSearcher(["vldb", "sigmod"], max_tau=1)
    >>> searcher.insert("pvldb")
    2
    >>> [m.text for m in searcher.search("vldb", tau=1)]
    ['vldb', 'pvldb']
    >>> searcher.delete(0)
    True
    >>> [m.text for m in searcher.search("vldb", tau=1)]
    ['pvldb']
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (), *,
                 max_tau: int, partition: PartitionStrategy = PartitionStrategy.EVEN,
                 compact_interval: int = 64) -> None:
        self._backend = EditDistanceBackend(max_tau, partition=partition)
        self.max_tau = self._backend.max_tau
        if (isinstance(compact_interval, bool)
                or not isinstance(compact_interval, int) or compact_interval < 0):
            raise ValueError(f"compact_interval must be a non-negative integer, "
                             f"got {compact_interval!r}")
        self.compact_interval = compact_interval
        self.statistics = JoinStatistics()
        records = as_records(strings)
        # live length -> number of live records of that length (lets top-k
        # widening skip thresholds no live record can possibly meet).
        self._length_counts: dict[int, int] = {}
        # id -> record still present in the signature index but logically gone.
        self._tombstones: dict[int, StringRecord] = {}
        self._epoch = 0
        self._next_id = 0
        for record in records:
            if record.id in self._backend:
                # A duplicate would leave the loser's postings (and short-
                # pool/length bookkeeping) behind as a searchable ghost.
                raise ValueError(
                    f"duplicate id {record.id} in the initial collection")
            self._insert_record(record)
        self.statistics.num_strings = len(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._backend) - len(self._tombstones)

    def _is_live(self, record_id: int) -> bool:
        return record_id in self._backend and record_id not in self._tombstones

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped by every insert, every delete, and every
        compaction that physically purges postings.

        A compaction with nothing to purge is a logical no-op (the visible
        collection is unchanged), so it deliberately leaves the epoch — and
        therefore every cached query result — intact.
        """
        return self._epoch

    @property
    def tombstone_count(self) -> int:
        """Deleted records still physically present in the index."""
        return len(self._tombstones)

    @property
    def records(self) -> list[StringRecord]:
        """The live records, ordered by id (a snapshot, safe to mutate)."""
        tombstones, held = self._tombstones, self._backend.record
        return [held(record_id)
                for record_id in sorted(self._backend.record_ids())
                if record_id not in tombstones]

    @property
    def _short_pool(self) -> dict[int, StringRecord]:
        """Records too short to partition (never indexed)."""
        return self._backend.short_pool

    def index_memory(self) -> dict[str, int]:
        """Memory figures of the signature index (the ``stats`` op payload).

        ``records`` counts live store rows — tombstoned records remain
        until compaction purges them; ``approximate_bytes`` covers the
        inverted lists plus the record columns (see the backend's
        ``memory_report``).
        """
        return self._backend.memory_report()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, text: str | StringRecord, *, id: int | None = None) -> int:
        """Add one string; return its id.

        Ids are auto-assigned (one above the largest ever seen) unless the
        caller provides one via ``id=`` or a ready-made
        :class:`~repro.types.StringRecord`.  Inserting a live id raises
        ``ValueError``; re-using a tombstoned id is allowed (the stale
        postings are purged first so the old record cannot resurface).
        """
        record = coerce_insert_record(text, id, self._next_id)
        if self._is_live(record.id):
            raise ValueError(f"id {record.id} is already in the collection")
        stale = self._tombstones.pop(record.id, None)
        if stale is not None:
            self._backend.remove_indexed(stale)
        self._insert_record(record)
        self.statistics.num_strings += 1
        self._bump()
        return record.id

    def get_many(self, record_ids: Iterable[int]) -> list[StringRecord]:
        """The live records among ``record_ids``, in the order given.

        Ids that are not live (never inserted, deleted, tombstoned) are
        silently skipped — the shard-migration extract step uses this to
        tolerate records deleted between planning and copying.
        """
        held = self._backend.record
        return [held(record_id) for record_id in record_ids
                if self._is_live(record_id)]

    def insert_many(self, records: Iterable[str | StringRecord]) -> list[int]:
        """Insert several records (:meth:`insert` semantics); return the ids."""
        return [self.insert(record) for record in records]

    def delete_many(self, record_ids: Iterable[int]) -> int:
        """Delete several records by id; return how many were live."""
        return sum(self.delete(record_id) for record_id in record_ids)

    def delete(self, record_id: int) -> bool:
        """Tombstone one record by id; return False when it is not live."""
        if not self._is_live(record_id):
            return False
        record = self._backend.record(record_id)
        if not self._backend.unpool(record_id):
            self._tombstones[record_id] = record
        remaining = self._length_counts.get(record.length, 0) - 1
        if remaining > 0:
            self._length_counts[record.length] = remaining
        else:
            self._length_counts.pop(record.length, None)
        self.statistics.num_strings -= 1
        self._bump()
        return True

    def compact(self) -> int:
        """Purge every tombstone from the signature index; return the count.

        After compaction the index holds exactly the postings a fresh build
        over the live records would (posting order aside), so memory does
        not leak across delete-heavy workloads.  A compaction that purges
        anything bumps :attr:`epoch` — the physical index changed, and
        downstream caches keyed on the epoch must not outlive it — while a
        no-op compaction (no tombstones) leaves the epoch untouched.
        """
        purged = len(self._tombstones)
        for record in self._tombstones.values():
            self._backend.remove_indexed(record)
        self._tombstones.clear()
        if purged:
            self._epoch += 1
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()
        return purged

    def _insert_record(self, record: StringRecord) -> None:
        self.statistics.num_indexed_segments += self._backend.add(record)
        self._length_counts[record.length] = (
            self._length_counts.get(record.length, 0) + 1)
        self._next_id = max(self._next_id, record.id + 1)
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()

    def _bump(self) -> None:
        self._epoch += 1
        if len(self._tombstones) > self.compact_interval:
            self.compact()
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynamicSearcher(live={len(self)}, "
                f"tombstones={len(self._tombstones)}, epoch={self._epoch}, "
                f"max_tau={self.max_tau})")
