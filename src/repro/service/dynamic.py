"""A mutable build-once index: kernel search over a living collection.

:class:`DynamicSearcher` is the online counterpart of
:class:`~repro.search.searcher.PassJoinSearcher`: the same signature index
and filter-and-verify pipeline — for whichever
:class:`~repro.core.kernel.SimilarityKernel` it serves — but the collection
may change between queries.

* :meth:`~DynamicSearcher.insert` generates the new record's signatures and
  appends them to the inverted lists.  Results never depend on posting
  order: candidates are deduplicated by id and answers sorted by
  ``(distance, id)``.
* The kernel backend is the one record table: it holds every indexed or
  pooled record and answers :attr:`~DynamicSearcher.records`,
  :meth:`~DynamicSearcher.get_many` and the duplicate-id check by id.  A
  record is live when the backend holds it and it is not tombstoned.
* :meth:`~DynamicSearcher.delete` is a **tombstone**: the record's postings
  stay in the index but every search filters its id out, which makes
  deletion O(1).  Once ``compact_interval`` tombstones accumulate,
  :meth:`~DynamicSearcher.compact` physically purges them via the
  backend's ``remove_indexed`` (deletion cost is amortised and the index
  never drifts far from the fresh-build footprint).

Every mutation bumps :attr:`~DynamicSearcher.epoch`, the invalidation token
consumed by :class:`~repro.service.cache.QueryCache`.

With ``log_mutations=True`` the searcher additionally keeps an epoch-tagged
**mutation log** — one ``(epoch_after, op, payload)`` entry per explicit
``insert``/``delete``/``compact`` — which the sharded router streams to a
shard's read replicas (:meth:`~DynamicSearcher.mutation_log_tail` /
:meth:`~DynamicSearcher.apply_mutations`).  Automatic compactions inside
:meth:`~DynamicSearcher._bump` are deliberately *not* logged: a replica
replaying the same explicit ops auto-compacts at exactly the same points
(the trigger is a pure function of the op stream and ``compact_interval``),
so primary and replica epochs stay in lockstep entry for entry — which is
what lets the per-shard epoch double as the replica-freshness token.

Exactness: search and top-k results are identical — element for element —
to re-building a fresh ``PassJoinSearcher`` over the surviving records,
because both run the same kernel backend over the same logical collection
and the result ordering is canonical.  The property-based test suite
asserts this equivalence on random interleavings, for both kernels.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..config import PartitionStrategy
from ..core.kernel import SimilarityKernel, resolve_kernel
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

    This class owns mutation, compaction and replication; every query
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
        Largest threshold any query may use, under the kernel's
        semantics (edit distance; scaled Jaccard distance).
    partition:
        Partition strategy for the edit-distance kernel (the paper's even
        scheme by default; other kernels reject non-default values).
    compact_interval:
        Tombstone budget: once this many deleted records are still
        physically present in the index, the next mutation compacts.
        ``0`` compacts on every delete.
    kernel:
        Similarity kernel to serve — a registered name or a
        :class:`~repro.core.kernel.SimilarityKernel` instance; defaults
        to ``edit-distance``.
    log_mutations:
        Keep an epoch-tagged mutation log for replica catch-up (see the
        module docstring).  Off by default — only a shard primary with
        read replicas pays the bookkeeping.

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
                 compact_interval: int = 64,
                 kernel: str | SimilarityKernel | None = None,
                 log_mutations: bool = False) -> None:
        self.kernel = resolve_kernel(kernel)
        self.max_tau = self.kernel.validate_tau(max_tau)
        if (isinstance(compact_interval, bool)
                or not isinstance(compact_interval, int) or compact_interval < 0):
            raise ValueError(f"compact_interval must be a non-negative integer, "
                             f"got {compact_interval!r}")
        self.compact_interval = compact_interval
        self.statistics = JoinStatistics()
        records = as_records(strings)
        self._backend = self.kernel.make_backend(
            self.max_tau, partition=partition, seed=records)
        # live partition key -> number of live records with that key (lets
        # top-k widening skip thresholds no live record can possibly meet).
        self._length_counts: dict[int, int] = {}
        # id -> record still present in the signature index but logically gone.
        self._tombstones: dict[int, StringRecord] = {}
        self._epoch = 0
        self._next_id = 0
        # Epoch-tagged (epoch_after, op, payload) entries for replica
        # catch-up; None when logging is off (the common case).
        self._mutation_log: deque[tuple[int, str, object]] | None = (
            deque() if log_mutations else None)
        self._log_trimmed_through = 0
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
        """Records the kernel cannot index (too short; token-less)."""
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
        self._log("insert", record)
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
        key = self.kernel.record_key(record.text)
        remaining = self._length_counts.get(key, 0) - 1
        if remaining > 0:
            self._length_counts[key] = remaining
        else:
            self._length_counts.pop(key, None)
        self.statistics.num_strings -= 1
        self._bump()
        self._log("delete", record_id)
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
        purged = self._compact()
        if purged:
            self._log("compact", None)
        return purged

    def _compact(self) -> int:
        """The compaction work, without mutation-log bookkeeping.

        :meth:`_bump`'s automatic compaction comes through here so it is
        never logged — a replica replaying the explicit op stream triggers
        the same automatic compactions itself (see the module docstring).
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
        key = self.kernel.record_key(record.text)
        self._length_counts[key] = self._length_counts.get(key, 0) + 1
        self._next_id = max(self._next_id, record.id + 1)
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()

    def _bump(self) -> None:
        self._epoch += 1
        if len(self._tombstones) > self.compact_interval:
            self._compact()
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()

    def _log(self, op: str, payload: object) -> None:
        if self._mutation_log is not None:
            self._mutation_log.append((self._epoch, op, payload))

    # ------------------------------------------------------------------
    # Replication (the router streams these between primary and replicas)
    # ------------------------------------------------------------------
    def mutation_log_tail(self, since_epoch: int,
                          ) -> list[tuple[int, str, object]]:
        """The logged mutations past ``since_epoch``, oldest first.

        The replica catch-up stream: a replica whose applied epoch is
        ``since_epoch`` reaches this searcher's epoch by replaying exactly
        these entries through :meth:`apply_mutations`.  Raises
        ``ValueError`` when logging is off, or when the requested span was
        already trimmed away (the replica is too stale to catch up from
        the log and needs a full rebuild).
        """
        if self._mutation_log is None:
            raise ValueError("mutation logging is disabled on this searcher")
        if since_epoch < self._log_trimmed_through:
            raise ValueError(
                f"mutation log only reaches back to epoch "
                f"{self._log_trimmed_through}; a replica at epoch "
                f"{since_epoch} cannot catch up from it")
        return [entry for entry in self._mutation_log
                if entry[0] > since_epoch]

    def trim_mutation_log(self, upto_epoch: int) -> int:
        """Drop log entries at or below ``upto_epoch``; return the count.

        Called by the router once every replica's applied epoch passed
        ``upto_epoch``, so the log stays bounded by replication lag
        instead of growing with the mutation history.
        """
        log = self._mutation_log
        if log is None:
            return 0
        trimmed = 0
        while log and log[0][0] <= upto_epoch:
            log.popleft()
            trimmed += 1
        if upto_epoch > self._log_trimmed_through:
            self._log_trimmed_through = upto_epoch
        return trimmed

    def apply_mutations(self, entries: Iterable[tuple[int, str, object]],
                        ) -> int:
        """Replay primary log entries on a replica; return how many applied.

        Entries at or below the current epoch are skipped (idempotent
        re-delivery).  After each replayed entry the epoch must land
        exactly on the entry's ``epoch_after`` — logged epochs advance
        deterministically, so any mismatch means this replica diverged
        from its primary, and serving from it could return a stale or
        wrong answer.  Divergence raises ``ValueError``; the router
        responds by marking the replica dead and falling back to the
        primary, never by serving the diverged index.
        """
        applied = 0
        for epoch_after, op, payload in entries:
            if epoch_after <= self._epoch:
                continue
            if op == "insert":
                self.insert(payload)
            elif op == "delete":
                self.delete(payload)
            elif op == "compact":
                self.compact()
            else:
                raise ValueError(f"unknown mutation-log op {op!r}")
            if self._epoch != epoch_after:
                raise ValueError(
                    f"replica diverged from its primary: epoch "
                    f"{self._epoch} after replaying {op!r}, but the "
                    f"primary logged {epoch_after}")
            applied += 1
        return applied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynamicSearcher(live={len(self)}, "
                f"tombstones={len(self._tombstones)}, epoch={self._epoch}, "
                f"kernel={self.kernel.name!r}, max_tau={self.max_tau})")
