"""Sharded serving tier: an elastic fleet of shard workers.

One :class:`~repro.service.dynamic.DynamicSearcher` runs every index pass on
a single thread, so a busy server saturates one core.  This module scales
the serving layer the classic way — partition the collection:

* A consistent-hashing ring (:class:`~repro.service.placement.HashRing`)
  assigns every record to exactly one of ``N`` shards; a resize moves ~1/N
  of the records.  Placement ignores length, so a query probes every shard
  — or none, when no live record's length lies within its window
  ``[|q| − τ, |q| + τ]``.
* Each shard owns a full private :class:`DynamicSearcher` over its records.
  Shards run either **in-process** (the ``thread`` backend — the calling
  thread drives each shard directly; the right choice for tests, 1-CPU
  boxes, and as the scatter-gather reference implementation) or as
  **fork-spawned worker processes** (the ``process`` backend) that receive
  their :class:`ShardContext` through fork-time copy-on-write memory — the
  same "hand the worker an explicit context, pickle nothing" pattern as
  :class:`repro.core.join.JoinRun` — and serve ops over a pipe.
* :class:`ShardRouter` scatter-gathers ``search``/``search_top_k`` across
  the shards and merges under the canonical ``(distance, id)`` ordering.
  Because the shards partition the id space, the merged result list is
  **element identical** to a single unsharded :class:`DynamicSearcher`
  over the same records (property-tested on random interleavings of
  insert/delete/search/resize).  Top-k is that merged threshold search at
  the limit, cut to ``k``.

Live resharding
---------------
:meth:`ShardRouter.add_shard` and :meth:`ShardRouter.remove_shard` resize
the fleet **without stopping the service**.  A resize diffs the old and new
rings into a migration plan — which record ids move from which donor shard
to which recipient — and executes it in bounded batches
(``migration_batch`` records per step) so queries keep being answered
between steps:

* A **copy step** extracts one batch of records from its donor and inserts
  them into the recipient.  Until the matching **release step** deletes
  them from the donor, those records are *dual-present*; queries probe
  every shard — the new one and a retiring one included — and the
  ``(distance, id)`` merge deduplicates by id, so answers stay
  element-identical to an unsharded searcher throughout (the property
  tests drive searches between every step).
* Mutations keep flowing during a migration: inserts place by the **new**
  ring, deletes route to the record's current shard (and eagerly remove a
  dual-present donor copy so it cannot resurface).
* A release step deletes its batch from the donor, which releases the
  donor's store rows at once, so per-shard row counts are back in balance
  when the plan is drained; a retiring shard's worker (``remove_shard``)
  is then closed.

Mutations route to the owning shard and bump that shard's epoch.  The
router mirrors the per-shard epochs in :attr:`ShardRouter.epoch_vector`;
their sum (plus the final epochs of retired shards) is the scalar
:attr:`ShardRouter.epoch` the wire protocol reports, exactly as for an
unsharded searcher.  The serving core's query cache does not key on it:
answers do not depend on placement, so a migration step drops no cached
answer.

Concurrency
-----------
Every worker endpoint carries its own lock, held across one send/recv
exchange, and a scatter takes the locks of its target shards in ascending
shard order — so several caller threads may drive the same router at once
without deadlocking or reading another thread's reply; they only queue per
shard.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..config import SHARD_BACKENDS, validate_threshold
from ..core.join import available_workers
from ..exceptions import ConfigurationError, ServiceError
from ..obs.metrics import funnel_snapshot, merge_snapshots
from ..obs.trace import merge_explain_reports
from ..search.searcher import (SearchMatch, any_key_within, length_window,
                               resolve_query_taus, resolve_top_k)
from ..types import JoinStatistics, StringRecord, as_records
from .dynamic import DynamicSearcher, coerce_insert_record
from .placement import HashRing


def resolve_shard_backend(backend: str) -> str:
    """Resolve the ``shard_backend`` knob to ``"process"`` or ``"thread"``.

    ``process`` requires the ``fork`` start method (the shard contexts ride
    into the workers copy-on-write; with ``spawn`` they would be pickled).
    ``auto`` picks ``process`` only when fork exists, more than one CPU is
    available — on a 1-CPU box worker processes pay IPC and scheduling
    costs for pure time-slicing, so in-process shards are strictly better —
    and the calling process is single-threaded: forking with live threads
    (e.g. from a :class:`~repro.service.server.BackgroundServer` thread)
    can deadlock the child on locks the other threads held at fork time,
    which is why CPython deprecates it.  An explicit ``"process"`` is
    honoured regardless, for callers who know their threads hold no locks.
    """
    if backend not in SHARD_BACKENDS:
        raise ConfigurationError(
            f"shard_backend must be one of {SHARD_BACKENDS}, got {backend!r}")
    fork_available = "fork" in multiprocessing.get_all_start_methods()
    if backend == "process" and not fork_available:
        raise ConfigurationError(
            "shard_backend 'process' requires the fork start method, which "
            "this platform does not provide; use 'thread' or 'auto'")
    if backend != "auto":
        return backend
    return ("process" if fork_available and available_workers() > 1
            and threading.active_count() == 1 else "thread")


# ----------------------------------------------------------------------
# Shard workers
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ShardContext:
    """Everything one shard worker needs to build its private index.

    The sharded analogue of :class:`repro.core.join.JoinRun`: the
    router builds one context per shard and hands it to the worker — through
    fork-time copy-on-write memory for process shards (nothing is pickled),
    as a plain argument for in-process shards.
    """

    records: list[StringRecord]
    max_tau: int

    def build(self) -> DynamicSearcher:
        return DynamicSearcher(self.records, max_tau=self.max_tau)


def _apply_shard_op(searcher: DynamicSearcher, op: str, args: object) -> object:
    """Execute one router op against a shard's searcher (both backends)."""
    if op == "search-many":
        return searcher.search_many([query for query, _ in args],
                                    tau=[tau for _, tau in args])
    if op == "insert":
        return searcher.insert(args)
    if op == "delete":
        return searcher.delete(args)
    if op == "extract":
        # Migration copy step: the live records among the planned ids (a
        # record deleted since planning is silently skipped).
        return searcher.get_many(args)
    if op == "insert-many":
        return searcher.insert_many(args)
    if op == "delete-many":
        return searcher.delete_many(args)
    if op == "records":
        return searcher.records
    if op == "status":
        return {"size": len(searcher),
                "statistics": searcher.statistics,
                "memory": searcher.index_memory()}
    if op == "metrics":
        # A registry snapshot is a plain dict, so it survives the process
        # backend's pipe unchanged and merges in the router.
        return funnel_snapshot(searcher.statistics,
                               memory=searcher.index_memory())
    if op == "explain":
        query, tau = args
        return searcher.explain(query, tau)
    raise ServiceError(f"unknown shard op {op!r}")


class _InProcessShard:
    """Thread-backend shard: the calling thread drives the searcher directly.

    ``send``/``recv`` mimic the pipe protocol of :class:`_ProcessShard` so
    the router's scatter-gather code is backend-agnostic; errors are carried
    to ``recv`` exactly like a pipe reply would carry them.
    """

    backend = "thread"

    def __init__(self, context: ShardContext) -> None:
        self._searcher = context.build()
        self._reply: tuple[str, object, int] | None = None
        self._closed = False
        # Serialises one send/recv exchange per caller thread; see
        # _scatter for the acquisition discipline.
        self.lock = threading.Lock()

    def send(self, op: str, args: object) -> None:
        if self._closed:
            # Mirror the process backend's broken pipe: a closed worker
            # fails at send time on both backends.
            raise ServiceError("shard worker is closed")
        try:
            result = _apply_shard_op(self._searcher, op, args)
        except Exception as error:  # noqa: BLE001 - re-raised by recv()
            self._reply = ("error", error, self._searcher.epoch)
        else:
            self._reply = ("ok", result, self._searcher.epoch)

    def recv(self) -> tuple[object, int]:
        assert self._reply is not None, "recv() before send()"
        status, payload, epoch = self._reply
        self._reply = None
        if status == "error":
            raise payload  # type: ignore[misc]
        return payload, epoch

    def close(self) -> None:
        self._closed = True


def _shard_worker_main(conn, context: ShardContext) -> None:
    """Process-backend worker loop: build the shard index, serve ops.

    Every reply carries the shard's current epoch so the router's mirror
    stays exact.
    """
    searcher = context.build()
    try:
        while True:
            try:
                op, args = conn.recv()
            except (EOFError, OSError):
                break
            if op == "close":
                break
            try:
                result = _apply_shard_op(searcher, op, args)
            except Exception as error:  # noqa: BLE001 - forwarded to router
                try:
                    conn.send(("error", error, searcher.epoch))
                except Exception:  # unpicklable exception object
                    conn.send(("error", ServiceError(repr(error)),
                               searcher.epoch))
            else:
                conn.send(("ok", result, searcher.epoch))
    finally:
        conn.close()


class _ProcessShard:
    """Process-backend shard: a fork-spawned worker serving ops over a pipe."""

    backend = "process"

    def __init__(self, context: ShardContext, mp_context) -> None:
        self.lock = threading.Lock()
        self._conn, child_conn = mp_context.Pipe()
        self._process = mp_context.Process(
            target=_shard_worker_main, args=(child_conn, context), daemon=True)
        self._process.start()
        child_conn.close()

    def send(self, op: str, args: object) -> None:
        try:
            self._conn.send((op, args))
        except (BrokenPipeError, OSError) as error:
            raise ServiceError(f"shard worker died: {error}") from error

    def recv(self) -> tuple[object, int]:
        try:
            status, payload, epoch = self._conn.recv()
        except (EOFError, OSError) as error:
            raise ServiceError(f"shard worker died: {error}") from error
        if status == "error":
            raise payload  # type: ignore[misc]
        return payload, epoch

    def close(self) -> None:
        try:
            self._conn.send(("close", None))
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=5)


# ----------------------------------------------------------------------
# Live migration state
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _LiveMigration:
    """One in-flight fleet resize: the bounded-batch migration plan.

    ``copies`` holds the pending copy steps ``(donor, recipient, ids)``;
    each executed copy appends a matching release step ``(donor, ids)`` to
    ``releases``.  ``dual`` tracks the copied-but-not-released ids (and
    their donor shard): those records are physically present on two shards,
    which the router's merges deduplicate and its deletes clean up eagerly.
    """

    kind: str  # "add-shard" | "remove-shard"
    retiring: int | None  # shard worker to close once the plan is drained
    copies: deque  # of (donor, recipient, list[record_id])
    rows_total: int
    releases: deque = field(default_factory=deque)  # of (donor, list[id])
    dual: dict = field(default_factory=dict)  # record id -> donor shard
    rows_copied: int = 0
    rows_released: int = 0


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ShardRouter:
    """Scatter-gather facade over an elastic fleet of shard workers.

    Duck-types the :class:`DynamicSearcher` surface the serving core uses
    (``search``/``search_top_k``/``insert``/``delete``/``epoch``/
    ``statistics``/``len``), so :class:`SimilarityService` serves
    a sharded collection through the exact same dispatch code.  Results are
    element-identical to a single unsharded searcher over the same records
    — including while an :meth:`add_shard`/:meth:`remove_shard` migration
    is in flight.

    Record ids must be unique across the initial collection (auto-numbered
    plain strings always are); a duplicate raises ``ValueError``, since two
    live records sharing an id could land on different shards and break the
    merge.

    Parameters
    ----------
    strings:
        Initial collection, partitioned across the shards by the
        consistent-hashing ring (:attr:`ring`).
    shards:
        Number of shard workers (>= 1; 1 is a degenerate single shard).
    max_tau:
        Largest per-query threshold, forwarded to every shard index.
    backend:
        ``"thread"`` (in-process), ``"process"`` (fork workers), or
        ``"auto"`` (process on multi-core fork platforms, thread elsewhere).
    migration_batch:
        Records one live-resharding step moves between two shards (bounds
        how long a step blocks queries).

    Examples
    --------
    >>> router = ShardRouter(["vldb", "pvldb", "icde"], shards=2, max_tau=1,
    ...                      backend="thread")
    >>> [m.text for m in router.search("vldb", tau=1)]
    ['vldb', 'pvldb']
    >>> router.add_shard()["shards"]
    3
    >>> [m.text for m in router.search("vldb", tau=1)]
    ['vldb', 'pvldb']
    >>> router.close()
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (), *,
                 shards: int, max_tau: int,
                 backend: str = "auto", migration_batch: int = 256) -> None:
        self.ring = HashRing(shards)  # validates ``shards``
        if (isinstance(migration_batch, bool)
                or not isinstance(migration_batch, int) or migration_batch < 1):
            raise ConfigurationError(
                f"migration_batch must be a positive integer, "
                f"got {migration_batch!r}")
        self.max_tau = validate_threshold(max_tau)
        self.num_shards = shards
        self.backend = resolve_shard_backend(backend)
        self.migration_batch = migration_batch

        per_shard: list[list[StringRecord]] = [[] for _ in range(shards)]
        self._shard_of: dict[int, int] = {}  # live record id -> shard index
        self._length_of: dict[int, int] = {}  # live record id -> length
        self._length_counts: dict[int, int] = {}  # live length -> count
        self._next_id = 0
        for record in as_records(strings):
            if record.id in self._shard_of:
                raise ValueError(
                    f"duplicate id {record.id} in the initial collection: "
                    f"sharded results are only exact over unique ids")
            shard = self.ring.place(record.id)
            per_shard[shard].append(record)
            self._track_live(record.id, record.length, shard)

        self._mp_context = (multiprocessing.get_context("fork")
                            if self.backend == "process" else None)
        self._shards = [
            self._spawn(ShardContext(records=bucket, max_tau=self.max_tau))
            for bucket in per_shard]
        self._epochs = [0] * shards
        # Epochs of retired shards fold into the base so the scalar epoch
        # stays monotone across remove_shard.
        self._epoch_base = 0
        self._migration: _LiveMigration | None = None
        self._last_migration: dict = {}
        self.rows_migrated_total = 0
        self._closed = False

    def _spawn(self, context: ShardContext):
        if self.backend == "process":
            return _ProcessShard(context, self._mp_context)
        return _InProcessShard(context)

    def _track_live(self, record_id: int, length: int, shard: int) -> None:
        self._shard_of[record_id] = shard
        self._length_of[record_id] = length
        self._length_counts[length] = self._length_counts.get(length, 0) + 1
        self._next_id = max(self._next_id, record_id + 1)

    def _untrack_live(self, record_id: int) -> None:
        del self._shard_of[record_id]
        length = self._length_of.pop(record_id)
        remaining = self._length_counts[length] - 1
        if remaining:
            self._length_counts[length] = remaining
        else:
            del self._length_counts[length]

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------
    def _scatter(self, targets: Sequence[int], op: str,
                 args: object) -> list:
        """Send one op (same args) to every target shard; collect replies.

        Both phases run to completion before any error is re-raised: a
        failed send (dead worker) must not stop the reply of an
        already-sent shard from being drained — a process shard's pipe
        must never hold an unread reply, or the next op on that shard
        would silently read this op's stale answer.  Process shards
        overlap their work across the scatter; in-process shards execute
        inline at ``send`` time.

        Every worker's lock is held from its send to its recv.  Because
        ``targets`` is ascending, all threads acquire worker locks in
        shard order — concurrent scatters cannot deadlock, they only
        queue per shard.
        """
        first_error: Exception | None = None
        # Aligned with targets: the worker holding this op, or None when
        # its send failed (its lock is already released).
        sent: list = []
        for shard in targets:
            worker = self._shards[shard]
            worker.lock.acquire()
            try:
                worker.send(op, args)
            except Exception as error:  # noqa: BLE001 - handled below
                worker.lock.release()
                if first_error is None:
                    first_error = error
                worker = None
            sent.append(worker)
        payloads: list = []
        for shard, worker in zip(targets, sent):
            if worker is None:
                payloads.append(None)
                continue
            try:
                payload, epoch = worker.recv()
            except Exception as error:  # noqa: BLE001 - handled below
                if first_error is None:
                    first_error = error
                payloads.append(None)
            else:
                self._epochs[shard] = epoch
                payloads.append(payload)
            finally:
                worker.lock.release()
        if first_error is not None:
            raise first_error
        return payloads

    def _call(self, shard: int, op: str, args: object) -> object:
        return self._scatter((shard,), op, args)[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shard_of)

    @property
    def epoch(self) -> int:
        """Scalar mutation counter: retired plus live per-shard epochs.

        Monotone — each shard epoch only grows, and a removed shard's
        final epoch folds into a base term instead of vanishing — and
        moved by every mutation and by every migration step that moves
        rows; it serves the wire protocol's ``epoch`` field.
        """
        return self._epoch_base + sum(self._epochs)

    @property
    def epoch_vector(self) -> tuple[int, ...]:
        """Per-shard mutation counters, in shard order."""
        return tuple(self._epochs)

    @property
    def records(self) -> list[StringRecord]:
        """The live records across all shards, ordered by id (a snapshot).

        During a migration a moving record is briefly present on both its
        donor and its recipient; the two copies are identical and are
        collapsed here, exactly as the query merges collapse them.
        """
        gathered = self._scatter(range(self.num_shards), "records", None)
        merged = {record.id: record
                  for bucket in gathered for record in bucket}
        return [merged[record_id] for record_id in sorted(merged)]

    @property
    def statistics(self) -> JoinStatistics:
        """Aggregated per-shard :class:`JoinStatistics` (computed on demand)."""
        return self.status_summary()["statistics"]

    def shard_status(self) -> list[dict]:
        """Per-shard ``{"size", "statistics", "memory"}`` snapshots."""
        return self._scatter(range(self.num_shards), "status", None)

    def status_summary(self) -> dict:
        """Fleet-wide merged statistics and memory in one scatter.

        The single aggregation point over :meth:`shard_status` — callers
        needing several of these values (the service ``stats`` op) pay one
        round of shard IPC instead of one per property.  ``memory`` sums
        the per-shard columnar-index figures; ``shard_memory`` keeps the
        per-shard breakdown for the sharded ``stats`` payload.
        """
        merged = JoinStatistics()
        memory: dict[str, int] = {}
        shard_memory: list[dict[str, int]] = []
        for status in self.shard_status():
            merged = merged.merge(status["statistics"])
            shard_memory.append(status["memory"])
            for field_name, value in status["memory"].items():
                memory[field_name] = memory.get(field_name, 0) + value
        return {"statistics": merged, "memory": memory,
                "shard_memory": shard_memory}

    def index_memory(self) -> dict[str, int]:
        """Summed per-shard columnar-index memory figures (one scatter)."""
        return self.status_summary()["memory"]

    def metrics_snapshot(self) -> dict:
        """Fleet-wide engine funnel metrics in one scatter.

        Each shard renders its :class:`~repro.types.JoinStatistics` (plus
        columnar index memory) as a registry snapshot — a plain dict that
        rides the process backend's pipe unchanged — and the router sums
        them with :func:`~repro.obs.metrics.merge_snapshots`, following the
        :meth:`status_summary` one-scatter aggregation pattern.  Returns
        ``{"merged": ..., "per_shard": [...]}`` so the ``metrics`` wire op
        can expose both the fleet total and the per-shard breakdown.
        """
        per_shard = self._scatter(range(self.num_shards), "metrics", None)
        return {"merged": merge_snapshots(per_shard), "per_shard": per_shard}

    def shard_sizes(self) -> list[int]:
        """Number of live records per shard (placement balance check)."""
        sizes = [0] * self.num_shards
        for shard in self._shard_of.values():
            sizes[shard] += 1
        return sizes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, text: str | StringRecord, *, id: int | None = None) -> int:
        """Add one string to its owning shard; return its id.

        Same id semantics as :meth:`DynamicSearcher.insert`: auto-assigned
        one above the largest ever seen unless given, inserting a live id
        raises ``ValueError``, re-using a deleted id is allowed.  While
        a migration is in flight, placement follows the **new** map — the
        fleet layout the migration is moving towards.
        """
        record = coerce_insert_record(text, id, self._next_id)
        if record.id in self._shard_of:
            raise ValueError(f"id {record.id} is already in the collection")
        shard = self.ring.place(record.id)
        self._call(shard, "insert", record)
        self._track_live(record.id, record.length, shard)
        return record.id

    def delete(self, record_id: int) -> bool:
        """Delete one record from its owning shard; False when not live.

        A record that is dual-present mid-migration (copied to its
        recipient, not yet released from its donor) is deleted from both
        shards, so the donor copy cannot resurface in later searches.
        """
        shard = self._shard_of.get(record_id)
        if shard is None:
            return False
        deleted = self._call(shard, "delete", record_id)
        if deleted:
            self._untrack_live(record_id)
            migration = self._migration
            if migration is not None:
                donor = migration.dual.pop(record_id, None)
                if donor is not None:
                    self._call(donor, "delete", record_id)
        return bool(deleted)

    # ------------------------------------------------------------------
    # Live resharding
    # ------------------------------------------------------------------
    def add_shard(self, *, drain: bool = True) -> dict:
        """Grow the fleet by one empty shard and rebalance onto it.

        Starts a live migration from the current ring to the ring over
        ``num_shards + 1`` workers.  With ``drain=True``
        (default) the whole plan executes before returning; with
        ``drain=False`` it is left in flight for :meth:`migration_step` —
        queries and mutations remain fully available either way.  Returns
        :meth:`rebalance_status`.
        """
        self._require_idle()
        self._shards.append(self._spawn(ShardContext(records=[],
                                                     max_tau=self.max_tau)))
        self._epochs.append(0)
        self.num_shards += 1
        self._start_migration("add-shard", retiring=None)
        if drain:
            self.drain_migration()
        return self.rebalance_status()

    def remove_shard(self, shard: int | None = None, *,
                     drain: bool = True) -> dict:
        """Shrink the fleet by retiring its highest-numbered shard.

        Streams every record off the retiring shard onto the survivors (on
        the ring nothing moves between surviving shards) before closing its
        worker.  Only the last shard can be retired: lower shard indices
        must stay stable because the ring addresses shards by index.
        ``drain`` as in :meth:`add_shard`.
        """
        self._require_idle()
        if self.num_shards <= 1:
            raise ServiceError("cannot remove the only shard")
        last = self.num_shards - 1
        if shard is not None and shard != last:
            raise ServiceError(
                f"only the highest-numbered shard can be removed "
                f"(got {shard}, expected {last}); lower shard indices must "
                f"stay stable for the ring")
        self._start_migration("remove-shard", retiring=last)
        if drain:
            self.drain_migration()
        return self.rebalance_status()

    def migration_step(self) -> dict:
        """Run one bounded migration action; return :meth:`rebalance_status`.

        Either copies one batch of records from a donor to its recipient
        (after which those records are dual-present and queries dedupe
        them) or releases one already-copied batch from its donor.  A
        no-op when no migration is active.  A release step frees the moved
        rows from the donor's record store; the last step, for
        ``remove-shard``, closes the retiring worker.
        """
        migration = self._migration
        if migration is None:
            return self.rebalance_status()
        if migration.copies:
            donor, recipient, planned = migration.copies.popleft()
            # Re-validate the plan against the present: skip records the
            # caller deleted since planning (a deleted id re-inserted since
            # already sits where the new ring wants it).
            ids = [record_id for record_id in planned
                   if self._shard_of.get(record_id) == donor]
            if ids:
                records = self._call(donor, "extract", ids)
                self._call(recipient, "insert-many", records)
                moved = []
                for record in records:
                    moved.append(record.id)
                    self._shard_of[record.id] = recipient
                    migration.dual[record.id] = donor
                migration.rows_copied += len(moved)
                migration.releases.append((donor, moved))
        elif migration.releases:
            donor, copied = migration.releases.popleft()
            pending = [record_id for record_id in copied
                       if migration.dual.pop(record_id, None) is not None]
            if pending:
                self._call(donor, "delete-many", pending)
            migration.rows_released += len(pending)
        if not migration.copies and not migration.releases:
            self._finish_migration()
        return self.rebalance_status()

    def drain_migration(self) -> dict:
        """Run migration steps until no migration is active."""
        while self._migration is not None:
            self.migration_step()
        return self.rebalance_status()

    def rebalance_status(self) -> dict:
        """Progress of the in-flight (or summary of the last) migration."""
        status = {
            "active": self._migration is not None,
            "shards": self.num_shards,
            "rows_migrated_total": self.rows_migrated_total,
        }
        migration = self._migration
        if migration is not None:
            status.update(
                kind=migration.kind, rows_total=migration.rows_total,
                rows_copied=migration.rows_copied,
                rows_released=migration.rows_released,
                steps_left=len(migration.copies) + len(migration.releases))
        else:
            status.update(self._last_migration)
        return status

    def _require_idle(self) -> None:
        if self._migration is not None:
            raise ServiceError(
                "a resharding migration is already in flight; poll "
                "rebalance-status until it completes")

    def _start_migration(self, kind: str, retiring: int | None) -> None:
        """Diff the old ring against the resized one into bounded copy
        batches; activate."""
        self.ring = HashRing(self.num_shards if retiring is None else retiring)
        moves: dict[tuple[int, int], list[int]] = {}
        for record_id, shard in self._shard_of.items():
            target = self.ring.place(record_id)
            if target != shard:
                moves.setdefault((shard, target), []).append(record_id)
        copies: deque = deque()
        rows_total = 0
        for donor, recipient in sorted(moves):
            ids = sorted(moves[(donor, recipient)])
            rows_total += len(ids)
            for start in range(0, len(ids), self.migration_batch):
                copies.append((donor, recipient,
                               ids[start:start + self.migration_batch]))
        self._migration = _LiveMigration(
            kind=kind, retiring=retiring, copies=copies,
            rows_total=rows_total)
        if not copies:
            self._finish_migration()

    def _finish_migration(self) -> None:
        migration = self._migration
        assert migration is not None
        assert not migration.dual, "dual-present records left behind"
        if migration.retiring is not None:
            donor = migration.retiring
            assert donor == self.num_shards - 1
            self._shards[donor].close()
            del self._shards[donor]
            self._epoch_base += self._epochs[donor]
            del self._epochs[donor]
            self.num_shards -= 1
        self.rows_migrated_total += migration.rows_copied
        self._migration = None
        self._last_migration = {
            "kind": migration.kind, "rows_total": migration.rows_total,
            "rows_copied": migration.rows_copied,
            "rows_released": migration.rows_released}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _probe_targets(self, query: str, tau: int) -> range:
        """Shards a query must scatter to right now: all of them, or none.

        The probe set is empty when no live record's length falls inside
        the query's window ``[|q| − τ, |q| + τ]`` — a match is impossible
        on the length filter alone, so the query is answered ``[]``
        without touching any shard.  Otherwise it is every shard: the ring
        ignores length, and during a migration ``range(num_shards)``
        already covers both a new shard and a retiring one.
        """
        lo, hi = length_window(query, tau)
        if not any_key_within(self._length_counts, lo, hi):
            return range(0)
        return range(self.num_shards)

    def _merge(self, gathered: Iterable[Sequence[SearchMatch]],
               ) -> list[SearchMatch]:
        """Merge per-shard result lists under ``(distance, id)``.

        Outside a migration the shards partition the id space, so plain
        concatenation loses nothing and duplicates nothing.  During a
        migration a dual-present record is probed on both its donor and
        its recipient with identical ``(distance, id, text)``; the merge
        drops the second copy, keeping results element-identical to an
        unsharded searcher.
        """
        merged = [match for bucket in gathered for match in bucket]
        merged.sort(key=SearchMatch.sort_key)
        if self._migration is not None:
            seen: set[int] = set()
            merged = [match for match in merged
                      if match.id not in seen and not seen.add(match.id)]
        return merged

    def search(self, query: str, tau: int | None = None) -> list[SearchMatch]:
        """Scatter a threshold search, merge under ``(distance, id)``:
        the one-query case of :meth:`search_many`."""
        return self.search_many([query], [tau])[0]

    def explain(self, query: str, tau: int | None = None) -> dict:
        """Scatter a traced probe; merge the per-shard explain reports.

        Each probed shard runs :meth:`DynamicSearcher.explain
        <repro.service.dynamic.DynamicSearcher.explain>` and the reports
        are merged with :func:`~repro.obs.trace.merge_explain_reports`:
        funnel and per-length counters are summed, matches follow the same
        ``(distance, id)`` merge (with mid-migration id dedup) as
        :meth:`search`, and the raw per-shard reports are kept under
        ``"shards"``.  A query whose probe set is empty returns a zeroed
        report without touching any shard — mirroring the :meth:`search`
        fast path.
        """
        (tau,) = resolve_query_taus([query], [tau], self.max_tau)
        gathered = self._scatter(self._probe_targets(query, tau), "explain",
                                 (query, tau))
        return merge_explain_reports(query, tau, gathered)

    def search_many(self, queries: Sequence[str],
                    tau: int | Sequence[int | None] | None = None,
                    ) -> list[list[SearchMatch]]:
        """Answer a batch of threshold searches in one scatter round.

        Every shard receives the same sub-batch — the queries whose probe
        set is not empty — runs its own
        :meth:`DynamicSearcher.search_many
        <repro.service.dynamic.DynamicSearcher.search_many>` pass, and the
        router merges the per-shard answers under the canonical
        ``(distance, id)`` ordering.  Results are element-identical to the
        unsharded batch (and therefore to per-query :meth:`search` calls);
        queries whose probe set is empty stay ``[]`` without scattering.
        """
        taus = resolve_query_taus(queries, tau, self.max_tau)
        positions = [position for position, (query, query_tau)
                     in enumerate(zip(queries, taus))
                     if self._probe_targets(query, query_tau)]
        per_query: list[list[Sequence[SearchMatch]]] = [[] for _ in queries]
        if positions:
            gathered = self._scatter(
                range(self.num_shards), "search-many",
                tuple((queries[position], taus[position])
                      for position in positions))
            for bucket in gathered:
                for position, matches in zip(positions, bucket):
                    per_query[position].append(matches)
        return [self._merge(buckets) for buckets in per_query]

    def search_top_k(self, query: str, k: int,
                     max_tau: int | None = None) -> list[SearchMatch]:
        """The global top-k of one query: the one-query case of
        :meth:`search_top_k_many`."""
        return self.search_top_k_many([query], k, max_tau)[0]

    def search_top_k_many(self, queries: Sequence[str], k: int,
                          max_tau: int | None = None,
                          ) -> list[list[SearchMatch]]:
        """Top-k for a batch: :meth:`search_many` at the limit, cut to k.

        The merged threshold search is sorted by ``(distance, id)`` and
        element-identical to the unsharded one, so its first ``k`` matches
        are the unsharded top-k.  ``k`` is validated before any scatter.
        Each shard counts every match within the limit in its
        ``num_results``, before the router's cut.
        """
        limit = resolve_top_k(k, max_tau, self.max_tau)
        return [matches[:k] for matches in self.search_many(queries, limit)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shard workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardRouter(shards={self.num_shards}, "
                f"backend={self.backend!r}, "
                f"live={len(self)}, max_tau={self.max_tau})")
