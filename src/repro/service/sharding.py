"""Sharded serving tier: an elastic fleet of shard workers.

One :class:`~repro.service.dynamic.DynamicSearcher` runs every index pass on
a single thread, so a busy server saturates one core.  This module scales
the serving layer the classic way — partition the collection:

* A **placement map** (:mod:`repro.service.placement`) assigns every record
  to exactly one of ``N`` shards and every query to the subset of shards it
  must probe.  ``hash`` is a consistent-hashing ring (uniform load,
  scatter-all queries, resizes move ~1/N of the records), ``length`` places
  by splittable length bands (a query only touches the shards whose bands
  intersect ``[|q| − τ, |q| + τ]``), ``modulo`` is the legacy ``id % N``
  map.
* Each shard owns a full private :class:`DynamicSearcher` over its records.
  Shards run either **in-process** (the ``thread`` backend — the calling
  thread drives each shard directly; the right choice for tests, 1-CPU
  boxes, and as the scatter-gather reference implementation) or as
  **fork-spawned worker processes** (the ``process`` backend) that receive
  their :class:`ShardContext` through fork-time copy-on-write memory — the
  same "hand the worker an explicit context, pickle nothing" pattern as
  :class:`repro.core.join.JoinRun` — and serve ops over a pipe.
* :class:`ShardRouter` scatter-gathers ``search``/``search_top_k`` across
  the shards a query can touch and merges under the canonical
  ``(distance, id)`` ordering.  Because the shards partition the id space,
  the merged result list is **element identical** to a single unsharded
  :class:`DynamicSearcher` over the same records (property-tested on random
  interleavings of insert/delete/search/resize).  Top-k merges the
  per-shard top-k lists: any global top-k member must be in its own shard's
  top-k, so the union provably covers the global answer.

Live resharding
---------------
:meth:`ShardRouter.add_shard` and :meth:`ShardRouter.remove_shard` resize
the fleet **without stopping the service**.  A resize diffs the old and new
placement maps into a migration plan — which record ids move from which
donor shard to which recipient — and executes it in bounded batches
(``migration_batch`` records per step) so queries keep being answered
between steps:

* A **copy step** extracts one batch of records from its donor and inserts
  them into the recipient.  Until the matching **release step** deletes
  them from the donor, those records are *dual-present*; queries probe the
  union of the old and new maps' probe sets and the ``(distance, id)``
  merge deduplicates by id, so answers stay element-identical to an
  unsharded searcher throughout (the property tests drive searches between
  every step).
* Mutations keep flowing during a migration: inserts place by the **new**
  map, deletes route to the record's current shard (and eagerly remove a
  dual-present donor copy so it cannot resurface).
* When the plan is drained the donors are compacted — tombstoned store
  rows are physically released, so per-shard row counts return to balance
  — and a retiring shard's worker (``remove_shard``) is closed.

Mutations route to the owning shard and bump only that shard's epoch.  The
router mirrors the per-shard epochs in :attr:`ShardRouter.epoch_vector`;
:meth:`ShardRouter.epoch_token` returns the placement generation plus the
epochs of exactly the shards a query key probes, which the serving core
folds into its cache key — a mutation on one shard invalidates exactly the
cached queries that probe it, and a resize (which changes probe sets) bumps
the generation so no cached answer can outlive a placement change.

Read replicas
-------------
``replicas_per_shard=N`` gives every shard ``N`` **read replicas**: extra
workers built from the same :class:`ShardContext` (fork-time copy-on-write
for the process backend, exactly like the primaries) that each hold a full
copy of their shard's index.  The primary keeps an epoch-tagged mutation
log (:meth:`DynamicSearcher.mutation_log_tail
<repro.service.dynamic.DynamicSearcher.mutation_log_tail>`); after every
mutation the router ships the log tail to the shard's replicas, which
replay it and report their ``applied_epoch`` back.

Freshness is enforced with the machinery that already keys the query
cache: a read (the ``search-many``/``top-k-many`` worker ops every query
method scatters) may be served by a replica **only** when its applied
epoch equals the router's epoch mirror for that shard — the same per-shard
epoch that :meth:`ShardRouter.epoch_token` folds into cache keys.  A
lagging, dead, or diverged replica is silently bypassed in favour of the
primary (and a replica that fails mid-read is marked dead and the read
retried on the primary), so
replicated answers are element-identical to an unsharded searcher under
any interleaving of mutations, resizes, and replica faults — a stale
answer is structurally impossible, the replicas only ever *add* capacity.
Writes always route to the primary.  Reads rotate across the fresh
replicas (and their primary) via
:class:`~repro.service.placement.ReplicaReadSchedule`; every worker
endpoint carries its own lock held across one send/recv exchange, so
multiple caller threads can drive reads against different endpoints of
the same shard concurrently — the mechanism behind the replica read
throughput benchmark (``benchmarks/bench_replica_throughput.py``).
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..config import (DEFAULT_KERNEL, SHARD_BACKENDS, SHARD_POLICIES,
                      PartitionStrategy)
from ..core.join import available_workers
from ..core.kernel import (SimilarityKernel, check_batch_kernels,
                           resolve_kernel)
from ..exceptions import ConfigurationError, ServiceError
from ..obs.metrics import funnel_snapshot, merge_snapshots
from ..obs.trace import merge_explain_reports
from ..search.searcher import (SearchMatch, any_key_within, resolve_query_taus,
                               resolve_top_k)
from ..types import JoinStatistics, StringRecord, as_records
from .dynamic import DynamicSearcher, coerce_insert_record
from .placement import (PlacementMap, ReplicaReadSchedule,
                        make_placement_map)


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
    partition: PartitionStrategy
    compact_interval: int
    kernel: str = DEFAULT_KERNEL
    #: True on a shard primary with read replicas: the primary keeps the
    #: epoch-tagged mutation log its replicas catch up from.  Replicas are
    #: built from the same context with this flag stripped.
    log_mutations: bool = False

    def build(self) -> DynamicSearcher:
        return DynamicSearcher(self.records, max_tau=self.max_tau,
                               partition=self.partition,
                               compact_interval=self.compact_interval,
                               kernel=self.kernel,
                               log_mutations=self.log_mutations)


def _apply_shard_op(searcher: DynamicSearcher, op: str, args: object) -> object:
    """Execute one router op against a shard's searcher (both backends)."""
    if op == "search-many":
        return searcher.search_many([query for query, _ in args],
                                    tau=[tau for _, tau in args])
    if op == "top-k-many":
        queries, k, limit = args
        return searcher.search_top_k_many(list(queries), k, limit)
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
    if op == "compact":
        return searcher.compact()
    if op == "records":
        return searcher.records
    if op == "status":
        return {"size": len(searcher),
                "tombstones": searcher.tombstone_count,
                "statistics": searcher.statistics,
                "memory": searcher.index_memory()}
    if op == "metrics":
        # A registry snapshot is a plain dict, so it survives the process
        # backend's pipe unchanged and merges in the router.
        return funnel_snapshot(searcher.statistics,
                               memory=searcher.index_memory(),
                               kernel=searcher.kernel.name)
    if op == "explain":
        query, tau = args
        return searcher.explain(query, tau)
    if op == "log-tail":
        # Primary only: the mutation entries a replica needs to catch up.
        return searcher.mutation_log_tail(args)
    if op == "log-trim":
        # Primary only: every replica passed this epoch, drop the prefix.
        return searcher.trim_mutation_log(args)
    if op == "apply-log":
        # Replica only: replay a primary log tail; the standard reply
        # epoch then reports the replica's new applied epoch.
        return searcher.apply_mutations(args)
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
        # _scatter_each for the acquisition discipline.
        self.lock = threading.Lock()

    def send(self, op: str, args: object) -> None:
        if self._closed:
            # Mirror the process backend's broken pipe: a stopped worker
            # fails at send time, so replica fault handling is
            # backend-agnostic.
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
    stays exact even when a delete triggers an automatic compaction inside
    the worker (which moves the epoch twice in one op).
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
# Read replicas
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _ReplicaState:
    """One read replica of a shard: its worker plus replication progress.

    ``applied_epoch`` is the epoch the replica's index reached by
    replaying the primary's mutation log; the replica may serve reads only
    while it equals the router's epoch mirror for the shard.  ``alive``
    goes (permanently) False when the worker fails or is stopped — a dead
    replica is never read from and never synced again, the primary simply
    carries its share of the read load.
    """

    worker: object  # _InProcessShard | _ProcessShard
    applied_epoch: int = 0
    alive: bool = True


#: Ops a fresh replica may serve.  Everything else — mutations, migration
#: plumbing, status/metrics/records introspection — routes to the primary.
_READ_OPS = frozenset({"search-many", "top-k-many"})

#: Ops that move a shard's epoch: after one of these lands on a primary,
#: the router ships the new mutation-log tail to that shard's replicas.
_MUTATING_OPS = frozenset(
    {"insert", "delete", "insert-many", "delete-many", "compact"})


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
    old_policy: PlacementMap
    retiring: int | None  # shard worker to close once the plan is drained
    copies: deque  # of (donor, recipient, list[record_id])
    donors: frozenset[int]
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
    (``search``/``search_top_k``/``insert``/``delete``/``compact``/
    ``epoch``/``statistics``/``len``), so :class:`SimilarityService` serves
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
        Initial collection, partitioned across the shards by ``policy``.
    shards:
        Number of shard workers (>= 1; 1 is a degenerate single shard).
    max_tau:
        Largest per-query threshold, forwarded to every shard index.
    policy:
        ``"hash"`` (consistent-hashing ring, scatter-all), ``"length"``
        (length bands, queries touch only intersecting shards), or
        ``"modulo"`` (legacy ``id % N``).
    backend:
        ``"thread"`` (in-process), ``"process"`` (fork workers), or
        ``"auto"`` (process on multi-core fork platforms, thread elsewhere).
    migration_batch:
        Records one live-resharding step moves between two shards (bounds
        how long a step blocks queries).
    replicas_per_shard:
        Read replicas per shard (>= 0; 0 — the default — disables
        replication entirely).  See the module docstring's *Read
        replicas* section for the freshness contract.

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
                 partition: PartitionStrategy = PartitionStrategy.EVEN,
                 compact_interval: int = 64, policy: str = "hash",
                 backend: str = "auto", migration_batch: int = 256,
                 kernel: str | SimilarityKernel | None = None,
                 replicas_per_shard: int = 0) -> None:
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise ConfigurationError(
                f"shards must be a positive integer, got {shards!r}")
        if (isinstance(migration_batch, bool)
                or not isinstance(migration_batch, int) or migration_batch < 1):
            raise ConfigurationError(
                f"migration_batch must be a positive integer, "
                f"got {migration_batch!r}")
        if (isinstance(replicas_per_shard, bool)
                or not isinstance(replicas_per_shard, int)
                or replicas_per_shard < 0):
            raise ConfigurationError(
                f"replicas_per_shard must be a non-negative integer, "
                f"got {replicas_per_shard!r}")
        self.kernel = resolve_kernel(kernel)
        self.max_tau = self.kernel.validate_tau(max_tau)
        self.num_shards = shards
        self.policy = make_placement_map(policy, shards, self.max_tau)
        self.backend = resolve_shard_backend(backend)
        self.migration_batch = migration_batch
        self._partition = partition
        self._compact_interval = compact_interval

        per_shard: list[list[StringRecord]] = [[] for _ in range(shards)]
        self._shard_of: dict[int, int] = {}  # live record id -> shard index
        # live record id -> partition key under the kernel (text length for
        # edit distance, token-set size for token-jaccard).
        self._length_of: dict[int, int] = {}
        self._length_counts: dict[int, int] = {}  # live key -> record count
        self._next_id = 0
        for record in as_records(strings):
            if record.id in self._shard_of:
                raise ValueError(
                    f"duplicate id {record.id} in the initial collection: "
                    f"sharded results are only exact over unique ids")
            key = self.kernel.record_key(record.text)
            shard = self.policy.place(record.id, key)
            per_shard[shard].append(record)
            self._track_live(record.id, key, shard)

        self._mp_context = (multiprocessing.get_context("fork")
                            if self.backend == "process" else None)
        self.replicas_per_shard = replicas_per_shard
        contexts = [ShardContext(records=bucket, max_tau=self.max_tau,
                                 partition=partition,
                                 compact_interval=compact_interval,
                                 kernel=self.kernel.name,
                                 log_mutations=replicas_per_shard > 0)
                    for bucket in per_shard]
        self._shards = [self._spawn(context) for context in contexts]
        # Per-shard replica pools (empty lists when replication is off,
        # so every indexing path stays uniform).
        self._replicas: list[list[_ReplicaState]] = [
            self._spawn_replicas(context) for context in contexts]
        self._read_schedule = ReplicaReadSchedule()
        # Guards the read-schedule cursors and replica counters — the only
        # router state concurrent reader threads mutate besides the
        # per-worker locks.
        self._read_lock = threading.Lock()
        self._replication_paused = False
        self.replica_reads = 0
        self.replica_fallbacks = 0
        self._epochs = [0] * shards
        # Epochs of retired shards fold into the base so the scalar epoch
        # stays monotone across remove_shard.
        self._epoch_base = 0
        # Placement generation: bumped when a migration starts and when it
        # finishes, i.e. whenever any query's probe set may change.  Part
        # of every cache token, so cached answers never survive a resize.
        self._generation = 0
        self._migration: _LiveMigration | None = None
        self._last_migration: dict = {}
        self.rows_migrated_total = 0
        self._closed = False

    def _spawn(self, context: ShardContext):
        if self.backend == "process":
            return _ProcessShard(context, self._mp_context)
        return _InProcessShard(context)

    def _spawn_replicas(self, context: ShardContext) -> list[_ReplicaState]:
        """Spawn the replica pool for one shard (its primary's context).

        Replicas build from the same records — copy-on-write under the
        process backend — but never log mutations themselves: they are
        consumers of the primary's log, not producers.
        """
        replica_context = replace(context, log_mutations=False)
        return [_ReplicaState(self._spawn(replica_context))
                for _ in range(self.replicas_per_shard)]

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
        """Send one op (same args) to every target shard; collect replies."""
        return self._scatter_each(targets, op, [args] * len(targets))

    def _scatter_each(self, targets: Sequence[int], op: str,
                      args_list: Sequence[object]) -> list:
        """Send one op with per-shard args, then collect every reply.

        ``args_list`` is aligned with ``targets`` (the batch executor
        sends each shard only the sub-batch of queries that probe it).
        Both phases run to completion before any error is re-raised: a
        failed send (dead worker) must not stop the reply of an
        already-sent shard from being drained — a process shard's pipe
        must never hold an unread reply, or the next op on that shard
        would silently read this op's stale answer.  Process shards
        overlap their work across the scatter; in-process shards execute
        inline at ``send`` time.

        Read ops may be served by a fresh replica instead of the primary
        (:meth:`_read_endpoint`); a replica that fails mid-exchange is
        marked dead and the read retried on its primary — reads are pure,
        so the retry is safe and the caller never observes the fault.
        Every endpoint's lock is held from its send to its recv.  Because
        ``targets`` is ascending and every endpoint belongs to exactly one
        shard, all threads acquire endpoint locks in shard order —
        concurrent scatters cannot deadlock, they only queue per endpoint.

        After a mutating op the affected shards' replicas are synced
        (unless replication is paused), so replicas regain freshness —
        and with it read eligibility — immediately.
        """
        first_error: Exception | None = None
        serve_from_replica = op in _READ_OPS and self.replicas_per_shard > 0
        # Aligned with targets: (endpoint worker, _ReplicaState | None for
        # a primary, send succeeded).
        exchanges: list[tuple[object, _ReplicaState | None, bool]] = []
        for shard, args in zip(targets, args_list):
            if serve_from_replica:
                worker, replica = self._read_endpoint(shard)
            else:
                worker, replica = self._shards[shard], None
            worker.lock.acquire()
            try:
                worker.send(op, args)
            except Exception as error:  # noqa: BLE001 - handled below
                worker.lock.release()
                if replica is not None:
                    # Dead replica: demote it and re-send on the primary.
                    self._mark_replica_dead(replica)
                    worker, replica = self._shards[shard], None
                    worker.lock.acquire()
                    try:
                        worker.send(op, args)
                    except Exception as primary_error:  # noqa: BLE001
                        worker.lock.release()
                        if first_error is None:
                            first_error = primary_error
                        exchanges.append((worker, None, False))
                        continue
                    exchanges.append((worker, None, True))
                    continue
                if first_error is None:
                    first_error = error
                exchanges.append((worker, None, False))
                continue
            exchanges.append((worker, replica, True))
        payloads: list = []
        for (worker, replica, was_sent), shard, args in zip(
                exchanges, targets, args_list):
            if not was_sent:
                payloads.append(None)
                continue
            try:
                payload, epoch = worker.recv()
            except Exception as error:  # noqa: BLE001 - handled below
                worker.lock.release()
                if replica is not None:
                    self._mark_replica_dead(replica)
                    try:
                        payloads.append(self._primary_retry(shard, op, args))
                    except Exception as retry_error:  # noqa: BLE001
                        if first_error is None:
                            first_error = retry_error
                        payloads.append(None)
                    continue
                if first_error is None:
                    first_error = error
                payloads.append(None)
            else:
                worker.lock.release()
                if replica is None:
                    self._epochs[shard] = epoch
                else:
                    replica.applied_epoch = epoch
                payloads.append(payload)
        if first_error is not None:
            raise first_error
        if op in _MUTATING_OPS and self.replicas_per_shard > 0:
            for shard in dict.fromkeys(targets):
                self._sync_replicas(shard)
        return payloads

    def _primary_retry(self, shard: int, op: str, args: object) -> object:
        """Re-run one read on the shard primary after a replica fault."""
        worker = self._shards[shard]
        with worker.lock:
            worker.send(op, args)
            payload, epoch = worker.recv()
        self._epochs[shard] = epoch
        return payload

    def _call(self, shard: int, op: str, args: object) -> object:
        return self._scatter((shard,), op, args)[0]

    # ------------------------------------------------------------------
    # Read replicas
    # ------------------------------------------------------------------
    def _read_endpoint(self, shard: int,
                       ) -> tuple[object, _ReplicaState | None]:
        """The worker that should serve a read on ``shard`` right now.

        Eligible replicas are the alive ones whose applied epoch equals
        the router's epoch mirror — the same per-shard epoch
        :meth:`epoch_token` folds into cache keys, here acting as the
        replica-freshness token.  The read schedule rotates across them;
        with none eligible the primary serves (counted as a fallback when
        the shard does have replicas configured).
        """
        pool = self._replicas[shard]
        if pool:
            current = self._epochs[shard]
            fresh = [index for index, replica in enumerate(pool)
                     if replica.alive and replica.applied_epoch == current]
            with self._read_lock:
                choice = self._read_schedule.choose(shard, fresh)
                if choice is not None:
                    self.replica_reads += 1
                else:
                    self.replica_fallbacks += 1
            if choice is not None:
                return pool[choice].worker, pool[choice]
        return self._shards[shard], None

    def _mark_replica_dead(self, replica: _ReplicaState) -> None:
        replica.alive = False
        with self._read_lock:
            self.replica_fallbacks += 1

    def _sync_replicas(self, shard: int) -> None:
        """Ship the primary's mutation-log tail to the shard's replicas.

        Called after every mutation that lands on ``shard``.  Each stale
        replica replays exactly the entries past its own applied epoch;
        a replica that fails (or whose replay detects divergence) is
        marked dead, never served from again.  Afterwards the log is
        trimmed to the slowest alive replica's epoch, keeping it bounded
        by replication lag.  A no-op while replication is paused — the
        lag-injection hook the property tests use — and for shards
        without replicas.
        """
        pool = self._replicas[shard]
        if not pool or self._replication_paused:
            return
        target_epoch = self._epochs[shard]
        stale = [replica for replica in pool
                 if replica.alive and replica.applied_epoch < target_epoch]
        if stale:
            oldest = min(replica.applied_epoch for replica in stale)
            entries = self._call(shard, "log-tail", oldest)
            for replica in stale:
                tail = [entry for entry in entries
                        if entry[0] > replica.applied_epoch]
                try:
                    with replica.worker.lock:
                        replica.worker.send("apply-log", tail)
                        _, epoch = replica.worker.recv()
                except Exception:  # noqa: BLE001 - replica is demoted
                    self._mark_replica_dead(replica)
                    continue
                replica.applied_epoch = epoch
        floor = min((replica.applied_epoch
                     for replica in pool if replica.alive),
                    default=target_epoch)
        self._call(shard, "log-trim", floor)

    def pause_replication(self) -> None:
        """Stop shipping mutations to replicas until :meth:`resume_replication`.

        Mutations keep flowing to the primaries; replicas simply fall
        behind, lose read eligibility, and every read falls back to the
        primaries.  This is the lag-injection hook: the property suite
        uses it to prove that an arbitrarily stale replica is bypassed,
        never served.
        """
        self._replication_paused = True

    def resume_replication(self) -> None:
        """Resume replication and catch every shard's replicas up now."""
        self._replication_paused = False
        for shard in range(self.num_shards):
            self._sync_replicas(shard)

    def stop_replica(self, shard: int, index: int) -> None:
        """Stop one replica worker and mark it dead (fault injection).

        The shard keeps answering reads exactly — from its remaining
        fresh replicas and its primary — and ``replica_status`` reports
        the stopped replica as degraded.
        """
        replica = self._replicas[shard][index]
        replica.alive = False
        replica.worker.close()

    def replica_status(self) -> list[list[dict]]:
        """Per-shard replica health: applied epoch, lag, liveness.

        ``lag`` measures mutation epochs the replica is behind its
        primary; a fresh replica reads 0.  Feeds ``admin status``'s
        replica rows and the service's replica metrics.
        """
        return [[{"applied_epoch": replica.applied_epoch,
                  "lag": max(0, self._epochs[shard] - replica.applied_epoch),
                  "alive": replica.alive}
                 for replica in pool]
                for shard, pool in enumerate(self._replicas)]

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
        moved by every mutation, so it serves the wire protocol's
        ``epoch`` field; cache keys use the finer-grained
        :meth:`epoch_token` instead.
        """
        return self._epoch_base + sum(self._epochs)

    @property
    def epoch_vector(self) -> tuple[int, ...]:
        """Per-shard mutation counters, in shard order."""
        return tuple(self._epochs)

    @property
    def generation(self) -> int:
        """Placement generation: bumped whenever probe sets may change."""
        return self._generation

    def epoch_token(self, key: tuple) -> tuple[int, ...]:
        """Cache-key part: generation plus the probed shards' epochs.

        ``key`` is a serving-core query key — ``("search", query, tau)`` or
        ``("top-k", query, k, limit)``.  Within one placement generation
        the probe set is a pure function of the query and threshold, so
        the token needs only the epochs, in shard order: a mutation on any
        probed shard changes the token (and thereby misses the cache),
        while mutations on unrelated shards leave it — and every cached
        answer that only probes other shards — intact.  The leading
        generation term changes when a resize starts or finishes, so no
        cached answer can be served across a placement change it did not
        see.
        """
        tau = key[2] if key[0] == "search" else key[3]
        targets = self._probe_targets(key[1], tau)
        return (self._generation,
                *(self._epochs[shard] for shard in targets))

    @property
    def tombstone_count(self) -> int:
        """Deleted records still physically present across all shards."""
        return self.status_summary()["tombstones"]

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
        """Per-shard ``{"size", "tombstones", "statistics"}`` snapshots."""
        return self._scatter(range(self.num_shards), "status", None)

    def status_summary(self) -> dict:
        """Fleet-wide tombstones, merged statistics, and memory in one scatter.

        The single aggregation point over :meth:`shard_status` — callers
        needing several of these values (the service ``stats`` op) pay one
        round of shard IPC instead of one per property.  ``memory`` sums
        the per-shard columnar-index figures; ``shard_memory`` keeps the
        per-shard breakdown for the sharded ``stats`` payload.
        """
        tombstones = 0
        merged = JoinStatistics()
        memory: dict[str, int] = {}
        shard_memory: list[dict[str, int]] = []
        for status in self.shard_status():
            tombstones += status["tombstones"]
            merged = merged.merge(status["statistics"])
            shard_memory.append(status["memory"])
            for field_name, value in status["memory"].items():
                memory[field_name] = memory.get(field_name, 0) + value
        return {"tombstones": tombstones, "statistics": merged,
                "memory": memory, "shard_memory": shard_memory}

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
        can expose both the fleet total and the per-shard breakdown.  With
        read replicas configured a ``"replicas"`` section is added:
        routing counters (``replica_reads``/``replica_fallbacks``), the
        worst alive replica's lag, and the alive/total population — the
        numbers behind the ``replica_lag_max`` gauge the serving layer
        exports.
        """
        per_shard = self._scatter(range(self.num_shards), "metrics", None)
        snapshot = {"merged": merge_snapshots(per_shard),
                    "per_shard": per_shard}
        if self.replicas_per_shard > 0:
            status = self.replica_status()
            flat = [entry for pool in status for entry in pool]
            snapshot["replicas"] = {
                "replica_reads": self.replica_reads,
                "replica_fallbacks": self.replica_fallbacks,
                "replica_lag_max": max(
                    (entry["lag"] for entry in flat if entry["alive"]),
                    default=0),
                "replicas_alive": sum(
                    1 for entry in flat if entry["alive"]),
                "replicas_total": len(flat),
            }
        return snapshot

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
        raises ``ValueError``, re-using a tombstoned id is allowed.  While
        a migration is in flight, placement follows the **new** map — the
        fleet layout the migration is moving towards.
        """
        record = coerce_insert_record(text, id, self._next_id)
        if record.id in self._shard_of:
            raise ValueError(f"id {record.id} is already in the collection")
        key = self.kernel.record_key(record.text)
        shard = self.policy.place(record.id, key)
        self._call(shard, "insert", record)
        self._track_live(record.id, key, shard)
        return record.id

    def delete(self, record_id: int) -> bool:
        """Tombstone one record on its owning shard; False when not live.

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

    def compact(self) -> int:
        """Compact every shard; return the total number of purged postings."""
        return sum(self._scatter(range(self.num_shards), "compact", None))

    # ------------------------------------------------------------------
    # Live resharding
    # ------------------------------------------------------------------
    def add_shard(self, *, drain: bool = True) -> dict:
        """Grow the fleet by one empty shard and rebalance onto it.

        Starts a live migration from the current placement map to the same
        map resized over ``num_shards + 1`` workers.  With ``drain=True``
        (default) the whole plan executes before returning; with
        ``drain=False`` it is left in flight for :meth:`migration_step` —
        queries and mutations remain fully available either way.  Returns
        :meth:`rebalance_status`.
        """
        self._require_idle()
        context = ShardContext(records=[], max_tau=self.max_tau,
                               partition=self._partition,
                               compact_interval=self._compact_interval,
                               kernel=self.kernel.name,
                               log_mutations=self.replicas_per_shard > 0)
        self._shards.append(self._spawn(context))
        # The new shard's replicas start empty at epoch 0 — exactly the
        # primary's state — so they are fresh (and read-eligible) from
        # the first moment.
        self._replicas.append(self._spawn_replicas(context))
        self._epochs.append(0)
        self.num_shards += 1
        self._start_migration("add-shard",
                              self.policy.resized(self.num_shards),
                              retiring=None)
        if drain:
            self.drain_migration()
        return self.rebalance_status()

    def remove_shard(self, shard: int | None = None, *,
                     drain: bool = True) -> dict:
        """Shrink the fleet by retiring its highest-numbered shard.

        Streams every record off the retiring shard (and, under the
        ``length`` policy, re-deals the remaining bands) before closing its
        worker.  Only the last shard can be retired: lower shard indices
        must stay stable because the placement maps address shards by
        index.  ``drain`` as in :meth:`add_shard`.
        """
        self._require_idle()
        if self.num_shards <= 1:
            raise ServiceError("cannot remove the only shard")
        last = self.num_shards - 1
        if shard is not None and shard != last:
            raise ServiceError(
                f"only the highest-numbered shard can be removed "
                f"(got {shard}, expected {last}); lower shard indices must "
                f"stay stable for the placement map")
        self._start_migration("remove-shard", self.policy.resized(last),
                              retiring=last)
        if drain:
            self.drain_migration()
        return self.rebalance_status()

    def migration_step(self) -> dict:
        """Run one bounded migration action; return :meth:`rebalance_status`.

        Either copies one batch of records from a donor to its recipient
        (after which those records are dual-present and queries dedupe
        them) or releases one already-copied batch from its donor.  A
        no-op when no migration is active.  The last step compacts the
        donors — physically releasing the moved rows from their record
        stores — and, for ``remove-shard``, closes the retiring worker.
        """
        migration = self._migration
        if migration is None:
            return self.rebalance_status()
        if migration.copies:
            donor, recipient, planned = migration.copies.popleft()
            # Re-validate the plan against the present: skip records the
            # caller deleted since planning, and records whose placement
            # changed again (a tombstoned id re-inserted with a new length
            # is already where the new map wants it).
            ids = [record_id for record_id in planned
                   if self._shard_of.get(record_id) == donor
                   and self.policy.place(
                       record_id, self._length_of[record_id]) == recipient]
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
            "policy": self.policy.name,
            "generation": self._generation,
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

    def _start_migration(self, kind: str, new_policy: PlacementMap,
                         retiring: int | None) -> None:
        """Diff old vs new placement into bounded copy batches; activate."""
        moves: dict[tuple[int, int], list[int]] = {}
        for record_id, shard in self._shard_of.items():
            target = new_policy.place(record_id, self._length_of[record_id])
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
        old_policy, self.policy = self.policy, new_policy
        self._generation += 1
        self._migration = _LiveMigration(
            kind=kind, old_policy=old_policy, retiring=retiring,
            copies=copies, donors=frozenset(donor for donor, _ in moves),
            rows_total=rows_total)
        if not copies:
            self._finish_migration()

    def _finish_migration(self) -> None:
        migration = self._migration
        assert migration is not None
        assert not migration.dual, "dual-present records left behind"
        donors = sorted(migration.donors)
        if donors:
            # Purge the donors' migration tombstones so the moved rows are
            # physically released and per-shard row counts re-balance now,
            # not at some future compaction.
            self._scatter(donors, "compact", None)
        if migration.retiring is not None:
            donor = migration.retiring
            assert donor == self.num_shards - 1
            self._shards[donor].close()
            del self._shards[donor]
            for replica in self._replicas[donor]:
                replica.worker.close()
            del self._replicas[donor]
            self._read_schedule.reset(donor)
            self._epoch_base += self._epochs[donor]
            del self._epochs[donor]
            self.num_shards -= 1
        self.rows_migrated_total += migration.rows_copied
        self._generation += 1
        self._migration = None
        self._last_migration = {
            "kind": migration.kind, "rows_total": migration.rows_total,
            "rows_copied": migration.rows_copied,
            "rows_released": migration.rows_released}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _probe_targets(self, query: str, tau: int) -> tuple[int, ...]:
        """Shards a query must scatter to right now (possibly none).

        The kernel turns the query into an inclusive partition-key window
        (``[|q| − τ, |q| + τ]`` for edit distance, the Jaccard size filter
        for token sets); the probe set is empty when no live record's key
        falls inside it — a match is impossible on the key filter alone,
        so the query is answered ``[]`` without touching any shard (the
        empty-band fast path of the ``length`` policy, valid for every
        policy).  During a migration the old and new maps' probe sets are
        unioned: an unmoved record is still covered by the old map, a
        moved one by the new.
        """
        lo, hi = self.kernel.probe_key_range(query, tau)
        if not any_key_within(self._length_counts, lo, hi):
            return ()
        targets = self.policy.probe_key_span(lo, hi)
        migration = self._migration
        if migration is not None:
            union = set(targets)
            union.update(migration.old_policy.probe_key_span(lo, hi))
            targets = tuple(sorted(union))
        return targets

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
                    kernel: "str | Sequence[str | None] | None" = None,
                    ) -> list[list[SearchMatch]]:
        """Answer a batch of threshold searches in one scatter round.

        Each shard receives only the sub-batch of queries whose probe set
        includes it (a pure function of query length and threshold under
        the placement map), runs its own grouped
        :meth:`DynamicSearcher.search_many
        <repro.service.dynamic.DynamicSearcher.search_many>` pass, and the
        router merges the per-shard answers under the canonical
        ``(distance, id)`` ordering.  Results are element-identical to the
        unsharded batch (and therefore to per-query :meth:`search` calls);
        queries whose probe set is empty stay ``[]`` without scattering.
        ``kernel`` follows the rejection semantics of
        :func:`~repro.service.dynamic.check_batch_kernels`.
        """
        check_batch_kernels(self.kernel, kernel)
        taus = resolve_query_taus(queries, tau, self.max_tau)
        return self._scatter_queries(
            queries, taus, "search-many",
            lambda positions: tuple((queries[position], taus[position])
                                    for position in positions))

    def _scatter_queries(self, queries: Sequence[str], taus: Sequence[int],
                         op: str, shard_args) -> list[list[SearchMatch]]:
        """One scatter round of a query batch; one merged list per query.

        Each shard is sent ``shard_args(positions)`` for the positions of
        the queries whose probe set (at that query's tau) includes it and
        answers with one match list per position; queries no shard can
        serve stay ``[]`` without scattering.
        """
        sub_batches: dict[int, list[int]] = {}
        for position, (query, tau) in enumerate(zip(queries, taus)):
            for shard in self._probe_targets(query, tau):
                sub_batches.setdefault(shard, []).append(position)
        per_query: list[list[Sequence[SearchMatch]]] = [[] for _ in queries]
        targets = sorted(sub_batches)
        if targets:
            gathered = self._scatter_each(
                targets, op,
                [shard_args(sub_batches[shard]) for shard in targets])
            for shard, bucket in zip(targets, gathered):
                for position, matches in zip(sub_batches[shard], bucket):
                    per_query[position].append(matches)
        return [self._merge(buckets) for buckets in per_query]

    def search_top_k(self, query: str, k: int,
                     max_tau: int | None = None) -> list[SearchMatch]:
        """The global top-k of one query: the one-query case of
        :meth:`search_top_k_many`."""
        return self.search_top_k_many([query], k, max_tau)[0]

    def search_top_k_many(self, queries: Sequence[str], k: int,
                          max_tau: int | None = None,
                          kernel: "str | Sequence[str | None] | None" = None,
                          ) -> list[list[SearchMatch]]:
        """Merge the per-shard top-k lists into the global top-k.

        Each shard receives only the sub-batch of queries whose probe set
        (at the widening *limit*) includes it and widens its local batch in
        lockstep via :meth:`DynamicSearcher.search_top_k_many
        <repro.search.searcher.KernelSearcher.search_top_k_many>`; the
        router merges each query's per-shard local top-k lists and cuts to
        ``k``.  Exact by a standard argument: if a match is among the
        global k closest, fewer than k matches beat it anywhere — so fewer
        than k beat it in its own shard, and it appears in that shard's
        local top-k.  The union of the local top-k lists therefore contains
        the global top-k, and the canonical ``(distance, id)`` sort makes
        the selection deterministic and identical to the unsharded
        searcher.  (A dual-present record mid-migration contributes two
        identical copies; the merge dedupes them before the cut to ``k``.)
        Queries whose probe set is empty stay ``[]`` without scattering.
        """
        limit = resolve_top_k(self.kernel, k, max_tau, self.max_tau, kernel)
        merged = self._scatter_queries(
            queries, [limit] * len(queries), "top-k-many",
            lambda positions: (tuple(queries[position]
                                     for position in positions), k, limit))
        return [matches[:k] for matches in merged]

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
        for pool in self._replicas:
            for replica in pool:
                replica.worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardRouter(shards={self.num_shards}, "
                f"policy={self.policy.name!r}, backend={self.backend!r}, "
                f"live={len(self)}, max_tau={self.max_tau})")
