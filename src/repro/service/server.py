"""The online similarity-search service: request dispatch + asyncio server.

Two classes split the serving stack along the transport boundary:

* :class:`SimilarityService` — the transport-free core.  It owns the
  :class:`~repro.service.dynamic.DynamicSearcher`, the
  :class:`~repro.service.cache.QueryCache`, and the request vocabulary
  (``search`` / ``top-k`` / ``search-batch`` / ``insert`` / ``delete`` /
  ``compact`` / ``stats`` / ``metrics`` / ``explain`` / ``ping``, plus the
  fleet-resize admin ops ``add-shard`` / ``remove-shard`` /
  ``rebalance-status`` on sharded services), mapping request dictionaries
  to response dictionaries.  Every dispatched request is recorded into a
  :class:`~repro.obs.metrics.MetricsRegistry` (per-op counts, errors,
  latency histograms) and — past
  :attr:`~repro.config.ServiceConfig.slow_query_ms` — into the structured
  slow-query log.  Tests, the smoke script, and future transports
  talk to this object directly.  Cache-missing searches of a batch are
  answered by one grouped ``search_many()`` index pass.
* :class:`SimilarityServer` — the asyncio JSON-lines TCP transport.  One
  request object per line, one response object per line, UTF-8.  Query
  operations flow through a :class:`~repro.service.batcher.RequestBatcher`
  so concurrent lookups coalesce into single index passes; mutations and
  admin operations execute immediately.  One event loop serves every
  connection: the core answers a whole batch under its lock, so a second
  loop could only overlap the JSON and socket work, which is a fraction
  of a percent of a read.

Both entry points answer a query op (``search`` / ``top-k`` /
``search-batch`` / ``top-k-batch``) through the same two steps —
:meth:`SimilarityService.build_query_keys` validates the payload into
keys, :meth:`SimilarityService.render_answers` turns the keys' answers
into the response — and differ only in what runs the keys in between:
``handle_request`` calls :meth:`SimilarityService.execute_queries`, the
transport awaits them on its batcher.

:class:`BackgroundServer` runs the whole stack in a daemon thread with its
own event loop — the harness used by the synchronous client tests, the CLI
smoke step, and anyone embedding the service in a non-async program.

Wire protocol (one JSON object per line)::

    → {"op": "search", "query": "vldb", "tau": 1}
    ← {"ok": true, "matches": [{"id": 0, "distance": 0, "text": "vldb"}],
       "cached": false, "epoch": 0}
    → {"op": "insert", "text": "pvldb"}
    ← {"ok": true, "id": 7, "epoch": 1}
    → {"op": "nonsense"}
    ← {"ok": false, "error": "unknown op 'nonsense' ..."}

Malformed lines produce an ``ok: false`` response; the connection stays
open (one bad request must not kill a pipelined client).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Callable, Iterable, Sequence

from ..config import DEFAULT_SERVICE_CONFIG, ServiceConfig, validate_threshold
from ..core.kernel import (check_batch_kernels, check_kernel_match,
                           describe_kernels)
from ..exceptions import InvalidThresholdError, ServiceError
from ..obs.metrics import MetricsRegistry, funnel_snapshot, merge_snapshots
from ..obs.slowlog import log_slow_query
from ..search.searcher import SearchMatch
from ..types import StringRecord
from .batcher import RequestBatcher
from .cache import QueryCache
from .dynamic import DynamicSearcher
from .sharding import ShardRouter

#: The batch query operation (one request carrying many search queries).
BATCH_OP = "search-batch"
#: The batch top-k operation (many queries, one shared ``k``/``max_tau``),
#: answered through the lockstep-widening ``search_top_k_many`` path.
TOP_K_BATCH_OP = "top-k-batch"
#: Query operations: answered from ``execute_queries`` in-process and
#: routed through the batcher by the TCP transport.
QUERY_OPS = ("search", "top-k", BATCH_OP, TOP_K_BATCH_OP)
#: Fleet-resize admin operations (sharded services only).  The TCP
#: transport answers these as soon as the migration is planned and drains
#: it in a background task so queries keep flowing; the transport-free
#: core drains synchronously unless the request carries ``drain: false``.
RESHARD_OPS = ("add-shard", "remove-shard")
#: Every operation the service understands.
ALL_OPS = QUERY_OPS + RESHARD_OPS + (
    "rebalance-status", "insert", "delete", "compact", "stats", "metrics",
    "explain", "kernels", "ping", "shutdown")

#: Query keys are tuples: ("search", query, tau) or ("top-k", query, k, limit).
QueryKey = tuple

#: Byte limit for one JSON line on the asyncio streams.  asyncio's default
#: is 64 KiB, which a legal ``search-batch`` request (or a many-match
#: response) easily exceeds; both the server and the async client size
#: their streams with this instead.
STREAM_LIMIT = 16 * 1024 * 1024


def _require_str(payload: dict, field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str):
        raise ValueError(f"field {field!r} must be a string, got {value!r}")
    return value


def _require_int(payload: dict, field: str, *, minimum: int = 0) -> int:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"field {field!r} must be an integer >= {minimum}, "
                         f"got {value!r}")
    return value


class SimilarityService:
    """Transport-free serving core: dynamic index + cache + dispatch.

    Parameters
    ----------
    strings:
        Initial collection served by the dynamic index.
    config:
        A :class:`~repro.config.ServiceConfig`; ``max_tau``, ``partition``,
        ``cache_capacity``, ``compact_interval``, and the ``shards*`` fields
        are consumed here, the transport fields by :class:`SimilarityServer`.

    With ``config.shards > 1`` the collection is served by a
    :class:`~repro.service.sharding.ShardRouter` (which duck-types the
    :class:`DynamicSearcher` surface, so dispatch is identical) and cache
    keys grow the composite per-shard epoch vector the query depends on —
    a mutation on one shard makes exactly the queries that probe it miss,
    instead of invalidating the whole cache.
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (),
                 config: ServiceConfig = DEFAULT_SERVICE_CONFIG) -> None:
        self.config = config
        # replicas > 0 routes even a single-shard collection through the
        # router: the replica fleet hangs off the router's scatter path,
        # so an unsharded DynamicSearcher has nowhere to put one.
        if config.shards > 1 or config.replicas > 0:
            self.searcher: DynamicSearcher | ShardRouter = ShardRouter(
                strings, shards=config.shards, max_tau=config.max_tau,
                partition=config.partition,
                compact_interval=config.compact_interval,
                policy=config.shard_policy, backend=config.shard_backend,
                migration_batch=config.migration_batch,
                kernel=config.kernel,
                replicas_per_shard=config.replicas)
        else:
            self.searcher = DynamicSearcher(
                strings, max_tau=config.max_tau, partition=config.partition,
                compact_interval=config.compact_interval,
                kernel=config.kernel)
        self.cache = QueryCache(config.cache_capacity)
        self.queries_served = 0
        # Service-level telemetry: per-op request/error counters and
        # latency histograms, fed by record_request() on every dispatch
        # (the transport-free core, and the TCP transport for query ops).
        self.metrics = MetricsRegistry()
        # The core serializes dispatch, batch execution, and telemetry
        # reads: embedders and tests drive this object from a thread other
        # than the transport's event loop, and neither the LRU cache nor
        # the metrics dicts (nor interleaving a mutation inside a running
        # batch) are safe without it.  Every public entry takes it once;
        # reentrant because dispatch reaches execute_queries()/stats()/
        # metrics_payload() internally.
        self._lock = threading.RLock()
        self.started_monotonic = time.monotonic()
        # Last background reshard-drain failure (set by the transport's
        # drain task, surfaced through rebalance-status): a dead shard
        # worker mid-migration must not strand status pollers in an
        # endless "active" loop with no explanation.
        self.reshard_error: str | None = None

    def close(self) -> None:
        """Release serving resources (shard worker processes); idempotent."""
        closer = getattr(self.searcher, "close", None)
        if closer is not None:
            closer()

    # ------------------------------------------------------------------
    # Query path (used directly and by the batcher)
    # ------------------------------------------------------------------
    def build_query_keys(self, payload: dict) -> list[QueryKey]:
        """Validate a query request into its cache/batch keys, one per query.

        ``search`` and ``top-k`` carry one ``query``; ``search-batch`` and
        ``top-k-batch`` carry ``queries`` (a list of strings, bounded by
        :attr:`~repro.config.ServiceConfig.max_query_batch` so one request
        line cannot monopolise the server) and apply their scalar fields
        to every query.  The search ops take an optional ``tau``
        (default and upper bound: the served ``max_tau``) and yield
        ``("search", query, tau)`` keys; the top-k ops take ``k``
        (required, >= 1) and an optional ``max_tau`` and yield ``("top-k",
        query, k, limit)`` keys — the same key whichever op built it, so
        the cache and the sharded epoch-vector widening are shared between
        the scalar and batch entry points.

        All per-request validation happens here — before any key joins a
        batch — so one malformed request can never fail the batch it
        shares an execution with.  Kernel fields follow the pinned
        mixed-batch semantics of
        :func:`~repro.core.kernel.check_batch_kernels`: a scalar ``kernel``
        (or a batch's per-query ``kernels`` list) must name the served
        kernel, and a ``kernels`` list naming two different kernels is
        rejected outright — the whole batch fails before any query runs.
        """
        if payload.get("op") in (BATCH_OP, TOP_K_BATCH_OP):
            queries = self._validate_batch_queries(payload)
        else:
            self._check_kernel_field(payload)
            queries = [_require_str(payload, "query")]
        return [self._query_key(payload, query) for query in queries]

    def _query_key(self, payload: dict, query: str) -> QueryKey:
        max_tau = self.searcher.max_tau
        if payload.get("op") in ("search", BATCH_OP):
            tau = payload.get("tau")
            tau = max_tau if tau is None else validate_threshold(tau)
            if tau > max_tau:
                raise InvalidThresholdError(tau)
            return ("search", query, tau)
        k = _require_int(payload, "k", minimum=1)
        limit = payload.get("max_tau")
        limit = (max_tau if limit is None
                 else min(validate_threshold(limit), max_tau))
        return ("top-k", query, k, limit)

    def render_answers(self, op: str,
                       answers: Sequence[tuple[list[SearchMatch], bool]],
                       ) -> dict:
        """The response of query op ``op`` for its keys' answers.

        ``answers`` holds one ``(matches, cached)`` pair per key of
        :meth:`build_query_keys`, as :meth:`execute_queries` (or the
        transport's batcher) returned them.
        """
        epoch = self.searcher.epoch
        if op in (BATCH_OP, TOP_K_BATCH_OP):
            return {"ok": True,
                    "results": [[match.to_dict() for match in matches]
                                for matches, _ in answers],
                    "cached": [cached for _, cached in answers],
                    "epoch": epoch}
        (matches, cached), = answers
        return {"ok": True, "matches": [match.to_dict() for match in matches],
                "cached": cached, "epoch": epoch}

    def _check_kernel_field(self, payload: dict) -> None:
        """Validate an optional ``kernel`` request field.

        A request may name the kernel it expects; naming any kernel other
        than the one this server serves is rejected (one server, one
        kernel — the ``kernels`` op tells clients which).  The field never
        reaches the query key: within one service it is an assertion, not
        a parameter.
        """
        requested = payload.get("kernel")
        if requested is None:
            return
        if not isinstance(requested, str):
            raise ValueError(
                f"field 'kernel' must be a string, got {requested!r}")
        check_kernel_match(self.searcher.kernel, requested)

    def _validate_batch_queries(self, payload: dict) -> list[str]:
        queries = payload.get("queries")
        if (not isinstance(queries, list)
                or not all(isinstance(query, str) for query in queries)):
            raise ValueError(
                f"field 'queries' must be a list of strings, got {queries!r}")
        limit = self.config.max_query_batch
        if limit and len(queries) > limit:
            raise ValueError(f"batch of {len(queries)} queries exceeds "
                             f"max_query_batch={limit}")
        self._check_kernel_field(payload)
        kernels = payload.get("kernels")
        if kernels is not None:
            if (not isinstance(kernels, list)
                    or not all(name is None or isinstance(name, str)
                               for name in kernels)):
                raise ValueError(f"field 'kernels' must be a list of kernel "
                                 f"names, got {kernels!r}")
            if len(kernels) != len(queries):
                raise ValueError(f"got {len(queries)} queries but "
                                 f"{len(kernels)} kernel names")
            check_batch_kernels(self.searcher.kernel, kernels)
        return queries

    def execute_queries(self, keys: Sequence[QueryKey],
                        ) -> list[tuple[list[SearchMatch], bool]]:
        """Answer a batch of validated query keys in one pass.

        Returns ``(matches, cached)`` per key.  This is the
        :class:`~repro.service.batcher.RequestBatcher` execute hook: no
        mutation can interleave with the call, so every answer in a batch
        reflects the same collection snapshot.  Cache misses of kind
        ``search`` are answered by **one** grouped ``search_many()`` index
        pass over the whole batch (duplicates probed once, same-length
        queries sharing their selection windows) instead of one pass per
        unique query; top-k misses are grouped by ``(k, limit)`` and each
        group widens tau in lockstep through one ``search_top_k_many()``
        pass, retiring satisfied queries between rounds.

        Cache keying depends on the serving backend.  Unsharded, the plain
        query key is presented together with the scalar epoch and a
        mutation invalidates the cache wholesale (any insert can change any
        answer).  Sharded, the key is widened with the **composite epoch
        vector** of exactly the shards the query probes (a pure function of
        the query and threshold): a mutation bumps one shard's epoch, so
        entries depending on that shard simply stop matching and age out of
        the LRU, while entries over the other shards keep hitting.

        Duplicate keys within one batch are answered by copying the first
        occurrence's answer and counted as ``cache.coalesced`` — they
        never consult the cache, so a coalesced batch of one popular query
        records one miss (or one hit), not one per duplicate.
        """
        with self._lock:
            epoch_token = getattr(self.searcher, "epoch_token", None)
            epoch = self.searcher.epoch
            answers: list[tuple[list[SearchMatch], bool] | None] = (
                [None] * len(keys))
            # Cache misses by execution group: None for every search key,
            # (k, limit) for top-k keys.
            misses: dict[tuple[int, int] | None,
                         list[tuple[int, QueryKey, QueryKey, int]]] = {}
            leaders: dict[QueryKey, int] = {}
            duplicates: list[tuple[int, int]] = []
            for position, key in enumerate(keys):
                self.queries_served += 1
                leader = leaders.get(key)
                if leader is not None:
                    # Same key, same snapshot: the answer is the leader's.
                    self.cache.note_coalesced()
                    duplicates.append((position, leader))
                    continue
                leaders[key] = position
                if epoch_token is None:
                    cache_key, cache_epoch = key, epoch
                else:
                    cache_key, cache_epoch = key + (epoch_token(key),), 0
                cached = self.cache.get(cache_key, cache_epoch)
                if cached is not None:
                    answers[position] = (cached, True)
                    continue
                group = None if key[0] == "search" else key[2:]
                misses.setdefault(group, []).append(
                    (position, key, cache_key, cache_epoch))
            for group, entries in misses.items():
                queries = [key[1] for _, key, _, _ in entries]
                if group is None:
                    batches = self.searcher.search_many(
                        queries, tau=[key[2] for _, key, _, _ in entries])
                else:
                    # Each (k, limit) group widens tau in lockstep through
                    # one batch pass instead of one pass per query.
                    batches = self.searcher.search_top_k_many(queries, *group)
                for (position, _, cache_key, cache_epoch), matches in zip(
                        entries, batches):
                    self.cache.put(cache_key, cache_epoch, matches)
                    answers[position] = (matches, False)
            for position, leader in duplicates:
                answers[position] = answers[leader]
            return answers  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_request(self, payload: object) -> dict:
        """Map one request object to one response object (never raises).

        Every request dispatched here is recorded into :attr:`metrics`
        (request count, latency histogram, error count — all keyed by op)
        via :meth:`record_request`; the TCP transport answers query ops
        through its batcher instead and records those itself, so each
        request is counted exactly once whichever way it enters.
        """
        if not isinstance(payload, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = payload.get("op")
        started = time.perf_counter()
        try:
            with self._lock:
                if op in QUERY_OPS:
                    response = self.render_answers(op, self.execute_queries(
                        self.build_query_keys(payload)))
                else:
                    response = self._dispatch(payload, op)
        except (ValueError, TypeError, ServiceError) as error:
            # ServiceError covers serving-infrastructure failures (e.g. a
            # dead shard worker): the contract is one error response per
            # bad request, never an exception up through the transport.
            response = {"ok": False, "error": str(error)}
        query = payload.get("query")
        self.record_request(op, time.perf_counter() - started,
                            bool(response.get("ok")),
                            query=query if isinstance(query, str) else None)
        return response

    def record_request(self, op: object, seconds: float, ok: bool, *,
                       query: str | None = None) -> None:
        """Record one finished request into the service metrics.

        The counter increment and the histogram observation share the op
        name, so ``requests.<op>`` always equals the matching latency
        histogram's total count — the invariant the smoke script asserts.
        Ops outside :data:`ALL_OPS` are pooled under ``"unknown"``, keeping
        metric cardinality bounded against garbage input.  Requests slower
        than :attr:`~repro.config.ServiceConfig.slow_query_ms` also emit a
        structured slow-query log event.
        """
        name = op if isinstance(op, str) and op in ALL_OPS else "unknown"
        with self._lock:
            self.metrics.inc(f"requests.{name}")
            self.metrics.observe(f"latency_seconds.{name}", seconds)
            if not ok:
                self.metrics.inc(f"errors.{name}")
        threshold = self.config.slow_query_ms
        if threshold and seconds * 1000.0 >= threshold:
            log_slow_query(op=name, seconds=seconds, threshold_ms=threshold,
                           ok=ok, query=query)

    def count(self, name: str) -> None:
        """Bump one counter of :attr:`metrics` (the transport's
        ``connections`` and ``request_lines``)."""
        with self._lock:
            self.metrics.inc(name)

    def _dispatch(self, payload: dict, op: object) -> dict:
        """Answer one mutation or admin op (caller holds the lock)."""
        if op == "insert":
            text = _require_str(payload, "text")
            record_id = (None if payload.get("id") is None
                         else _require_int(payload, "id"))
            new_id = self.searcher.insert(text, id=record_id)
            return {"ok": True, "id": new_id, "epoch": self.searcher.epoch}
        if op == "delete":
            record_id = _require_int(payload, "id")
            deleted = self.searcher.delete(record_id)
            return {"ok": True, "deleted": deleted,
                    "epoch": self.searcher.epoch}
        if op == "compact":
            purged = self.searcher.compact()
            return {"ok": True, "purged": purged, "epoch": self.searcher.epoch}
        if op in RESHARD_OPS:
            router = self._require_router(op)
            drain = payload.get("drain", True)
            if not isinstance(drain, bool):
                raise ValueError(
                    f"field 'drain' must be a boolean, got {drain!r}")
            status = (router.add_shard(drain=drain) if op == "add-shard"
                      else router.remove_shard(drain=drain))
            # Cleared only now: a *rejected* resize (e.g. a migration
            # already in flight) must not erase the record of why the
            # previous drain failed.
            self.reshard_error = None
            return {"ok": True, "status": status, "epoch": self.searcher.epoch}
        if op == "rebalance-status":
            router = self._require_router(op)
            status = router.rebalance_status()
            if self.reshard_error is not None:
                status["error"] = self.reshard_error
            return {"ok": True, "status": status, "epoch": self.searcher.epoch}
        if op == "stats":
            return {"ok": True, **self.stats()}
        if op == "metrics":
            return self.metrics_payload()
        if op == "explain":
            self._check_kernel_field(payload)
            query = _require_str(payload, "query")
            report = self.searcher.explain(query, payload.get("tau"))
            return {"ok": True, "explain": report,
                    "epoch": self.searcher.epoch}
        if op == "kernels":
            return {"ok": True, "serving": self.searcher.kernel.name,
                    "kernels": describe_kernels(),
                    "epoch": self.searcher.epoch}
        if op == "ping":
            return {"ok": True, "pong": True, "epoch": self.searcher.epoch}
        if op == "shutdown":
            return {"ok": False,
                    "error": "shutdown is handled by the TCP transport, "
                             "not the service core"}
        return {"ok": False, "error": f"unknown op {op!r}; expected one of "
                                      f"{', '.join(ALL_OPS)}"}

    def _require_router(self, op: str) -> ShardRouter:
        """The sharded searcher, or a clear error for unsharded services."""
        if not isinstance(self.searcher, ShardRouter):
            raise ServiceError(
                f"op {op!r} requires a sharded service; start the server "
                f"with shards >= 2 (ServiceConfig.shards / serve --shards)")
        return self.searcher

    def migration_step(self) -> dict:
        """Run one bounded resharding step; return the rebalance status.

        The hook the TCP transport's background drain task uses to move an
        in-flight migration forward between answering queries.
        """
        with self._lock:
            return self._require_router("migration-step").migration_step()

    def rebalance_status(self) -> dict:
        """The router's rebalance status (for tests and the drain task)."""
        with self._lock:
            return self._require_router("rebalance-status").rebalance_status()

    def _cache_snapshot(self) -> dict:
        """The query cache's counters and occupancy as a registry snapshot."""
        registry = MetricsRegistry()
        cache_stats = self.cache.stats.as_dict()
        for name in ("hits", "misses", "evictions", "invalidations",
                     "coalesced"):
            registry.inc(f"cache_{name}", cache_stats[name])
        registry.set_gauge("cache_size", len(self.cache))
        registry.set_gauge("cache_capacity", self.cache.capacity)
        return registry.snapshot()

    def metrics_payload(self) -> dict:
        """The ``metrics`` op response: one merged registry snapshot.

        Merges three sources with
        :func:`~repro.obs.metrics.merge_snapshots`: the service-level
        request metrics (:attr:`metrics`), the query cache's counters, and
        the engine's filter funnel — read from the searcher's
        :class:`~repro.types.JoinStatistics` directly when unsharded, or
        scatter-gathered and summed across the fleet by
        :meth:`ShardRouter.metrics_snapshot
        <repro.service.sharding.ShardRouter.metrics_snapshot>` when
        sharded, in which case the per-shard snapshots are also exposed
        under ``shards.per_shard``.

        With read replicas the router's replica section is re-exported as
        registry metrics — ``replica_reads``/``replica_fallbacks``
        counters plus ``replica_lag_max``/``replicas_alive``/
        ``replicas_total`` gauges.
        """
        with self._lock:
            uptime = time.monotonic() - self.started_monotonic
            self.metrics.set_gauge("uptime_seconds", uptime)
            searcher = self.searcher
            payload: dict = {"ok": True, "uptime_seconds": uptime,
                             "epoch": searcher.epoch}
            if isinstance(searcher, ShardRouter):
                shard_metrics = searcher.metrics_snapshot()
                engine = shard_metrics["merged"]
                payload["shards"] = {"count": searcher.num_shards,
                                     "per_shard": shard_metrics["per_shard"]}
            else:
                engine = funnel_snapshot(searcher.statistics,
                                         memory=searcher.index_memory(),
                                         kernel=searcher.kernel.name)
            sources = [self.metrics.snapshot(), self._cache_snapshot(), engine]
            replicas = (shard_metrics.get("replicas")
                        if isinstance(searcher, ShardRouter) else None)
            if replicas is not None:
                payload["shards"]["replicas"] = replicas
                replica_registry = MetricsRegistry()
                for name in ("replica_reads", "replica_fallbacks"):
                    replica_registry.inc(name, replicas[name])
                for name in ("replica_lag_max", "replicas_alive",
                             "replicas_total"):
                    replica_registry.set_gauge(name, replicas[name])
                sources.append(replica_registry.snapshot())
            payload["merged"] = merge_snapshots(sources)
            return payload

    def stats(self) -> dict:
        """Service-level counters (the ``stats`` op payload minus ``ok``).

        ``index`` carries the columnar store's memory figures (record and
        posting counts, ``approximate_bytes``); under sharding they are
        fleet-wide sums, with the per-shard breakdown under
        ``shards.memory``.  ``requests_by_op`` and ``errors`` come from the
        request metrics (only ops seen since startup appear);
        ``queries_served`` keeps counting individual queries, including
        every member of a batch, so it is not the sum of
        ``requests_by_op``.
        """
        with self._lock:
            searcher = self.searcher
            if isinstance(searcher, ShardRouter):
                # One status scatter covers tombstones, statistics, and memory;
                # going through the properties separately would scatter thrice.
                summary = searcher.status_summary()
                tombstones = summary["tombstones"]
                statistics = summary["statistics"]
                memory = summary["memory"]
            else:
                tombstones = searcher.tombstone_count
                statistics = searcher.statistics
                memory = searcher.index_memory()
            cache = self.cache.stats.as_dict()
            cache["capacity"] = self.cache.capacity
            cache["size"] = len(self.cache)
            payload = {
                "size": len(searcher),
                "epoch": searcher.epoch,
                "tombstones": tombstones,
                "kernel": searcher.kernel.name,
                "max_tau": searcher.max_tau,
                "uptime_seconds": time.monotonic() - self.started_monotonic,
                "queries_served": self.queries_served,
                "requests_by_op":
                    self.metrics.counters_with_prefix("requests."),
                "errors": sum(
                    self.metrics.counters_with_prefix("errors.").values()),
                "cache": cache,
                "index": memory,
                "index_entries": statistics.index_entries,
                "index_bytes": statistics.index_bytes,
            }
            if isinstance(searcher, ShardRouter):
                payload["shards"] = {
                    "count": searcher.num_shards,
                    "policy": searcher.policy.name,
                    "backend": searcher.backend,
                    # Placement balance: live rows, columnar bytes per shard.
                    "sizes": searcher.shard_sizes(),
                    "bytes": [shard.get("approximate_bytes", 0)
                              for shard in summary["shard_memory"]],
                    "epoch_vector": list(searcher.epoch_vector),
                    "memory": summary["shard_memory"],
                    "rows_migrated": searcher.rows_migrated_total,
                    "rebalance": searcher.rebalance_status(),
                }
                if searcher.replicas_per_shard:
                    # Per-replica freshness and liveness (the ``admin status``
                    # replica rows): applied epoch, lag behind the primary,
                    # and whether the replica is still being served from.
                    payload["shards"]["replicas_per_shard"] = (
                        searcher.replicas_per_shard)
                    payload["shards"]["replicas"] = searcher.replica_status()
                    payload["shards"]["replica_reads"] = searcher.replica_reads
                    payload["shards"]["replica_fallbacks"] = (
                        searcher.replica_fallbacks)
            return payload


class SimilarityServer:
    """Asyncio JSON-lines TCP transport around a :class:`SimilarityService`.

    Examples
    --------
    >>> import asyncio
    >>> async def demo():
    ...     server = SimilarityServer(SimilarityService(["vldb"]), port=0)
    ...     host, port = await server.start()
    ...     await server.stop()
    ...     return host
    >>> asyncio.run(demo())
    '127.0.0.1'
    """

    def __init__(self, service: SimilarityService, *, host: str | None = None,
                 port: int | None = None) -> None:
        self.service = service
        config = service.config
        self.host = config.host if host is None else host
        self.port = config.port if port is None else port
        self.batcher = RequestBatcher(service.execute_queries,
                                      max_batch=config.max_batch,
                                      window=config.batch_window)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._reshard_task: "asyncio.Task | None" = None
        self._stop_task: "asyncio.Task | None" = None
        # Live connections (handler task -> its writer): what stop() hangs
        # up on and waits for.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; return ``(host, port)``.

        With ``port=0`` the operating system picks the port; the bound
        address is stored in :attr:`address`.
        """
        if self._server is not None:
            raise ServiceError("server is already running")
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port,
                                                  limit=STREAM_LIMIT)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (or a shutdown op arrives)."""
        if self._stopped is None:
            raise ServiceError("server was never started")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop accepting connections, hang up on clients, release the socket.

        Open connections are closed from this side and their handlers
        awaited, so an idle client cannot keep a handler parked in
        ``readline()`` until the loop tears it down with a cancellation.
        Every response already written is flushed first; a request still
        in flight finds its connection gone, which its client sees as a
        :class:`~repro.exceptions.ProtocolError` — never as half a line.

        An in-flight background reshard drain is cancelled — the router's
        migration state is process-local, so there is nothing to hand
        over; a restarted server simply rebuilds placement from scratch.
        """
        if self._reshard_task is not None:
            self._reshard_task.cancel()
            self._reshard_task = None
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers)
        await server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    async def run(self, on_ready: "Callable[[tuple[str, int]], None] | None"
                  = None) -> None:
        """Serve until stopped, then stop and close the service.

        ``on_ready`` is called with the bound ``(host, port)`` once the
        socket is listening.  The service is closed even when
        :meth:`start` fails (port in use): its shard workers must not
        leak.
        """
        try:
            address = await self.start()
            if on_ready is not None:
                on_ready(address)
            await self.serve_forever()
        finally:
            await self.stop()
            self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        self.service.count("connections")
        try:
            # A handler that only gets to run once stop() has begun sees
            # no server and leaves without reading.
            while self._server is not None:
                try:
                    line = await reader.readline()
                except ValueError:
                    # A request line beyond STREAM_LIMIT; the rest of the
                    # line is unread, so framing is lost — answer with one
                    # error and hang up rather than misparse what follows.
                    writer.write(json.dumps(
                        {"ok": False,
                         "error": f"request line exceeds {STREAM_LIMIT} "
                                  f"bytes"}).encode("utf-8") + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                self.service.count("request_lines")
                try:
                    payload = json.loads(stripped.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    response = {"ok": False, "error": f"invalid JSON: {error}"}
                else:
                    response = await self._respond(payload)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if response.get("stopping"):  # the shutdown op's answer
                    self._stop_task = asyncio.get_running_loop().create_task(
                        self.stop())
                    break
        except ConnectionResetError:  # client vanished mid-request
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(self, payload: object) -> dict:
        """Map one parsed request line to its response object.

        Query ops are validated into keys, every key joins the shared
        :class:`RequestBatcher` batch — so a batch request coalesces with
        whatever concurrent single queries are in flight, and the drain
        answers them all with one grouped ``search_many()`` (or ``(k,
        limit)``-grouped ``search_top_k_many()``) pass through the serving
        core — and the answers are rendered by the same
        :meth:`SimilarityService.render_answers` the in-process path uses.
        Everything else goes to :meth:`SimilarityService.handle_request`,
        except the two ops only a transport can carry out: ``shutdown``
        and the background half of a fleet resize.

        Snapshot semantics: answers within one batcher drain share a
        collection snapshot, so a request of up to ``config.max_batch``
        queries is normally answered atomically.  A larger request spans
        several drains, between which concurrent mutations may commit —
        individual answers are each exact for some recent snapshot, but
        the batch as a whole (and its single ``epoch`` field, read after
        the last drain) is not guaranteed to be one snapshot.
        """
        op = payload.get("op") if isinstance(payload, dict) else None
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        if op in RESHARD_OPS:
            return self._handle_reshard(payload)
        if op not in QUERY_OPS:
            return self.service.handle_request(payload)
        started = time.perf_counter()
        try:
            keys = self.service.build_query_keys(payload)
            if len(keys) == 1:
                # Awaited directly: gather() would wrap the lone submit in
                # a task, ~40 us of loop turns on every scalar read.
                answers = [await self.batcher.submit(keys[0])]
            else:
                answers = await asyncio.gather(
                    *(self.batcher.submit(key) for key in keys))
            response = self.service.render_answers(op, answers)
        except (ValueError, TypeError, ServiceError) as error:
            # Validation failures, and execution failures the batcher
            # forwards to every waiter (e.g. a dead shard worker): answer
            # with an error line instead of tearing down the connection.
            response = {"ok": False, "error": str(error)}
        query = payload.get("query")
        self.service.record_request(
            op, time.perf_counter() - started, bool(response.get("ok")),
            query=query if isinstance(query, str) else None)
        return response

    def _handle_reshard(self, payload: dict) -> dict:
        """Start a fleet resize; drain it in the background.

        The response is written as soon as the migration is planned (the
        ``status`` field says how many rows will move); a background task
        then runs one bounded :meth:`SimilarityService.migration_step` per
        event-loop turn, so queries, mutations, and ``rebalance-status``
        polls keep being served while records stream between shards —
        zero-downtime resharding.  A second resize request while one is in
        flight is answered with an error by the router.
        """
        response = self.service.handle_request({**payload, "drain": False})
        if response.get("ok") and response.get("status", {}).get("active"):
            self._reshard_task = asyncio.get_running_loop().create_task(
                self._drain_reshard())
        return response

    async def _drain_reshard(self) -> None:
        try:
            while self.service.migration_step()["active"]:
                # Yield between bounded steps: queued queries run here.
                await asyncio.sleep(0)
        except asyncio.CancelledError:  # pragma: no cover - server stopping
            raise
        except Exception as error:  # noqa: BLE001 - dead worker mid-drain
            # Record the failure so rebalance-status pollers (the CLI's
            # reshard loop among them) see an ``error`` field instead of
            # an ``active`` migration that never finishes.  The migration
            # stays marked active — the fleet genuinely is mid-move and
            # queries surface the underlying worker failure themselves.
            self.service.reshard_error = (
                f"background reshard drain failed: {error}")


async def run_service(strings: Iterable[str | StringRecord],
                      config: ServiceConfig = DEFAULT_SERVICE_CONFIG,
                      *, on_ready: "Callable[[tuple[str, int]], None] | None" = None,
                      ) -> None:
    """Build the service, serve until stopped (the CLI ``serve`` backend).

    ``on_ready`` is called with the bound ``(host, port)`` once the socket
    is listening — the hook the CLI uses to announce the actual port when
    serving on ``port=0``.
    """
    await SimilarityServer(SimilarityService(strings, config)).run(on_ready)


class BackgroundServer:
    """Run a similarity server in a daemon thread (sync-world harness).

    Used by the CLI smoke script and the synchronous-client tests::

        with BackgroundServer(["vldb", "pvldb"], config) as (host, port):
            with ServiceClient(host, port) as client:
                client.search("vldb", tau=1)

    The context manager guarantees the socket is bound before the body
    runs and the server thread is joined on exit.
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (),
                 config: ServiceConfig | None = None) -> None:
        if config is None:
            config = ServiceConfig(port=0)
        self.config = config
        self._strings = list(strings)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: SimilarityServer | None = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = SimilarityServer(
            SimilarityService(self._strings, self.config))
        await self._server.run(lambda address: self._ready.set())

    @property
    def service(self) -> SimilarityService | None:
        """The underlying service (for white-box assertions in tests)."""
        return self._server.service if self._server is not None else None

    def __enter__(self) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ServiceError("background server failed to start within 10s")
        return self._server.address

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self._server is not None:
            stop = self._server.stop()
            try:
                asyncio.run_coroutine_threadsafe(
                    stop, self._loop).result(timeout=10)
            except RuntimeError:  # loop already closed (a shutdown op)
                stop.close()
            except TimeoutError:
                # A loop closing after a shutdown op can take the call and
                # never run it; run() has stopped the server by then.
                if self._thread.is_alive():
                    raise
        self._thread.join(timeout=10)
