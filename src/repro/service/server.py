"""The online similarity-search service: request dispatch + asyncio server.

Two classes split the serving stack along the transport boundary:

* :class:`SimilarityService` — the transport-free core.  It owns the
  :class:`~repro.service.dynamic.DynamicSearcher`, the
  :class:`~repro.service.cache.QueryCache`, and the op handlers of
  :data:`OPS`, mapping request dictionaries to response dictionaries.
  Every dispatched request is recorded into a
  :class:`~repro.obs.metrics.MetricsRegistry` (per-op counts, errors,
  latency histograms) and — past
  :attr:`~repro.config.ServiceConfig.slow_query_ms` — into the structured
  slow-query log.  Tests, the smoke script, and future transports
  talk to this object directly.  Cache-missing searches of a batch are
  answered by one grouped ``search_many()`` index pass.
* :class:`SimilarityServer` — the asyncio JSON-lines TCP transport.  One
  request object per line, one response object per line, UTF-8.  Query
  operations flow through a :class:`~repro.service.batcher.RequestBatcher`
  so concurrent lookups coalesce into single index passes (it records its
  drains into the core's registry); mutations and admin operations
  execute immediately.  One event loop serves every connection: the core
  answers a whole batch under its lock, so a second loop could only
  overlap the JSON and socket work, which is a fraction of a percent of
  a read.

:data:`OPS` is the request contract: one row per op, its fields and its
handler.  Both entry points check a request against it before anything
reaches the batcher, the cache or the collection, refusing an unknown op,
a missing or mistyped field, and any field the op does not declare.  A
query op then takes the same two steps on both —
:meth:`SimilarityService.build_query_keys` turns the payload into keys,
:meth:`SimilarityService.render_answers` turns the keys' answers into the
response — and only what runs the keys differs: ``handle_request`` calls
:meth:`SimilarityService.execute_queries`, the transport its batcher.

:class:`BackgroundServer` runs the whole stack in a daemon thread with its
own event loop — the harness used by the synchronous client tests, the CLI
smoke step, and anyone embedding the service in a non-async program.

Wire protocol (one JSON object per line)::

    → {"op": "search", "query": "vldb", "tau": 1}
    ← {"ok": true, "matches": [{"id": 0, "distance": 0, "text": "vldb"}],
       "cached": false, "epoch": 0}
    → {"op": "insert", "text": "pvldb"}
    ← {"ok": true, "id": 7, "epoch": 1}
    → {"op": "search", "query": "vldb", "tua": 0}
    ← {"ok": false, "error": "op 'search' has no field 'tua' ..."}

Malformed lines produce an ``ok: false`` response; the connection stays
open (one bad request must not kill a pipelined client).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from ..config import DEFAULT_SERVICE_CONFIG, ServiceConfig
from ..core.kernel import EditDistanceKernel
from ..exceptions import ConfigurationError, ServiceError
from ..obs.metrics import MetricsRegistry, funnel_snapshot, merge_snapshots
from ..obs.slowlog import log_slow_query
from ..search.searcher import SearchMatch, resolve_tau, resolve_top_k
from ..types import StringRecord
from .batcher import RequestBatcher
from .cache import QueryCache
from .dynamic import DynamicSearcher
from .sharding import ShardRouter

#: The batch query operation (one request carrying many search queries).
BATCH_OP = "search-batch"
#: The batch top-k operation (many queries, one shared ``k``/``max_tau``),
#: answered by one ``search_top_k_many`` pass: a threshold search at the
#: limit, cut to ``k``.
TOP_K_BATCH_OP = "top-k-batch"

#: Query keys are tuples: ("search", query, tau) or ("top-k", query, k, limit).
QueryKey = tuple

#: Byte limit for one JSON line on the asyncio streams.  asyncio's default
#: is 64 KiB, which a legal ``search-batch`` request (or a many-match
#: response) easily exceeds; both the server and the async client size
#: their streams with this instead.
STREAM_LIMIT = 16 * 1024 * 1024


def check_kernel_fields(payload: dict) -> None:
    """Refuse a request that names a similarity other than edit distance.

    A request may carry a ``kernel`` name, and a batch a per-query
    ``kernels`` list aligned with its ``queries``; both only assert what
    the server serves.  Any other name, or a non-string, is refused, so a
    client written for another similarity gets an error instead of
    edit-distance answers.
    """
    names = payload.get("kernels")
    if names is not None:
        queries = payload.get("queries")
        if not isinstance(names, list) or (isinstance(queries, list)
                                           and len(names) != len(queries)):
            raise ValueError(
                f"field 'kernels' must list one kernel name per query "
                f"({EditDistanceKernel.name!r} or null), got {names!r}")
    for name in (payload.get("kernel"), *(names or ())):
        if name is not None and name != EditDistanceKernel.name:
            raise ConfigurationError(
                f"this server serves only the {EditDistanceKernel.name!r} "
                f"kernel, but the request names {name!r}")


class Field(NamedTuple):
    """A declared field: its type as a refusal names it, the type's test,
    and whether a request must carry it.  Values are checked when the
    query keys are built, and kernel names by :func:`check_kernel_fields`.
    """

    type: str
    test: Callable[[object], bool]
    required: bool = False


class WireOp(NamedTuple):
    """An op's fields and handler: ``handler(service, payload)`` returns the
    response's own fields, a query op's ``(service, payload, queries)``
    returns the queries' cache/batch keys."""

    fields: dict[str, Field]
    handler: Callable[..., object]
    query: bool = False


def check_request(payload: object) -> WireOp:
    """The :data:`OPS` row ``payload`` fits; ``ValueError`` if none."""
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    op = payload.get("op")
    # A non-string op (a list, an object) is unhashable: no dict lookup.
    operation = OPS.get(op) if isinstance(op, str) else None
    if operation is None:
        raise ValueError(f"unknown op {op!r}; expected one of "
                         f"{', '.join(ALL_OPS)}")
    fields = operation.fields
    for name, value in payload.items():
        field = fields.get(name)
        if field is None and name != "op":
            raise ValueError(f"op {op!r} has no field {name!r} (its fields: "
                             f"{', '.join(map(repr, fields)) or 'none'})")
        if field is not None and not field.test(value):
            raise ValueError(f"field {name!r} must be {field.type}, "
                             f"got {value!r}")
    for name, field in fields.items():
        if field.required and name not in payload:
            raise ValueError(f"op {op!r} requires field {name!r}")
    check_kernel_fields(payload)
    return operation


class SimilarityService:
    """Transport-free serving core: dynamic index + cache + dispatch.

    Parameters
    ----------
    strings:
        Initial collection served by the dynamic index.
    config:
        A :class:`~repro.config.ServiceConfig`; ``max_tau``,
        ``cache_capacity``, and the ``shards*`` fields
        are consumed here, the transport fields by :class:`SimilarityServer`.

    Every served index is built with the even partition and
    :data:`~repro.config.DEFAULT_VERIFICATION`; neither is configurable.

    With ``config.shards > 1`` the collection is served by a
    :class:`~repro.service.sharding.ShardRouter`, which duck-types the
    :class:`DynamicSearcher` surface, so dispatch and the cache are
    identical: :meth:`insert` and :meth:`delete` drop the cached answers
    the write can change, sharded or not.  Writes go through those two
    methods (the wire ops do); a write made on :attr:`searcher` directly
    would leave stale answers in the cache.
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (),
                 config: ServiceConfig = DEFAULT_SERVICE_CONFIG) -> None:
        self.config = config
        if config.shards > 1:
            self.searcher: DynamicSearcher | ShardRouter = ShardRouter(
                strings, shards=config.shards, max_tau=config.max_tau,
                backend=config.shard_backend,
                migration_batch=config.migration_batch)
        else:
            self.searcher = DynamicSearcher(strings, max_tau=config.max_tau)
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
        """The cache/batch keys of a checked query request, one per query.

        The value checks run here, before any key joins a batch, so one
        malformed request can never fail the batch it shares.
        """
        queries = payload.get("queries", [payload.get("query")])
        limit = self.config.max_query_batch
        if limit and len(queries) > limit:
            raise ValueError(f"batch of {len(queries)} queries exceeds "
                             f"max_query_batch={limit}")
        return OPS[payload["op"]].handler(self, payload, queries)

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

    def execute_queries(self, keys: Sequence[QueryKey],
                        ) -> list[tuple[list[SearchMatch], bool]]:
        """Answer a batch of validated query keys in one pass.

        Returns ``(matches, cached)`` per key.  This is the
        :class:`~repro.service.batcher.RequestBatcher` execute hook: no
        mutation can interleave with the call, so every answer in a batch
        reflects the same collection snapshot.  Cache misses of kind
        ``search`` are answered by **one** ``search_many()`` call over the
        whole batch (duplicates probed once, selection windows from the
        searcher's cache); top-k misses are grouped by ``(k, limit)`` and
        each group is one ``search_top_k_many()`` pass, a threshold search
        at ``limit`` cut to ``k``.

        The cache is keyed on the plain query key, sharded or not; a
        write drops only the entries it can change (:meth:`insert`,
        :meth:`delete`).

        Duplicate keys within one batch are answered by copying the first
        occurrence's answer and counted as ``cache.coalesced`` — they
        never consult the cache, so a coalesced batch of one popular query
        records one miss (or one hit), not one per duplicate.
        """
        with self._lock:
            answers: list[tuple[list[SearchMatch], bool] | None] = (
                [None] * len(keys))
            # Cache misses by execution group: None for every search key,
            # (k, limit) for top-k keys.
            misses: dict[tuple[int, int] | None,
                         list[tuple[int, QueryKey]]] = {}
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
                cached = self.cache.get(key)
                if cached is not None:
                    answers[position] = (cached, True)
                    continue
                group = None if key[0] == "search" else key[2:]
                misses.setdefault(group, []).append((position, key))
            for group, entries in misses.items():
                queries = [key[1] for _, key in entries]
                if group is None:
                    batches = self.searcher.search_many(
                        queries, tau=[key[2] for _, key in entries])
                else:
                    # Each (k, limit) group is one batch pass at the limit
                    # instead of one pass per query.
                    batches = self.searcher.search_top_k_many(queries, *group)
                for (position, key), matches in zip(entries, batches):
                    self.cache.put(key, matches)
                    answers[position] = (matches, False)
            for position, leader in duplicates:
                answers[position] = answers[leader]
            return answers  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, text: str, id: int | None = None) -> int:
        """Insert one string; drop the cached answers it can change.

        Those are the answers of the queries within their threshold of
        ``text`` (``tau`` for a search, ``limit`` for a top-k), which
        :meth:`QueryCache.drop_near
        <repro.service.cache.QueryCache.drop_near>` finds.
        """
        with self._lock:
            record_id = self._mutate(self.searcher.insert, text, id=id)
            self.cache.drop_near(text)
            return record_id

    def delete(self, record_id: int) -> bool:
        """Delete one record by id; drop the cached answers that hold it."""
        with self._lock:
            deleted = self._mutate(self.searcher.delete, record_id)
            if deleted:
                self.cache.drop_holding(record_id)
            return deleted

    def _mutate(self, mutation: Callable, *args, **kwargs):
        """Run ``mutation``; clear the whole cache if it raises
        :class:`ServiceError` — a dead shard worker leaves the collection's
        state unknown.  A refused write (``ValueError``, ``TypeError``)
        changed nothing and keeps the cache."""
        try:
            return mutation(*args, **kwargs)
        except ServiceError:
            self.cache.clear()
            raise

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_request(self, payload: object) -> dict:
        """Map one request object to one response object (never raises).

        The request is checked against its :data:`OPS` row and answered by
        the row's handler.  Every request dispatched here is recorded into
        :attr:`metrics` (request count, latency histogram, error count)
        via :meth:`record_request`; the TCP transport answers query ops
        through its batcher instead and records those itself, so each
        request is counted exactly once whichever way it enters.
        """
        started = time.perf_counter()
        try:
            operation = check_request(payload)
            with self._lock:
                if operation.query:
                    response = self.render_answers(
                        payload["op"],
                        self.execute_queries(self.build_query_keys(payload)))
                else:
                    response = {"ok": True, **operation.handler(self, payload),
                                "epoch": self.searcher.epoch}
        except (ValueError, TypeError, ServiceError) as error:
            # ServiceError covers serving-infrastructure failures (e.g. a
            # dead shard worker): the contract is one error response per
            # bad request, never an exception up through the transport.
            response = {"ok": False, "error": str(error)}
        if isinstance(payload, dict):  # a non-object names no op to count
            self.record_request(payload, time.perf_counter() - started,
                                bool(response.get("ok")))
        return response

    def record_request(self, payload: dict, seconds: float, ok: bool) -> None:
        """Record one finished request into the service metrics.

        The counter increment and the histogram observation share the op
        name, so ``requests.<op>`` always equals the matching latency
        histogram's total count — the invariant the smoke script asserts.
        Ops outside :data:`ALL_OPS` are pooled under ``"unknown"``, keeping
        metric cardinality bounded against garbage input.  Requests slower
        than :attr:`~repro.config.ServiceConfig.slow_query_ms` also emit a
        structured slow-query log event.
        """
        op, query = payload.get("op"), payload.get("query")
        name = op if isinstance(op, str) and op in ALL_OPS else "unknown"
        with self._lock:
            self.metrics.inc(f"requests.{name}")
            self.metrics.observe(f"latency_seconds.{name}", seconds)
            if not ok:
                self.metrics.inc(f"errors.{name}")
        threshold = self.config.slow_query_ms
        if threshold and seconds * 1000.0 >= threshold:
            log_slow_query(op=name, seconds=seconds, threshold_ms=threshold,
                           ok=ok,
                           query=query if isinstance(query, str) else None)

    def count(self, name: str) -> None:
        """Bump one counter of :attr:`metrics` (the transport's
        ``connections`` and ``request_lines``)."""
        with self._lock:
            self.metrics.inc(name)

    # ------------------------------------------------------------------
    # Op handlers (the rows of OPS)
    # ------------------------------------------------------------------
    def _search_keys(self, payload: dict, queries: list) -> list[QueryKey]:
        tau = resolve_tau(payload.get("tau"), self.searcher.max_tau)
        return [("search", query, tau) for query in queries]

    def _top_k_keys(self, payload: dict, queries: list) -> list[QueryKey]:
        k = payload["k"]
        limit = resolve_top_k(k, payload.get("max_tau"), self.searcher.max_tau)
        return [("top-k", query, k, limit) for query in queries]

    def _resize(self, payload: dict) -> dict:
        router = self._require_router(payload["op"])
        resize = (router.add_shard if payload["op"] == "add-shard"
                  else router.remove_shard)
        status = resize(drain=payload.get("drain", True))
        # Cleared only now: a *rejected* resize (a migration in flight)
        # must not erase the record of why the previous drain failed.
        self.reshard_error = None
        return {"status": status}

    def _transport_only(self, payload: dict) -> dict:
        raise ServiceError("shutdown is handled by the TCP transport, not "
                           "the service core")

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
        """The router's rebalance status, with the last drain failure."""
        with self._lock:
            status = self._require_router("rebalance-status").rebalance_status()
            if self.reshard_error is not None:
                status["error"] = self.reshard_error
            return status

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
        request metrics (:attr:`metrics`, which also holds the TCP
        transport's ``batcher_*`` and ``batch_size`` families), the query
        cache's counters, and the engine's filter funnel — read from the
        searcher's :class:`~repro.types.JoinStatistics` directly when
        unsharded, or scatter-gathered and summed across the fleet by
        :meth:`ShardRouter.metrics_snapshot
        <repro.service.sharding.ShardRouter.metrics_snapshot>` when
        sharded, in which case the per-shard snapshots are also exposed
        under ``shards.per_shard``.
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
                                         memory=searcher.index_memory())
            payload["merged"] = merge_snapshots(
                [self.metrics.snapshot(), self._cache_snapshot(), engine])
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
                # One status scatter covers statistics and memory; going
                # through the properties separately would scatter twice.
                summary = searcher.status_summary()
                statistics = summary["statistics"]
                memory = summary["memory"]
            else:
                statistics = searcher.statistics
                memory = searcher.index_memory()
            cache = self.cache.stats.as_dict()
            cache["capacity"] = self.cache.capacity
            cache["size"] = len(self.cache)
            payload = {
                "size": len(searcher),
                "epoch": searcher.epoch,
                # Always 0: deletes leave no tombstones.  Kept only
                # because benchmarks/e2e/passes.py reads the key.
                "tombstones": 0,
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
            return payload


# ``type(value) is int`` keeps booleans out of the integer fields.
_STRING = Field("a string", lambda value: isinstance(value, str), True)
_QUERIES = Field("a list of strings", lambda value: isinstance(value, list)
                 and all(isinstance(item, str) for item in value), True)
_TAU = Field("an integer or null",
             lambda value: value is None or type(value) is int)
_K = Field("an integer", lambda value: type(value) is int, True)
_KERNEL = Field("a kernel name", lambda value: True)
_DRAIN = Field("a boolean", lambda value: isinstance(value, bool))
_ID = Field("an integer >= 0",
            lambda value: type(value) is int and value >= 0, True)

#: The wire protocol: every op, the fields it takes, and its handler.  A
#: request carrying a field its op does not declare is refused.
OPS: dict[str, WireOp] = {
    "search": WireOp({"query": _STRING, "tau": _TAU, "kernel": _KERNEL},
                     SimilarityService._search_keys, query=True),
    "top-k": WireOp({"query": _STRING, "k": _K, "max_tau": _TAU,
                     "kernel": _KERNEL},
                    SimilarityService._top_k_keys, query=True),
    BATCH_OP: WireOp({"queries": _QUERIES, "tau": _TAU, "kernel": _KERNEL,
                      "kernels": _KERNEL},
                     SimilarityService._search_keys, query=True),
    TOP_K_BATCH_OP: WireOp({"queries": _QUERIES, "k": _K, "max_tau": _TAU,
                            "kernel": _KERNEL, "kernels": _KERNEL},
                           SimilarityService._top_k_keys, query=True),
    "add-shard": WireOp({"drain": _DRAIN}, SimilarityService._resize),
    "remove-shard": WireOp({"drain": _DRAIN}, SimilarityService._resize),
    "rebalance-status": WireOp({}, lambda service, payload: {
        "status": service.rebalance_status()}),
    "insert": WireOp(
        {"text": _STRING, "id": Field("an integer >= 0 or null", lambda value:
                                     value is None or _ID.test(value))},
        lambda service, payload: {"id": service.insert(
            payload["text"], id=payload.get("id"))}),
    "delete": WireOp({"id": _ID}, lambda service, payload: {
        "deleted": service.delete(payload["id"])}),
    "stats": WireOp({}, lambda service, payload: service.stats()),
    "metrics": WireOp({}, lambda service, payload: service.metrics_payload()),
    "explain": WireOp(
        {"query": _STRING, "tau": _TAU, "kernel": _KERNEL},
        lambda service, payload: {"explain": service.searcher.explain(
            payload["query"], payload.get("tau"))}),
    "ping": WireOp({}, lambda service, payload: {"pong": True}),
    "shutdown": WireOp({}, SimilarityService._transport_only),
}
#: Query operations: their keys run through ``execute_queries`` or the batcher.
QUERY_OPS = tuple(op for op, operation in OPS.items() if operation.query)
#: Fleet-resize ops (sharded services only): the TCP transport drains them
#: in the background, the core unless the request says ``drain: false``.
RESHARD_OPS = tuple(op for op, operation in OPS.items()
                    if "drain" in operation.fields)
#: Every operation the service understands.
ALL_OPS = tuple(OPS)


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
                                      window=config.batch_window,
                                      metrics=service.metrics)
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

        A line :data:`OPS` refuses is answered by ``handle_request``.
        Query ops are built into keys, every key joins the shared
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
        try:
            operation = check_request(payload)
        except ValueError:
            # The core answers (and counts) the refusal.
            return self.service.handle_request(payload)
        op = payload["op"]
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        if op in RESHARD_OPS:
            return self._handle_reshard(payload)
        if not operation.query:
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
        self.service.record_request(payload, time.perf_counter() - started,
                                    bool(response.get("ok")))
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
        # End serve_forever() from the loop's own thread; run() then stops
        # the server and closes the service there.  Only a callback
        # crosses threads: after a shutdown op the loop may be closing and
        # drop what it is handed.  A dropped callback leaves nothing
        # behind; a dropped coroutine would never be awaited.
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server._stopped.set)
            except RuntimeError:  # loop already closed (a shutdown op)
                pass
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise ServiceError("background server failed to stop within 10s")
