"""Online similarity-search serving layer (beyond the paper).

The paper's segment index is built once per batch join; this package turns
it into a long-lived service on the path to the ROADMAP's "heavy traffic"
north star.  Three layers, composable and individually testable:

1. **Dynamic index** — :class:`DynamicSearcher`: the Pass-Join search
   index with ``insert``/``delete`` (a delete removes the record's
   postings and frees its row at once).
   Search and top-k stay exact: results are always identical to a fresh
   :class:`~repro.search.searcher.PassJoinSearcher` over the surviving
   strings.
2. **Serving core** — :class:`QueryCache` (LRU keyed on the query,
   invalidated wholesale when the collection's mutation epoch moves) and
   :class:`RequestBatcher` (coalesces concurrent lookups into one index
   pass); :class:`SimilarityService` wires the two around the dynamic
   index and speaks the request/response vocabulary.
3. **Transport** — :class:`SimilarityServer`, an asyncio JSON-lines TCP
   server, with :class:`ServiceClient` (blocking) and
   :class:`AsyncServiceClient` (asyncio) counterparts, and
   :class:`BackgroundServer` to host the stack from synchronous code.
4. **Sharding** — :class:`ShardRouter` partitions the live collection
   across an elastic fleet of shard workers (in-process or fork-spawned
   processes) and scatter-gathers queries with results element-identical
   to a single :class:`DynamicSearcher`; enabled via
   ``ServiceConfig(shards=N)``.  Placement is one consistent-hashing
   ring (:class:`~repro.service.placement.HashRing`), the cache keys on
   the router's scalar epoch as it does unsharded, and
   ``add_shard``/``remove_shard`` resize the fleet live — records stream
   between shards in bounded batches while queries keep being answered
   exactly.

Every layer is observable through :mod:`repro.obs`: the service records
per-op request counts, error counts, and latency histograms into a
:class:`~repro.obs.metrics.MetricsRegistry`; the engine's filter-funnel
counters (and each shard's, merged across the fleet) are exposed by the
``metrics`` wire op with Prometheus rendering; the ``explain`` op traces
one probe into a per-stage funnel breakdown; and requests slower than
:attr:`~repro.config.ServiceConfig.slow_query_ms` hit a structured JSON
slow-query log.

Configuration lives in :class:`repro.config.ServiceConfig`; the CLI
exposes the stack as ``passjoin serve`` / ``passjoin query`` /
``passjoin admin metrics``.
"""

from ..config import DEFAULT_SERVICE_CONFIG, ServiceConfig
from .batcher import BatcherStats, RequestBatcher
from .cache import CacheStats, QueryCache
from .client import AsyncServiceClient, ServiceClient
from .dynamic import DynamicSearcher
from .placement import HashRing
from .server import (BackgroundServer, SimilarityServer, SimilarityService,
                     run_service)
from .sharding import (SHARD_BACKENDS, ShardContext, ShardRouter,
                       resolve_shard_backend)

__all__ = [
    "DynamicSearcher",
    "ShardRouter",
    "ShardContext",
    "HashRing",
    "resolve_shard_backend",
    "SHARD_BACKENDS",
    "QueryCache",
    "CacheStats",
    "RequestBatcher",
    "BatcherStats",
    "SimilarityService",
    "SimilarityServer",
    "BackgroundServer",
    "run_service",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceConfig",
    "DEFAULT_SERVICE_CONFIG",
]
