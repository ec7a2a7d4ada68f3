"""LRU query-result cache whose entries a write drops one by one.

Online similarity traffic is heavily repetitive — the same popular lookups
arrive over and over — while the collection mutates comparatively rarely.
:class:`QueryCache` exploits that asymmetry: results are cached under the
service's query keys, ``("search", query, tau)`` and ``("top-k", query, k,
limit)`` (the query text second, the threshold last), and a write drops
only the entries whose answer it can change.

Edit distance is symmetric, so the inverse of the similarity predicate is
the predicate itself:

* An insert of ``s`` can change the answer of ``(q, τ)`` only if
  ``ed(q, s) ≤ τ``.  :meth:`QueryCache.drop_near` decides that with the
  pipeline's own filters, cheapest first: the paper's length filter
  (Section 3) over a query length → keys map, the histogram-signature
  popcount test on each key's cached signature, and one
  :class:`~repro.distance.myers_batch.BatchMyersKernel` sweep of ``s``
  over the survivors per threshold.  A top-k answer is the threshold
  search at ``limit`` cut to ``k``, so its threshold is ``limit``.
* A delete of id ``i`` can change an answer only if the answer holds
  ``i``: :meth:`QueryCache.drop_holding` reads a record id → keys map.
  A top-k entry holds only its cut answer, which is enough: deleting a
  record outside the top ``k`` leaves the top ``k`` as they were.

Answers do not depend on where records live, so resharding drops nothing.
Both maps are kept in step with the entries on put, LRU eviction and
drop, so they never outgrow ``capacity`` entries' keys.

On the ``serve_rw`` stream (1,188 searches from a 50-query pool beside 66
inserts and 66 deletes over 50,000 strings) the hit share rises from 155
of 1,188 (13.0%) under whole-cache invalidation to 1,137 (95.7%): one of
the 132 writes touched a cached entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..core.store import histogram_signature
from ..distance.myers_batch import BatchMyersKernel
from ..search.searcher import SearchMatch


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one :class:`QueryCache`.

    ``invalidations`` counts entries dropped because a write could change
    their answer (or because :meth:`QueryCache.clear` dropped them all).
    ``coalesced`` counts queries answered by sharing another query's
    execution in the same batch (duplicate keys deduplicated by the
    serving core) — they are neither hits nor misses, because the cache
    was never consulted for them.  Counting them as misses would deflate
    the hit rate even though only one index pass ran; keeping them out of
    both sides keeps ``hit_rate`` a property of the cache alone.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache has never been consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """Counters plus the derived ``hit_rate`` (the only float value)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "coalesced": self.coalesced,
                "hit_rate": round(self.hit_rate, 4)}


class QueryCache:
    """Bounded LRU cache of query results with per-entry invalidation.

    Parameters
    ----------
    capacity:
        Maximum number of cached results; ``0`` disables the cache (every
        :meth:`get` misses, every :meth:`put` is a no-op), which is how the
        throughput benchmark measures the uncached baseline.

    Examples
    --------
    >>> cache = QueryCache(capacity=4)
    >>> cache.put(("search", "vldb", 1), [SearchMatch(0, 7, "vldb")])
    >>> cache.drop_near("sigmod")  # ed("vldb", "sigmod") > 1
    0
    >>> cache.get(("search", "vldb", 1))
    [SearchMatch(distance=0, id=7, text='vldb')]
    >>> cache.drop_near("pvldb")  # within 1 edit: the answer changes
    1
    >>> cache.get(("search", "vldb", 1)) is None
    True
    """

    def __init__(self, capacity: int = 1024) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 0:
            raise ValueError(f"capacity must be a non-negative integer, "
                             f"got {capacity!r}")
        self.capacity = capacity
        self.stats = CacheStats()
        # key -> (answer, the ids it holds)
        self._entries: OrderedDict[Hashable, tuple[list, frozenset[int]]] = (
            OrderedDict())
        # query length -> {key: the query's histogram signature}
        self._by_length: dict[int, dict[Hashable, int]] = {}
        # record id -> {key: None}, one per answer holding the id
        self._by_id: dict[int, dict[Hashable, None]] = {}
        # The largest threshold ever cached: how far from an insert's
        # length drop_near must look.
        self._widest = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable,
            epoch: object = None) -> list[SearchMatch] | None:
        """Return the cached result for ``key``, or ``None``.

        Hits are moved to the most-recently-used position.  ``epoch`` is
        ignored: the epoch-keyed form is still called by
        ``benchmarks/e2e/tracing.py``.
        """
        cached = self._entries.get(key)
        if cached is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return list(cached[0])

    def put(self, key: Hashable, matches: Sequence[SearchMatch],
            *traced: Sequence) -> None:
        """Store ``matches`` under ``key``, evicting the LRU entry if full.

        ``put(key, epoch, answer)``, the epoch-keyed form that
        ``benchmarks/e2e/tracing.py`` still calls with ``[id, distance]``
        pairs as its answer, stores that answer with the epoch ignored.
        """
        if self.capacity == 0:
            return
        if traced:
            matches, = traced
            ids = frozenset(pair[0] for pair in matches)
        else:
            ids = frozenset(match.id for match in matches)
        if key in self._entries:
            self._discard(key)
        query = key[1]
        self._entries[key] = (list(matches), ids)
        self._by_length.setdefault(len(query), {})[key] = (
            histogram_signature(query))
        for record_id in ids:
            self._by_id.setdefault(record_id, {})[key] = None
        self._widest = max(self._widest, key[-1])
        while len(self._entries) > self.capacity:
            self._discard(next(iter(self._entries)))
            self.stats.evictions += 1

    def drop_near(self, text: str) -> int:
        """Drop the entries an insert of ``text`` can change; return how many.

        An entry goes when its query is within its threshold of ``text``:
        length filter, signature popcounts, then one batched Myers sweep
        of ``text`` per threshold over the keys that passed both.
        """
        length, signature = len(text), histogram_signature(text)
        absent = ~signature
        near: dict[int, list[Hashable]] = {}
        for query_length in range(length - self._widest,
                                  length + self._widest + 1):
            bucket = self._by_length.get(query_length)
            if bucket is None:
                continue
            gap = abs(query_length - length)
            for key, cached in bucket.items():
                threshold = key[-1]
                if (gap <= threshold
                        and (cached & absent).bit_count() <= threshold
                        and (signature & ~cached).bit_count() <= threshold):
                    near.setdefault(threshold, []).append(key)
        if not near:
            return 0
        sweep = BatchMyersKernel(text).distances_within
        return self._drop([
            key for threshold, keys in near.items()
            for key, distance in zip(keys, sweep([key[1] for key in keys],
                                                 threshold))
            if distance <= threshold])

    def drop_holding(self, record_id: int) -> int:
        """Drop the entries whose answer holds ``record_id``; return how
        many."""
        return self._drop(list(self._by_id.get(record_id, ())))

    def _drop(self, keys: list[Hashable]) -> int:
        """Discard ``keys``, each counted as an invalidation."""
        for key in keys:
            self._discard(key)
        self.stats.invalidations += len(keys)
        return len(keys)

    def _discard(self, key: Hashable) -> None:
        """Remove ``key``'s entry and its references from both maps."""
        _, ids = self._entries.pop(key)
        _unlink(self._by_length, len(key[1]), key)
        for record_id in ids:
            _unlink(self._by_id, record_id, key)

    def note_coalesced(self, count: int = 1) -> None:
        """Record queries answered by sharing a duplicate's execution.

        Deliberately independent of :attr:`capacity`: coalescing is a
        property of the batch executor, so it is counted even when the
        cache itself is disabled.
        """
        self.stats.coalesced += count

    def clear(self) -> None:
        """Drop every entry, each counted as an invalidation."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._by_length.clear()
        self._by_id.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryCache(size={len(self._entries)}, "
                f"capacity={self.capacity})")


def _unlink(buckets: dict, slot: int, key: Hashable) -> None:
    """Remove ``key`` from ``buckets[slot]``, and the bucket once empty."""
    bucket = buckets[slot]
    del bucket[key]
    if not bucket:
        del buckets[slot]
