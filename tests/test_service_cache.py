"""Tests for the LRU query cache and its epoch-based invalidation."""

import pytest

from repro.config import ServiceConfig
from repro.search import SearchMatch
from repro.service import (BackgroundServer, DynamicSearcher, QueryCache,
                           ServiceClient, SimilarityService)


def match(i):
    return SearchMatch(distance=0, id=i, text=f"text{i}")


class TestLruBehaviour:
    def test_put_get_round_trip(self):
        cache = QueryCache(capacity=4)
        cache.put(("search", "q", 1), epoch=0, matches=[match(1), match(2)])
        assert cache.get(("search", "q", 1), epoch=0) == [match(1), match(2)]

    def test_miss_on_unknown_key(self):
        cache = QueryCache(capacity=4)
        assert cache.get(("search", "q", 1), epoch=0) is None
        assert cache.stats.misses == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = QueryCache(capacity=2)
        cache.put("a", epoch=0, matches=[match(1)])
        cache.put("b", epoch=0, matches=[match(2)])
        assert cache.get("a", epoch=0) is not None  # refresh "a"
        cache.put("c", epoch=0, matches=[match(3)])  # evicts "b"
        assert cache.get("b", epoch=0) is None
        assert cache.get("a", epoch=0) is not None
        assert cache.get("c", epoch=0) is not None
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = QueryCache(capacity=0)
        cache.put("a", epoch=0, matches=[match(1)])
        assert cache.get("a", epoch=0) is None
        assert len(cache) == 0

    def test_cached_lists_are_isolated_copies(self):
        cache = QueryCache(capacity=2)
        original = [match(1)]
        cache.put("a", epoch=0, matches=original)
        original.append(match(2))
        first = cache.get("a", epoch=0)
        first.append(match(3))
        assert cache.get("a", epoch=0) == [match(1)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=-1)

    def test_hit_rate(self):
        cache = QueryCache(capacity=2)
        cache.put("a", epoch=0, matches=[])
        cache.get("a", epoch=0)
        cache.get("b", epoch=0)
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hits"] == 1


class TestEpochInvalidation:
    def test_new_epoch_invalidates_everything(self):
        cache = QueryCache(capacity=4)
        cache.put("a", epoch=0, matches=[match(1)])
        cache.put("b", epoch=0, matches=[match(2)])
        assert cache.get("a", epoch=1) is None
        assert cache.get("b", epoch=1) is None
        assert cache.stats.invalidations == 1

    def test_put_at_new_epoch_also_invalidates(self):
        cache = QueryCache(capacity=4)
        cache.put("a", epoch=0, matches=[match(1)])
        cache.put("b", epoch=1, matches=[match(2)])
        assert cache.get("a", epoch=1) is None
        assert cache.get("b", epoch=1) is not None

    def test_same_epoch_keeps_entries(self):
        cache = QueryCache(capacity=4)
        cache.put("a", epoch=5, matches=[match(1)])
        assert cache.get("a", epoch=5) is not None
        assert cache.stats.invalidations == 0

    def test_clear(self):
        cache = QueryCache(capacity=4)
        cache.put("a", epoch=0, matches=[match(1)])
        cache.clear()
        assert cache.get("a", epoch=0) is None
        assert cache.stats.invalidations == 1


class TestCacheAgainstDynamicSearcher:
    """Cache + dynamic index: mutations must invalidate stale answers."""

    def test_mutation_invalidates_cached_search(self):
        searcher = DynamicSearcher(["vldb", "sigmod"], max_tau=1)
        cache = QueryCache(capacity=8)
        key = ("search", "vldb", 1)

        first = searcher.search("vldb", tau=1)
        cache.put(key, searcher.epoch, first)
        assert cache.get(key, searcher.epoch) == first

        searcher.insert("pvldb")  # changes the answer to the same query
        assert cache.get(key, searcher.epoch) is None
        fresh = searcher.search("vldb", tau=1)
        assert [m.text for m in fresh] == ["vldb", "pvldb"]
        cache.put(key, searcher.epoch, fresh)
        assert cache.get(key, searcher.epoch) == fresh

    def test_delete_invalidates_cached_search(self):
        searcher = DynamicSearcher(["vldb", "pvldb"], max_tau=1)
        cache = QueryCache(capacity=8)
        key = ("search", "vldb", 1)
        cache.put(key, searcher.epoch, searcher.search("vldb", tau=1))
        searcher.delete(1)
        assert cache.get(key, searcher.epoch) is None
        assert [m.text for m in searcher.search("vldb", tau=1)] == ["vldb"]


class TestCoalescedCacheAccounting:
    """Satellite bugfix: batch duplicates are coalesced, not misses."""

    def test_duplicates_counted_as_coalesced(self):
        service = SimilarityService(["vldb", "pvldb"], ServiceConfig(port=0))
        try:
            key = ("search", "vldb", 1)
            answers = service.execute_queries([key, key, key])
            assert answers[0] == answers[1] == answers[2]
            stats = service.cache.stats
            assert stats.misses == 1
            assert stats.coalesced == 2
            assert stats.hits == 0
            # A second batch hits once and coalesces the rest.
            service.execute_queries([key, key])
            assert stats.hits == 1
            assert stats.coalesced == 3
            assert stats.misses == 1
        finally:
            service.close()

    def test_coalesced_counted_even_with_cache_disabled(self):
        service = SimilarityService(
            ["vldb"], ServiceConfig(port=0, cache_capacity=0))
        try:
            key = ("search", "vldb", 1)
            service.execute_queries([key, key])
            assert service.cache.stats.coalesced == 1
            assert service.cache.stats.misses == 1
        finally:
            service.close()

    def test_duplicates_coalesced_over_tcp(self):
        # The batcher passes every key through, so execute_queries counts
        # the duplicates of a TCP batch exactly as it does in-process.
        with BackgroundServer(["vldb", "pvldb"],
                              ServiceConfig(port=0)) as address:
            with ServiceClient(*address) as client:
                client.search_batch(["vldb"] * 3, tau=1)
                cache = client.stats()["cache"]
        assert cache["coalesced"] == 2
        assert cache["hits"] + cache["misses"] == 1

    def test_coalesced_surfaces_in_stats_and_metrics(self):
        service = SimilarityService(["vldb"], ServiceConfig(port=0))
        try:
            key = ("search", "vldb", 1)
            service.execute_queries([key, key])
            assert service.stats()["cache"]["coalesced"] == 1
            merged = service.metrics_payload()["merged"]
            assert merged["counters"]["cache_coalesced"] == 1
            assert merged["counters"]["cache_misses"] == 1
        finally:
            service.close()
