"""Tests for the LRU query cache and its per-entry invalidation."""

import pytest

from repro.config import ServiceConfig
from repro.search import SearchMatch
from repro.service import (BackgroundServer, DynamicSearcher, QueryCache,
                           ServiceClient, SimilarityService)


def match(i):
    return SearchMatch(distance=0, id=i, text=f"text{i}")


def key(query, tau=1):
    return ("search", query, tau)


class TestLruBehaviour:
    def test_put_get_round_trip(self):
        cache = QueryCache(capacity=4)
        cache.put(key("q"), [match(1), match(2)])
        assert cache.get(key("q")) == [match(1), match(2)]

    def test_miss_on_unknown_key(self):
        cache = QueryCache(capacity=4)
        assert cache.get(key("q")) is None
        assert cache.stats.misses == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = QueryCache(capacity=2)
        cache.put(key("a"), [match(1)])
        cache.put(key("b"), [match(2)])
        assert cache.get(key("a")) is not None  # refresh "a"
        cache.put(key("c"), [match(3)])  # evicts "b"
        assert cache.get(key("b")) is None
        assert cache.get(key("a")) is not None
        assert cache.get(key("c")) is not None
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = QueryCache(capacity=0)
        cache.put(key("a"), [match(1)])
        assert cache.get(key("a")) is None
        assert len(cache) == 0

    def test_cached_lists_are_isolated_copies(self):
        cache = QueryCache(capacity=2)
        original = [match(1)]
        cache.put(key("a"), original)
        original.append(match(2))
        first = cache.get(key("a"))
        first.append(match(3))
        assert cache.get(key("a")) == [match(1)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=-1)

    def test_hit_rate(self):
        cache = QueryCache(capacity=2)
        cache.put(key("a"), [])
        cache.get(key("a"))
        cache.get(key("b"))
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hits"] == 1


def index_sizes(cache):
    """``(length buckets, id buckets, keys referenced by either map)``."""
    referenced = set()
    for buckets in (cache._by_length, cache._by_id):
        for bucket in buckets.values():
            assert bucket, "an empty bucket was left behind"
            referenced |= set(bucket)
    return len(cache._by_length), len(cache._by_id), referenced


class TestPerEntryInvalidation:
    def test_epoch_is_not_part_of_the_key(self):
        # The epoch-keyed call form (still used by the benchmark's tracer,
        # with [id, distance] pairs as answers) ignores the epoch: a moved
        # epoch no longer drops anything.
        cache = QueryCache(capacity=4)
        cache.put(key("a"), 0, [[1, 0]])
        cache.put(key("b"), 1, [[2, 0]])
        assert cache.get(key("a"), 2) == [[1, 0]]
        assert cache.get(key("b")) == [[2, 0]]
        assert cache.stats.invalidations == 0
        assert cache.drop_holding(2) == 1  # its ids are indexed all the same
        assert cache.get(key("b"), 2) is None

    def test_insert_far_from_every_query_keeps_entries(self):
        cache = QueryCache(capacity=8)
        cache.put(key("vldb"), [match(0)])
        cache.put(("top-k", "sigmod", 2, 1), [match(1)])
        # Too long for both; equal length to "sigmod" but 6 edits away.
        for text in ("abcdefghij", "xxxxxx", ""):
            assert cache.drop_near(text) == 0
        assert cache.get(key("vldb")) == [match(0)]
        assert cache.get(("top-k", "sigmod", 2, 1)) == [match(1)]
        assert cache.stats.invalidations == 0

    def test_insert_within_threshold_drops_exactly_the_affected_keys(self):
        cache = QueryCache(capacity=8)
        kept = [key("vldb", 0), key("sigmod", 2), ("top-k", "vldb", 1, 0)]
        dropped = [key("vldb", 1), key("vldb", 2), key("pvldb", 0),
                   ("top-k", "vldb", 3, 1), ("top-k", "vldbs", 1, 2)]
        for cached in kept + dropped:
            cache.put(cached, [match(len(cached[1]))])
        # ed("vldb", "pvldb") = 1, ed("vldbs", "pvldb") = 2.
        assert cache.drop_near("pvldb") == len(dropped)
        assert cache.stats.invalidations == len(dropped)
        for cached in kept:
            assert cache.get(cached) is not None, cached
        for cached in dropped:
            assert cache.get(cached) is None, cached
        assert index_sizes(cache)[2] == set(kept)

    def test_delete_of_a_held_id_drops_that_answer(self):
        cache = QueryCache(capacity=8)
        cache.put(key("a"), [match(1), match(2)])
        cache.put(key("b"), [match(2)])
        cache.put(key("c"), [match(3)])
        assert cache.drop_holding(9) == 0
        assert cache.drop_holding(2) == 2
        assert cache.stats.invalidations == 2
        assert cache.get(key("a")) is None and cache.get(key("b")) is None
        assert cache.get(key("c")) == [match(3)]
        assert sorted(cache._by_id) == [3]

    def test_clear(self):
        cache = QueryCache(capacity=4)
        cache.put(key("a"), [match(1)])
        cache.put(key("b"), [match(2)])
        cache.clear()
        assert cache.get(key("a")) is None
        assert cache.stats.invalidations == 2  # one per dropped entry
        assert index_sizes(cache) == (0, 0, set())

    def test_maps_stay_bounded_by_the_live_entries(self):
        cache = QueryCache(capacity=3)
        for number in range(40):
            query = "q" * (number % 7) + str(number)
            cache.put(key(query, number % 3),
                      [match(number), match(number + 1), match(number % 5)])
            if number % 4 == 0:
                cache.drop_holding(number - 1)
            if number % 6 == 0:
                cache.drop_near(query)
            lengths, ids, referenced = index_sizes(cache)
            assert len(cache) <= cache.capacity
            assert referenced == set(cache._entries)
            assert lengths <= len(cache)
            assert ids == len({record_id for entry in cache._entries.values()
                               for record_id in entry[1]})
        assert cache.stats.evictions > 0


class TestCacheAgainstDynamicSearcher:
    """Cache + dynamic index: a write drops the answers it changes."""

    def test_mutation_invalidates_cached_search(self):
        searcher = DynamicSearcher(["vldb", "sigmod"], max_tau=1)
        cache = QueryCache(capacity=8)
        cached_key = key("vldb")

        first = searcher.search("vldb", tau=1)
        cache.put(cached_key, first)
        assert cache.get(cached_key) == first

        searcher.insert("pvldb")  # changes the answer to the same query
        assert cache.drop_near("pvldb") == 1
        assert cache.get(cached_key) is None
        fresh = searcher.search("vldb", tau=1)
        assert [m.text for m in fresh] == ["vldb", "pvldb"]
        cache.put(cached_key, fresh)
        assert cache.get(cached_key) == fresh

    def test_delete_invalidates_cached_search(self):
        searcher = DynamicSearcher(["vldb", "pvldb"], max_tau=1)
        cache = QueryCache(capacity=8)
        cached_key = key("vldb")
        cache.put(cached_key, searcher.search("vldb", tau=1))
        searcher.delete(1)
        assert cache.drop_holding(1) == 1
        assert cache.get(cached_key) is None
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
