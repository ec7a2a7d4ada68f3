"""Tests for the batch-probe executor (``search_many`` / ``search-batch``).

The load-bearing property (the PR's acceptance criterion): over random
query batches interleaved with insert/delete, ``search_many()`` is
**element-identical** to sequential ``search()`` calls — on the static
searcher, the dynamic searcher, and a 2-shard router on both shard
backends.
"""

import asyncio
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import InvalidThresholdError
from repro.search import PassJoinSearcher
from repro.service import (BackgroundServer, DynamicSearcher, ServiceClient,
                           ShardRouter, SimilarityService)
from repro.service.client import AsyncServiceClient
from repro.service.server import ALL_OPS, BATCH_OP, TOP_K_BATCH_OP

from helpers import random_strings

#: Shard backends a router test runs on (``process`` needs ``fork``).
BACKENDS = ["thread", pytest.param(
    "process", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend requires fork"))]


class TestSearchManyStatic:
    def test_matches_sequential(self):
        strings = random_strings(120, 2, 14, alphabet="abc", seed=3)
        searcher = PassJoinSearcher(strings, max_tau=2)
        queries = random_strings(30, 2, 14, alphabet="abc", seed=4)
        assert searcher.search_many(queries, tau=2) == [
            searcher.search(query, tau=2) for query in queries]

    def test_duplicates_get_independent_result_lists(self):
        searcher = PassJoinSearcher(["vldb", "pvldb"], max_tau=1)
        first, second = searcher.search_many(["vldb", "vldb"], tau=1)
        assert first == second
        first.pop()
        assert len(second) == 2  # no aliasing between duplicate answers

    def test_per_query_taus(self):
        searcher = PassJoinSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
        loose, tight, default = searcher.search_many(
            ["vldb", "vldb", "vldb"], tau=[2, 0, None])
        assert loose == searcher.search("vldb", tau=2)
        assert tight == searcher.search("vldb", tau=0)
        assert default == searcher.search("vldb")

    def test_empty_batch(self):
        searcher = PassJoinSearcher(["vldb"], max_tau=1)
        assert searcher.search_many([]) == []

    def test_tau_above_max_rejected(self):
        searcher = PassJoinSearcher(["vldb"], max_tau=1)
        with pytest.raises(InvalidThresholdError):
            searcher.search_many(["vldb"], tau=2)
        with pytest.raises(InvalidThresholdError):
            searcher.search_many(["vldb", "vldb"], tau=[1, 2])

    def test_mismatched_tau_sequence_rejected(self):
        searcher = PassJoinSearcher(["vldb"], max_tau=1)
        with pytest.raises(ValueError):
            searcher.search_many(["vldb"], tau=[1, 1])

    def test_short_strings_and_empty_queries(self):
        strings = ["a", "ab", "abcdef", "abcdeg"]
        searcher = PassJoinSearcher(strings, max_tau=2)
        queries = ["", "a", "ab", "abcdef", "zzzzzz"]
        assert searcher.search_many(queries, tau=2) == [
            searcher.search(query, tau=2) for query in queries]

    def test_shared_posting_lists_are_scanned_once(self):
        # Same-length queries that differ in their last character select
        # the same leading substrings; each is probed on its own and gets
        # exactly its scalar answer.
        searcher = PassJoinSearcher(
            ["kaushic chaduri", "kaushik chakrab", "kaushuk chadhui",
             "caushik chakrabar"], max_tau=2)
        queries = ["kaushik chakrax", "kaushik chakray", "kaushik chakraz"]
        batch = searcher.search_many(queries, tau=2)
        assert batch == [searcher.search(query, tau=2) for query in queries]


class TestSearchManyDynamic:
    def test_tombstones_are_filtered(self):
        searcher = DynamicSearcher(["vldb", "pvldb", "sigmod"], max_tau=1)
        searcher.delete(1)
        batch = searcher.search_many(["vldb", "pvldb"], tau=1)
        assert batch == [searcher.search("vldb", tau=1),
                         searcher.search("pvldb", tau=1)]
        assert all(match.id != 1
                   for matches in batch for match in matches)

    def test_matches_sequential_after_mutations(self):
        searcher = DynamicSearcher(max_tau=2)
        for text in random_strings(60, 2, 12, alphabet="abc", seed=9):
            searcher.insert(text)
        for record_id in (3, 10, 25, 40):
            searcher.delete(record_id)
        queries = random_strings(20, 2, 12, alphabet="abc", seed=10)
        assert searcher.search_many(queries, tau=2) == [
            searcher.search(query, tau=2) for query in queries]


# ----------------------------------------------------------------------
# The acceptance property: batches under interleaved mutations
# ----------------------------------------------------------------------
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
    ), max_size=15)

BATCHES = st.lists(
    st.lists(st.text(alphabet="ab", max_size=8), min_size=1, max_size=6),
    min_size=1, max_size=3)


def _apply(searcher, ops, live):
    for op in ops:
        if op[0] == "insert":
            searcher.insert(op[1])
            live.add(max(live, default=-1) + 1)
        else:
            target = op[1] % (max(live) + 1) if live else 0
            searcher.delete(target)
            live.discard(target)


class TestBatchEquivalenceProperty:
    @given(ops=MUTATIONS, batches=BATCHES,
           max_tau=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_unsharded(self, ops, batches, max_tau):
        searcher = DynamicSearcher(max_tau=max_tau)
        live: set[int] = set()
        _apply(searcher, ops, live)
        for batch in batches:
            assert searcher.search_many(batch) == [
                searcher.search(query) for query in batch]
            _apply(searcher, ops[:3], live)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ops=MUTATIONS, batches=BATCHES,
           max_tau=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_two_shards_both_backends(self, backend, ops, batches, max_tau):
        single = DynamicSearcher(max_tau=max_tau)
        router = ShardRouter(shards=2, max_tau=max_tau, backend=backend)
        with router:
            live: set[int] = set()
            _apply(single, ops, live)
            live_router: set[int] = set()
            _apply(router, ops, live_router)
            for batch in batches:
                expected = [single.search(query) for query in batch]
                assert router.search_many(batch) == expected
                assert single.search_many(batch) == expected


TIME_FIELDS = ("selection_seconds", "verification_seconds",
               "indexing_seconds", "total_seconds")


def _work(statistics):
    """Non-time counters, less the window cache's hits and the results
    handed back (a duplicate in a batch is answered twice)."""
    return {name: value for name, value in statistics.as_dict().items()
            if name not in TIME_FIELDS
            and name not in ("num_windows_cache_hits", "num_results")}


@st.composite
def near_twin_batches(draw):
    """``(query, tau)`` pairs: each query with a same-length near-twin (its
    last character redrawn) at its tau, plus repeats, shuffled."""
    batch = []
    for text in draw(st.lists(st.text(alphabet="abc", min_size=3,
                                      max_size=10), min_size=1, max_size=4)):
        tau = draw(st.integers(min_value=0, max_value=2))
        batch.append((text, tau))
        batch.append((text[:-1] + draw(st.sampled_from("abc")), tau))
    batch += draw(st.lists(st.sampled_from(batch), max_size=4))
    return draw(st.permutations(batch))


class TestBatchIsItsQueries:
    @given(strings=st.lists(st.text(alphabet="abc", min_size=1, max_size=10),
                            min_size=1, max_size=40),
           ops=MUTATIONS, batch=near_twin_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_does_the_work_of_its_unique_queries(self, strings, ops,
                                                       batch):
        searcher = DynamicSearcher(strings, max_tau=2)
        twin = DynamicSearcher(strings, max_tau=2)
        _apply(searcher, ops, set(range(len(strings))))
        _apply(twin, ops, set(range(len(strings))))
        queries, taus = map(list, zip(*batch))
        answers = searcher.search_many(queries, tau=taus)
        work = _work(searcher.statistics)
        alone = {key: twin.search(*key) for key in dict.fromkeys(batch)}
        assert answers == [alone[key] for key in batch]
        assert work == _work(twin.statistics)
        assert answers == [searcher.search(*key) for key in batch]


class TestShardRouterSearchMany:
    def test_matches_sequential_and_unsharded(self):
        strings = random_strings(50, 2, 12, alphabet="abc", seed=15)
        single = DynamicSearcher(strings, max_tau=2)
        for shards in (2, 3, 4):
            with ShardRouter(strings, shards=shards, max_tau=2,
                             backend="thread") as router:
                queries = random_strings(12, 2, 12, alphabet="abc", seed=16)
                batch = router.search_many(queries, tau=2)
                assert batch == [single.search(query, tau=2)
                                 for query in queries]

    def test_per_query_taus_route_to_the_right_shards(self):
        strings = ["ab", "abc", "abcdef", "abcdefg"]
        single = DynamicSearcher(strings, max_tau=2)
        with ShardRouter(strings, shards=2, max_tau=2,
                         backend="thread") as router:
            queries = ["ab", "abcdef", "abcd"]
            taus = [0, 2, 1]
            assert router.search_many(queries, tau=taus) == [
                single.search(query, tau=tau)
                for query, tau in zip(queries, taus)]


# ----------------------------------------------------------------------
# Serving-core and wire-protocol integration
# ----------------------------------------------------------------------
class TestServiceBatch:
    def test_execute_queries_batches_search_misses(self):
        service = SimilarityService(["vldb", "pvldb", "sigmod"],
                                    ServiceConfig(max_tau=2))
        keys = [("search", "vldb", 1), ("search", "vldb", 1),
                ("top-k", "sigmod", 1, 2), ("search", "sigmod", 0)]
        answers = service.execute_queries(keys)
        assert [cached for _, cached in answers] == [False, False, False, False]
        assert answers[0][0] == service.searcher.search("vldb", 1)
        assert answers[1][0] == answers[0][0]
        assert answers[2][0] == service.searcher.search_top_k("sigmod", 1, 2)
        # The repeat hits the cache now.
        again = service.execute_queries([("search", "vldb", 1)])
        assert again[0][1] is True

    def test_search_batch_op(self):
        service = SimilarityService(["vldb", "pvldb"], ServiceConfig(max_tau=1))
        response = service.handle_request(
            {"op": "search-batch", "queries": ["vldb", "nope"], "tau": 1})
        assert response["ok"] is True
        assert [m["text"] for m in response["results"][0]] == ["vldb", "pvldb"]
        assert response["results"][1] == []
        assert response["cached"] == [False, False]
        assert BATCH_OP in ALL_OPS

    def test_search_batch_op_validates(self):
        service = SimilarityService(["vldb"], ServiceConfig(max_tau=1))
        bad = service.handle_request({"op": "search-batch", "queries": "vldb"})
        assert bad["ok"] is False and "queries" in bad["error"]
        bad_tau = service.handle_request(
            {"op": "search-batch", "queries": ["vldb"], "tau": 9})
        assert bad_tau["ok"] is False

    def test_max_query_batch_is_enforced(self):
        service = SimilarityService(
            ["vldb"], ServiceConfig(max_tau=1, max_query_batch=2))
        response = service.handle_request(
            {"op": "search-batch", "queries": ["a", "b", "c"]})
        assert response["ok"] is False
        assert "max_query_batch" in response["error"]

    def test_stats_include_index_memory(self):
        service = SimilarityService(["vldb", "pvldb"], ServiceConfig(max_tau=1))
        stats = service.stats()
        assert stats["index"]["records"] == 2
        assert stats["index"]["approximate_bytes"] > 0

    def test_sharded_stats_include_per_shard_memory(self):
        config = ServiceConfig(max_tau=1, shards=2, shard_backend="thread")
        service = SimilarityService(["vldb", "pvldb", "icde"], config)
        try:
            stats = service.stats()
            assert len(stats["shards"]["memory"]) == 2
            assert stats["index"]["records"] == sum(
                shard["records"] for shard in stats["shards"]["memory"])
        finally:
            service.close()


class TestBatchOverTheWire:
    def test_sync_client_search_batch(self):
        with BackgroundServer(["vldb", "pvldb", "sigmod"],
                              ServiceConfig(port=0, max_tau=2)) as (host, port):
            with ServiceClient(host, port) as client:
                queries = ["vldb", "sigmod", "vldb", "zzz"]
                batched = client.search_batch(queries, tau=1)
                assert batched == [client.search(query, tau=1)
                                   for query in queries]

    def test_async_client_search_batch(self):
        async def scenario(host, port):
            async with await AsyncServiceClient.connect(host, port) as client:
                batched = await client.search_batch(["vldb", "pvldb"], tau=1)
                singles = [await client.search(query, tau=1)
                           for query in ("vldb", "pvldb")]
                return batched, singles

        with BackgroundServer(["vldb", "pvldb"],
                              ServiceConfig(port=0, max_tau=1)) as (host, port):
            batched, singles = asyncio.run(scenario(host, port))
            assert batched == singles

    def test_large_batch_exceeding_64k_line_is_served(self):
        # Regression: asyncio streams default to a 64 KiB line limit, which
        # a legal search-batch request under max_query_batch easily
        # exceeds; the server sizes its streams with STREAM_LIMIT instead.
        with BackgroundServer(["vldb", "pvldb"],
                              ServiceConfig(port=0, max_tau=1)) as (host, port):
            with ServiceClient(host, port) as client:
                queries = [f"padding-{i:06d}-{'x' * 64}"
                           for i in range(1000)] + ["vldb"]
                results = client.search_batch(queries, tau=1)
                assert len(results) == 1001
                assert [m.text for m in results[-1]] == ["vldb", "pvldb"]
                assert all(matches == [] for matches in results[:-1])

    def test_sharded_server_search_batch(self):
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread")
        with BackgroundServer(["vldb", "pvldb", "sigmod", "icde"],
                              config) as (host, port):
            with ServiceClient(host, port) as client:
                queries = ["vldb", "icde", "sigmod"]
                assert client.search_batch(queries, tau=1) == [
                    client.search(query, tau=1) for query in queries]


# ----------------------------------------------------------------------
# Batch top-k vs sequential search_top_k
# ----------------------------------------------------------------------
class TestTopKManyStatic:
    def test_matches_sequential(self):
        strings = random_strings(80, 2, 12, alphabet="abc", seed=21)
        searcher = PassJoinSearcher(strings, max_tau=2)
        queries = random_strings(20, 2, 12, alphabet="abc", seed=22)
        assert searcher.search_top_k_many(queries, 3) == [
            searcher.search_top_k(query, 3) for query in queries]

    def test_duplicates_and_empty_batch(self):
        searcher = PassJoinSearcher(["vldb", "pvldb"], max_tau=1)
        first, second = searcher.search_top_k_many(["vldb", "vldb"], 2)
        assert first == second == searcher.search_top_k("vldb", 2)
        assert searcher.search_top_k_many([], 2) == []

    def test_invalid_k(self):
        searcher = PassJoinSearcher(["vldb"], max_tau=1)
        with pytest.raises(ValueError):
            searcher.search_top_k_many(["vldb"], 0)

    def test_token_jaccard_kernel(self):
        # The token strings the deleted token-Jaccard kernel was checked
        # on, now under edit distance: ties at every distance.
        texts = ["a b", "a b c", "b c", "c d", "a"]
        searcher = PassJoinSearcher(texts, max_tau=3)
        queries = ["a b", "c", "d a", "a b"]
        assert searcher.search_top_k_many(queries, 2) == [
            searcher.search_top_k(query, 2) for query in queries]


class TestTopKManyProperty:
    @given(ops=MUTATIONS,
           batch=st.lists(st.text(alphabet="ab", max_size=8),
                          min_size=1, max_size=6),
           max_tau=st.integers(min_value=0, max_value=3),
           k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_unsharded_dynamic(self, ops, batch, max_tau, k):
        searcher = DynamicSearcher(max_tau=max_tau)
        live: set[int] = set()
        _apply(searcher, ops, live)
        assert searcher.search_top_k_many(batch, k) == [
            searcher.search_top_k(query, k) for query in batch]

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ops=MUTATIONS,
           batch=st.lists(st.text(alphabet="ab", max_size=8),
                          min_size=1, max_size=5),
           max_tau=st.integers(min_value=0, max_value=2),
           k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_two_shards_both_backends(self, backend, ops, batch, max_tau, k):
        single = DynamicSearcher(max_tau=max_tau)
        router = ShardRouter(shards=2, max_tau=max_tau, backend=backend)
        with router:
            live: set[int] = set()
            _apply(single, ops, live)
            live_router: set[int] = set()
            _apply(router, ops, live_router)
            expected = [single.search_top_k(query, k) for query in batch]
            assert router.search_top_k_many(batch, k) == expected
            assert [router.search_top_k(query, k) for query in batch] \
                == expected

    def test_mid_resharding_parity(self):
        strings = random_strings(40, 2, 12, alphabet="abc", seed=31)
        single = DynamicSearcher(strings, max_tau=2)
        with ShardRouter(strings, shards=2, max_tau=2, backend="thread",
                         migration_batch=3) as router:
            router.add_shard(drain=False)
            router.migration_step()  # mid-migration: rows dual-present
            queries = random_strings(10, 2, 12, alphabet="abc", seed=32)
            assert router.search_top_k_many(queries, 3) == [
                single.search_top_k(query, 3) for query in queries]

    def test_token_jaccard_dynamic(self):
        # As test_token_jaccard_kernel, with a delete.
        searcher = DynamicSearcher(max_tau=3)
        for text in ["a b", "a b c", "b c", "c d", "a", "b d"]:
            searcher.insert(text)
        searcher.delete(2)
        queries = ["a b", "c", "d a"]
        assert searcher.search_top_k_many(queries, 2) == [
            searcher.search_top_k(query, 2) for query in queries]


# ----------------------------------------------------------------------
# Persistent window cache: reuse across calls, invalidation on purge
# ----------------------------------------------------------------------
class TestPersistentWindowCache:
    def test_cache_hits_accumulate_across_searches(self):
        searcher = PassJoinSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
        searcher.search("vldb", 2)
        before = searcher.statistics.num_windows_cache_hits
        searcher.search("vldc", 2)  # same length: windows already cached
        assert searcher.statistics.num_windows_cache_hits > before

    def test_plan_survives_a_length_group_leaving_and_returning(self):
        from repro.types import StringRecord

        searcher = DynamicSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
        window_cache = searcher._backend.window_cache
        searcher.search("vldb", 2)
        # "vldb" at tau 2 probes indexed lengths 3 to 6 ("sigmod" among them).
        plan = window_cache._entries[4, 3, 6]
        searcher.delete(2)  # the only length-6 record: its group goes
        new_id = searcher.insert("pvldbx")  # and a new one comes
        fresh = PassJoinSearcher(
            [StringRecord(id=0, text="vldb"), StringRecord(id=1, text="pvldb"),
             StringRecord(id=new_id, text="pvldbx")], max_tau=2)
        hits = window_cache.hits
        again = searcher.search("vldb", 2)
        assert again == fresh.search("vldb", 2)
        assert new_id in {match.id for match in again}
        assert window_cache._entries[4, 3, 6] is plan
        assert window_cache.hits > hits

    def test_cached_pre_purge_window_never_yields_released_row(self):
        # The second search runs over windows cached *before* the delete
        # and must not resurrect the released store row.
        searcher = DynamicSearcher(["vldb", "avdb", "pvldb"], max_tau=2)
        backend = searcher._backend
        first = searcher.search("vldb", 2)
        assert 1 in {match.id for match in first}
        assert len(backend.window_cache) > 0
        searcher.delete(1)
        assert len(backend.window_cache) > 0  # cache survived the delete
        again = searcher.search("vldb", 2)
        assert all(match.id != 1 for match in again)
        assert again == [match for match in first if match.id != 1]

    def test_capacity_must_be_positive(self):
        from repro.core.selection import WindowCache

        with pytest.raises(ValueError):
            WindowCache(None, capacity=0)

    @pytest.mark.parametrize("capacity", [True, 2.5, "8", None])
    def test_capacity_must_be_an_int(self, capacity):
        from repro.core.selection import WindowCache

        with pytest.raises(TypeError):
            WindowCache(None, capacity=capacity)


class TestBareStrRefused:
    """A str is one query, not a batch of its characters."""

    @pytest.fixture(params=["static", "dynamic", "router"])
    def searcher(self, request):
        strings = ["vldb", "pvldb", "sigmod"]
        if request.param == "static":
            yield PassJoinSearcher(strings, max_tau=2)
        elif request.param == "dynamic":
            yield DynamicSearcher(strings, max_tau=2)
        else:
            with ShardRouter(strings, shards=2, max_tau=2,
                             backend="thread") as router:
                yield router

    def test_queries_str_refused(self, searcher):
        with pytest.raises(TypeError, match="not a str"):
            searcher.search_many("vldb", 1)

    def test_tau_str_refused(self, searcher):
        with pytest.raises(TypeError, match="not a str"):
            searcher.search_many(["vldb"], "12")
        with pytest.raises(TypeError, match="not a str"):
            searcher.search_many(["vldb", "pvldb"], "12")


# ----------------------------------------------------------------------
# top-k-batch over the serving core and the wire
# ----------------------------------------------------------------------
class TestTopKBatchService:
    def test_top_k_batch_op(self):
        service = SimilarityService(["vldb", "pvldb", "sigmod"],
                                    ServiceConfig(max_tau=2))
        response = service.handle_request(
            {"op": "top-k-batch", "queries": ["vldb", "sigmod"], "k": 2})
        assert response["ok"] is True
        assert response["results"][0] == [
            match.to_dict()
            for match in service.searcher.search_top_k("vldb", 2)]
        assert response["results"][1] == [
            match.to_dict()
            for match in service.searcher.search_top_k("sigmod", 2)]
        assert response["cached"] == [False, False]
        assert TOP_K_BATCH_OP in ALL_OPS
        # The repeat is answered from the cache.
        again = service.handle_request(
            {"op": "top-k-batch", "queries": ["vldb", "sigmod"], "k": 2})
        assert again["cached"] == [True, True]

    def test_top_k_batch_op_validates(self):
        service = SimilarityService(["vldb"], ServiceConfig(max_tau=1))
        missing_k = service.handle_request(
            {"op": "top-k-batch", "queries": ["vldb"]})
        assert missing_k["ok"] is False and "k" in missing_k["error"]
        bad_k = service.handle_request(
            {"op": "top-k-batch", "queries": ["vldb"], "k": 0})
        assert bad_k["ok"] is False
        bad_queries = service.handle_request(
            {"op": "top-k-batch", "queries": "vldb", "k": 1})
        assert bad_queries["ok"] is False and "queries" in bad_queries["error"]

    def test_execute_queries_groups_top_k_misses(self):
        service = SimilarityService(["vldb", "pvldb", "sigmod", "icde"],
                                    ServiceConfig(max_tau=2))
        keys = [("top-k", "vldb", 2, 2), ("top-k", "sigmod", 2, 2),
                ("top-k", "icde", 1, 1), ("top-k", "vldb", 2, 2)]
        answers = service.execute_queries(keys)
        assert answers[0][0] == service.searcher.search_top_k("vldb", 2, 2)
        assert answers[1][0] == service.searcher.search_top_k("sigmod", 2, 2)
        assert answers[2][0] == service.searcher.search_top_k("icde", 1, 1)
        assert answers[3][0] == answers[0][0]


class TestTopKBatchOverTheWire:
    def test_sync_client_top_k_batch(self):
        with BackgroundServer(["vldb", "pvldb", "sigmod"],
                              ServiceConfig(port=0, max_tau=2)) as (host, port):
            with ServiceClient(host, port) as client:
                queries = ["vldb", "sigmod", "vldb", "zzz"]
                batched = client.top_k_batch(queries, 2)
                assert batched == [client.top_k(query, 2)
                                   for query in queries]

    def test_async_client_top_k_batch(self):
        async def scenario(host, port):
            async with await AsyncServiceClient.connect(host, port) as client:
                batched = await client.top_k_batch(["vldb", "pvldb"], 2)
                singles = [await client.top_k(query, 2)
                           for query in ("vldb", "pvldb")]
                return batched, singles

        with BackgroundServer(["vldb", "pvldb"],
                              ServiceConfig(port=0, max_tau=1)) as (host, port):
            batched, singles = asyncio.run(scenario(host, port))
            assert batched == singles

    def test_sharded_server_top_k_batch(self):
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread")
        with BackgroundServer(["vldb", "pvldb", "sigmod", "icde"],
                              config) as (host, port):
            with ServiceClient(host, port) as client:
                queries = ["vldb", "icde", "sigmod"]
                assert client.top_k_batch(queries, 2) == [
                    client.top_k(query, 2) for query in queries]
