"""Oracle suite over the token-sentence workload the token-Jaccard kernel served.

The token-Jaccard kernel is deleted; the serving stack these suites drove
is not.  They keep its data — whitespace-separated words over a small
vocabulary, so records collide and spaces dominate the alphabet — and now
check edit distance on it.  The load-bearing property: under ANY
interleaving of insert / delete / search, every searcher — the
static ``PassJoinSearcher``, the mutable ``DynamicSearcher``, and a
2-shard ``ShardRouter`` on both backends — returns results
**element-identical** to a brute-force edit-distance scan of every
surviving record.  The serving stack on top (query cache, grouped batch
executor, live resharding, request coalescing) is exercised end-to-end
through ``SimilarityService``, and a request that still names the
token-Jaccard kernel is refused rather than answered under edit distance.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.distance import edit_distance
from repro.exceptions import ServiceError
from repro.search import PassJoinSearcher, SearchMatch
from repro.service import (DynamicSearcher, ShardRouter, SimilarityService)

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="process backend requires fork")

MAX_TAU = 3

#: Small token vocabulary so random records actually collide.
TEXTS = st.lists(st.sampled_from(["a", "b", "c", "d"]),
                 max_size=4).map(" ".join)

TAUS = st.integers(min_value=0, max_value=MAX_TAU)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), TEXTS),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("search"), TEXTS),
    ), max_size=25)


def brute_force(surviving, query, tau):
    """The oracle: edit distance against every surviving row."""
    return sorted(
        (SearchMatch(edit_distance(text, query), record_id, text)
         for record_id, text in surviving.items()
         if edit_distance(text, query) <= tau),
        key=SearchMatch.sort_key)


def token_sentences(count, seed):
    """Deterministic multi-token sentences over a small vocabulary."""
    import random

    rng = random.Random(seed)
    vocab = ["apple", "banana", "cherry", "date", "egg", "fig", "grape"]
    return [" ".join(rng.sample(vocab, rng.randint(0, 4)))
            for _ in range(count)]


def apply_ops(ops):
    """Drive a DynamicSearcher and a dict of survivors in lockstep."""
    searcher = DynamicSearcher(max_tau=MAX_TAU)
    surviving: dict[int, str] = {}
    for op in ops:
        if op[0] == "insert":
            surviving[searcher.insert(op[1])] = op[1]
        elif op[0] == "delete":
            target = op[1] % (max(surviving) + 1) if surviving else 0
            assert searcher.delete(target) == (target in surviving)
            surviving.pop(target, None)
        else:  # search mid-stream, against the oracle
            assert (searcher.search(op[1], MAX_TAU)
                    == brute_force(surviving, op[1], MAX_TAU))
    return searcher, surviving


class TestStaticOracle:
    @given(texts=st.lists(TEXTS, max_size=20),
           queries=st.lists(TEXTS, min_size=1, max_size=4), tau=TAUS)
    @settings(max_examples=120, deadline=None)
    def test_search_matches_brute_force(self, texts, queries, tau):
        searcher = PassJoinSearcher(texts, max_tau=MAX_TAU)
        surviving = dict(enumerate(texts))
        for query in queries:
            assert searcher.search(query, tau) == brute_force(surviving,
                                                              query, tau)

    @given(texts=st.lists(TEXTS, max_size=15),
           queries=st.lists(TEXTS, min_size=1, max_size=4), tau=TAUS)
    @settings(max_examples=60, deadline=None)
    def test_search_many_matches_per_query_search(self, texts, queries, tau):
        searcher = PassJoinSearcher(texts, max_tau=MAX_TAU)
        batched = searcher.search_many(queries, tau=tau)
        assert batched == [searcher.search(query, tau) for query in queries]


class TestDynamicOracle:
    @given(ops=OPS, queries=st.lists(TEXTS, min_size=1, max_size=4),
           tau=TAUS)
    @settings(max_examples=120, deadline=None)
    def test_interleaved_ops_match_brute_force(self, ops, queries, tau):
        searcher, surviving = apply_ops(ops)
        for query in queries:
            assert searcher.search(query, tau) == brute_force(surviving,
                                                              query, tau)

    @given(ops=OPS, query=TEXTS, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_top_k_matches_fresh_rebuild(self, ops, query, k):
        searcher, _ = apply_ops(ops)
        fresh = PassJoinSearcher(searcher.records, max_tau=MAX_TAU)
        assert searcher.search_top_k(query, k) == fresh.search_top_k(query, k)

    def test_scripted_interleaving_with_compaction(self):
        sentences = token_sentences(40, seed=11)
        searcher = DynamicSearcher(sentences[:30], max_tau=MAX_TAU)
        surviving = dict(enumerate(sentences[:30]))
        for record_id in (0, 7, 13, 29):  # each delete purges as it goes
            searcher.delete(record_id)
            surviving.pop(record_id)
        for text in sentences[30:]:
            surviving[searcher.insert(text)] = text
        for query in token_sentences(10, seed=12):
            for tau in (0, 2, MAX_TAU):
                assert (searcher.search(query, tau)
                        == brute_force(surviving, query, tau))

    def test_explain_matches_search(self):
        searcher = DynamicSearcher(token_sentences(25, seed=13),
                                   max_tau=MAX_TAU)
        for query in ("apple banana", "", "fig grape egg"):
            report = searcher.explain(query, tau=2)
            assert (report["matches"]
                    == [m.to_dict() for m in searcher.search(query, 2)])
            funnel = report["funnel"]
            assert funnel["accepted"] <= funnel["verifications"]


def make_pair(texts, *, shards=2, **kwargs):
    """A router (2 shards unless told) and its unsharded oracle."""
    kwargs.setdefault("backend", "thread")
    router = ShardRouter(texts, shards=shards, max_tau=MAX_TAU,
                         migration_batch=3, **kwargs)
    return router, DynamicSearcher(texts, max_tau=MAX_TAU)


class TestShardedOracle:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    @given(ops=OPS, queries=st.lists(TEXTS, min_size=1, max_size=3),
           tau=TAUS)
    @settings(max_examples=40, deadline=None)
    def test_interleaved_ops_match_unsharded(self, shards, ops, queries, tau):
        router, single = make_pair([], shards=shards)
        with router:
            live: set[int] = set()
            for op in ops:
                if op[0] == "insert":
                    assert router.insert(op[1]) == single.insert(op[1])
                    live.add(max(live, default=-1) + 1)
                elif op[0] == "delete":
                    target = op[1] % (max(live) + 1) if live else 0
                    assert router.delete(target) == single.delete(target)
                    live.discard(target)
                else:
                    assert router.search(op[1]) == single.search(op[1])
            for query in queries:
                assert router.search(query, tau) == single.search(query, tau)

    def test_live_resharding_between_every_step(self):
        texts = token_sentences(40, seed=21)
        queries = token_sentences(8, seed=22)
        router, single = make_pair(texts)
        with router:
            for resize in (router.add_shard, router.remove_shard):
                resize(drain=False)
                while router.rebalance_status()["active"]:
                    router.migration_step()
                    for query in queries:
                        assert router.search(query) == single.search(query)
                        assert (router.search_top_k(query, 3)
                                == single.search_top_k(query, 3))

    @needs_fork
    def test_process_backend_matches_unsharded(self):
        texts = token_sentences(30, seed=23)
        router, single = make_pair(texts, backend="process")
        with router:
            for query in token_sentences(8, seed=24):
                for tau in (0, 2, MAX_TAU):
                    assert router.search(query, tau) == single.search(query,
                                                                      tau)
            assert router.insert("apple fig") == single.insert("apple fig")
            assert router.delete(0) == single.delete(0)
            assert router.search("apple fig") == single.search("apple fig")


class TestServingStack:
    """Cache + grouped batch executor + resharding over token sentences."""

    def make_service(self, texts, *, shards=2):
        return SimilarityService(
            texts, ServiceConfig(max_tau=MAX_TAU, shards=shards,
                                 shard_backend="thread", migration_batch=3))

    def test_cache_and_batch_match_oracle_across_a_live_resize(self):
        texts = token_sentences(30, seed=31)
        surviving = dict(enumerate(texts))
        queries = token_sentences(6, seed=32)
        service = self.make_service(texts)
        try:
            for query in queries:
                request = {"op": "search", "query": query, "tau": 2}
                first = service.handle_request(request)
                expected = [m.to_dict()
                            for m in brute_force(surviving, query, 2)]
                assert first["ok"] is True and first["matches"] == expected
                again = service.handle_request(request)
                assert again["cached"] is True
                assert again["matches"] == expected
                refused = service.handle_request(
                    {**request, "kernel": "token-jaccard"})
                assert refused["ok"] is False
            # One grouped pass answers the whole batch identically.
            batch = service.handle_request(
                {"op": "search-batch", "queries": queries, "tau": 2})
            assert batch["results"] == [
                [m.to_dict() for m in brute_force(surviving, q, 2)]
                for q in queries]
            # Live resize with queries between the steps: no cache entry may
            # outlive a step that moved rows.
            service.handle_request({"op": "add-shard", "drain": False})
            while service.rebalance_status()["active"]:
                service.migration_step()
                for query in queries:
                    response = service.handle_request(
                        {"op": "search", "query": query, "tau": 2})
                    assert response["matches"] == [
                        m.to_dict() for m in brute_force(surviving, query, 2)]
            # Mutations keep matching the oracle on the grown fleet.
            new_id = service.handle_request(
                {"op": "insert", "text": "apple banana cherry"})["id"]
            surviving[new_id] = "apple banana cherry"
            assert service.handle_request({"op": "delete", "id": 0})["deleted"]
            surviving.pop(0)
            for query in queries:
                response = service.handle_request(
                    {"op": "search", "query": query, "tau": 2})
                assert response["matches"] == [
                    m.to_dict() for m in brute_force(surviving, query, 2)]
        finally:
            service.close()

    def test_unsharded_service_matches_oracle(self):
        texts = token_sentences(25, seed=33)
        service = SimilarityService(texts, ServiceConfig(max_tau=MAX_TAU))
        surviving = dict(enumerate(texts))
        for query in token_sentences(6, seed=34):
            response = service.handle_request(
                {"op": "search", "query": query, "tau": MAX_TAU})
            assert response["matches"] == [
                m.to_dict() for m in brute_force(surviving, query, MAX_TAU)]
        counters = service.handle_request({"op": "metrics"})["merged"]["counters"]
        assert counters["engine_verifications"] > 0
        # One similarity: no counter carries a kernel-tagged twin.
        assert not [name for name in counters if name.endswith(
            (".edit-distance", ".token-jaccard"))]


class TestBatcherCoalescing:
    def test_concurrent_async_queries_over_token_jaccard(self):
        import asyncio

        from repro.service import AsyncServiceClient, BackgroundServer

        texts = token_sentences(25, seed=41)
        surviving = dict(enumerate(texts))
        queries = token_sentences(8, seed=42)
        config = ServiceConfig(port=0, max_tau=MAX_TAU)

        async def refused(client):
            # A request still naming the deleted kernel fails on its own,
            # without failing the queries it is batched with.
            with pytest.raises(ServiceError, match="'token-jaccard'"):
                await client.request({"op": "search", "query": queries[0],
                                      "tau": 2, "kernel": "token-jaccard"})

        async def scenario(address):
            client = await AsyncServiceClient.connect(*address)
            other = await AsyncServiceClient.connect(*address)
            try:
                results = await asyncio.gather(
                    *(client.search(q, 2) for q in queries), refused(other))
            finally:
                await client.close()
                await other.close()
            return results[:-1]

        with BackgroundServer(texts, config) as address:
            results = asyncio.run(scenario(address))
        for query, matches in zip(queries, results):
            assert matches == brute_force(surviving, query, 2)
