"""Tests for the sharded serving tier.

The load-bearing property (the PR's acceptance criterion): for random
interleavings of insert/delete/search, a 3-shard ``ShardRouter`` (thread
backend) returns **element-identical** results to a single unsharded
``DynamicSearcher`` — for both placement policies, for threshold search and
top-k alike.  The process backend is exercised separately (and skipped on
platforms without ``fork``).
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ConfigurationError, InvalidThresholdError
from repro.service import DynamicSearcher, ShardRouter, SimilarityService
from repro.service.sharding import resolve_shard_backend
from repro.types import StringRecord

from helpers import random_strings

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="process backend requires fork")

#: Every placement policy the router accepts (unit-level coverage of the
#: maps themselves lives in test_placement.py).
ALL_POLICIES = ["hash", "length", "modulo"]


class TestBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_shard_backend("threads")

    def test_explicit_backends_resolve_to_themselves(self):
        assert resolve_shard_backend("thread") == "thread"
        if FORK_AVAILABLE:
            assert resolve_shard_backend("process") == "process"

    def test_auto_never_forks_from_a_multi_threaded_process(self):
        # BackgroundServer hosts the service on a second thread; forking
        # shard workers there can deadlock the child, so auto must fall
        # back to in-process shards whenever other threads are live.
        import threading

        resolved: list[str] = []
        worker = threading.Thread(
            target=lambda: resolved.append(resolve_shard_backend("auto")))
        worker.start()
        worker.join()
        assert resolved == ["thread"]


def make_router(strings=(), *, shards=3, max_tau=2, policy="hash",
                backend="thread", **kwargs):
    return ShardRouter(strings, shards=shards, max_tau=max_tau, policy=policy,
                       backend=backend, **kwargs)


class TestRouterBasics:
    def test_insert_search_delete_cycle(self):
        with make_router(["vldb", "sigmod"], max_tau=1) as router:
            assert router.insert("pvldb") == 2
            assert [m.text for m in router.search("vldb", tau=1)] == [
                "vldb", "pvldb"]
            assert router.delete(0) is True
            assert router.delete(0) is False
            assert [m.text for m in router.search("vldb", tau=1)] == ["pvldb"]

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            make_router(shards=0)

    def test_tau_above_max_rejected(self):
        with make_router(["abc"], max_tau=1) as router:
            with pytest.raises(InvalidThresholdError):
                router.search("abc", tau=2)

    def test_invalid_k(self):
        with make_router(["abc"], max_tau=1) as router:
            with pytest.raises(ValueError):
                router.search_top_k("abc", k=0)

    def test_live_id_clash_raises(self):
        with make_router(["aa"], max_tau=1) as router:
            with pytest.raises(ValueError):
                router.insert("bb", id=0)

    def test_caller_chosen_and_auto_ids(self):
        with make_router(max_tau=1) as router:
            assert router.insert("alpha", id=500) == 500
            assert router.insert("alphb") == 501
            assert {m.id for m in router.search("alpha", tau=1)} == {500, 501}

    def test_tombstoned_id_reusable(self):
        with make_router(["abcdef"], max_tau=1, compact_interval=100) as router:
            router.delete(0)
            router.insert("qrstuv", id=0)
            assert [m.text for m in router.search("abcdef", tau=1)] == []
            assert [m.text for m in router.search("qrstuv", tau=0)] == ["qrstuv"]

    def test_mutations_bump_only_the_owning_shard(self):
        # The modulo policy pins ids to shards deterministically.
        with make_router(max_tau=1, policy="modulo") as router:
            router.insert("aaaa", id=0)   # shard 0
            assert router.epoch_vector == (1, 0, 0)
            router.insert("bbbb", id=4)   # 4 % 3 == 1
            assert router.epoch_vector == (1, 1, 0)
            router.delete(0)
            assert router.epoch_vector == (2, 1, 0)
            assert router.epoch == 3

    def test_compact_purges_all_shards(self):
        strings = [f"string{i:02d}" for i in range(9)]
        with make_router(strings, compact_interval=100) as router:
            for record_id in range(4):
                router.delete(record_id)
            assert router.tombstone_count == 4
            assert router.compact() == 4
            assert router.tombstone_count == 0

    def test_records_and_len_and_sizes(self):
        strings = [f"word{i:02d}" for i in range(10)]
        with make_router(strings) as router:
            router.delete(3)
            router.insert("another")
            assert len(router) == 10
            assert [r.id for r in router.records] == [
                0, 1, 2, 4, 5, 6, 7, 8, 9, 10]
            assert sum(router.shard_sizes()) == 10

    def test_statistics_aggregate_across_shards(self):
        strings = [f"word{i:02d}" for i in range(9)]
        with make_router(strings) as router:
            assert router.statistics.num_strings == 9
            router.search("word01", tau=1)
            assert router.statistics.num_verifications > 0

    def test_close_is_idempotent(self):
        router = make_router(["abc"])
        router.close()
        router.close()

    def test_string_records_keep_their_ids(self):
        with make_router([StringRecord(7, "alpha")], max_tau=1) as router:
            assert router.insert(StringRecord(3, "alphb")) == 3
            assert {m.id for m in router.search("alpha", tau=1)} == {7, 3}

    def test_duplicate_initial_ids_rejected(self):
        # Two live records with one id could land on different shards and
        # surface twice in a merged result, so the router refuses them.
        with pytest.raises(ValueError):
            make_router([StringRecord(0, "abab"), StringRecord(0, "cdcdcd")],
                        policy="length")


class TestEpochToken:
    def test_hash_token_depends_on_every_shard(self):
        with make_router(["aaaa"], policy="hash") as router:
            key = ("search", "aaaa", 1)
            before = router.epoch_token(key)
            # generation term first, then the probed (= all) shard epochs.
            assert before == (router.generation, *router.epoch_vector)
            router.insert("bbbb")
            assert router.epoch_token(key) != before

    def test_length_token_ignores_unrelated_shards(self):
        # band width 2 (max_tau=1): lengths 2-3 -> shard 1, 4-5 -> shard 0.
        with make_router(["ab", "abcd"], shards=2, max_tau=1,
                         policy="length") as router:
            short_key = ("search", "ab", 0)
            long_key = ("search", "abcd", 0)
            short_before = router.epoch_token(short_key)
            long_before = router.epoch_token(long_key)
            router.insert("abce")  # length 4 -> shard 0: the "long" shard
            assert router.epoch_token(long_key) != long_before
            assert router.epoch_token(short_key) == short_before


class TestShardedServiceCache:
    def test_mutation_on_one_shard_keeps_other_shards_cached(self):
        config = ServiceConfig(max_tau=1, shards=2, shard_policy="length",
                               shard_backend="thread")
        service = SimilarityService(["ab", "abcd"], config)
        try:
            short = {"op": "search", "query": "ab", "tau": 0}
            long = {"op": "search", "query": "abcd", "tau": 0}
            for request in (short, long):
                service.handle_request(request)
                assert service.handle_request(request)["cached"] is True
            # Mutate the shard owning length-4 strings only.
            service.handle_request({"op": "insert", "text": "abce"})
            assert service.handle_request(long)["cached"] is False
            assert service.handle_request(short)["cached"] is True
        finally:
            service.close()

    def test_sharded_answers_match_unsharded_service(self):
        strings = random_strings(50, 2, 12, alphabet="abcd", seed=11)
        plain = SimilarityService(strings, ServiceConfig(max_tau=2))
        sharded = SimilarityService(strings, ServiceConfig(
            max_tau=2, shards=3, shard_backend="thread"))
        try:
            for query in random_strings(10, 2, 12, alphabet="abcd", seed=12):
                request = {"op": "search", "query": query, "tau": 2}
                assert (sharded.handle_request(request)["matches"]
                        == plain.handle_request(request)["matches"])
                top = {"op": "top-k", "query": query, "k": 3}
                assert (sharded.handle_request(top)["matches"]
                        == plain.handle_request(top)["matches"])
        finally:
            plain.close()
            sharded.close()


def apply_ops(ops, *, max_tau, policy, shards=3, backend="thread"):
    """Drive a ShardRouter and an unsharded DynamicSearcher in lockstep."""
    router = ShardRouter(shards=shards, max_tau=max_tau, policy=policy,
                         backend=backend, compact_interval=4)
    single = DynamicSearcher(max_tau=max_tau, compact_interval=4)
    live: set[int] = set()
    for op in ops:
        if op[0] == "insert":
            assert router.insert(op[1]) == single.insert(op[1])
            live.add(max(live, default=-1) + 1)
        elif op[0] == "delete":
            target = op[1] % (max(live) + 1) if live else 0
            assert router.delete(target) == single.delete(target)
            live.discard(target)
        else:  # search
            assert router.search(op[1]) == single.search(op[1])
    return router, single


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("search"), st.text(alphabet="ab", max_size=8)),
    ), max_size=25)


class TestShardEquivalence:
    """The acceptance property: sharded answers are element-identical."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @given(ops=OPS,
           queries=st.lists(st.text(alphabet="ab", max_size=8), min_size=1,
                            max_size=4),
           max_tau=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_ops_match_unsharded(self, policy, ops, queries,
                                             max_tau):
        router, single = apply_ops(ops, max_tau=max_tau, policy=policy)
        with router:
            for query in queries:
                for tau in range(max_tau + 1):
                    assert router.search(query, tau) == single.search(query, tau)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @given(ops=OPS,
           query=st.text(alphabet="ab", max_size=8),
           k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_top_k_matches_unsharded(self, policy, ops, query, k):
        router, single = apply_ops(ops, max_tau=2, policy=policy)
        with router:
            assert router.search_top_k(query, k) == single.search_top_k(query, k)

    def test_scripted_interleaving_both_policies(self):
        strings = random_strings(60, 2, 12, alphabet="abc", seed=5)
        for policy in ALL_POLICIES:
            single = DynamicSearcher(strings[:45], max_tau=2)
            with make_router(strings[:45], policy=policy) as router:
                for record_id in (0, 9, 17, 44):
                    assert router.delete(record_id) == single.delete(record_id)
                for text in strings[45:]:
                    assert router.insert(text) == single.insert(text)
                for query in random_strings(12, 2, 12, alphabet="abc", seed=6):
                    assert router.search(query) == single.search(query)
                    assert (router.search_top_k(query, 4)
                            == single.search_top_k(query, 4))


@needs_fork
class TestProcessBackend:
    def test_equivalence_and_mutations_over_worker_processes(self):
        strings = random_strings(40, 2, 10, alphabet="abc", seed=21)
        single = DynamicSearcher(strings, max_tau=2)
        with make_router(strings, shards=2, backend="process") as router:
            assert router.backend == "process"
            for query in random_strings(8, 2, 10, alphabet="abc", seed=22):
                assert router.search(query) == single.search(query)
                assert (router.search_top_k(query, 3)
                        == single.search_top_k(query, 3))
            assert router.insert("zzz") == single.insert("zzz")
            assert router.delete(0) == single.delete(0)
            assert router.search("zzz", 1) == single.search("zzz", 1)
            assert router.records == single.records
            assert router.statistics.num_strings == len(single)

    def test_worker_error_does_not_wedge_the_pipe(self):
        with make_router(["abcdef"], shards=2, backend="process") as router:
            # Force a shard-side failure: a direct op with a bad payload.
            with pytest.raises(Exception):
                router._call(0, "search-many", (("abc", -1),))
            # The pipe must be drained: the next call still works.
            assert [m.text for m in router.search("abcdef", tau=1)] == [
                "abcdef"]

    def test_dead_worker_does_not_desync_healthy_shards(self):
        # Modulo placement: "abcdef" has id 0 -> shard 0; kill shard 1's
        # worker.  A scatter that includes the dead shard fails at send
        # time, but shard 0's reply must still be drained — otherwise the
        # next op on shard 0 would read this op's stale answer off the
        # pipe.
        with make_router(["abcdef", "qrstuv"], shards=2, policy="modulo",
                         backend="process") as router:
            router._shards[1]._process.kill()
            router._shards[1]._process.join(timeout=5)
            for _ in range(2):  # repeatedly: the failure must not compound
                with pytest.raises(Exception):
                    router.search("abcdef", tau=1)
            # Shard 0 alone still answers correctly and freshly.
            shard0 = router._shards[0]
            shard0.send("search-many", (("abcdef", 1),))
            (matches,), epoch = shard0.recv()
            assert [m.text for m in matches] == ["abcdef"]
            assert epoch == 0

    def test_sharded_service_over_processes(self):
        config = ServiceConfig(max_tau=2, shards=2, shard_backend="process")
        service = SimilarityService(["vldb", "pvldb", "sigmod"], config)
        try:
            response = service.handle_request(
                {"op": "search", "query": "vldb", "tau": 1})
            assert [m["text"] for m in response["matches"]] == ["vldb", "pvldb"]
            stats = service.stats()
            assert stats["shards"]["backend"] == "process"
        finally:
            service.close()

    def test_dead_worker_yields_error_responses_not_exceptions(self):
        # handle_request's contract is "never raises": a dead shard worker
        # must surface as {"ok": false, ...}, keeping connections alive.
        config = ServiceConfig(max_tau=2, shards=2, shard_backend="process")
        service = SimilarityService(["vldb", "pvldb", "sigmod"], config)
        try:
            service.searcher._shards[1]._process.kill()
            service.searcher._shards[1]._process.join(timeout=5)
            response = service.handle_request({"op": "delete", "id": 1})
            assert response["ok"] is False
            assert "shard worker died" in response["error"]
            searched = service.handle_request(
                {"op": "search", "query": "vldb", "tau": 1})
            assert searched["ok"] is False
        finally:
            service.close()

    def test_failed_server_start_does_not_leak_shard_workers(self):
        import asyncio
        import socket

        from repro.service.server import run_service

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = ServiceConfig(port=port, max_tau=1, shards=2,
                                   shard_backend="process")
            with pytest.raises(OSError):
                asyncio.run(run_service(["abc"], config))
            # run_service's finally closed the fleet despite the bind error.
            assert multiprocessing.active_children() == []
        finally:
            blocker.close()
