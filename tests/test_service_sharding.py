"""Tests for the sharded serving tier.

The load-bearing property (the PR's acceptance criterion): for random
interleavings of insert/delete/search, a ``ShardRouter`` (thread backend)
returns **element-identical** results to a single unsharded
``DynamicSearcher`` — at 2, 3 and 4 shards, for threshold search and top-k
alike.  The process backend is exercised separately (and skipped on
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

#: Fleet sizes the oracle tests run the consistent-hash ring at
#: (unit-level coverage of the ring itself lives in test_placement.py).
SHARD_COUNTS = [2, 3, 4]


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


def make_router(strings=(), *, shards=3, max_tau=2, backend="thread",
                **kwargs):
    return ShardRouter(strings, shards=shards, max_tau=max_tau,
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

    @pytest.mark.parametrize("bad_id", [True, 1.0, "1", None])
    def test_delete_refuses_non_integer_ids(self, bad_id):
        # Same check as insert: True is not id 1.
        with make_router(["vldb", "pvldb", "sigmod"], shards=2) as router:
            with pytest.raises(TypeError):
                router.delete(bad_id)
            assert len(router) == 3
            assert router.delete(1) is True

    def test_caller_chosen_and_auto_ids(self):
        with make_router(max_tau=1) as router:
            assert router.insert("alpha", id=500) == 500
            assert router.insert("alphb") == 501
            assert {m.id for m in router.search("alpha", tau=1)} == {500, 501}

    def test_tombstoned_id_reusable(self):
        with make_router(["abcdef"], max_tau=1) as router:
            router.delete(0)
            router.insert("qrstuv", id=0)
            assert [m.text for m in router.search("abcdef", tau=1)] == []
            assert [m.text for m in router.search("qrstuv", tau=0)] == ["qrstuv"]

    def test_mutations_bump_only_the_owning_shard(self):
        with make_router(max_tau=1) as router:
            # The first ids the ring places on shards 0 and 1.
            first, second = (next(record_id for record_id in range(1000)
                                  if router.ring.place(record_id) == shard)
                             for shard in (0, 1))
            router.insert("aaaa", id=first)
            assert router.epoch_vector == (1, 0, 0)
            router.insert("bbbb", id=second)
            assert router.epoch_vector == (1, 1, 0)
            router.delete(first)
            assert router.epoch_vector == (2, 1, 0)
            assert router.epoch == 3

    def test_deletes_release_rows_on_every_shard(self):
        strings = [f"string{i:02d}" for i in range(9)]
        with make_router(strings) as router:
            for record_id in range(4):
                router.delete(record_id)
            summary = router.status_summary()
            assert summary["memory"]["records"] == 5
            assert [memory["records"] for memory in summary["shard_memory"]
                    ] == router.shard_sizes()
            assert "tombstones" not in summary
            assert all("tombstones" not in status
                       for status in router.shard_status())

    def test_compaction_surface_is_gone(self):
        with pytest.raises(TypeError):
            make_router(compact_interval=4)
        with make_router() as router:
            assert not hasattr(router, "compact")
            assert not hasattr(router, "tombstone_count")

    @pytest.mark.parametrize("bad_id", [2.5, True])
    def test_non_integer_id_refused_before_any_shard_changes(self, bad_id):
        with make_router(["vldb", "pvldb", "sigmod"], max_tau=2) as router:
            router.delete(1)  # leaves a free store row on its shard
            epochs = router.epoch_vector
            for text in ("a", "icde"):  # pooled, indexed
                with pytest.raises(TypeError):
                    router.insert(text, id=bad_id)
            assert router.epoch_vector == epochs
            assert router.index_memory()["records"] == len(router) == 2
            assert router.insert("a") == 3
            assert router.insert("icde") == 4
            assert router.index_memory()["records"] == 3
            assert [record.id for record in router.records] == [0, 2, 3, 4]

    def test_id_outside_64_bits_refused_before_any_shard_changes(self):
        with make_router(["vldb", "pvldb"], shards=2) as router:
            epochs = router.epoch_vector
            with pytest.raises(ValueError):
                router.insert("icdeicde", id=2**63)
            assert (len(router), router.epoch_vector) == (2, epochs)
            assert router.insert("icdeicde", id=2**63 - 1) == 2**63 - 1
            epochs = router.epoch_vector
            with pytest.raises(ValueError):
                router.insert("sigmod")  # the next auto id is 2**63
            assert (len(router), router.epoch_vector) == (3, epochs)

    def test_constructor_refuses_ids_outside_64_bits(self):
        with pytest.raises(ValueError, match="64 bits"):
            ShardRouter([StringRecord(2**63, "abcdef")], shards=2,
                        max_tau=1, backend="thread")

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
            make_router([StringRecord(0, "abab"), StringRecord(0, "cdcdcd")])


class TestEpoch:
    def test_epoch_depends_on_every_shard(self):
        with make_router(max_tau=1) as router:
            # A mutation on any shard moves the scalar epoch, which is the
            # sum of the per-shard epochs.
            for shard in range(router.num_shards):
                record_id = next(candidate for candidate in range(1000)
                                 if router.ring.place(candidate) == shard)
                before = router.epoch
                router.insert("aaaa", id=record_id)
                assert router.epoch == before + 1
                assert router.epoch == sum(router.epoch_vector)


def cache_trace(service, requests):
    """``cached`` per request, then the cache counters."""
    flags = [service.handle_request(request).get("cached")
             for request in requests]
    stats = service.cache.stats
    return flags, (stats.hits, stats.misses, stats.invalidations)


class TestShardedServiceCache:
    @pytest.mark.parametrize("backend", [
        "thread", pytest.param("process", marks=needs_fork)])
    def test_mutation_on_one_shard_invalidates_the_cache(self, backend):
        # A write drops only the cached answers it can change, on
        # whichever shard it lands, and keeps the rest.
        config = ServiceConfig(max_tau=1, shards=2, shard_backend=backend)
        service = SimilarityService(["ab", "abcd"], config)
        try:
            short = {"op": "search", "query": "ab", "tau": 0}
            long = {"op": "search", "query": "abcd", "tau": 0}
            wide = {"op": "top-k", "query": "abcd", "k": 1, "max_tau": 1}
            for request in (short, long, wide):
                service.handle_request(request)
                assert service.handle_request(request)["cached"] is True
            stats = service.cache.stats
            # Far from every query: nothing is dropped.
            far = service.handle_request({"op": "insert", "text": "zzzzzz"})
            assert service.handle_request(short)["cached"] is True
            assert stats.invalidations == 0
            # Within the top-k limit of "abcd" only.
            service.handle_request({"op": "insert", "text": "abce"})
            assert stats.invalidations == 1
            assert service.handle_request(short)["cached"] is True
            assert service.handle_request(long)["cached"] is True
            answer = service.handle_request(wide)
            assert answer["cached"] is False
            assert [m["id"] for m in answer["matches"]] == [1]
            # Deleting "abcd" (id 1) drops the answers that hold it.
            service.handle_request({"op": "delete", "id": 1})
            assert stats.invalidations == 3  # long and the re-cached wide
            assert service.handle_request(short)["cached"] is True
            assert service.handle_request(long)["matches"] == []
            # Deleting an id no answer holds drops nothing.
            service.handle_request({"op": "delete", "id": far["id"]})
            assert stats.invalidations == 3
            assert service.handle_request(long)["cached"] is True
        finally:
            service.close()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_cache_counts_match_unsharded(self, shards):
        # One cache, one invalidation path: the same request stream hits,
        # misses and drops identically whether or not the collection is
        # sharded.
        strings = random_strings(40, 2, 10, alphabet="abc", seed=shards)
        queries = random_strings(6, 2, 10, alphabet="abc", seed=shards + 50)
        requests = []
        for round_index in range(3):
            for query in queries + queries[:2]:
                requests.append({"op": "search", "query": query, "tau": 1})
                requests.append({"op": "top-k", "query": query, "k": 2})
            requests.append({"op": "insert", "text": queries[round_index]})
            requests.append({"op": "delete", "id": round_index * 5})
        plain = SimilarityService(strings, ServiceConfig(max_tau=2))
        sharded = SimilarityService(strings, ServiceConfig(
            max_tau=2, shards=shards, shard_backend="thread"))
        try:
            expected = cache_trace(plain, requests)
            assert cache_trace(sharded, requests) == expected
            flags, (_, _, invalidations) = expected
            assert invalidations > 0  # the stream did drop entries
            # Every answer was cached in round 0; the first reads of round 1
            # come after two writes, and most of them still hit.
            per_round = (len(queries) + 2) * 2 + 2
            first_reads = flags[per_round:per_round + len(queries) * 2]
            assert sum(first_reads) > len(first_reads) // 2, first_reads
        finally:
            plain.close()
            sharded.close()

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


def apply_ops(ops, *, max_tau, shards=3, backend="thread"):
    """Drive a ShardRouter and an unsharded DynamicSearcher in lockstep."""
    router = ShardRouter(shards=shards, max_tau=max_tau, backend=backend)
    single = DynamicSearcher(max_tau=max_tau)
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

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @given(ops=OPS,
           queries=st.lists(st.text(alphabet="ab", max_size=8), min_size=1,
                            max_size=4),
           max_tau=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_ops_match_unsharded(self, shards, ops, queries,
                                             max_tau):
        router, single = apply_ops(ops, max_tau=max_tau, shards=shards)
        with router:
            for query in queries:
                for tau in range(max_tau + 1):
                    assert router.search(query, tau) == single.search(query, tau)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @given(ops=OPS,
           query=st.text(alphabet="ab", max_size=8),
           k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_top_k_matches_unsharded(self, shards, ops, query, k):
        router, single = apply_ops(ops, max_tau=2, shards=shards)
        with router:
            assert router.search_top_k(query, k) == single.search_top_k(query, k)

    def test_scripted_interleaving_every_shard_count(self):
        strings = random_strings(60, 2, 12, alphabet="abc", seed=5)
        for shards in SHARD_COUNTS:
            single = DynamicSearcher(strings[:45], max_tau=2)
            with make_router(strings[:45], shards=shards) as router:
                for record_id in (0, 9, 17, 44):
                    assert router.delete(record_id) == single.delete(record_id)
                for text in strings[45:]:
                    assert router.insert(text) == single.insert(text)
                for query in random_strings(12, 2, 12, alphabet="abc", seed=6):
                    assert router.search(query) == single.search(query)
                    assert (router.search_top_k(query, 4)
                            == single.search_top_k(query, 4))


class TestConcurrentReaders:
    """Several caller threads driving one router: the per-worker locks
    keep every send paired with its own reply, on both backends."""

    @pytest.mark.parametrize("backend", [
        "thread", pytest.param("process", marks=needs_fork)])
    def test_four_reader_threads_match_unsharded(self, backend):
        import sys
        import threading

        strings = random_strings(200, 3, 12, alphabet="abcd", seed=31)
        queries = random_strings(80, 3, 12, alphabet="abcd", seed=32)
        single = DynamicSearcher(strings, max_tau=2)
        expected = [single.search(query) for query in queries]
        readers = 4
        barrier = threading.Barrier(readers, timeout=60)
        answers: list = [None] * len(queries)
        errors: list[Exception] = []

        def read_slice(slot: int) -> None:
            try:
                barrier.wait()
                for index in range(slot, len(queries), readers):
                    answers[index] = router.search(queries[index])
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the readers finely
        try:
            with make_router(strings, shards=2, backend=backend) as router:
                assert router.backend == backend
                threads = [threading.Thread(target=read_slice, args=(slot,))
                           for slot in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        assert errors == []
        assert answers == expected


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
        # "abcdef" has id 0; kill the worker of the other shard.  A
        # scatter that includes the dead shard fails at send time, but the
        # healthy shard's reply must still be drained — otherwise its next
        # op would read this op's stale answer off the pipe.
        with make_router(["abcdef", "qrstuv"], shards=2,
                         backend="process") as router:
            healthy = router.ring.place(0)
            dead = router._shards[1 - healthy]
            dead._process.kill()
            dead._process.join(timeout=5)
            for _ in range(2):  # repeatedly: the failure must not compound
                with pytest.raises(Exception):
                    router.search("abcdef", tau=1)
            # The healthy shard alone still answers correctly and freshly.
            survivor = router._shards[healthy]
            survivor.send("search-many", (("abcdef", 1),))
            (matches,), epoch = survivor.recv()
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

    def test_failed_mutation_clears_the_cache(self):
        # A refused write changed nothing and keeps the cache; a write a
        # dead worker failed leaves the collection unknown and clears it.
        config = ServiceConfig(max_tau=2, shards=2, shard_backend="process")
        service = SimilarityService(["vldb", "pvldb", "sigmod"], config)
        try:
            search = {"op": "search", "query": "sigmod", "tau": 0}
            service.handle_request(search)
            refused = service.handle_request(
                {"op": "insert", "text": "sigmod", "id": 2})
            assert refused["ok"] is False and "already" in refused["error"]
            assert service.handle_request(search)["cached"] is True
            dead = service.searcher.ring.place(1)
            service.searcher._shards[dead]._process.kill()
            service.searcher._shards[dead]._process.join(timeout=5)
            failed = service.handle_request({"op": "delete", "id": 1})
            assert failed["ok"] is False
            assert len(service.cache) == 0
            assert service.cache.stats.invalidations == 1
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
