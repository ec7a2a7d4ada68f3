"""Tests for read replicas.

The load-bearing property (this PR's acceptance criterion): with
``replicas_per_shard`` configured, random interleavings of insert /
delete / compact / search / ``add_shard`` / ``remove_shard`` — now
including **replica lag injection** (replication paused so replicas fall
behind, then resumed) — keep a ``ShardRouter`` element-identical to an
unsharded ``DynamicSearcher``.  A stale replica must be bypassed, never
served.  On top of that: kill-a-replica fault handling on both backends,
the ``admin status`` degraded-replica rows, and the batch-coalescing cache
accounting fix.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ConfigurationError
from repro.service import DynamicSearcher, ShardRouter, SimilarityService

from helpers import random_strings

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="process backend requires fork")


def make_pair(strings, *, shards=2, replicas=2, max_tau=2, policy="hash",
              backend="thread", **kwargs):
    """A replicated router and its unsharded oracle over one collection."""
    router = ShardRouter(strings, shards=shards, max_tau=max_tau,
                         policy=policy, backend=backend,
                         replicas_per_shard=replicas, **kwargs)
    return router, DynamicSearcher(strings, max_tau=max_tau)


class TestReplicaBasics:
    def test_reads_served_by_replicas_and_exact(self):
        strings = random_strings(40, 3, 10, alphabet="abc", seed=51)
        queries = random_strings(10, 2, 11, alphabet="abc", seed=52)
        router, single = make_pair(strings)
        with router:
            for query in queries:
                assert router.search(query) == single.search(query)
            # One replica read per probed shard (hash placement probes
            # every shard), and never a fallback on an idle fleet.
            assert router.replica_reads >= len(queries)
            assert router.replica_fallbacks == 0

    def test_replica_reads_rotate_across_pool(self):
        router, _ = make_pair(["abcd", "bcde", "cdef"], shards=1, replicas=2)
        with router:
            schedule = router._read_schedule
            first = schedule.choose(0, [0, 1])
            second = schedule.choose(0, [0, 1])
            assert {first, second} == {0, 1}

    def test_mutations_resync_replicas(self):
        strings = random_strings(30, 3, 9, alphabet="ab", seed=53)
        router, single = make_pair(strings)
        with router:
            new_id = router.insert("abab")
            assert new_id == single.insert("abab")
            assert router.delete(3) == single.delete(3)
            router.compact()
            single.compact()
            for pool in router.replica_status():
                for row in pool:
                    assert row["alive"] and row["lag"] == 0
            assert router.search("abab") == single.search("abab")

    def test_stale_replicas_are_bypassed_never_served(self):
        strings = random_strings(30, 3, 9, alphabet="ab", seed=54)
        router, single = make_pair(strings)
        with router:
            router.pause_replication()
            assert router.insert("abba") == single.insert("abba")
            lags = [row["lag"] for pool in router.replica_status()
                    for row in pool]
            assert max(lags) >= 1
            before = router.replica_fallbacks
            # The new record's answers must be exact even though every
            # replica of its shard is stale.
            assert router.search("abba") == single.search("abba")
            assert router.replica_fallbacks > before
            router.resume_replication()
            assert all(row["lag"] == 0 for pool in router.replica_status()
                       for row in pool)
            reads = router.replica_reads
            assert router.search("abba") == single.search("abba")
            assert router.replica_reads > reads

    def test_stop_replica_decommissions_cleanly(self):
        strings = random_strings(20, 3, 8, alphabet="ab", seed=55)
        router, single = make_pair(strings, shards=1, replicas=2)
        with router:
            router.stop_replica(0, 0)
            status = router.replica_status()[0]
            assert [row["alive"] for row in status] == [False, True]
            for query in ("ab", "abab", "bb"):
                assert router.search(query) == single.search(query)
            # The dead replica is never synced again, the live one is.
            router.insert("babb")
            single.insert("babb")
            assert router.search("babb") == single.search("babb")
            assert router.replica_status()[0][1]["lag"] == 0

    def test_replicas_validated(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(["ab"], shards=2, max_tau=2, replicas_per_shard=-1)
        with pytest.raises(ConfigurationError):
            ShardRouter(["ab"], shards=2, max_tau=2, replicas_per_shard=True)

    def test_metrics_snapshot_reports_replica_section(self):
        router, _ = make_pair(["abcd", "bcde"], shards=1, replicas=1)
        with router:
            router.search("abcd")
            snapshot = router.metrics_snapshot()["replicas"]
            assert snapshot["replicas_total"] == 1
            assert snapshot["replicas_alive"] == 1
            assert snapshot["replica_lag_max"] == 0
            assert snapshot["replica_reads"] >= 1


class TestKillAReplica:
    """Satellite: a dying replica degrades, answers stay exact."""

    def test_thread_backend_replica_crash(self):
        strings = random_strings(40, 3, 10, alphabet="abc", seed=61)
        queries = random_strings(12, 2, 11, alphabet="abc", seed=62)
        router, single = make_pair(strings, shards=2, replicas=1)
        with router:
            # Crash a replica worker behind the router's back (no
            # stop_replica bookkeeping): the next read routed to it fails
            # at send time and falls back to the primary.
            router._replicas[0][0].worker.close()
            for query in queries:
                assert router.search(query) == single.search(query)
            assert router.replica_status()[0][0]["alive"] is False
            # The other shard's replica keeps serving.
            assert router.replica_status()[1][0]["alive"] is True
            # Mutations keep flowing and the survivors keep in sync.
            assert router.insert("abcabc") == single.insert("abcabc")
            assert router.search("abcabc") == single.search("abcabc")
            assert router.replica_status()[1][0]["lag"] == 0

    @needs_fork
    def test_process_backend_replica_kill(self):
        strings = random_strings(40, 3, 10, alphabet="abc", seed=63)
        queries = random_strings(12, 2, 11, alphabet="abc", seed=64)
        router, single = make_pair(strings, shards=2, replicas=1,
                                   backend="process")
        with router:
            victim = router._replicas[0][0].worker
            victim._process.kill()
            victim._process.join(timeout=5)
            for query in queries:
                assert router.search(query) == single.search(query)
            assert router.replica_status()[0][0]["alive"] is False
        assert multiprocessing.active_children() == []

    def test_admin_status_reports_degraded_replica(self):
        strings = random_strings(20, 3, 8, alphabet="ab", seed=65)
        config = ServiceConfig(port=0, shards=2, replicas=1,
                               shard_backend="thread")
        service = SimilarityService(strings, config)
        try:
            service.searcher.stop_replica(0, 0)
            shards = service.stats()["shards"]
            assert shards["replicas_per_shard"] == 1
            flat = [row for pool in shards["replicas"] for row in pool]
            assert [row["alive"] for row in flat].count(False) == 1
            # The CLI's admin-status renderer consumes exactly this shape.
            from repro.cli import _print_admin_status
            _print_admin_status({"shards": shards})
        finally:
            service.close()


REPLICA_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("search"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("grow")),
        st.tuples(st.just("shrink")),
        st.tuples(st.just("step")),
        st.tuples(st.just("pause")),   # replica lag injection
        st.tuples(st.just("resume")),
    ), max_size=30)


def run_replica_ops(ops, *, policy, backend="thread", max_tau=2):
    """Drive a replicated router and its oracle through an interleaving."""
    router = ShardRouter(shards=2, max_tau=max_tau, policy=policy,
                         backend=backend, compact_interval=4,
                         migration_batch=2, replicas_per_shard=1)
    single = DynamicSearcher(max_tau=max_tau, compact_interval=4)
    inserted = 0
    try:
        for op in ops:
            kind = op[0]
            if kind == "insert":
                assert router.insert(op[1]) == single.insert(op[1])
                inserted += 1
            elif kind == "delete":
                target = op[1] % max(1, inserted)
                assert router.delete(target) == single.delete(target)
            elif kind == "search":
                assert router.search(op[1]) == single.search(op[1])
            elif kind == "compact":
                router.compact()
                single.compact()
            elif kind == "grow":
                if router._migration is None and router.num_shards < 4:
                    router.add_shard(drain=False)
            elif kind == "shrink":
                if router._migration is None and router.num_shards > 1:
                    router.remove_shard(drain=False)
            elif kind == "step":
                router.migration_step()
            elif kind == "pause":
                router.pause_replication()
            else:  # resume
                router.resume_replication()
            assert len(router) == len(single)
        router.drain_migration()
        router.resume_replication()
        return router, single
    except BaseException:
        router.close()
        raise


class TestReplicatedEquivalence:
    """The acceptance property: replication never changes any answer."""

    @pytest.mark.parametrize("policy", ["hash", "length"])
    @given(ops=REPLICA_OPS,
           queries=st.lists(st.text(alphabet="ab", max_size=8), min_size=1,
                            max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_interleavings_with_lag_match_unsharded(self, policy, ops,
                                                    queries):
        router, single = run_replica_ops(ops, policy=policy)
        with router:
            for query in queries:
                for tau in range(router.max_tau + 1):
                    assert router.search(query, tau) == single.search(query,
                                                                      tau)
                assert (router.search_top_k(query, 3)
                        == single.search_top_k(query, 3))
            # After the final resume every live replica has caught up.
            assert all(row["lag"] == 0
                       for pool in router.replica_status()
                       for row in pool if row["alive"])

    @needs_fork
    @given(ops=REPLICA_OPS)
    @settings(max_examples=6, deadline=None)
    def test_interleavings_process_backend(self, ops):
        router, single = run_replica_ops(ops, policy="hash",
                                         backend="process")
        with router:
            for query in ("", "ab", "abab", "bbbbbb"):
                assert router.search(query) == single.search(query)


class TestServiceIntegration:
    def test_replicas_route_single_shard_service_through_router(self):
        config = ServiceConfig(port=0, replicas=1, shard_backend="thread")
        service = SimilarityService(["vldb", "pvldb"], config)
        try:
            assert isinstance(service.searcher, ShardRouter)
            assert service.searcher.replicas_per_shard == 1
            (answer,) = service.execute_queries([("search", "vldb", 1)])
            single = DynamicSearcher(["vldb", "pvldb"], max_tau=2)
            assert answer[0] == single.search("vldb", 1)
        finally:
            service.close()

    def test_metrics_payload_exports_replica_gauges(self):
        config = ServiceConfig(port=0, shards=2, replicas=1,
                               shard_backend="thread")
        service = SimilarityService(["vldb", "pvldb", "icde"], config)
        try:
            service.execute_queries([("search", "vldb", 1)])
            payload = service.metrics_payload()
            merged = payload["merged"]
            assert merged["gauges"]["replicas_total"] == 2
            assert merged["gauges"]["replicas_alive"] == 2
            assert merged["gauges"]["replica_lag_max"] == 0
            assert merged["counters"]["replica_reads"] >= 1
            assert payload["shards"]["replicas"]["replicas_total"] == 2
        finally:
            service.close()

    def test_config_validates_replicas(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(replicas=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(replicas=True)

    def test_acceptor_knob_is_gone(self, capsys):
        # The acceptor pool was removed (one event loop serves every
        # connection); neither spelling of the knob may drift back.
        from repro.cli import main as cli_main

        with pytest.raises(TypeError):
            ServiceConfig(acceptors=2)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "strings.txt", "--acceptors", "2"])
        assert excinfo.value.code == 2
        assert "--acceptors" in capsys.readouterr().err


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
