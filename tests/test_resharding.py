"""Tests for live resharding (the elastic shard fleet).

The load-bearing property (the PR's acceptance criterion): random
interleavings of insert / delete / search / ``add_shard`` / ``remove_shard``
— including queries issued **while a migration is in flight** — keep a
``ShardRouter`` element-identical to an unsharded ``DynamicSearcher``, at
several fleet sizes and for both the thread and process backends.  On top
of that: the consistent-hash ring's ``≤ ~2/N`` rows-moved bound, donor row
release after migration, the empty-length-window fast path, the scalar
epoch the service cache keys on, and the degenerate ``search_many``
batches.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ConfigurationError, ServiceError
from repro.service import (BackgroundServer, DynamicSearcher, ServiceClient,
                           ShardRouter, SimilarityService)

from helpers import random_strings

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="process backend requires fork")

#: Initial fleet sizes the oracle tests run the consistent-hash ring at.
SHARD_COUNTS = [2, 3, 4]


def make_pair(strings, *, shards=3, max_tau=2, backend="thread",
              migration_batch=4, **kwargs):
    """A router and its unsharded oracle over the same collection."""
    router = ShardRouter(strings, shards=shards, max_tau=max_tau,
                         backend=backend, migration_batch=migration_batch,
                         **kwargs)
    return router, DynamicSearcher(strings, max_tau=max_tau)


class TestAddRemoveBasics:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_add_then_remove_roundtrip_preserves_answers(self, shards):
        strings = random_strings(50, 3, 12, alphabet="abc", seed=31)
        queries = random_strings(10, 2, 13, alphabet="abc", seed=32)
        router, single = make_pair(strings, shards=shards)
        with router:
            expected = [single.search(query) for query in queries]
            status = router.add_shard()
            assert status["active"] is False
            assert status["shards"] == router.num_shards == shards + 1
            assert len(router.epoch_vector) == shards + 1
            assert [router.search(query) for query in queries] == expected
            status = router.remove_shard()
            assert status["shards"] == router.num_shards == shards
            assert len(router._shards) == shards
            assert [router.search(query) for query in queries] == expected
            assert sum(router.shard_sizes()) == len(single)

    def test_remove_only_shard_rejected(self):
        with ShardRouter(["abc"], shards=1, max_tau=1,
                         backend="thread") as router:
            with pytest.raises(ServiceError):
                router.remove_shard()

    def test_remove_non_last_shard_rejected(self):
        with ShardRouter(["abc"], shards=3, max_tau=1,
                         backend="thread") as router:
            with pytest.raises(ServiceError):
                router.remove_shard(0)
            router.remove_shard(2)  # the last index is fine
            assert router.num_shards == 2

    def test_concurrent_migrations_rejected(self):
        strings = random_strings(30, 3, 10, alphabet="ab", seed=33)
        router, _ = make_pair(strings)
        with router:
            router.add_shard(drain=False)
            with pytest.raises(ServiceError):
                router.add_shard()
            with pytest.raises(ServiceError):
                router.remove_shard()
            router.drain_migration()
            router.remove_shard()  # idle again: allowed
            assert router.num_shards == 3

    def test_invalid_migration_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(shards=2, max_tau=1, backend="thread",
                        migration_batch=0)

    def test_resize_on_empty_router_is_instant(self):
        with ShardRouter(shards=2, max_tau=1, backend="thread") as router:
            status = router.add_shard(drain=False)
            # Nothing to move: the migration finishes at planning time.
            assert status["active"] is False
            assert router.num_shards == 3
            assert status["rows_total"] == 0

    def test_status_reports_progress_and_last_summary(self):
        strings = [f"string{i:03d}" for i in range(30)]
        router, _ = make_pair(strings, migration_batch=5)
        with router:
            status = router.add_shard(drain=False)
            assert status["active"] is True
            assert status["kind"] == "add-shard"
            assert status["rows_total"] > 0
            assert status["steps_left"] > 0
            mid = router.migration_step()
            # One step copies one bounded batch (a (donor, recipient)
            # group may hold fewer than migration_batch rows).
            assert 0 < mid["rows_copied"] <= 5
            done = router.drain_migration()
            assert done["active"] is False
            assert done["rows_copied"] == done["rows_total"] \
                == done["rows_released"] == status["rows_total"]
            assert done["rows_migrated_total"] == done["rows_total"]
            assert router.rows_migrated_total == done["rows_total"]


class TestMigrationVolume:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_consistent_hash_grow_moves_at_most_2_over_n(self, shards):
        # Acceptance: the rows-migrated counter stays within ~2/N on a
        # consistent-hash resize (expected 1/N; 2/N absorbs ring variance).
        strings = [f"record-{i:04d}" for i in range(400)]
        bound = 2 * len(strings) // (shards + 1)
        router, _ = make_pair(strings, shards=shards)
        with router:
            status = router.add_shard()
            assert 0 < status["rows_total"] <= bound
            assert router.rows_migrated_total == status["rows_total"]
            shrink = router.remove_shard()
            assert shrink["rows_total"] <= bound

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_every_step_that_moves_rows_moves_the_epoch(self, shards):
        # The service cache keys on the scalar epoch alone, so a step that
        # changes any shard's contents must raise it (and none may lower
        # it), on a grow and on a shrink alike.
        strings = random_strings(60, 3, 12, alphabet="abcd", seed=shards)
        router, _ = make_pair(strings, shards=shards, migration_batch=5)
        with router:
            for resize in (router.add_shard, router.remove_shard):
                status = resize(drain=False)
                assert status["rows_total"] > 0
                while status["active"]:
                    epoch = router.epoch
                    moved = status["rows_copied"] + status["rows_released"]
                    status = router.migration_step()
                    assert (status["rows_copied"] + status["rows_released"]
                            > moved)
                    assert router.epoch > epoch

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_donor_store_rows_are_released(self, shards):
        # After a drained resize every moved row must be gone from its
        # donor's RecordStore: fleet-wide store rows == live rows.  The
        # release steps' deletes free them; nothing runs afterwards.
        strings = random_strings(60, 3, 12, alphabet="abcd", seed=35)
        router, _ = make_pair(strings, shards=shards)
        with router:
            for resize in (router.add_shard, router.remove_shard):
                resize()
                summary = router.status_summary()
                assert summary["memory"]["records"] == len(strings)
                assert sum(router.shard_sizes()) == len(strings)


class TestMidMigrationQueries:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_queries_between_every_step_match_oracle(self, shards):
        strings = random_strings(60, 2, 12, alphabet="abc", seed=36)
        queries = random_strings(8, 1, 13, alphabet="abc", seed=37)
        router, single = make_pair(strings, shards=shards, migration_batch=3)
        with router:
            for resize in (router.add_shard, router.remove_shard):
                resize(drain=False)
                while router.rebalance_status()["active"]:
                    router.migration_step()
                    for query in queries:
                        assert router.search(query) == single.search(query)
                        assert (router.search_top_k(query, 3)
                                == single.search_top_k(query, 3))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mutations_during_migration(self, shards):
        strings = random_strings(40, 3, 10, alphabet="ab", seed=38)
        queries = random_strings(8, 2, 11, alphabet="ab", seed=39)
        router, single = make_pair(strings, shards=shards, migration_batch=2)
        with router:
            router.add_shard(drain=False)
            router.migration_step()  # first batch is now dual-present
            # Delete records in every migration state: never copied,
            # dual-present, and freshly inserted.
            for record_id in (0, 7, 13):
                assert router.delete(record_id) == single.delete(record_id)
            assert router.insert("abab") == single.insert("abab")
            for query in queries:
                assert router.search(query) == single.search(query)
            router.drain_migration()
            for query in queries:
                assert router.search(query) == single.search(query)
            assert len(router) == len(single)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_deleting_a_dual_present_record_removes_both_copies(self, shards):
        # Force dual presence, delete, and make sure the donor copy can
        # never resurface — even before the release step runs.
        strings = [f"record{i:02d}" for i in range(20)]
        router, single = make_pair(strings, shards=shards,
                                   migration_batch=50)
        with router:
            router.add_shard(drain=False)
            router.migration_step()  # copy everything; release still pending
            moving = router.rebalance_status()
            assert moving["rows_copied"] > 0
            victim = next(iter(router._migration.dual))
            assert router.delete(victim) == single.delete(victim)
            assert router.search(strings[victim], tau=0) == \
                single.search(strings[victim], tau=0)
            router.drain_migration()
            assert router.search(strings[victim], tau=0) == []


def run_elastic_ops(ops, *, shards=2, backend="thread", max_tau=2):
    """Drive a router and its oracle through an elastic op interleaving.

    After every op the router's scalar epoch (the service cache key) must
    not have fallen, and it must have risen whenever the op changed the
    collection or moved rows between shards.
    """
    router = ShardRouter(shards=shards, max_tau=max_tau, backend=backend,
                         migration_batch=2)
    single = DynamicSearcher(max_tau=max_tau)
    inserted = 0
    try:
        for op in ops:
            kind = op[0]
            epoch = router.epoch
            moved = (router.rebalance_status().get("rows_copied", 0)
                     + router.rebalance_status().get("rows_released", 0))
            changed = False
            if kind == "insert":
                assert router.insert(op[1]) == single.insert(op[1])
                inserted += 1
                changed = True
            elif kind == "delete":
                target = op[1] % max(1, inserted)
                changed = router.delete(target)
                assert changed == single.delete(target)
            elif kind == "search":
                assert router.search(op[1]) == single.search(op[1])
            elif kind == "grow":
                if router._migration is None and router.num_shards < 5:
                    router.add_shard(drain=False)
            elif kind == "shrink":
                if router._migration is None and router.num_shards > 1:
                    router.remove_shard(drain=False)
            elif router._migration is not None:  # step
                status = router.migration_step()
                changed = (status["rows_copied"] + status["rows_released"]
                           > moved)
            assert router.epoch > epoch if changed else router.epoch >= epoch
            assert len(router) == len(single)
        router.drain_migration()
        return router, single
    except BaseException:
        router.close()
        raise


ELASTIC_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("search"), st.text(alphabet="ab", max_size=8)),
        st.tuples(st.just("grow")),
        st.tuples(st.just("shrink")),
        st.tuples(st.just("step")),
    ), max_size=30)


class TestElasticEquivalence:
    """The acceptance property: resizes never change any answer."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @given(ops=ELASTIC_OPS,
           queries=st.lists(st.text(alphabet="ab", max_size=8), min_size=1,
                            max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_interleaved_resizes_match_unsharded(self, shards, ops, queries):
        router, single = run_elastic_ops(ops, shards=shards)
        with router:
            for query in queries:
                for tau in range(router.max_tau + 1):
                    assert router.search(query, tau) == single.search(query, tau)
                assert (router.search_top_k(query, 3)
                        == single.search_top_k(query, 3))

    @needs_fork
    @pytest.mark.parametrize("shards", [2, 3])
    @given(ops=ELASTIC_OPS)
    @settings(max_examples=8, deadline=None)
    def test_interleaved_resizes_match_unsharded_process_backend(
            self, shards, ops):
        router, single = run_elastic_ops(ops, shards=shards,
                                         backend="process")
        with router:
            for query in ("", "ab", "abab", "bbbbbb"):
                assert router.search(query) == single.search(query)


@needs_fork
class TestProcessBackendResharding:
    def test_add_remove_over_worker_processes(self):
        strings = random_strings(40, 3, 10, alphabet="abc", seed=41)
        queries = random_strings(8, 2, 11, alphabet="abc", seed=42)
        router, single = make_pair(strings, shards=2, backend="process",
                                   migration_batch=8)
        with router:
            assert router.backend == "process"
            expected = [single.search(query) for query in queries]
            router.add_shard(drain=False)
            while router.rebalance_status()["active"]:
                router.migration_step()
                assert [router.search(query) for query in queries] == expected
            assert router.num_shards == 3
            router.remove_shard()
            assert router.num_shards == 2
            assert len(multiprocessing.active_children()) == 2
            assert [router.search(query) for query in queries] == expected


class TestDegenerateBatches:
    """search_many() edge batches (satellite): always element-identical."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_empty_batch(self, shards):
        router, _ = make_pair(["abcd", "bcde"], shards=shards)
        with router:
            assert router.search_many([]) == []

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_all_duplicate_batch(self, shards):
        strings = random_strings(30, 3, 9, alphabet="ab", seed=43)
        router, single = make_pair(strings, shards=shards)
        with router:
            batch = ["abab"] * 6
            assert (router.search_many(batch)
                    == [single.search("abab")] * 6
                    == [router.search("abab")] * 6)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_issued_mid_migration(self, shards):
        strings = random_strings(40, 3, 10, alphabet="abc", seed=44)
        queries = random_strings(6, 2, 11, alphabet="abc", seed=45)
        batch = queries + [queries[0], queries[0]]  # duplicates too
        router, single = make_pair(strings, shards=shards, migration_batch=3)
        with router:
            expected = [single.search(query) for query in batch]
            router.add_shard(drain=False)
            while router.rebalance_status()["active"]:
                router.migration_step()
                assert router.search_many(batch) == expected
                assert router.search_many([]) == []
            assert router.search_many(batch) == expected


class TestLengthWindowEdges:
    """Empty-window fast path: no scatter when no live length can match."""

    def spy_scatter(self, router):
        calls = []
        original = router._scatter

        def recording(targets, op, args):
            calls.append((tuple(targets), op))
            return original(targets, op, args)

        router._scatter = recording
        return calls

    def test_out_of_band_query_returns_empty_without_scatter(self):
        strings = ["abcd", "abcde", "bcdef"]  # lengths 4-5 only
        router, single = make_pair(strings, shards=2, max_tau=1)
        with router:
            calls = self.spy_scatter(router)
            query = "a" * 20  # window [19, 21]: intersects no live length
            assert router.search(query) == single.search(query) == []
            assert router.search_top_k(query, 3) == []
            assert router.search_many([query, query]) == [[], []]
            assert calls == []  # not a single shard was probed

    def test_empty_shard_edge(self):
        # Every record has length 4; a query whose window [1, 3] holds no
        # live length returns [] without scattering.
        strings = ["abcd", "abce", "abcf"]
        router, single = make_pair(strings, shards=3, max_tau=1)
        with router:
            calls = self.spy_scatter(router)
            assert router.search("ab", tau=1) == single.search("ab", 1) == []
            assert calls == []

    def test_boundary_lengths_still_covered(self):
        # Window edges exactly touching a populated band must still probe.
        strings = ["abcdef"]  # length 6
        router, single = make_pair([*strings], shards=2, max_tau=2)
        with router:
            for query in ("abcd", "abcdefgh"):  # |q| ± 2 touches length 6
                assert router.search(query, 2) == single.search(query, 2)

    def test_deleting_last_record_of_a_length_restores_fast_path(self):
        router, single = make_pair(["abcd"], shards=2, max_tau=1)
        with router:
            assert router.search("abcd") == single.search("abcd")
            router.delete(0), single.delete(0)
            calls = self.spy_scatter(router)
            assert router.search("abcd") == single.search("abcd") == []
            assert calls == []


class TestServiceResharding:
    """The wire layer: add-shard / remove-shard / rebalance-status ops."""

    def make_service(self, strings, *, shards=2):
        config = ServiceConfig(max_tau=2, shards=shards,
                               shard_backend="thread", migration_batch=4)
        return SimilarityService(strings, config)

    def test_reshard_ops_roundtrip(self):
        strings = [f"string{i:02d}" for i in range(30)]
        service = self.make_service(strings)
        try:
            grown = service.handle_request({"op": "add-shard"})
            assert grown["ok"] is True
            assert grown["status"]["shards"] == 3
            assert grown["status"]["active"] is False  # drained synchronously
            stats = service.handle_request({"op": "stats"})
            assert stats["shards"]["count"] == 3
            assert stats["shards"]["rows_migrated"] > 0
            assert len(stats["shards"]["bytes"]) == 3
            shrunk = service.handle_request({"op": "remove-shard"})
            assert shrunk["status"]["shards"] == 2
            polled = service.handle_request({"op": "rebalance-status"})
            assert polled["ok"] is True and polled["status"]["active"] is False
        finally:
            service.close()

    def test_background_drain_via_service_steps(self):
        strings = [f"string{i:02d}" for i in range(30)]
        service = self.make_service(strings)
        try:
            search = {"op": "search", "query": "string07", "tau": 1}
            before = service.handle_request(search)["matches"]
            started = service.handle_request({"op": "add-shard",
                                              "drain": False})
            assert started["status"]["active"] is True
            while service.rebalance_status()["active"]:
                assert service.handle_request(search)["matches"] == before
                service.migration_step()
            assert service.handle_request(search)["matches"] == before
        finally:
            service.close()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_cache_never_serves_stale_answers_across_a_resize(self, shards):
        strings = [f"string{i:02d}" for i in range(30)]
        service = self.make_service(strings, shards=shards)
        try:
            search = {"op": "search", "query": "string07", "tau": 1}
            first = service.handle_request(search)
            assert service.handle_request(search)["cached"] is True
            service.handle_request({"op": "add-shard"})
            after = service.handle_request(search)
            # The moved rows moved the epoch, which dropped the old entry;
            # the re-computed answer matches, and caching resumes.
            assert after["cached"] is False
            assert after["matches"] == first["matches"]
            assert service.handle_request(search)["cached"] is True
        finally:
            service.close()

    def test_reshard_rejected_on_unsharded_service(self):
        service = SimilarityService(["abc"], ServiceConfig(max_tau=1))
        try:
            for op in ("add-shard", "remove-shard", "rebalance-status"):
                response = service.handle_request({"op": op})
                assert response["ok"] is False
                assert "sharded" in response["error"]
        finally:
            service.close()

    def test_rejected_resize_does_not_erase_drain_failure_record(self):
        # With a failed drain recorded and the migration still active, a
        # (rejected) resize attempt must not wipe the error — otherwise
        # status pollers are back to an unexplained endless "active".
        service = self.make_service([f"string{i:02d}" for i in range(30)])
        try:
            started = service.handle_request({"op": "add-shard",
                                              "drain": False})
            assert started["status"]["active"] is True
            service.reshard_error = "background reshard drain failed: boom"
            rejected = service.handle_request({"op": "add-shard"})
            assert rejected["ok"] is False
            polled = service.handle_request({"op": "rebalance-status"})
            assert "drain failed" in polled["status"]["error"]
            # A *successful* resize does clear the stale record.
            service.searcher.drain_migration()
            service.handle_request({"op": "remove-shard"})
            polled = service.handle_request({"op": "rebalance-status"})
            assert "error" not in polled["status"]
        finally:
            service.close()

    def test_invalid_drain_field_rejected(self):
        service = self.make_service(["abcd", "bcde"])
        try:
            response = service.handle_request({"op": "add-shard",
                                               "drain": "yes"})
            assert response["ok"] is False and "drain" in response["error"]
        finally:
            service.close()


class TestOverTcp:
    """Full stack: the server drains a resize while answering queries."""

    def test_add_query_remove_over_the_wire(self):
        strings = [f"string{i:02d}" for i in range(40)]
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread", migration_batch=1)
        with BackgroundServer(strings, config) as (host, port):
            with ServiceClient(host, port) as client:
                before = client.search("string13", tau=2)
                status = client.add_shard()
                assert status["shards"] == 3
                # The server streams batches in the background; queries
                # issued while it drains must see exact answers.
                while client.rebalance_status()["active"]:
                    assert client.search("string13", tau=2) == before
                assert client.search("string13", tau=2) == before
                assert client.stats()["shards"]["count"] == 3
                second = client.remove_shard()
                assert second["shards"] in (2, 3)  # may still be draining
                while client.rebalance_status()["active"]:
                    assert client.search("string13", tau=2) == before
                assert client.stats()["shards"]["count"] == 2
                assert client.search("string13", tau=2) == before

    def test_failed_background_drain_surfaces_an_error(self, capsys):
        # A dead shard worker mid-drain must not strand pollers in an
        # endless active loop: rebalance-status gains an "error" field
        # and the CLI reshard poll loop aborts on it instead of spinning.
        from repro.cli import main as cli_main

        strings = [f"string{i:02d}" for i in range(40)]
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread", migration_batch=1)
        server = BackgroundServer(strings, config)
        with server as (host, port):
            def boom():
                raise ServiceError("shard worker died: boom")

            server.service.migration_step = boom
            # The CLI starts the resize itself, polls, sees the drain
            # failure, and exits 1 (previously: an infinite poll loop).
            assert cli_main(["admin", "reshard", "--shards", "3",
                             "--host", host, "--port", str(port)]) == 1
            assert "drain failed" in capsys.readouterr().err
            with ServiceClient(host, port) as client:
                status = client.rebalance_status()
                assert "drain failed" in status["error"]
                assert status["active"] is True  # genuinely stuck mid-move

    def test_second_resize_while_draining_is_rejected(self):
        import time

        strings = [f"string{i:02d}" for i in range(40)]
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread", migration_batch=1)
        server = BackgroundServer(strings, config)
        with server as (host, port):
            # Slow every migration step down so the drain is guaranteed to
            # still be in flight when the second resize request lands
            # (otherwise this test races the background task).
            real_step = server.service.migration_step

            def slow_step():
                time.sleep(0.005)
                return real_step()

            server.service.migration_step = slow_step
            with ServiceClient(host, port) as client:
                status = client.add_shard()
                assert status["active"] is True
                with pytest.raises(ServiceError):  # mid-drain: rejected
                    client.add_shard()
                while client.rebalance_status()["active"]:
                    pass
                # Idle again: the next resize is accepted.
                client.remove_shard()
                while client.rebalance_status()["active"]:
                    pass
                assert client.stats()["shards"]["count"] == 2
