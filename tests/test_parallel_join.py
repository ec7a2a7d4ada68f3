"""The join is an ordered list of independent span jobs: every cut is exact.

However the one driver cuts a sorted join into spans — ``chunk_size``,
``workers``, self and R-S joins, with and without strings too short to
partition — it must return the *exact* pairs (ids, distances, texts) of the
one-span run **in the same order**, which in turn is checked against the
brute-force oracle.  ``chunk_size`` with ``workers=1`` is the no-pool way
to force many spans; ``workers > 1`` maps the same spans over a fork pool.
"""

import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import JoinConfig, PassJoin, pass_join
from repro.core import join as join_module
from repro.core.engine import sort_records
from repro.core.join import (JoinRun, chunk_spans, default_chunk_size,
                             resolve_workers, run_span)
from repro.types import as_records

from helpers import brute_force_pairs, brute_force_rs_pairs, random_strings


def spans_join(tau, workers=1, chunk_size=None, **fields):
    return PassJoin(tau, JoinConfig(workers=workers, chunk_size=chunk_size,
                                    **fields))


@pytest.fixture(scope="module")
def mixed_strings():
    """Collision-rich strings including ones shorter than tau + 1."""
    return ["", "a", "b", "ab", "ba"] + random_strings(
        110, 1, 14, alphabet="abc", seed=23)


@pytest.fixture(scope="module")
def serial_result(mixed_strings):
    return PassJoin(2).self_join(mixed_strings)


class TestSelfJoinEquality:
    TAU = 2

    def test_serial_matches_brute_force(self, mixed_strings, serial_result):
        truth = brute_force_pairs(mixed_strings, self.TAU)
        assert serial_result.pair_ids() == set(truth)
        for pair in serial_result:
            assert pair.distance == truth[pair.ids()]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_parallel_matches_serial(self, mixed_strings, serial_result,
                                     workers, chunk_size):
        result = spans_join(self.TAU, workers, chunk_size).self_join(
            mixed_strings)
        assert result.pairs == serial_result.pairs

    def test_single_string_chunks(self, mixed_strings, serial_result):
        result = spans_join(self.TAU, 2, 1).self_join(mixed_strings)
        assert result.pairs == serial_result.pairs

    def test_many_spans_in_process(self, mixed_strings, serial_result):
        result = spans_join(self.TAU, 1, 11).self_join(mixed_strings)
        assert result.pairs == serial_result.pairs

    def test_pair_order_matches_serial(self, mixed_strings, serial_result):
        # Stronger than set equality: spans concatenate back into the
        # one-span emission order, so output is deterministic.
        result = spans_join(self.TAU, 2, 13).self_join(mixed_strings)
        assert result.pairs == serial_result.pairs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_collections(self, seed):
        strings = random_strings(90, 1, 12, alphabet="ab", seed=seed)
        truth = brute_force_pairs(strings, 1)
        result = spans_join(1, 1, 9).self_join(strings)
        assert result.pair_ids() == set(truth)
        for pair in result:
            assert pair.distance == truth[pair.ids()]

    def test_all_selection_methods(self, mixed_strings, serial_result):
        for selection in repro.SelectionMethod:
            result = spans_join(self.TAU, 2, 17, selection=selection
                                ).self_join(mixed_strings)
            assert result.pair_ids() == serial_result.pair_ids(), selection

    def test_all_verification_methods(self, mixed_strings, serial_result):
        for verification in repro.VerificationMethod:
            result = spans_join(self.TAU, 2, 17, verification=verification
                                ).self_join(mixed_strings)
            assert result.pair_ids() == serial_result.pair_ids(), verification

    def test_workers_one_is_exactly_serial(self, mixed_strings, serial_result):
        result = repro.join(mixed_strings, self.TAU, workers=1)
        assert result.pairs == serial_result.pairs
        assert (result.statistics.num_candidates
                == serial_result.statistics.num_candidates)
        assert (result.statistics.num_verifications
                == serial_result.statistics.num_verifications)

    def test_empty_and_tiny_collections(self):
        assert spans_join(2, 4).self_join([]).pairs == []
        assert spans_join(2, 4).self_join(["abc"]).pairs == []
        assert spans_join(2, 1, 4).self_join([]).pairs == []
        assert spans_join(2, 1, 4).self_join(["solo"]).pairs == []


class TestChunkSizes:
    """Ported from the partitioned self join: any cut, same answer."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 10, 50, 1000])
    def test_matches_in_memory_join(self, chunk_size):
        strings = random_strings(120, 2, 16, alphabet="abc", seed=71)
        expected = pass_join(strings, 2).pairs
        assert spans_join(2, 1, chunk_size).self_join(strings).pairs == expected

    def test_no_duplicate_pairs(self):
        strings = random_strings(80, 3, 10, alphabet="ab", seed=72)
        result = spans_join(2, 1, 7).self_join(strings)
        ids = [pair.ids() for pair in result]
        assert len(ids) == len(set(ids))

    def test_distances_match_brute_force(self):
        strings = random_strings(60, 3, 12, alphabet="abc", seed=73)
        truth = brute_force_pairs(strings, 3)
        result = spans_join(3, 1, 9).self_join(strings)
        assert {pair.ids(): pair.distance for pair in result} == truth

    def test_multiprocessing_gives_same_answer(self):
        strings = random_strings(100, 3, 14, alphabet="abc", seed=74)
        expected = pass_join(strings, 2).pairs
        assert spans_join(2, 2, 20).self_join(strings).pairs == expected

    def test_length_clusters_far_apart(self):
        # No probe of one cluster can need a record of another: a span's
        # warm-up starts inside its own cluster.
        strings = (["a" * 3] * 4) + (["b" * 30] * 4) + (["c" * 80] * 4)
        expected = pass_join(strings, 2)
        result = spans_join(2, 1, 4).self_join(strings)
        assert result.pairs == expected.pairs
        assert (result.statistics.index_entries
                <= expected.statistics.index_entries)


class TestRSJoinEquality:
    TAU = 2

    @pytest.fixture(scope="class")
    def left(self):
        return ["", "x"] + random_strings(70, 1, 12, alphabet="abx", seed=31)

    @pytest.fixture(scope="class")
    def right(self):
        return ["y", "xy"] + random_strings(80, 1, 12, alphabet="abx", seed=32)

    @pytest.fixture(scope="class")
    def serial_rs(self, left, right):
        return PassJoin(self.TAU).join(left, right)

    def test_serial_matches_brute_force(self, left, right, serial_rs):
        truth = brute_force_rs_pairs(left, right, self.TAU)
        assert serial_rs.pair_ids() == set(truth)
        for pair in serial_rs:
            assert pair.distance == truth[pair.ids()]

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_parallel_matches_serial(self, left, right, serial_rs, workers,
                                     chunk_size):
        result = spans_join(self.TAU, workers, chunk_size).join(left, right)
        assert result.pairs == serial_rs.pairs

    def test_many_spans_in_process(self, left, right, serial_rs):
        result = spans_join(self.TAU, 1, 8).join(left, right)
        assert result.pairs == serial_rs.pairs

    def test_shared_ids_stay_distinct_collections(self):
        # In an R-S join equal ids on both sides are different strings and
        # must still pair up.
        result = spans_join(1, 2, 2).join(["vldb", "icde"], ["vldb", "edbt"])
        assert (0, 0) in result.pair_ids()


# ----------------------------------------------------------------------
# The contract that makes jobs independent
# ----------------------------------------------------------------------
def _random_collection(rng, size):
    """Strings of length 0..12 over a small alphabet (short ones included)."""
    return ["".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            for _ in range(size)]


class TestSpanJobAlone:
    """``run_span`` on any ``[start, stop)`` returns exactly the serial pairs
    that span's probes emit — nothing from a neighbour is needed or leaked."""

    @pytest.mark.parametrize("seed", range(8))
    def test_self_join_span(self, seed):
        rng = random.Random(seed)
        tau = seed % 4
        probes = sort_records(as_records(_random_collection(rng, 70)))
        position = {record.id: pos for pos, record in enumerate(probes)}
        serial = PassJoin(tau).self_join(probes).pairs
        run = JoinRun(tau, repro.DEFAULT_CONFIG, probes, probes, True)
        for _ in range(6):
            start = rng.randrange(len(probes))
            stop = rng.randint(start, len(probes))
            pairs, _ = run_span(run, start, stop)
            # A self-join pair is emitted by its later-sorted member.
            assert pairs == [pair for pair in serial if start <= max(
                position[pair.left_id], position[pair.right_id]) < stop]

    @pytest.mark.parametrize("seed", range(8))
    def test_rs_join_span(self, seed):
        rng = random.Random(100 + seed)
        tau = seed % 4
        probes = sort_records(as_records(_random_collection(rng, 50)))
        indexed = sort_records(as_records(_random_collection(rng, 60)))
        position = {record.id: pos for pos, record in enumerate(probes)}
        serial = PassJoin(tau).join(probes, indexed).pairs
        run = JoinRun(tau, repro.DEFAULT_CONFIG, probes, indexed, False)
        for _ in range(6):
            start = rng.randrange(len(probes))
            stop = rng.randint(start, len(probes))
            pairs, _ = run_span(run, start, stop)
            assert pairs == [pair for pair in serial
                             if start <= position[pair.left_id] < stop]


class TestNoSameIdFilter:
    """A self-join probe is indexed only after it probes, so ``run_span``
    skips the same-id filter: with it forced back on, every pair and every
    non-time counter is the same, at one span and at several."""

    TIME_FIELDS = ("selection_seconds", "verification_seconds",
                   "indexing_seconds", "total_seconds")

    def counters(self, result):
        return {name: value
                for name, value in result.statistics.as_dict().items()
                if name not in self.TIME_FIELDS}

    @pytest.mark.parametrize("chunk_size", [None, 1, 7])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_filter_changes_nothing(self, monkeypatch, mixed_strings, tau,
                                    chunk_size):
        seen = []
        probe_record = join_module.probe_record

        def filtered(probe, **kwargs):
            seen.append(kwargs["allow_same_id"])
            return probe_record(probe, **{**kwargs, "allow_same_id": False})

        unfiltered = spans_join(tau, 1, chunk_size).self_join(mixed_strings)
        monkeypatch.setattr(join_module, "probe_record", filtered)
        result = spans_join(tau, 1, chunk_size).self_join(mixed_strings)
        assert seen and all(seen)  # the join itself asks for no filter
        assert result.pairs == unfiltered.pairs
        assert self.counters(result) == self.counters(unfiltered)


texts = st.text(alphabet="abC ", min_size=0, max_size=10)
collections = st.lists(texts, min_size=0, max_size=24)
cuts = st.integers(min_value=1, max_value=9)


@given(strings=collections, tau=st.integers(0, 3), chunk_size=cuts,
       workers=st.sampled_from([1, 1, 1, 2]))
@settings(max_examples=80, deadline=None)
def test_any_cut_of_a_self_join_is_the_one_span_run(strings, tau, chunk_size,
                                                    workers):
    one_span = PassJoin(tau).self_join(strings)
    result = spans_join(tau, workers, chunk_size).self_join(strings)
    assert result.pairs == one_span.pairs
    assert ({pair.ids(): pair.distance for pair in result}
            == brute_force_pairs(strings, tau))


@given(left=collections, right=collections, tau=st.integers(0, 3),
       chunk_size=cuts, workers=st.sampled_from([1, 1, 1, 2]))
@settings(max_examples=80, deadline=None)
def test_any_cut_of_an_rs_join_is_the_one_span_run(left, right, tau,
                                                   chunk_size, workers):
    one_span = PassJoin(tau).join(left, right)
    result = spans_join(tau, workers, chunk_size).join(left, right)
    assert result.pairs == one_span.pairs
    assert ({pair.ids(): pair.distance for pair in result}
            == brute_force_rs_pairs(left, right, tau))


class TestMergedStatistics:
    """A chunked run's counters are the join's, not the sum of its jobs'."""

    #: Wall-clock fields differ run to run; a job's index peak is at most
    #: the one-span run's (a warm-up indexes a subset of the serial window).
    UNCOMPARED = ("selection_seconds", "verification_seconds",
                  "indexing_seconds", "total_seconds",
                  "index_entries", "index_bytes")

    def assert_same_work(self, chunked, one_span):
        for name, value in dataclasses.asdict(one_span.statistics).items():
            if name not in self.UNCOMPARED:
                assert getattr(chunked.statistics, name) == value, name
        assert 0 < (chunked.statistics.index_entries
                    <= one_span.statistics.index_entries)
        assert 0 < (chunked.statistics.index_bytes
                    <= one_span.statistics.index_bytes)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk_size", [1, 3, 17])
    def test_self_join_counters_do_not_depend_on_the_cut(self, seed,
                                                         chunk_size):
        strings = _random_collection(random.Random(seed), 80)
        tau = 1 + seed % 3
        self.assert_same_work(
            spans_join(tau, 1, chunk_size).self_join(strings),
            PassJoin(tau).self_join(strings))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk_size", [1, 3, 17])
    def test_rs_join_counters_do_not_depend_on_the_cut(self, seed, chunk_size):
        rng = random.Random(50 + seed)
        left, right = _random_collection(rng, 60), _random_collection(rng, 70)
        tau = 1 + seed % 3
        self.assert_same_work(
            spans_join(tau, 1, chunk_size).join(left, right),
            PassJoin(tau).join(left, right))

    def test_pool_run_reports_the_same_counters(self):
        strings = random_strings(150, 2, 12, alphabet="abc", seed=9)
        self.assert_same_work(spans_join(2, 2, 20).self_join(strings),
                              PassJoin(2).self_join(strings))


class TestConvenienceAPI:
    def test_join_self(self):
        result = repro.join(["vldb", "pvldb", "icde"], tau=1, workers=2)
        assert result.pair_ids() == {(0, 1)}

    def test_join_rs(self):
        result = repro.join(["vldb"], tau=1, right=["pvldb", "edbt"],
                            workers=2, chunk_size=1)
        assert result.pair_ids() == {(0, 0)}

    def test_join_defaults_to_serial(self):
        result = repro.join(["vldb", "pvldb"], tau=1)
        assert result.pair_ids() == {(0, 1)}

    def test_join_overrides_config_fields(self, monkeypatch):
        cuts_made = []

        def recording_chunk_spans(total, chunk_size):
            cuts_made.append(chunk_size)
            return chunk_spans(total, chunk_size)

        monkeypatch.setattr(join_module, "chunk_spans", recording_chunk_spans)
        config = JoinConfig(verification="length-aware", chunk_size=50)
        repro.join(["ab", "abc", "abd"], 1, config=config)
        repro.join(["ab", "abc", "abd"], 1, chunk_size=2, config=config)
        assert cuts_made == [50, 2]

    def test_statistics_are_merged(self):
        strings = random_strings(60, 3, 10, seed=4)
        result = repro.join(strings, tau=1, workers=2, chunk_size=10)
        stats = result.statistics
        assert stats.num_strings == len(strings)
        assert stats.num_results == len(result)
        assert stats.num_verifications > 0
        assert stats.index_entries > 0
        assert stats.total_seconds > 0


class TestKnobs:
    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(10**9, 4) == 4096  # bounded

    def test_chunk_spans_cover_range(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_spans(0, 3) == []

    def test_no_join_entry_point_takes_the_removed_knobs(self):
        for call in (lambda: repro.join(["a"], 1, backend="thread"),
                     lambda: repro.join(["a"], 1, partition_size=4),
                     lambda: repro.join(["a"], 1, processes=2),
                     lambda: PassJoin(1, workers=2)):
            with pytest.raises(TypeError):
                call()
        assert len(dataclasses.fields(JoinConfig)) == 5

    def test_concurrent_runs_in_one_process(self, mixed_strings, serial_result):
        """Overlapping joins are supported: jobs share nothing mutable."""

        def run(_):
            return spans_join(2, 1, 9).self_join(mixed_strings)

        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(pool.map(run, range(3)))
        for result in results:
            assert result.pairs == serial_result.pairs
