"""Unit and property tests for the batched bit-parallel verification kernel."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import JoinConfig, VerificationMethod
from repro.core.join import pass_join
from repro.core.kernel import get_kernel
from repro.core.store import RecordStore
from repro.core.verify import (BatchMyersVerifier, LengthAwareVerifier,
                               MatchContext, MyersVerifier, make_verifier)
from repro.distance import length_aware_edit_distance
from repro.distance.myers_batch import BatchMyersKernel, build_pattern_masks
from repro.exceptions import InvalidThresholdError
from repro.types import JoinStatistics, StringRecord

from helpers import random_strings, store_rows

#: Any MatchContext works for the whole-pair kernels under test here; the
#: batched verifier never reads the segment alignment.
CONTEXT = MatchContext(ordinal=1, probe_start=0, seg_start=0, seg_length=1)


class TestPatternMasks:
    def test_positions_become_bits(self):
        masks = build_pattern_masks("aba")
        assert masks == {"a": 0b101, "b": 0b010}

    def test_empty_pattern(self):
        assert build_pattern_masks("") == {}


class TestBatchMyersKernel:
    def test_classic_pair(self):
        assert BatchMyersKernel("kitten").distance_within("sitting", 3) == 3

    def test_batch_matches_per_pair_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            pattern = "".join(rng.choice("abcd")
                              for _ in range(rng.randint(0, 15)))
            texts = ["".join(rng.choice("abcd")
                             for _ in range(rng.randint(0, 15)))
                     for _ in range(10)]
            for tau in range(0, 4):
                expected = [length_aware_edit_distance(pattern, text, tau)
                            for text in texts]
                assert (BatchMyersKernel(pattern).distances_within(texts, tau)
                        == expected), (pattern, texts, tau)

    def test_empty_candidate_list(self):
        assert BatchMyersKernel("abc").distances_within([], 2) == []

    def test_empty_pattern_and_text(self):
        kernel = BatchMyersKernel("")
        assert kernel.distances_within(["", "a", "abc"], 2) == [0, 1, 3]

    def test_cap_convention(self):
        # Bounded kernels report min(ed, tau + 1), never the true distance
        # beyond the threshold.
        assert BatchMyersKernel("aaaa").distance_within("bbbb", 1) == 2

    def test_long_pattern_beyond_64_characters(self):
        base = "x" * 80 + "abcdefghij"
        kernel = BatchMyersKernel(base)
        assert kernel.distances_within([base, base[:-2], base + "zz"], 3) == [0, 2, 2]

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThresholdError):
            BatchMyersKernel("a").distances_within(["b"], -1)

    def test_stats_counters_advance(self):
        stats = JoinStatistics()
        BatchMyersKernel("abcdef").distances_within(
            ["abcdef", "abcdeg", "zzzzzz"], 1, stats)
        assert stats.num_matrix_cells > 0
        assert stats.num_early_terminations >= 1  # zzzzzz cuts off early


class TestBatchMyersVerifier:
    def test_factory_and_flags(self):
        verifier = make_verifier("myers-batch", 2)
        assert isinstance(verifier, BatchMyersVerifier)
        assert verifier.method is VerificationMethod.MYERS_BATCH
        assert verifier.exact_per_pair

    def test_masks_built_once_per_probe(self):
        verifier = BatchMyersVerifier(2)
        records = [StringRecord(id=i, text=t)
                   for i, t in enumerate(["vldb", "pvldb", "sigmod"])]
        # Many calls with the same probe — one mask build.
        for _ in range(5):
            verifier.verify_rows("vldbj", *store_rows(records), CONTEXT)
        assert verifier.masks_built == 1
        verifier.verify_rows("icde", *store_rows(records), CONTEXT)
        assert verifier.masks_built == 2

    def test_verify_rows_materialises_only_accepted_records(self):
        store, rows = store_rows(
            StringRecord(id=i, text=t)
            for i, t in enumerate(["vldb", "pvldb", "sigmod"]))
        verifier = BatchMyersVerifier(1)
        accepted = verifier.verify_rows("vldb", store, rows, CONTEXT)
        assert [(record.text, distance) for record, distance in accepted] == [
            ("vldb", 0), ("pvldb", 1)]

    def test_empty_rows_and_candidates(self):
        store = RecordStore()
        verifier = BatchMyersVerifier(1)
        assert verifier.verify_rows("abc", store, [], CONTEXT) == []
        assert verifier.verify_rows("abc", *store_rows([]), CONTEXT) == []
        assert verifier.masks_built == 0  # nothing to verify, nothing built

    def test_fused_group_builds_masks_once_per_query(self):
        """The engine alternates between the queries of a same-length group
        per posting list; each query's masks must survive the switch."""
        backend = get_kernel("edit-distance").make_backend(2)
        for i, text in enumerate(random_strings(200, 8, 8, seed=9)):
            backend.add(StringRecord(id=i, text=text))
        verifiers, calls = [], []

        def factory(tau):
            verifier = make_verifier("myers-batch", tau, JoinStatistics())
            verify_rows = verifier.verify_rows

            def counted(probe, *args):
                calls.append(probe)
                return verify_rows(probe, *args)

            verifier.verify_rows = counted
            verifiers.append(verifier)
            return verifier

        queries = ["abcdabcd", "dcbadcba"]
        backend.probe_many([(query, 2) for query in queries],
                           stats=JoinStatistics(), verifier_factory=factory)
        (verifier,) = verifiers  # one (length, tau) group, one verifier
        switches = sum(a != b for a, b in zip(calls, calls[1:]))
        assert switches > len(queries)  # the probes did interleave
        assert verifier.masks_built == len(queries)

    def test_probe_cache_is_bounded(self):
        # A join keeps one verifier for thousands of probes.
        verifier = BatchMyersVerifier(1)
        store, rows = store_rows([StringRecord(id=0, text="abcd")])
        probes = 3 * BatchMyersVerifier.PROBE_CACHE_SIZE
        for number in range(probes):
            verifier.verify_rows(f"abc{number}", store, rows, CONTEXT)
        assert verifier.masks_built == probes
        assert len(verifier._probes) <= BatchMyersVerifier.PROBE_CACHE_SIZE


class TestSignatureStage:
    def test_rejects_without_a_sweep_and_counts_it(self):
        stats = JoinStatistics()
        verifier = BatchMyersVerifier(1, stats)
        store, rows = store_rows(
            StringRecord(id=i, text=t)
            for i, t in enumerate(["abcdwxyz", "abcdmnop", "abcdwxyy"]))
        accepted = verifier.verify_rows("abcdwxyz", store, rows, CONTEXT)
        assert [(r.text, d) for r, d in accepted] == [("abcdwxyz", 0),
                                                      ("abcdwxyy", 1)]
        assert stats.num_verifications == 3
        assert stats.num_signature_rejects == 1  # "abcdmnop": 4 buckets off
        # A signature reject is a verification that cost zero cells.
        only_reject = JoinStatistics()
        BatchMyersVerifier(1, only_reject).verify_rows(
            "abcdwxyz", store, rows[1:2], CONTEXT)
        assert (only_reject.num_verifications,
                only_reject.num_signature_rejects,
                only_reject.num_matrix_cells) == (1, 1, 0)

    def test_verifications_are_signature_rejects_plus_rows_swept(
            self, monkeypatch):
        swept = []
        distances_within = BatchMyersKernel.distances_within

        def counting(self, texts, tau, stats=None):
            swept.append(len(texts))
            return distances_within(self, texts, tau, stats)

        monkeypatch.setattr(BatchMyersKernel, "distances_within", counting)
        strings = random_strings(400, 4, 12, alphabet="abcdefgh", seed=3)
        stats = pass_join(strings, tau=2).statistics
        assert stats.num_signature_rejects > 0 and sum(swept) > 0
        assert stats.num_verifications == (stats.num_signature_rejects
                                           + sum(swept))
        # The stage drops no candidate: the funnel counters above it mean
        # what they mean for every whole-string verifier.
        per_pair = pass_join(strings, 2, JoinConfig(verification="myers"))
        assert per_pair.statistics.num_signature_rejects == 0
        assert (stats.num_candidates, stats.num_verifications,
                stats.num_accepted) == (
            per_pair.statistics.num_candidates,
            per_pair.statistics.num_verifications,
            per_pair.statistics.num_accepted)


# ----------------------------------------------------------------------
# Property: element-identical to the per-pair exact verifiers
# ----------------------------------------------------------------------
short_text = st.text(alphabet="abc", max_size=8)


@settings(max_examples=60, deadline=None)
@given(probe=short_text,
       texts=st.lists(short_text, max_size=12),
       tau=st.integers(min_value=1, max_value=4),
       duplicate=st.booleans())
def test_batched_verifier_is_element_identical(probe, texts, tau, duplicate):
    """BatchMyersVerifier == MyersVerifier == LengthAwareVerifier, elementwise.

    Random inverted lists (including empty lists and duplicated entries —
    the same record can appear under several segments) must produce the
    same accepted records with the same distances, in the same order, over
    a freshly filled store and over one shared across verifiers.
    """
    if duplicate and texts:
        texts = texts + [texts[0]]
    records = [StringRecord(id=i, text=text) for i, text in enumerate(texts)]
    store, rows = store_rows(records)

    batched = BatchMyersVerifier(tau)
    expected_myers = MyersVerifier(tau).verify_rows(
        probe, *store_rows(records), CONTEXT)
    expected_banded = LengthAwareVerifier(tau).verify_rows(
        probe, *store_rows(records), CONTEXT)
    got_candidates = batched.verify_rows(probe, *store_rows(records), CONTEXT)
    got_rows = batched.verify_rows(probe, store, rows, CONTEXT)

    assert got_candidates == expected_myers == expected_banded
    assert got_rows == expected_myers
