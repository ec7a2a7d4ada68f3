"""Unit and property tests for the batched bit-parallel verification kernel."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import VerificationMethod
from repro.core.store import RecordStore
from repro.core.verify import (BatchMyersVerifier, LengthAwareVerifier,
                               MatchContext, MyersVerifier, make_verifier)
from repro.distance import length_aware_edit_distance
from repro.distance.myers_batch import BatchMyersKernel, build_pattern_masks
from repro.exceptions import InvalidThresholdError
from repro.types import JoinStatistics, StringRecord

from helpers import store_rows

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
    a freshly interned store and over one shared across verifiers.
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
