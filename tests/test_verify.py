"""Unit tests for the verification strategies (Section 5)."""

import pytest

from repro.config import VerificationMethod
from repro.core.partition import partition, segment_layout
from repro.core.verify import (BandedVerifier, BatchMyersVerifier,
                               ExtensionVerifier, LengthAwareVerifier,
                               MatchContext, MyersVerifier,
                               SharePrefixExtensionVerifier, make_verifier)
from repro.distance import edit_distance
from repro.exceptions import UnknownMethodError
from repro.types import JoinStatistics, StringRecord

from helpers import store_rows

ALL_METHODS = list(VerificationMethod)


def _context_for(indexed_text, probe, tau, ordinal):
    """Build a MatchContext for a real matching segment of ``indexed_text``."""
    segment = partition(indexed_text, tau)[ordinal - 1]
    probe_start = probe.find(segment.text)
    assert probe_start >= 0, "test fixture must contain the segment"
    return segment, MatchContext(ordinal=ordinal, probe_start=probe_start,
                                 seg_start=segment.start,
                                 seg_length=segment.length)


class TestMakeVerifier:
    def test_factory_returns_expected_classes(self):
        assert isinstance(make_verifier("banded", 2), BandedVerifier)
        assert isinstance(make_verifier("length-aware", 2), LengthAwareVerifier)
        assert isinstance(make_verifier("extension", 2), ExtensionVerifier)
        assert isinstance(make_verifier("share-prefix", 2), SharePrefixExtensionVerifier)
        assert isinstance(make_verifier(VerificationMethod.MYERS, 2), MyersVerifier)
        assert isinstance(make_verifier("myers-batch", 2), BatchMyersVerifier)

    def test_factory_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            make_verifier("quantum", 2)

    def test_exactness_flags(self):
        assert make_verifier("banded", 1).exact_per_pair
        assert make_verifier("length-aware", 1).exact_per_pair
        assert make_verifier("myers", 1).exact_per_pair
        assert make_verifier("myers-batch", 1).exact_per_pair
        assert not make_verifier("extension", 1).exact_per_pair
        assert not make_verifier("share-prefix", 1).exact_per_pair


@pytest.mark.parametrize("method", ALL_METHODS)
class TestWholePairAcceptance:
    """Whatever the strategy, accepted pairs must be truly similar with the
    exact distance, and exact strategies must accept every similar pair."""

    def test_accepts_paper_answer_pair(self, method):
        tau = 3
        indexed = "kaushik chakrab"        # s4 in the paper, length 15
        probe = "caushik chakrabar"        # s6, length 17
        # They share the segment "shik" (ordinal 2) at probe position 3; this
        # is the occurrence whose alignment certifies the pair (the " cha"
        # occurrence is rejected by the tightened extension bounds and the
        # pair is instead accepted here, as Theorem 6 guarantees).
        segment, context = _context_for(indexed, probe, tau, ordinal=2)
        assert segment.text == "shik"
        verifier = make_verifier(method, tau)
        accepted = verifier.verify_rows(
            probe, *store_rows([StringRecord(id=4, text=indexed)]), context)
        assert len(accepted) == 1
        record, distance = accepted[0]
        assert record.id == 4
        assert distance == edit_distance(indexed, probe) == 3

    def test_rejects_dissimilar_pair(self, method):
        tau = 3
        indexed = "kaushuk chadhui"        # s5
        probe = "caushik chakrabar"        # s6; ed(s5, s6) = 6 > 3
        segment, context = _context_for(indexed, probe, tau, ordinal=3)
        assert segment.text == " cha"
        verifier = make_verifier(method, tau)
        accepted = verifier.verify_rows(
            probe, *store_rows([StringRecord(id=5, text=indexed)]), context)
        assert accepted == []

    def test_reported_distances_are_exact(self, method):
        tau = 2
        indexed = "partition based"
        probe = "partition bases"
        segment, context = _context_for(indexed, probe, tau, ordinal=1)
        verifier = make_verifier(method, tau)
        accepted = verifier.verify_rows(
            probe, *store_rows([StringRecord(id=0, text=indexed)]), context)
        assert accepted and accepted[0][1] == 1

    def test_statistics_count_verifications(self, method):
        tau = 1
        stats = JoinStatistics()
        verifier = make_verifier(method, tau, stats)
        indexed = "abcdef"
        probe = "abcdeg"
        segment, context = _context_for(indexed, probe, tau, ordinal=1)
        verifier.verify_rows(
            probe, *store_rows([StringRecord(id=0, text=indexed)]), context)
        assert stats.num_verifications == 1


class TestExtensionSpecifics:
    def test_tightened_thresholds_reject_via_left_part(self):
        """With ordinal i the left parts must match within i-1 edits."""
        tau = 3
        # indexed "abcXdef" / probe "zbcXdef": segment ordinal 1 of the
        # indexed string is "ab" (for tau=3, length 7 -> 1,2,2,2) ... use a
        # crafted pair instead: left parts differ although the whole pair is
        # similar; the extension verifier at ordinal 1 must reject, because a
        # later segment will accept it.
        indexed = "xbcdefgh"
        probe = "ybcdefgh"   # ed = 1 <= tau
        layout = segment_layout(len(indexed), tau)
        # ordinal 2 segment of indexed is at layout[1]; it matches probe at the
        # same offset, but the left parts ("xb.." vs "yb..") differ by 1 > i-1?
        # For ordinal 1 (segment "xb"), there is no matching substring at all,
        # so craft the check at ordinal 2 where left parts differ by exactly 1
        # = i - 1 and the pair is accepted.
        seg_start, seg_len = layout[1]
        segment_text = indexed[seg_start:seg_start + seg_len]
        probe_start = probe.find(segment_text)
        context = MatchContext(ordinal=2, probe_start=probe_start,
                               seg_start=seg_start, seg_length=seg_len)
        verifier = ExtensionVerifier(tau)
        accepted = verifier.verify_rows(
            probe, *store_rows([StringRecord(id=1, text=indexed)]), context)
        assert [record.id for record, _ in accepted] == [1]

    def test_rejection_at_one_segment_is_not_a_false_negative_overall(self):
        """A pair rejected at an early segment is accepted at a later one."""
        tau = 2
        indexed = "aXcdYf"   # differs from probe in positions 1 and 4
        probe = "aZcdWf"
        assert edit_distance(indexed, probe) == 2
        layout = segment_layout(len(indexed), tau)
        verifier = ExtensionVerifier(tau)
        accepted_any = False
        for ordinal, (seg_start, seg_len) in enumerate(layout, start=1):
            segment_text = indexed[seg_start:seg_start + seg_len]
            start = probe.find(segment_text)
            if start < 0:
                continue
            context = MatchContext(ordinal=ordinal, probe_start=start,
                                   seg_start=seg_start, seg_length=seg_len)
            if verifier.verify_rows(
                probe,
                *store_rows([StringRecord(id=9, text=indexed)]), context):
                accepted_any = True
        assert accepted_any


class TestSharePrefixSpecifics:
    def test_list_verification_matches_extension_results(self):
        tau = 3
        probe = "caushik chakrabar"
        candidates = [
            StringRecord(id=3, text="kaushic chaduri"),
            StringRecord(id=4, text="kaushik chakrab"),
            StringRecord(id=5, text="kaushuk chadhui"),
        ]
        segment, context = _context_for(candidates[1].text, probe, tau, ordinal=2)
        extension = ExtensionVerifier(tau)
        sharing = SharePrefixExtensionVerifier(tau)
        expected = {record.id: distance for record, distance in
                    extension.verify_rows(
                        probe, *store_rows(candidates), context)}
        got = {record.id: distance for record, distance in
               sharing.verify_rows(probe, *store_rows(candidates), context)}
        assert got == expected == {4: 3}

    def test_sharing_reduces_matrix_cells_on_long_sorted_lists(self):
        tau = 2
        prefix = "a shared and rather long common prefix "
        candidates = [StringRecord(id=i, text=prefix + suffix)
                      for i, suffix in enumerate(sorted(
                          ["alpha", "alphb", "alphc", "alphd", "alphe"]))]
        probe = prefix + "alpha"
        # All strings share segment ordinal 1 (their first segment) with the
        # probe at position 0.
        layout = segment_layout(len(candidates[0].text), tau)
        seg_start, seg_len = layout[0]
        context = MatchContext(ordinal=1, probe_start=0, seg_start=seg_start,
                               seg_length=seg_len)
        shared_stats = JoinStatistics()
        plain_stats = JoinStatistics()
        SharePrefixExtensionVerifier(tau, shared_stats).verify_rows(
            probe, *store_rows(candidates), context)
        ExtensionVerifier(tau, plain_stats).verify_rows(
            probe, *store_rows(candidates), context)
        assert shared_stats.num_matrix_cells < plain_stats.num_matrix_cells

    def test_empty_candidate_list_builds_no_prefix_verifiers(self, monkeypatch):
        """Regression: the left/right SharedPrefixVerifier pair used to be
        constructed before the empty-list check, charging every empty
        inverted list the setup cost for zero verifications."""
        import repro.core.verify as verify_module

        constructed = []
        original = verify_module.SharedPrefixVerifier

        def counting(*args, **kwargs):
            constructed.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify_module, "SharedPrefixVerifier", counting)
        tau = 2
        context = MatchContext(ordinal=1, probe_start=0, seg_start=0,
                               seg_length=2)
        stats = JoinStatistics()
        verifier = SharePrefixExtensionVerifier(tau, stats)
        assert verifier.verify_rows("abcdef", *store_rows([]), context) == []
        # Out-of-range ordinal (tau_right < 0) with a non-empty list must
        # bail out just as cheaply.
        far_context = MatchContext(ordinal=tau + 2, probe_start=0,
                                   seg_start=0, seg_length=2)
        rows = store_rows([StringRecord(id=0, text="abcdef")])
        assert verifier.verify_rows("abcdef", *rows, far_context) == []
        assert constructed == []
        assert stats.num_matrix_cells == 0
        assert stats.num_verifications == 0
