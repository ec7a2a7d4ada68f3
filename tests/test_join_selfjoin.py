"""Unit and oracle tests for the Pass-Join self join."""

import pytest

from repro import (JoinConfig, PassJoin, SelectionMethod, VerificationMethod,
                   pass_join, pass_join_pairs)
from repro.exceptions import InvalidThresholdError

from helpers import brute_force_pairs, random_strings


class TestPaperExample:
    """Table 1 / Figure 1: six strings, tau = 3, exactly one answer pair."""

    def test_only_answer_is_s4_s6(self, paper_strings):
        result = pass_join(paper_strings, 3)
        assert {(pair.left, pair.right) for pair in result} == {
            ("kaushik chakrab", "caushik chakrabar")}
        assert result.pairs[0].distance == 3

    def test_candidates_include_the_figure1_pairs(self, paper_strings):
        # Figure 1 lists <1,2>, <3,4>, <3,5>, <4,5>, <3,6>, <4,6>, <5,6> as
        # the candidate pairs found through matching segments.  With the
        # multi-match selection the driver must generate at least the answer
        # candidate, and never more candidates than the 7 of the figure.
        config = JoinConfig(selection=SelectionMethod.MULTI_MATCH)
        result = PassJoin(3, config).self_join(paper_strings)
        assert 1 <= result.statistics.num_candidates <= 7

    def test_no_pairs_at_tau_1(self, paper_strings):
        assert len(pass_join(paper_strings, 1)) == 0


class TestBasicBehaviour:
    def test_empty_collection(self):
        result = pass_join([], 2)
        assert len(result) == 0
        assert result.statistics.num_strings == 0

    def test_single_string(self):
        assert len(pass_join(["only one"], 2)) == 0

    def test_exact_duplicates_found_at_tau_zero(self):
        result = pass_join(["alpha", "beta", "alpha", "gamma", "beta"], 0)
        assert result.pair_ids() == {(0, 2), (1, 4)}
        assert all(pair.distance == 0 for pair in result)

    def test_no_self_pairs(self):
        result = pass_join(["same", "same"], 2)
        assert result.pair_ids() == {(0, 1)}

    def test_pairs_are_reported_once(self):
        strings = ["abcde", "abcdf", "abcdg"]
        result = pass_join(strings, 2)
        ids = [pair.ids() for pair in result]
        assert len(ids) == len(set(ids)) == 3

    def test_pair_ids_are_normalised(self):
        result = pass_join(["zzzz", "zzzy"], 1)
        pair = result.pairs[0]
        assert pair.left_id < pair.right_id

    def test_result_contains_texts_and_distance(self):
        result = pass_join(["vldb", "pvldb"], 1)
        pair = result.pairs[0]
        assert {pair.left, pair.right} == {"vldb", "pvldb"}
        assert pair.distance == 1

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThresholdError):
            PassJoin(-1)

    def test_strings_shorter_than_tau_plus_one_are_still_joined(self):
        # "ab" cannot be partitioned into 4 segments but must still be found.
        strings = ["ab", "abc", "abcd", "xyzuvw"]
        truth = brute_force_pairs(strings, 3)
        assert pass_join(strings, 3).pair_ids() == set(truth)

    def test_pass_join_pairs_helper(self):
        assert pass_join_pairs(["vldb", "pvldb", "icde"], 1) == [(0, 1)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3, 4])
    def test_random_small_alphabet(self, small_random_strings, tau):
        truth = brute_force_pairs(small_random_strings, tau)
        result = pass_join(small_random_strings, tau)
        assert result.pair_ids() == set(truth)
        for pair in result:
            assert pair.distance == truth[pair.ids()]

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_name_like_dataset(self, name_like_strings, tau):
        truth = brute_force_pairs(name_like_strings, tau)
        result = pass_join(name_like_strings, tau)
        assert result.pair_ids() == set(truth)

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    @pytest.mark.parametrize("verification", list(VerificationMethod))
    def test_every_configuration_agrees(self, selection, verification):
        strings = random_strings(80, 3, 12, alphabet="ab", seed=77)
        tau = 2
        truth = set(brute_force_pairs(strings, tau))
        config = JoinConfig(selection=selection, verification=verification)
        assert pass_join(strings, tau, config).pair_ids() == truth

    def test_long_strings_with_larger_threshold(self):
        strings = random_strings(40, 40, 70, alphabet="abcde", seed=5)
        tau = 8
        truth = set(brute_force_pairs(strings, tau))
        assert pass_join(strings, tau).pair_ids() == truth


class TestStatistics:
    def test_statistics_are_populated(self, name_like_strings):
        result = pass_join(name_like_strings, 2)
        stats = result.statistics
        assert stats.num_strings == len(name_like_strings)
        assert stats.num_results == len(result)
        assert stats.num_selected_substrings > 0
        assert stats.num_index_probes >= stats.num_selected_substrings
        assert stats.num_candidates >= stats.num_results
        assert stats.num_indexed_segments > 0
        assert stats.index_entries > 0
        assert stats.index_bytes > 0
        assert stats.total_seconds > 0

    def test_multi_match_selects_fewer_substrings_than_length(self, name_like_strings):
        tau = 2
        by_method = {}
        for method in (SelectionMethod.LENGTH, SelectionMethod.SHIFT,
                       SelectionMethod.POSITION, SelectionMethod.MULTI_MATCH):
            config = JoinConfig(selection=method)
            stats = PassJoin(tau, config).self_join(name_like_strings).statistics
            by_method[method] = stats.num_selected_substrings
        assert (by_method[SelectionMethod.MULTI_MATCH]
                <= by_method[SelectionMethod.POSITION]
                <= by_method[SelectionMethod.SHIFT]
                <= by_method[SelectionMethod.LENGTH])

    def test_collecting_duplicate_strings_does_not_inflate_results(self):
        strings = ["duplicate"] * 5
        result = pass_join(strings, 1)
        # C(5, 2) = 10 unordered pairs, each reported once.
        assert len(result) == 10


class TestInputContracts:
    """A join reports pairs by id and reads a collection of strings."""

    def test_self_join_refuses_duplicate_ids(self):
        from repro import join
        from repro.types import StringRecord

        with pytest.raises(ValueError, match="duplicate id 0"):
            join([StringRecord(0, "abcd"), StringRecord(0, "abce")], 1)

    def test_rs_join_refuses_duplicate_ids_within_a_side(self):
        from repro.core.join import pass_join_rs
        from repro.types import StringRecord

        with pytest.raises(ValueError, match="duplicate id 5 .*right"):
            pass_join_rs([StringRecord(0, "abcd")],
                         [StringRecord(5, "abcx"), StringRecord(5, "abcd")], 1)
        with pytest.raises(ValueError, match="duplicate id 0 .*left"):
            pass_join_rs([StringRecord(0, "abcd"), StringRecord(0, "abcx")],
                         [StringRecord(5, "abcd")], 1)

    def test_rs_join_allows_equal_ids_across_sides(self):
        from repro.core.join import pass_join_rs
        from repro.types import StringRecord

        result = pass_join_rs([StringRecord(0, "abcd")],
                              [StringRecord(0, "abcx"), StringRecord(5, "abcd")],
                              1)
        assert sorted((pair.left_id, pair.right_id, pair.distance)
                      for pair in result) == [(0, 0, 1), (0, 5, 0)]

    def test_a_bare_str_is_not_a_collection(self):
        from repro import join
        from repro.types import as_records

        with pytest.raises(TypeError, match="not a str"):
            pass_join("abc", 1)
        with pytest.raises(TypeError, match="not a str"):
            join(["abc", "abd"], 1, right="abc")
        with pytest.raises(TypeError, match="not a str"):
            as_records("vldb")
