"""Tests for the R-S (two-collection) join."""

import itertools

import pytest

from repro import JoinConfig, PassJoin, SelectionMethod, pass_join_rs
from repro.baselines.naive import NaiveJoin
from repro.distance import edit_distance

from helpers import random_strings


def brute_force_rs(left, right, tau):
    truth = {}
    for (i, a), (j, b) in itertools.product(enumerate(left), enumerate(right)):
        if abs(len(a) - len(b)) > tau:
            continue
        distance = edit_distance(a, b)
        if distance <= tau:
            truth[(i, j)] = distance
    return truth


class TestRSJoinBasics:
    def test_simple_pairs(self):
        left = ["vldb", "sigmod", "icde"]
        right = ["pvldb", "sigmmod", "kdd"]
        result = pass_join_rs(left, right, 1)
        assert result.pair_ids() == {(0, 0), (1, 1)}

    def test_orientation_is_left_right(self):
        result = pass_join_rs(["abc"], ["abd"], 1)
        pair = result.pairs[0]
        assert pair.left == "abc" and pair.right == "abd"

    def test_identical_ids_in_both_sets_are_distinct_strings(self):
        # id 0 exists on both sides; an R-S join must not confuse them.
        result = pass_join_rs(["aaaa"], ["aaaa"], 0)
        assert result.pair_ids() == {(0, 0)}

    def test_empty_sides(self):
        assert len(pass_join_rs([], ["abc"], 2)) == 0
        assert len(pass_join_rs(["abc"], [], 2)) == 0

    def test_probe_shorter_than_indexed_length(self):
        # |r| < |s| exercises negative delta in the selection windows.
        result = pass_join_rs(["vldb"], ["pvvldb"], 2)
        assert result.pair_ids() == {(0, 0)}

    def test_short_strings_on_either_side(self):
        left = ["ab", "abcdef"]
        right = ["abc", "a", "abcde"]
        truth = brute_force_rs(left, right, 3)
        assert pass_join_rs(left, right, 3).pair_ids() == set(truth)

    def test_index_is_a_sliding_window_over_the_indexed_side(self):
        # Only S strings within tau of some probe's length are ever
        # indexed, and those behind the current probe are evicted: the
        # paper's R != S window, not a whole-S index.
        tau = 1
        left = ["abcde", "abcdefghijklmnopqrst"]                 # lengths 5, 20
        right = ["x" * length for length in range(2, 41)]
        right += ["abcdf", "abcdefghijklmnopqrsz"]
        result = pass_join_rs(left, right, tau)
        assert result.pair_ids() == {(0, 39), (1, 40)}
        stats = result.statistics
        in_a_window = [text for text in right
                       if min(abs(len(text) - 5), abs(len(text) - 20)) <= tau]
        assert stats.num_indexed_segments == (tau + 1) * len(in_a_window)
        assert stats.index_entries == (tau + 1) * len(in_a_window) // 2


class TestRSJoinOracle:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_random_collections(self, tau):
        left = random_strings(60, 3, 14, alphabet="abc", seed=21)
        right = random_strings(70, 3, 14, alphabet="abc", seed=22)
        truth = brute_force_rs(left, right, tau)
        result = pass_join_rs(left, right, tau)
        assert result.pair_ids() == set(truth)
        for pair in result:
            assert pair.distance == truth[pair.ids()]

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    def test_all_selection_methods(self, selection):
        left = random_strings(40, 4, 12, alphabet="ab", seed=31)
        right = random_strings(40, 4, 12, alphabet="ab", seed=32)
        truth = set(brute_force_rs(left, right, 2))
        config = JoinConfig(selection=selection)
        assert PassJoin(2, config).join(left, right).pair_ids() == truth

    def test_matches_naive_rs_join(self):
        left = random_strings(50, 5, 20, alphabet="abcd", seed=41)
        right = random_strings(50, 5, 20, alphabet="abcd", seed=42)
        tau = 3
        naive = NaiveJoin(tau).join(left, right)
        ours = pass_join_rs(left, right, tau)
        assert ours.pair_ids() == naive.pair_ids()

    def test_rs_join_of_a_set_with_itself_contains_self_pairs(self):
        strings = ["alpha", "alphb", "beta"]
        result = pass_join_rs(strings, strings, 1)
        # Unlike the self join, the R-S join reports (i, i) pairs and both
        # orientations are collapsed to (left index, right index).
        assert (0, 0) in result.pair_ids()
        assert (0, 1) in result.pair_ids() and (1, 0) in result.pair_ids()
