"""Tests for the top-k similarity join extension."""

import pytest

from repro import PassJoin
from repro.distance import edit_distance
from repro.topk import closest_pair, top_k_join

from helpers import brute_force_pairs, random_strings


class TestTopKJoin:
    def test_returns_exactly_k_pairs(self):
        strings = ["vldb", "pvldb", "vldbj", "sigmod", "sigmmod"]
        result = top_k_join(strings, k=3)
        assert len(result) == 3

    def test_paper_strings_top_one(self, paper_strings):
        result = top_k_join(paper_strings, k=1)
        assert [(pair.left, pair.right) for pair in result] == [
            ("kaushik chakrab", "caushik chakrabar")]
        assert result.pairs[0].distance == 3

    def test_distances_are_nondecreasing(self):
        strings = random_strings(60, 3, 12, alphabet="abc", seed=61)
        result = top_k_join(strings, k=15)
        distances = [pair.distance for pair in result]
        assert distances == sorted(distances)

    def test_matches_brute_force_kth_distance(self):
        strings = random_strings(60, 3, 12, alphabet="abc", seed=62)
        k = 10
        result = top_k_join(strings, k=k)
        # Brute-force: the k smallest distances over all pairs.
        truth = sorted(brute_force_pairs(strings, tau=12).values())[:k]
        assert [pair.distance for pair in result] == truth

    def test_fewer_than_k_pairs_available(self):
        result = top_k_join(["aaa", "zzzzzzzzz"], k=5, max_tau=2)
        assert len(result) == 0

    def test_max_tau_caps_the_search(self):
        strings = ["aaaa", "bbbb", "cccc"]
        result = top_k_join(strings, k=2, max_tau=1)
        assert len(result) == 0  # every pair is at distance 4 > 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_join(["a", "b"], k=0)

    def test_tiny_collections(self):
        assert len(top_k_join([], k=3)) == 0
        assert len(top_k_join(["only"], k=3)) == 0

    def test_statistics_are_merged_across_rounds(self):
        strings = ["abcd", "abce", "wxyz"]
        result = top_k_join(strings, k=1)
        assert result.statistics.num_strings == 3
        assert result.statistics.num_results == 1
        assert result.statistics.total_seconds > 0

    def test_index_size_is_the_largest_rounds_not_their_sum(self, name_like_strings):
        # Each round builds and drops its own index, so the join's peak is
        # the largest round's (the rounds' peaks used to be added up).
        result = top_k_join(name_like_strings, k=30)
        final_tau = max(pair.distance for pair in result)
        assert final_tau >= 1  # more than one round ran
        rounds = [PassJoin(tau).self_join(name_like_strings).statistics
                  for tau in range(final_tau + 1)]
        stats = result.statistics
        assert stats.index_entries == max(r.index_entries for r in rounds)
        assert stats.index_bytes == max(r.index_bytes for r in rounds)
        assert stats.num_candidates == sum(r.num_candidates for r in rounds)


class TestClosestPair:
    def test_finds_the_closest(self):
        pair = closest_pair(["kitten", "mitten", "sitting"])
        assert {pair.left, pair.right} == {"kitten", "mitten"}
        assert pair.distance == edit_distance("kitten", "mitten")

    def test_none_for_singleton(self):
        assert closest_pair(["alone"]) is None

    def test_none_when_capped(self):
        assert closest_pair(["aaaa", "zzzz"], max_tau=1) is None
