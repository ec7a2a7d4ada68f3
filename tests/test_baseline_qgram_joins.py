"""Tests for the q-gram prefix-filtering baseline, ED-Join."""

import itertools
import random

import pytest

from repro.baselines.ed_join import EdJoin, ed_join, min_edit_errors
from repro.baselines.qgram import (gram_document_frequencies, order_grams,
                                   positional_qgrams)
from repro.types import StringRecord

from helpers import brute_force_pairs, random_strings


class TestMinEditErrors:
    def test_empty_set_needs_no_edits(self):
        assert min_edit_errors([], 3) == 0

    def test_single_gram_needs_one_edit(self):
        assert min_edit_errors(positional_qgrams("abc", 3), 3) == 1

    def test_disjoint_grams_need_one_edit_each(self):
        grams = [g for g in positional_qgrams("abcdefgh", 2) if g.position % 2 == 0]
        assert min_edit_errors(grams, 2) == 4

    def test_overlapping_grams_can_share_an_edit(self):
        # grams at positions 0 and 1 with q=2 overlap at position 1.
        grams = positional_qgrams("abc", 2)
        assert min_edit_errors(grams, 2) == 1

    def test_order_does_not_matter(self):
        grams = positional_qgrams("abcdefghij", 3)
        assert min_edit_errors(list(reversed(grams)), 3) == min_edit_errors(grams, 3)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_greedy_matches_brute_force_minimum(self, q):
        # An edit at character c destroys every gram covering c, so the
        # minimum is the fewest characters that hit every gram's span.
        rng = random.Random(q)
        for _ in range(40):
            grams = [gram for gram in positional_qgrams("abcdefghijkl", q)
                     if rng.random() < 0.5]
            spans = [range(position, position + q) for _, position in grams]
            characters = range(12 + q)
            fewest = next(k for k in itertools.count()
                          if any(all(any(c in span for c in chosen)
                                     for span in spans)
                                 for chosen in itertools.combinations(characters, k)))
            assert min_edit_errors(grams, q) == fewest


class TestEdJoinPrefix:
    def test_prefix_has_at_most_q_tau_plus_one_grams(self):
        # One edit destroys at most q grams, so q·τ + 1 grams always need
        # τ + 1 edits: the location-based prefix is never longer than the
        # plain prefix-filtering prefix.
        strings = random_strings(50, 8, 20, alphabet="abcdef", seed=8)
        tau, q = 2, 3
        ed = EdJoin(tau, q)
        frequencies = gram_document_frequencies(strings, q)
        prefixes = 0
        for text in strings:
            ordered = order_grams(positional_qgrams(text, q), frequencies)
            prefix = ed.prefix_grams(ordered)
            if prefix is not None:
                prefixes += 1
                assert len(prefix) <= q * tau + 1
                assert min_edit_errors(prefix, q) > tau
        assert prefixes > 0

    @pytest.mark.parametrize("tau", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_prefix_is_the_shortest_certifying_prefix(self, q, tau):
        strings = random_strings(40, 1, 24, alphabet="abcd", seed=q * 10 + tau)
        ed = EdJoin(tau, q)
        frequencies = gram_document_frequencies(strings, q)
        for text in strings:
            ordered = order_grams(positional_qgrams(text, q), frequencies)
            prefix = ed.prefix_grams(ordered)
            if min_edit_errors(ordered, q) <= tau:
                assert prefix is None
                continue
            assert prefix == ordered[:len(prefix)]
            assert min_edit_errors(prefix, q) > tau
            assert min_edit_errors(prefix[:-1], q) <= tau
            assert len(prefix) <= q * tau + 1

    def test_unfilterable_string_returns_none(self):
        # A 3-character string with q=3 has one gram; one edit destroys it,
        # so no prefix can certify tau = 2.
        ed = EdJoin(2, 3)
        ordered = positional_qgrams("abc", 3)
        assert ed.prefix_grams(ordered) is None


@pytest.mark.parametrize("factory,q", [
    (ed_join, 2),
    (ed_join, 3),
    (ed_join, 1),
    (ed_join, 4),
    (ed_join, 5),
])
class TestQGramJoinCorrectness:
    def test_paper_example(self, paper_strings, factory, q):
        result = factory(paper_strings, 3, q=q)
        assert {(pair.left, pair.right) for pair in result} == {
            ("kaushik chakrab", "caushik chakrabar")}

    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_matches_brute_force_on_random_strings(self, factory, q, tau):
        strings = random_strings(90, 2, 16, alphabet="abc", seed=17)
        truth = set(brute_force_pairs(strings, tau))
        assert factory(strings, tau, q=q).pair_ids() == truth

    def test_matches_brute_force_on_name_data(self, name_like_strings, factory, q):
        tau = 2
        truth = set(brute_force_pairs(name_like_strings, tau))
        assert factory(name_like_strings, tau, q=q).pair_ids() == truth


class TestQGramJoinBehaviour:
    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            EdJoin(2, q=0)

    def test_statistics_populated(self, name_like_strings):
        stats = EdJoin(2, 3).self_join(name_like_strings).statistics
        assert stats.num_strings == len(name_like_strings)
        assert stats.index_entries > 0
        assert stats.index_bytes > 0
        assert stats.num_candidates >= stats.num_results

    def test_empty_collection(self):
        assert len(EdJoin(2).self_join([])) == 0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_every_gram_is_indexed_and_counted(self, name_like_strings, q):
        stats = EdJoin(2, q).self_join(name_like_strings).statistics
        grams = [gram for text in name_like_strings
                 for gram in positional_qgrams(text, q)]
        assert stats.index_entries == len(grams)
        assert stats.index_bytes == 16 * len(grams) + sum(
            len(gram.encode("utf-8")) for gram in {gram for gram, _ in grams})
        assert stats.num_index_probes == stats.num_selected_substrings
        assert (stats.num_candidates >= stats.num_verifications
                >= stats.num_results)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_duplicates_join_at_tau_zero(self, q):
        strings = ["vldb", "sigmod", "vldb", "icde", "sigmod", "vldb", "ab", "ab"]
        result = EdJoin(0, q).self_join(strings)
        assert result.pair_ids() == {(0, 2), (0, 5), (2, 5), (1, 4), (6, 7)}
        assert all(pair.distance == 0 for pair in result)

    def test_record_ids_are_kept(self):
        records = [StringRecord(40, "kaushik chakrab"),
                   StringRecord(7, "caushik chakrabar"),
                   StringRecord(12, "vldb")]
        result = EdJoin(3).self_join(records)
        assert [(pair.left_id, pair.right_id, pair.distance)
                for pair in result] == [(7, 40, 3)]
