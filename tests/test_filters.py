"""Unit and property tests for the filtering primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import edit_distance
from repro.filters import (content_filter_passes,
                           frequency_distance_lower_bound, minimum_shared_grams)
from repro.filters.count_filter import shared_gram_count
from repro.baselines.qgram import qgrams

texts = st.text(alphabet="abcd", max_size=16)
taus = st.integers(min_value=0, max_value=4)


class TestCountFilter:
    def test_minimum_shared_grams_formula(self):
        assert minimum_shared_grams(10, 12, 2, 1) == 12 - 2 + 1 - 2

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            minimum_shared_grams(5, 5, 0, 1)

    def test_vacuous_bound_always_passes(self):
        assert minimum_shared_grams(2, 2, 2, 3) <= 0
        assert shared_gram_count(["ab"], ["cd"]) == 0

    def test_prunes_obviously_different_strings(self):
        a, b = "aaaaaaaaaa", "bbbbbbbbbb"
        assert (shared_gram_count(qgrams(a, 2), qgrams(b, 2))
                < minimum_shared_grams(len(a), len(b), 2, 1))

    @given(a=texts, b=texts, tau=taus, q=st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_never_prunes_a_similar_pair(self, a, b, tau, q):
        if edit_distance(a, b) <= tau:
            assert (shared_gram_count(qgrams(a, q), qgrams(b, q))
                    >= minimum_shared_grams(len(a), len(b), q, tau))


class TestContentFilter:
    def test_lower_bound_examples(self):
        assert frequency_distance_lower_bound("abc", "abc") == 0
        assert frequency_distance_lower_bound("abc", "abd") == 1
        assert frequency_distance_lower_bound("aaaa", "bbbb") == 4

    def test_filter_passes_and_fails(self):
        assert content_filter_passes("abcd", "abce", 1)
        assert not content_filter_passes("aaaa", "zzzz", 3)

    @given(a=texts, b=texts)
    @settings(max_examples=300, deadline=None)
    def test_is_a_lower_bound_on_edit_distance(self, a, b):
        assert frequency_distance_lower_bound(a, b) <= edit_distance(a, b)

    @given(a=texts, b=texts, tau=taus)
    @settings(max_examples=200, deadline=None)
    def test_never_prunes_a_similar_pair(self, a, b, tau):
        if edit_distance(a, b) <= tau:
            assert content_filter_passes(a, b, tau)
