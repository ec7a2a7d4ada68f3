"""Unit tests for the q-gram substrate used by the baselines."""

import pytest
from collections import Counter

from repro.baselines.qgram import (PositionalGram, gram_document_frequencies,
                                   order_grams, positional_qgrams, qgrams)


class TestQgrams:
    def test_basic_bigrams(self):
        assert qgrams("vldb", 2) == ["vl", "ld", "db"]

    def test_trigram_count(self):
        text = "similarity"
        assert len(qgrams(text, 3)) == len(text) - 3 + 1

    def test_short_string_yields_whole_string(self):
        assert qgrams("ab", 3) == ["ab"]
        assert qgrams("abc", 3) == ["abc"]

    def test_empty_string(self):
        assert qgrams("", 2) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", 0)

    def test_positional_grams_positions(self):
        grams = positional_qgrams("vldb", 3)
        assert grams == [PositionalGram("vld", 0), PositionalGram("ldb", 1)]


class TestGramOrdering:
    def test_document_frequencies_count_strings_not_occurrences(self):
        frequencies = gram_document_frequencies(["aaa", "aab"], 2)
        # "aa" appears twice inside "aaa" but only counts once per string.
        assert frequencies["aa"] == 2
        assert frequencies["ab"] == 1

    def test_order_grams_puts_rare_grams_first(self):
        frequencies = Counter({"aa": 10, "zz": 1, "mm": 5})
        grams = [PositionalGram("aa", 0), PositionalGram("zz", 1),
                 PositionalGram("mm", 2)]
        ordered = order_grams(grams, frequencies)
        assert [gram.gram for gram in ordered] == ["zz", "mm", "aa"]

    def test_unknown_grams_sort_first(self):
        frequencies = Counter({"aa": 2})
        grams = [PositionalGram("aa", 0), PositionalGram("qq", 1)]
        assert order_grams(grams, frequencies)[0].gram == "qq"

    def test_ties_broken_deterministically(self):
        frequencies = Counter({"aa": 1, "bb": 1})
        grams = [PositionalGram("bb", 5), PositionalGram("aa", 9)]
        ordered = order_grams(grams, frequencies)
        assert [gram.gram for gram in ordered] == ["aa", "bb"]
