"""Unit tests for the unbounded edit-distance kernels."""

import pytest

from repro.distance.levenshtein import edit_distance, longest_common_prefix


class TestEditDistance:
    def test_identical_strings(self):
        assert edit_distance("similarity", "similarity") == 0

    def test_empty_strings(self):
        assert edit_distance("", "") == 0

    def test_one_empty_string(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_single_substitution(self):
        assert edit_distance("cat", "car") == 1

    def test_single_insertion(self):
        assert edit_distance("vldb", "pvldb") == 1

    def test_single_deletion(self):
        assert edit_distance("pvldb", "vldb") == 1

    def test_paper_running_example(self):
        # Section 2: ed("kaushic chaduri", "kaushuk chadhui") = 4
        assert edit_distance("kaushic chaduri", "kaushuk chadhui") == 4

    def test_paper_answer_pair(self):
        # <s4, s6> from Figure 1 is the only answer at tau = 3.
        assert edit_distance("kaushik chakrab", "caushik chakrabar") == 3

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_symmetry(self):
        assert edit_distance("abcdef", "azced") == edit_distance("azced", "abcdef")

    def test_completely_different(self):
        assert edit_distance("aaaa", "bbbb") == 4

    def test_unicode(self):
        assert edit_distance("naïve", "naive") == 1

    def test_triangle_inequality_sample(self):
        a, b, c = "partition", "participation", "station"
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestLongestCommonPrefix:
    def test_no_common_prefix(self):
        assert longest_common_prefix("abc", "xyz") == 0

    def test_full_common_prefix(self):
        assert longest_common_prefix("abc", "abc") == 3

    def test_partial_prefix(self):
        assert longest_common_prefix("abcdef", "abcxyz") == 3

    def test_one_is_prefix_of_other(self):
        assert longest_common_prefix("abc", "abcdef") == 3

    def test_empty_string(self):
        assert longest_common_prefix("", "abc") == 0
