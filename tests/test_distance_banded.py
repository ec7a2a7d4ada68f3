"""Unit tests for the threshold-bounded (banded) edit-distance kernels."""

import pytest

from repro.distance.banded import banded_edit_distance, length_aware_edit_distance
from repro.distance.levenshtein import edit_distance
from repro.exceptions import InvalidThresholdError
from repro.types import JoinStatistics

BOUNDED_DISTANCES = [banded_edit_distance, length_aware_edit_distance]


@pytest.mark.parametrize("kernel", BOUNDED_DISTANCES)
class TestBoundedKernels:
    def test_identical(self, kernel):
        assert kernel("pass-join", "pass-join", 2) == 0

    def test_within_threshold_returns_exact_distance(self, kernel):
        assert kernel("kitten", "sitting", 3) == 3
        assert kernel("vldb", "pvldb", 2) == 1

    def test_above_threshold_returns_tau_plus_one(self, kernel):
        assert kernel("kitten", "sitting", 2) == 3

    def test_length_difference_short_circuit(self, kernel):
        assert kernel("ab", "abcdefgh", 3) == 4

    def test_tau_zero(self, kernel):
        assert kernel("abc", "abc", 0) == 0
        assert kernel("abc", "abd", 0) == 1

    def test_empty_strings(self, kernel):
        assert kernel("", "", 0) == 0
        assert kernel("", "ab", 2) == 2
        assert kernel("", "ab", 1) == 2

    def test_paper_verification_example(self, kernel):
        # Section 5.1: the pair is not similar at tau = 3.
        assert kernel("kaushuk chadhui", "caushik chakrabar", 3) == 4

    def test_invalid_threshold(self, kernel):
        with pytest.raises(InvalidThresholdError):
            kernel("a", "b", -1)
        with pytest.raises(InvalidThresholdError):
            kernel("a", "b", 1.5)

    def test_agrees_with_exact_distance_on_grid(self, kernel):
        words = ["", "a", "ab", "abc", "acb", "abcd", "badc", "abcde", "xbcde",
                 "partition", "partitions", "petition"]
        for a in words:
            for b in words:
                exact = edit_distance(a, b)
                for tau in range(0, 6):
                    expected = exact if exact <= tau else tau + 1
                    assert kernel(a, b, tau) == expected, (a, b, tau)


class TestStatisticsAccounting:
    def test_cells_counted(self):
        stats = JoinStatistics()
        length_aware_edit_distance("partition", "partitions", 3, stats)
        assert stats.num_matrix_cells > 0

    def test_length_aware_visits_fewer_cells_than_banded(self):
        a = "an unexpectedly long string about similarity joins"
        b = "an unexpectedly long string about similarity joinz"
        banded_stats = JoinStatistics()
        aware_stats = JoinStatistics()
        banded_edit_distance(a, b, 4, banded_stats)
        length_aware_edit_distance(a, b, 4, aware_stats)
        assert aware_stats.num_matrix_cells < banded_stats.num_matrix_cells

    def test_early_termination_counted(self):
        stats = JoinStatistics()
        result = length_aware_edit_distance("aaaaaaaaaa", "bbbbbbbbbb", 3, stats)
        assert result == 4
        assert stats.num_early_terminations == 1

    def test_early_termination_stops_before_last_row(self):
        # The expected-edit-distance rule should stop long before the end.
        a = "zzzz" + "a" * 40
        b = "yyyy" + "a" * 40
        full = JoinStatistics()
        length_aware_edit_distance(a, b, 3, full)
        # A near-identical computation of the same length runs to completion:
        complete = JoinStatistics()
        length_aware_edit_distance("a" * 44, "a" * 43 + "b", 3, complete)
        assert full.num_matrix_cells < complete.num_matrix_cells
