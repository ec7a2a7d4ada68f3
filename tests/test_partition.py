"""Unit tests for the even-partition scheme (Section 3.1)."""

import pytest

from repro.config import PartitionStrategy
from repro.core.index import SegmentIndex
from repro.core.partition import (can_partition, minimum_partition_length,
                                  segment_layout, segment_lengths)
from repro.exceptions import InvalidPartitionError, InvalidThresholdError
from repro.types import StringRecord


class TestSegmentLengths:
    def test_paper_example_vankatesh(self):
        # |s| = 9, tau = 3: k = 1, so three segments of length 2 and one of 3.
        assert segment_lengths(9, 3) == (2, 2, 2, 3)

    def test_exact_division(self):
        assert segment_lengths(12, 3) == (3, 3, 3, 3)

    def test_remainder_goes_to_last_segments(self):
        assert segment_lengths(10, 3) == (2, 2, 3, 3)
        assert segment_lengths(11, 3) == (2, 3, 3, 3)

    def test_lengths_sum_to_string_length(self):
        for length in range(4, 60):
            for tau in range(0, 4):
                if length < tau + 1:
                    continue
                assert sum(segment_lengths(length, tau)) == length

    def test_lengths_differ_by_at_most_one(self):
        for length in range(5, 80):
            for tau in range(0, 6):
                if length < tau + 1:
                    continue
                lengths = segment_lengths(length, tau)
                assert max(lengths) - min(lengths) <= 1

    def test_tau_zero_single_segment(self):
        assert segment_lengths(7, 0) == (7,)

    def test_minimum_length_one_character_segments(self):
        assert segment_lengths(4, 3) == (1, 1, 1, 1)

    def test_too_short_raises(self):
        with pytest.raises(InvalidPartitionError):
            segment_lengths(3, 3)

    def test_invalid_threshold_raises(self):
        with pytest.raises(InvalidThresholdError):
            segment_lengths(10, -1)

    def test_left_heavy_strategy(self):
        assert segment_lengths(10, 3, PartitionStrategy.LEFT_HEAVY) == (1, 1, 1, 7)

    def test_right_heavy_strategy(self):
        assert segment_lengths(10, 3, PartitionStrategy.RIGHT_HEAVY) == (7, 1, 1, 1)


class TestSegmentLayout:
    def test_paper_example_layout(self):
        # "vankatesh": segments va | nk | at | esh
        assert segment_layout(9, 3) == ((0, 2), (2, 2), (4, 2), (6, 3))

    def test_layout_is_contiguous_and_covers_string(self):
        for length in range(5, 60):
            for tau in range(0, 5):
                if length < tau + 1:
                    continue
                layout = segment_layout(length, tau)
                position = 0
                for start, seg_len in layout:
                    assert start == position
                    position += seg_len
                assert position == length

    def test_layout_cached_instances_are_equal(self):
        assert segment_layout(20, 2) is segment_layout(20, 2)


def _indexed_segments(text, tau):
    """The segment keys an index files ``text`` under, by ordinal."""
    index = SegmentIndex(tau)
    index.add(StringRecord(0, text))
    return {ordinal: list(keys)
            for ordinal, keys in index.length_group(len(text)).items()}


class TestPartition:
    def test_paper_example_vankatesh(self):
        assert _indexed_segments("vankatesh", 3) == {
            1: ["va"], 2: ["nk"], 3: ["at"], 4: ["esh"]}

    def test_paper_example_kaushic_chaduri(self):
        # Figure 1: "kaushic chaduri" -> kau | shic | _cha | duri
        assert _indexed_segments("kaushic chaduri", 3) == {
            1: ["kau"], 2: ["shic"], 3: [" cha"], 4: ["duri"]}

    def test_segments_reassemble_to_string(self):
        text = "an arbitrary example string"
        for strategy in PartitionStrategy:
            for tau in range(0, 6):
                layout = segment_layout(len(text), tau, strategy)
                assert "".join(text[start:start + seg_len]
                               for start, seg_len in layout) == text

    def test_number_of_segments_is_tau_plus_one(self):
        for tau in range(0, 6):
            assert len(segment_layout(10, tau)) == tau + 1

    def test_partition_too_short_string_raises(self):
        with pytest.raises(InvalidPartitionError):
            segment_layout(2, 3)


class TestHelpers:
    def test_minimum_partition_length(self):
        assert minimum_partition_length(0) == 1
        assert minimum_partition_length(4) == 5

    def test_can_partition(self):
        assert can_partition(5, 4)
        assert not can_partition(4, 4)
