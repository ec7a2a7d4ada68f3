"""Unit tests for the segment inverted indices (Section 3.2)."""

from hypothesis import example, given, settings, strategies as st

from repro.config import PartitionStrategy
from repro.core.index import SegmentIndex
from repro.core.partition import can_partition
from repro.types import StringRecord

from helpers import indexed_records_with_length


def _record(identifier, text):
    return StringRecord(id=identifier, text=text)


def _hits(index, length, ordinal, text):
    """The records of ``L_length^ordinal(text)``, read back through the store."""
    return [index.store.record_at(row)
            for row in index.length_group(length)[ordinal][text]]


class TestSegmentIndexBuilding:
    def test_add_returns_segment_count(self):
        index = SegmentIndex(tau=3)
        assert index.add(_record(1, "vankatesh")) == 4

    def test_short_string_is_not_indexed(self):
        index = SegmentIndex(tau=3)
        assert index.add(_record(1, "ab")) == 0
        assert index.length_group(2) is None

    def test_length_group_is_the_lookup_dictionaries(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcd"))
        index.add(_record(1, "abxy"))
        group = index.length_group(4)
        assert sorted(group) == [1, 2]
        assert sorted(group[1]) == ["ab"] and sorted(group[2]) == ["cd", "xy"]
        assert index.length_group(5) is None

    def test_lookup_finds_indexed_segment(self):
        index = SegmentIndex(tau=3)
        record = _record(1, "vankatesh")
        index.add(record)
        assert _hits(index, 9, 1, "va") == [record]
        assert _hits(index, 9, 4, "esh") == [record]

    def test_lookup_missing_returns_empty(self):
        index = SegmentIndex(tau=2)
        index.add(_record(1, "abcdef"))
        group = index.length_group(6)
        assert "zz" not in group[1]
        assert index.length_group(7) is None
        assert 9 not in group

    def test_inverted_list_preserves_insertion_order(self):
        index = SegmentIndex(tau=1)
        first = _record(1, "abcd")
        second = _record(2, "abzz")
        index.add(first)
        index.add(second)
        assert _hits(index, 4, 1, "ab") == [first, second]

    def test_layout_matches_partition_module(self):
        index = SegmentIndex(tau=3)
        assert index.layout(9) == ((0, 2), (2, 2), (4, 2), (6, 3))

    def test_partition_strategy_is_honoured(self):
        index = SegmentIndex(tau=2, strategy=PartitionStrategy.LEFT_HEAVY)
        index.add(_record(1, "abcdef"))
        assert _hits(index, 6, 3, "cdef") == [_record(1, "abcdef")]


class TestSegmentIndexLifecycle:
    def test_evict_below_removes_stale_lengths(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "ab"))
        index.add(_record(1, "abcd"))
        index.add(_record(2, "abcdef"))
        removed = index.evict_below(4)
        assert removed == 1
        assert index.length_group(2) is None
        assert index.length_group(4) and index.length_group(6)

    def test_evict_updates_current_counters(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "ab"))
        index.add(_record(1, "abcdef"))
        before = index.current_entry_count
        index.evict_below(6)
        assert index.current_entry_count < before
        assert index.current_entry_count == index.entry_count()

    def test_records_with_length(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcd"))
        index.add(_record(1, "wxyz"))
        assert indexed_records_with_length(index, 4) == 2
        assert indexed_records_with_length(index, 9) == 0


class TestSegmentIndexAccounting:
    def test_entry_count_matches_incremental_counter(self):
        index = SegmentIndex(tau=2)
        for i, text in enumerate(["abcdef", "abcxyz", "qwerty", "qwertz"]):
            index.add(_record(i, text))
        assert index.entry_count() == index.current_entry_count == 4 * 3
        assert len(index) == 12

    def test_approximate_bytes_positive_and_consistent(self):
        index = SegmentIndex(tau=2)
        index.add(_record(0, "abcdef"))
        index.add(_record(1, "abcdeg"))
        assert index.approximate_bytes() > 0
        assert index.approximate_bytes() == index.current_approximate_bytes
        assert index.deep_bytes() >= index.approximate_bytes()

    def test_distinct_segment_count_deduplicates_shared_segments(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcd"))
        index.add(_record(1, "abcd"))
        # Same segments twice: 2 distinct keys, 4 postings.
        assert index.distinct_segment_count() == 2
        assert index.entry_count() == 4

#: One op of an index's life: add a string, remove the n-th live row, or
#: evict every length below n.
_ops = st.lists(st.tuples(st.sampled_from(["add", "add", "remove", "evict"]),
                          st.text(alphabet="abñçú中文😀", max_size=9),
                          st.integers(min_value=0, max_value=10)),
                max_size=40)


@settings(max_examples=200, deadline=None)
@given(tau=st.integers(min_value=0, max_value=3),
       strategy=st.sampled_from(PartitionStrategy), ops=_ops)
@example(tau=2, strategy=PartitionStrategy.EVEN,
         ops=[("add", "ñandúñandú", 0), ("add", "abcdefghij", 1),
              ("add", "çççççççç", 2)])
def test_incremental_accounting_matches_a_recount(tau, strategy, ops):
    """The counters add/remove/evict keep equal a full recount, on any text
    and under every partition strategy; each live row is posted under its
    layout's slices, and no emptied posting list is left behind."""
    index = SegmentIndex(tau, strategy)
    rows = []
    for op, text, number in ops:
        if op == "add" and can_partition(len(text), tau):
            rows.append(index.store.add(_record(number, text)))
            index.add_row(rows[-1])
        elif op == "remove" and rows:
            index.remove(rows.pop(number % len(rows)))
        elif op == "evict":
            index.evict_below(number)
            rows = [row for row in rows if index.store.length_at(row) >= number]
        assert index.current_approximate_bytes == index.approximate_bytes()
        assert index.current_entry_count == index.entry_count()
        assert index.store.live_count == len(rows)
        for row in rows:
            text = index.store.text_at(row)
            group = index.length_group(len(text))
            for ordinal, (start, seg_length) in enumerate(
                    index.layout(len(text)), 1):
                assert row in group[ordinal][text[start:start + seg_length]]
        live_lengths = {index.store.length_at(row) for row in rows}
        for length in range(10):  # every text above is shorter than 10
            group = index.length_group(length)
            assert (group is not None) == (length in live_lengths)
            assert all(postings for per_ordinal in (group or {}).values()
                       for postings in per_ordinal.values())
