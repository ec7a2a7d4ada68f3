"""Unit tests for the segment inverted indices (Section 3.2)."""

from hypothesis import example, given, settings, strategies as st

from repro.config import PartitionStrategy
from repro.core.index import SegmentIndex
from repro.core.partition import can_partition
from repro.types import StringRecord


def _record(identifier, text):
    return StringRecord(id=identifier, text=text)


def _hits(index, length, ordinal, text):
    """The records of ``L_length^ordinal(text)``, read back through the store."""
    postings = index.lookup(length, ordinal, text)
    if not postings:
        return []
    return [index.store.record_at(row) for row in postings.ordinals]


class TestSegmentIndexBuilding:
    def test_add_returns_segment_count(self):
        index = SegmentIndex(tau=3)
        assert index.add(_record(1, "vankatesh")) == 4

    def test_short_string_is_not_indexed(self):
        index = SegmentIndex(tau=3)
        assert index.add(_record(1, "ab")) == 0
        assert not index.has_length(2)

    def test_add_all(self):
        index = SegmentIndex(tau=1)
        added = index.add_all([_record(0, "abcd"), _record(1, "wxyz"), _record(2, "a")])
        assert added == 4  # two strings x two segments; "a" skipped

    def test_lookup_finds_indexed_segment(self):
        index = SegmentIndex(tau=3)
        record = _record(1, "vankatesh")
        index.add(record)
        assert _hits(index, 9, 1, "va") == [record]
        assert _hits(index, 9, 4, "esh") == [record]

    def test_lookup_missing_returns_empty(self):
        index = SegmentIndex(tau=2)
        index.add(_record(1, "abcdef"))
        assert not index.lookup(6, 1, "zz")
        assert not index.lookup(7, 1, "ab")
        assert not index.lookup(6, 9, "ab")

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
    def test_indexed_lengths_sorted(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcdef"))
        index.add(_record(1, "ab"))
        index.add(_record(2, "abcd"))
        assert index.indexed_lengths() == [2, 4, 6]

    def test_evict_below_removes_stale_lengths(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "ab"))
        index.add(_record(1, "abcd"))
        index.add(_record(2, "abcdef"))
        removed = index.evict_below(4)
        assert removed == 1
        assert not index.has_length(2)
        assert index.has_length(4) and index.has_length(6)

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
        assert index.records_with_length(4) == 2
        assert index.records_with_length(9) == 0


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
@given(tau=st.integers(min_value=0, max_value=3), ops=_ops)
@example(tau=2, ops=[("add", "ñandúñandú", 0), ("add", "abcdefghij", 1),
                     ("add", "çççççççç", 2)])
def test_incremental_accounting_matches_a_recount(tau, ops):
    """The counters add/remove/evict keep equal a full recount, on any text."""
    index = SegmentIndex(tau)
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
