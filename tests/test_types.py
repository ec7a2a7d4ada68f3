"""Unit tests for the shared value types."""

import re

import pytest

from repro.types import (JoinResult, JoinStatistics, SimilarPair, StringRecord,
                         as_records, normalise_pair)


class TestStringRecord:
    def test_length_property(self):
        record = StringRecord(id=3, text="vldb")
        assert record.length == 4
        assert len(record) == 4

    def test_is_hashable_and_frozen(self):
        record = StringRecord(id=1, text="a")
        assert hash(record) == hash(StringRecord(id=1, text="a"))
        with pytest.raises(AttributeError):
            record.text = "b"


class TestAsRecords:
    def test_plain_strings_are_numbered(self):
        records = as_records(["a", "b", "c"])
        assert [(record.id, record.text) for record in records] == [
            (0, "a"), (1, "b"), (2, "c")]

    def test_existing_records_pass_through(self):
        original = [StringRecord(id=10, text="x"), StringRecord(id=20, text="y")]
        assert as_records(original) == original

    def test_mixed_input(self):
        records = as_records(["a", StringRecord(id=7, text="b")])
        assert records[0] == StringRecord(id=0, text="a")
        assert records[1] == StringRecord(id=7, text="b")

    def test_empty_input(self):
        assert as_records([]) == []

    @pytest.mark.parametrize("item", [123, None, b"vldb",
                                      StringRecord(id=4, text=123)])
    def test_non_string_items_are_refused(self, item):
        # Stringifying would index 123 as "123" and None as "None", text
        # that insert refuses.
        with pytest.raises(TypeError, match=re.escape(repr(item))):
            as_records(["vldb", item])


class TestSimilarPair:
    def test_normalise_pair_orders_ids(self):
        pair = normalise_pair(5, 2, 1, "aaa", "bbb")
        assert pair.left_id == 2 and pair.right_id == 5
        assert pair.left == "bbb" and pair.right == "aaa"

    def test_normalise_pair_keeps_order_when_already_sorted(self):
        pair = normalise_pair(2, 5, 1, "aaa", "bbb")
        assert pair.left == "aaa" and pair.right == "bbb"

    def test_ids_tuple(self):
        assert SimilarPair(1, 2, 0).ids() == (1, 2)

    def test_ordering_ignores_texts(self):
        a = SimilarPair(1, 2, 0, left="x", right="y")
        b = SimilarPair(1, 3, 0, left="a", right="b")
        assert a < b


class TestJoinStatistics:
    def test_merge_adds_counters(self):
        first = JoinStatistics(num_candidates=3, total_seconds=1.0)
        second = JoinStatistics(num_candidates=4, total_seconds=0.5)
        merged = first.merge(second)
        assert merged.num_candidates == 7
        assert merged.total_seconds == 1.5
        # merge must not mutate the inputs
        assert first.num_candidates == 3

    def test_merge_index_size_adds_only_for_coexisting_indices(self):
        first = JoinStatistics(index_entries=5, index_bytes=50)
        second = JoinStatistics(index_entries=8, index_bytes=40)
        together = first.merge(second)
        assert (together.index_entries, together.index_bytes) == (13, 90)
        in_turn = first.merge(second, coexisting=False)
        assert (in_turn.index_entries, in_turn.index_bytes) == (8, 50)

    def test_as_dict_round_trip(self):
        stats = JoinStatistics(num_results=5)
        assert stats.as_dict()["num_results"] == 5


class TestJoinResult:
    def test_len_iter_and_pair_ids(self):
        pairs = [SimilarPair(0, 1, 1), SimilarPair(2, 3, 0)]
        result = JoinResult(pairs=pairs)
        assert len(result) == 2
        assert list(result) == pairs
        assert result.pair_ids() == {(0, 1), (2, 3)}

    def test_sorted_pairs(self):
        result = JoinResult(pairs=[SimilarPair(5, 6, 1), SimilarPair(0, 2, 2)])
        assert result.sorted_pairs()[0].left_id == 0
