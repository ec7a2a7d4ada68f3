"""Unit tests for the columnar record store and its index integration."""

import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (brute_force_pairs, indexed_records_with_length,
                     random_strings)
from repro.core.index import SegmentIndex
from repro.core.join import pass_join
from repro.core.store import _UNFILLED, RecordStore, histogram_signature
from repro.distance import edit_distance
from repro.types import StringRecord


def _record(identifier, text):
    return StringRecord(id=identifier, text=text)


class TestRows:
    def test_add_returns_columns(self):
        store = RecordStore()
        row = store.add(_record(7, "vldb"))
        assert store.id_at(row) == 7
        assert store.text_at(row) == "vldb"
        assert store.length_at(row) == 4
        assert store.record_at(row) == _record(7, "vldb")

    def test_distinct_ids_get_distinct_rows(self):
        store = RecordStore()
        rows = {store.add(_record(i, "abcd")) for i in range(3)}
        assert len(rows) == 3
        assert store.live_count == 3

    def test_every_add_takes_its_own_row(self):
        # No interning: an equal record added twice owns two rows.
        store = RecordStore()
        rows = {store.add(_record(i % 2, "abcd")) for i in range(4)}
        assert len(rows) == 4
        assert store.live_count == 4

    def test_same_id_different_text_gets_its_own_row(self):
        # Rows are owned, never looked up by id: two records sharing an id
        # get a row each.
        store = RecordStore()
        old = store.add(_record(1, "abcd"))
        new = store.add(_record(1, "wxyz"))
        assert old != new
        assert store.text_at(old) == "abcd"
        assert store.text_at(new) == "wxyz"


class TestRelease:
    def test_release_frees_the_row(self):
        store = RecordStore()
        row = store.add(_record(0, "abcd"))
        store.add(_record(1, "wxyz"))
        store.release(row)
        assert store.live_count == 1
        assert store.text_at(row) == ""
        assert store.approximate_bytes() == 32 * 2 + len("wxyz")

    def test_over_release_raises(self):
        store = RecordStore()
        row = store.add(_record(0, "abcd"))
        store.release(row)
        with pytest.raises(ValueError):
            store.release(row)

    def test_freed_rows_are_recycled(self):
        store = RecordStore()
        row = store.add(_record(0, "abcd"))
        store.release(row)
        recycled = store.add(_record(9, "wxyz"))
        assert recycled == row
        assert store.row_count == 1
        assert store.record_at(recycled) == _record(9, "wxyz")

    def test_accounting_shrinks_on_release(self):
        store = RecordStore()
        row = store.add(_record(0, "abcdefgh"))
        full = store.approximate_bytes()
        store.release(row)
        assert store.approximate_bytes() < full
        assert store.deep_bytes() > 0


#: Alphabets that stress the 32-bucket, cap-at-two signature: few
#: characters (counts far above the cap), more than 32 distinct characters
#: (buckets collide), and non-ASCII code points (``ord(c) & 31`` folds
#: them onto the ASCII buckets).  Empty strings are always drawable.
signature_texts = st.one_of(
    st.text(alphabet="ab", max_size=12),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                     "0123456789 .,-", max_size=12),
    st.text(alphabet="aÁāǎæбвжλπ中文字😀", max_size=10),
    st.text(max_size=10))


def _surplus(left, right):
    """Bucket counts ``left`` has in surplus over ``right``."""
    return (left & ~right).bit_count()


class TestHistogramSignature:
    @settings(max_examples=400, deadline=None)
    @given(a=signature_texts, b=signature_texts)
    def test_surplus_is_a_lower_bound_on_edit_distance(self, a, b):
        sa, sb = histogram_signature(a), histogram_signature(b)
        assert max(_surplus(sa, sb), _surplus(sb, sa)) <= edit_distance(a, b)

    @settings(max_examples=200, deadline=None)
    @given(text=signature_texts)
    def test_twice_plane_is_a_subset_of_the_once_plane(self, text):
        signature = histogram_signature(text)
        once, twice = signature & 0xFFFFFFFF, signature >> 32
        assert twice & ~once == 0
        assert twice >> 32 == 0  # 64 bits: fits the array('Q') column
        assert signature != _UNFILLED

    def test_the_unfilled_sentinel_is_not_a_signature(self):
        once, twice = _UNFILLED & 0xFFFFFFFF, _UNFILLED >> 32
        assert twice & ~once != 0

    def test_cap_collisions_and_empty(self):
        assert histogram_signature("") == 0
        assert histogram_signature("aa") == histogram_signature("aaaaaaa")
        # 'a' (97) and 'A' (65) share bucket 1: a collision counts twice.
        assert histogram_signature("aA") == histogram_signature("aa")
        assert _surplus(histogram_signature("aaa"),
                        histogram_signature("b")) == 2  # capped at two


class TestSignatureColumn:
    def test_rows_near_keeps_order_and_fills_on_first_use(self):
        store = RecordStore()
        texts = ["vldb", "", "pvldb", "sigmod"]
        rows = [store.add(_record(i, text)) for i, text in enumerate(texts)]
        probe = histogram_signature("vldb")
        for _ in range(2):  # first use fills the column, the second reads it
            assert store.rows_near(rows, probe, 0) == [rows[0]]
            assert store.rows_near(rows[::-1], probe, 1) == [rows[2], rows[0]]
            assert store.rows_near(rows, probe, 4) == rows[:3]  # "" is 4 away
            assert store.rows_near(rows, histogram_signature(""), 0) == [
                rows[1]]
        assert store.rows_near([], probe, 1) == []

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(signature_texts, max_size=6), probe=signature_texts,
           tau=st.integers(min_value=0, max_value=4))
    def test_rows_near_never_drops_a_row_within_tau(self, texts, probe, tau):
        store = RecordStore()
        rows = [store.add(_record(i, text)) for i, text in enumerate(texts)]
        near = store.rows_near(rows, histogram_signature(probe), tau)
        assert [row for row, text in zip(rows, texts)
                if edit_distance(text, probe) <= tau and row not in near] == []

    def test_recycled_row_never_serves_the_previous_signature(self):
        store = RecordStore()
        row = store.add(_record(0, "aaaa"))
        assert store.rows_near([row], histogram_signature("aaaa"), 0) == [row]
        store.release(row)
        assert store.add(_record(1, "zzzz")) == row
        assert store.rows_near([row], histogram_signature("aaaa"), 0) == []
        assert store.rows_near([row], histogram_signature("zzzz"), 0) == [row]

    def test_sliding_window_join_recycles_rows_exactly(self):
        # evict_below releases rows that later probes re-use; the default
        # verifier must reject on the new text's signature, not the old.
        strings = random_strings(300, 2, 14, alphabet="abcdefgh", seed=5)
        result = pass_join(strings, tau=1)
        assert result.statistics.num_signature_rejects > 0
        assert {pair.ids(): pair.distance
                for pair in result} == brute_force_pairs(strings, 1)

    def test_eight_bytes_per_row_are_accounted(self):
        texts = ["abcdef", "abcxyz", "qwerty", "qwertz"]
        index = SegmentIndex(tau=1)
        for i, text in enumerate(texts):
            index.add(_record(i, text))
        store, chars = index.store, sum(map(len, texts))
        # id + length + text pointer + signature: four machine words a row.
        assert store.approximate_bytes() == 32 * len(texts) + chars
        report = index.memory_report()
        assert report["store_bytes"] == 32 * len(texts) + chars
        assert report["approximate_bytes"] == (report["postings_bytes"]
                                               + report["store_bytes"])
        columns = (sys.getsizeof(array("q")) * 3 + sys.getsizeof(array("Q"))
                   + 8 * 4 * len(texts))
        assert store.deep_bytes() >= columns + sum(map(sys.getsizeof, texts))


class TestIndexStoreIntegration:
    def test_index_owns_a_store_by_default(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcd"))
        assert index.store.live_count == 1

    def test_remove_releases_the_row(self):
        index = SegmentIndex(tau=1)
        row = index.store.add(_record(0, "abcd"))
        index.add_row(row)
        index.remove(row)
        assert index.store.live_count == 0
        with pytest.raises(ValueError):
            index.store.release(row)

    def test_evict_below_releases_rows(self):
        index = SegmentIndex(tau=1)
        index.add(_record(0, "abcd"))
        index.add(_record(1, "abcdef"))
        index.evict_below(6)
        assert index.store.live_count == 1
        assert indexed_records_with_length(index, 4) == 0

    def test_memory_report_sums_postings_and_store(self):
        index = SegmentIndex(tau=2)
        for i, text in enumerate(["abcdef", "abcxyz", "qwerty"]):
            index.add(_record(i, text))
        report = index.memory_report()
        assert report["records"] == 3
        assert report["postings"] == 9
        assert report["approximate_bytes"] == (report["postings_bytes"]
                                               + report["store_bytes"])
