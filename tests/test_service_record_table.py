"""The searcher backend as the dynamic searcher's one record table.

``DynamicSearcher`` keeps no record map of its own: ``records``,
``get_many``, ``len`` and the duplicate-id check read through the backend.
These properties drive random insert / delete / deleted-id-reuse
interleavings against a plain dict, and check after every op that a delete
removes the record at once: the store holds a row per live indexable record
and the index exactly the postings of a fresh build.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import can_partition
from repro.service import DynamicSearcher
from repro.types import StringRecord

MAX_TAU = 2
IDS = st.integers(min_value=0, max_value=12)

_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.text(alphabet="ab c", max_size=8),
              st.none() | IDS),
    st.tuples(st.just("delete"), IDS)), max_size=40)


def _indexable(text):
    return can_partition(len(text), MAX_TAU)


def _check(searcher, model):
    assert len(searcher) == len(model)
    assert searcher.records == [StringRecord(record_id, model[record_id])
                                for record_id in sorted(model)]
    asked = [13, *range(12, -1, -1), 0]  # unknown, every id, a repeat
    assert searcher.get_many(asked) == [
        StringRecord(record_id, model[record_id])
        for record_id in asked if record_id in model]
    indexed = sum(_indexable(text) for text in model.values())
    assert searcher.index_memory()["records"] == indexed
    fresh = DynamicSearcher(searcher.records, max_tau=MAX_TAU)
    assert (searcher.statistics.index_entries
            == fresh.statistics.index_entries)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_backend_is_the_record_table(ops):
    searcher = DynamicSearcher(max_tau=MAX_TAU)
    model: dict[int, str] = {}
    next_id = 0
    for op in ops:
        if op[0] == "insert":
            _, text, record_id = op
            if record_id in model:
                with pytest.raises(ValueError):
                    searcher.insert(text, id=record_id)
            else:
                record_id = searcher.insert(text, id=record_id)
                assert record_id == (next_id if op[2] is None else op[2])
                model[record_id] = text
                next_id = max(next_id, record_id + 1)
        else:
            _, record_id = op
            assert searcher.delete(record_id) == (record_id in model)
            model.pop(record_id, None)
        _check(searcher, model)
