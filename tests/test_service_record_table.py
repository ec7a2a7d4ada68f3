"""The searcher backend as the dynamic searcher's one record table.

``DynamicSearcher`` keeps no record map of its own: ``records``,
``get_many``, ``len`` and the duplicate-id check read through the backend,
minus the tombstones.  These properties drive random insert / delete /
compact / tombstoned-id-reuse interleavings against a plain dict, and check that no store row outlives its record.
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
    st.tuples(st.just("delete"), IDS),
    st.tuples(st.just("compact"))), max_size=40)


def _indexable(text):
    return can_partition(len(text), MAX_TAU)


def _check(searcher, model, tombstones):
    assert len(searcher) == len(model)
    assert searcher.records == [StringRecord(record_id, model[record_id])
                                for record_id in sorted(model)]
    asked = [13, *range(12, -1, -1), 0]  # unknown, every id, a repeat
    assert searcher.get_many(asked) == [
        StringRecord(record_id, model[record_id])
        for record_id in asked if record_id in model]
    assert searcher.tombstone_count == len(tombstones)
    indexed = sum(_indexable(text) for text in model.values())
    assert searcher.index_memory()["records"] == indexed + len(tombstones)


@settings(max_examples=150, deadline=None)
@given(ops=_ops, compact_interval=st.integers(min_value=0, max_value=3))
def test_backend_is_the_record_table(ops, compact_interval):
    searcher = DynamicSearcher(max_tau=MAX_TAU,
                               compact_interval=compact_interval)
    model: dict[int, str] = {}
    # Deleted ids whose postings are still in the index (the model of
    # tombstones: only indexed records leave one; a compaction clears all).
    tombstones: set[int] = set()
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
                tombstones.discard(record_id)  # a reused id is purged first
                model[record_id] = text
                next_id = max(next_id, record_id + 1)
        elif op[0] == "delete":
            _, record_id = op
            assert searcher.delete(record_id) == (record_id in model)
            if record_id in model and _indexable(model[record_id]):
                tombstones.add(record_id)
            model.pop(record_id, None)
        else:
            searcher.compact()
            tombstones.clear()
        if len(tombstones) > compact_interval:
            tombstones.clear()  # the automatic compaction
        _check(searcher, model, tombstones)
    searcher.compact()
    _check(searcher, model, set())
