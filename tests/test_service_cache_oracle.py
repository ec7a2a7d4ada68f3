"""A cache-on service against a brute-force oracle under random writes.

The query cache drops only the entries a write can change, so a stale
answer would surface as a read that disagrees with plain edit distance
over the live records.  Every ``search`` and ``top-k`` read of a random
interleaving of reads, inserts, deletes and (on a 2-shard ``thread``
router) ``add-shard`` migrations is checked against
``sorted((edit_distance, id))``.  Reads draw from a small query pool, so
most of them are answered from the cache.  The strategy inserts edited
copies of pool queries and deletes ids the last read returned, so writes
within ``tau`` (or the top-k limit) of a cached query, and deletes of ids
a cached answer holds, are common rather than rare.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.distance import edit_distance
from repro.service import SimilarityService

MAX_TAU = 2
ALPHABET = "abc"

TEXTS = st.text(alphabet=ALPHABET, max_size=8)
POOLS = st.lists(TEXTS, min_size=1, max_size=4)
# One edit: (kind, position, character); positions wrap around the text.
EDITS = st.lists(st.tuples(st.sampled_from(["sub", "ins", "del"]),
                           st.integers(min_value=0, max_value=9),
                           st.sampled_from(ALPHABET)), max_size=3)
POOL_INDEX = st.integers(min_value=0, max_value=3)
THRESHOLDS = st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_TAU))
OPS = st.lists(st.one_of(
    st.tuples(st.just("search"), POOL_INDEX, THRESHOLDS),
    st.tuples(st.just("top-k"), POOL_INDEX,
              st.integers(min_value=1, max_value=4), THRESHOLDS),
    st.tuples(st.just("insert-near"), POOL_INDEX, EDITS),
    st.tuples(st.just("insert"), TEXTS),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=24)),
    st.tuples(st.just("delete-held"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("add-shard"), st.booleans()),
), min_size=8, max_size=40)


def edited(text, edits):
    """``text`` after ``edits`` (at most ``len(edits)`` edit operations)."""
    for kind, position, character in edits:
        at = position % (len(text) + 1)
        if kind == "ins":
            text = text[:at] + character + text[at:]
        elif text and kind == "sub":
            at %= len(text)
            text = text[:at] + character + text[at + 1:]
        elif text:
            at %= len(text)
            text = text[:at] + text[at + 1:]
    return text


def oracle(live, query, limit):
    """``(distance, id)`` of the live records within ``limit`` of ``query``."""
    ranked = sorted((edit_distance(query, text), record_id)
                    for record_id, text in live.items())
    return [match for match in ranked if match[0] <= limit]


def answer(response):
    assert response["ok"] is True, response
    return [(match["distance"], match["id"]) for match in response["matches"]]


def replay(service, strings, pool, ops):
    """Apply ``ops`` to ``service``; check every read against the oracle."""
    live = dict(enumerate(strings))
    hits = 0
    held: list[int] = []  # the ids of the last read's answer
    for op in ops:
        kind = op[0]
        if kind == "search":
            query, tau = pool[op[1] % len(pool)], op[2]
            response = service.handle_request(
                {"op": "search", "query": query, "tau": tau})
            limit = MAX_TAU if tau is None else tau
            assert answer(response) == oracle(live, query, limit), op
            hits += response["cached"]
            held = [record_id for _, record_id in answer(response)]
        elif kind == "top-k":
            query, k, max_tau = pool[op[1] % len(pool)], op[2], op[3]
            response = service.handle_request(
                {"op": "top-k", "query": query, "k": k, "max_tau": max_tau})
            limit = MAX_TAU if max_tau is None else max_tau
            assert answer(response) == oracle(live, query, limit)[:k], op
            hits += response["cached"]
            held = [record_id for _, record_id in answer(response)]
        elif kind in ("insert", "insert-near"):
            text = (op[1] if kind == "insert"
                    else edited(pool[op[1] % len(pool)], op[2]))
            response = service.handle_request({"op": "insert", "text": text})
            live[response["id"]] = text
        elif kind in ("delete", "delete-held"):
            record_id = (op[1] if kind == "delete"
                         else held[op[1] % len(held)] if held else -1)
            if record_id >= 0:
                response = service.handle_request(
                    {"op": "delete", "id": record_id})
                assert response["deleted"] == (
                    live.pop(record_id, None) is not None)
        elif service.config.shards > 1 and service.searcher.num_shards < 4:
            # add-shard: drained now, or left in flight and stepped by the
            # ops that follow (a second resize mid-flight is refused).
            service.handle_request({"op": "add-shard", "drain": op[1]})
        if service.config.shards > 1:
            service.migration_step()
    return hits


@pytest.mark.parametrize("shards", [1, 2])
@given(strings=st.lists(TEXTS, min_size=4, max_size=20), pool=POOLS, ops=OPS)
@settings(max_examples=80, deadline=None)
def test_cached_reads_match_the_oracle(shards, strings, pool, ops):
    config = ServiceConfig(max_tau=MAX_TAU, shards=shards,
                           shard_backend="thread", migration_batch=2)
    service = SimilarityService(strings, config)
    try:
        replay(service, strings, pool, ops)
    finally:
        service.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_scripted_writes_next_to_cached_queries(shards):
    # The hypothesis run above is random; this stream pins the cases it
    # must cover: inserts within and beyond tau of cached queries, deletes
    # of held and unheld ids, and a migration, with cache hits in between.
    strings = ["abcab", "abcba", "cccc", "ab", "bbbbbbb"]
    pool = ["abcab", "ab", "cccc"]
    reads = [("search", 0, 1), ("top-k", 0, 2, 2), ("search", 1, None),
             ("top-k", 2, 1, 0), ("search", 2, 2)]
    writes = [("insert-near", 0, [("sub", 1, "c")]),  # within 1 of pool[0]
              ("insert", "aaaaaaaa"),  # far from all
              ("insert-near", 1, [("ins", 0, "c"), ("ins", 3, "c")]),
              ("delete", 3),  # held by "ab"
              ("delete", 4),  # held by none
              ("add-shard", False),
              ("insert-near", 2, [])]  # a duplicate text
    ops = list(reads)
    for write in writes:
        ops += [write] + reads
    config = ServiceConfig(max_tau=MAX_TAU, shards=shards,
                           shard_backend="thread", migration_batch=1)
    service = SimilarityService(strings, config)
    try:
        hits = replay(service, strings, pool, ops)
        stats = service.cache.stats
        # Every write but the two that touch nothing cached dropped
        # something, and most reads after a write still hit.
        assert 0 < stats.invalidations < stats.misses
        assert hits > len(reads) * len(writes) // 2
    finally:
        service.close()
