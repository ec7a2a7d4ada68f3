"""Top-k against a brute-force oracle that knows nothing of the index.

The oracle is ``sorted((edit_distance, id))[:k]`` over the live records
within the limit (``max_tau`` clamped to the index's).  The parity tests in
``test_batch_search.py`` compare top-k with the same searcher's threshold
search, which runs the same code; these compare it with plain edit
distance, for the static searcher, the mutable one under insert and
delete, and a 2-shard router in the middle of a migration on both
backends.  Every batch carries a duplicate query.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import edit_distance
from repro.search import PassJoinSearcher
from repro.service import DynamicSearcher, ShardRouter

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires fork")

INDEX_MAX_TAU = 2

TEXTS = st.text(alphabet="abc", max_size=8)
COLLECTIONS = st.lists(TEXTS, max_size=25)
# One to four queries; the batch repeats the first.
QUERIES = st.lists(TEXTS, min_size=1, max_size=4)
# Up to above any collection's length (and so above any match count).
KS = st.integers(min_value=1, max_value=30)
# None means the index's max_tau; 3 and 4 are clamped to it.
LIMITS = st.one_of(st.none(), st.integers(min_value=0, max_value=4))


def oracle_top_k(live, query, k, max_tau):
    """``(distance, id, text)`` of the k live records closest to ``query``."""
    limit = INDEX_MAX_TAU if max_tau is None else min(max_tau, INDEX_MAX_TAU)
    ranked = sorted((edit_distance(query, text), record_id, text)
                    for record_id, text in live.items())
    return [match for match in ranked if match[0] <= limit][:k]


def answered(matches):
    return [(match.distance, match.id, match.text) for match in matches]


def assert_top_k(searcher, live, queries, k, max_tau):
    batch = queries + queries[:1]
    expected = [oracle_top_k(live, query, k, max_tau) for query in batch]
    got = searcher.search_top_k_many(batch, k, max_tau)
    assert [answered(matches) for matches in got] == expected
    assert answered(searcher.search_top_k(queries[0], k, max_tau)) == (
        expected[0])


class TestStaticSearcher:
    @given(strings=COLLECTIONS, queries=QUERIES, k=KS, max_tau=LIMITS)
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, strings, queries, k, max_tau):
        searcher = PassJoinSearcher(strings, max_tau=INDEX_MAX_TAU)
        live = dict(enumerate(strings))
        assert_top_k(searcher, live, queries, k, max_tau)


MUTATIONS = st.lists(
    st.one_of(st.tuples(st.just("insert"), TEXTS),
              st.tuples(st.just("delete"),
                        st.integers(min_value=0, max_value=30))),
    max_size=20)


class TestDynamicSearcher:
    @given(strings=COLLECTIONS, ops=MUTATIONS, queries=QUERIES, k=KS,
           max_tau=LIMITS)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_under_insert_and_delete(self, strings, ops,
                                                    queries, k, max_tau):
        searcher = DynamicSearcher(strings, max_tau=INDEX_MAX_TAU)
        live = dict(enumerate(strings))
        for kind, value in ops:
            if kind == "insert":
                live[searcher.insert(value)] = value
            else:
                assert searcher.delete(value) == (live.pop(value, None)
                                                  is not None)
            assert_top_k(searcher, live, queries, k, max_tau)


def check_router_mid_migration(backend, strings, victim, text, queries, k,
                               max_tau):
    """Grow a 2-shard router by one shard, checking top-k between every
    migration step; one delete and one insert land mid-migration."""
    live = dict(enumerate(strings))
    with ShardRouter(strings, shards=2, max_tau=INDEX_MAX_TAU,
                     backend=backend, migration_batch=3) as router:
        router.add_shard(drain=False)
        assert_top_k(router, live, queries, k, max_tau)
        router.migration_step()
        assert router.delete(victim) == (live.pop(victim, None) is not None)
        live[router.insert(text)] = text
        while router.rebalance_status()["active"]:
            assert_top_k(router, live, queries, k, max_tau)
            router.migration_step()
        assert_top_k(router, live, queries, k, max_tau)


class TestShardRouter:
    @given(strings=COLLECTIONS, victim=st.integers(min_value=0, max_value=25),
           text=TEXTS, queries=QUERIES, k=KS, max_tau=LIMITS)
    @settings(max_examples=40, deadline=None)
    def test_thread_backend_mid_migration(self, strings, victim, text,
                                          queries, k, max_tau):
        check_router_mid_migration("thread", strings, victim, text, queries,
                                   k, max_tau)

    @needs_fork
    @given(strings=COLLECTIONS, victim=st.integers(min_value=0, max_value=25),
           text=TEXTS, queries=QUERIES, k=KS, max_tau=LIMITS)
    @settings(max_examples=6, deadline=None)
    def test_process_backend_mid_migration(self, strings, victim, text,
                                           queries, k, max_tau):
        check_router_mid_migration("process", strings, victim, text, queries,
                                   k, max_tau)
