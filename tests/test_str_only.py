"""Text is ``str``: every constructor and every query method refuses the rest.

A collection item that is not a ``str`` (nor a record holding one) used to
be stringified, so ``12345`` was indexed as ``"12345"`` and ``None`` as
``"None"`` while ``insert`` refused both.  A query that is not a ``str``
used to be probed as whatever sequence it was: ``b"abc"`` found nothing and
``("a", "b", "c", "d")`` found only what its length window let through.
Both are now ``TypeError`` before any row is stored or any probe runs.
"""

import pytest

from repro.baselines import naive_join
from repro.core.join import PassJoin
from repro.search import PassJoinSearcher
from repro.service import DynamicSearcher, ShardRouter
from repro.types import StringRecord

STRINGS = ["ab", "abc", "abcd", "xyzw"]

BAD_ITEMS = {
    "int": 12345,
    "none": None,
    "bytes": b"vldb",
    "record-with-int-text": StringRecord(id=7, text=12345),
}


def _router(strings, max_tau):
    router = ShardRouter(strings, shards=2, max_tau=max_tau, backend="thread")
    router.close()
    return router


BUILDERS = {
    "pass-join-searcher": lambda strings: PassJoinSearcher(strings,
                                                           max_tau=1),
    "dynamic-searcher": lambda strings: DynamicSearcher(strings, max_tau=1),
    "shard-router": lambda strings: _router(strings, 1),
    "self-join": lambda strings: PassJoin(1).self_join(strings),
    "rs-join-left": lambda strings: PassJoin(1).join(strings, ["vldb"]),
    "rs-join-right": lambda strings: PassJoin(1).join(["vldb"], strings),
    "naive-join": lambda strings: naive_join(strings, 1),
}


@pytest.mark.parametrize("item", list(BAD_ITEMS.values()), ids=list(BAD_ITEMS))
@pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))
def test_constructors_refuse_non_str_text(build, item):
    with pytest.raises(TypeError, match="12345|None|b'vldb'"):
        build(["vldb", item, "pvldb"])


BAD_QUERIES = {
    "bytes": b"abcd",
    "tuple": ("a", "b", "c", "d"),
    "list": ["a", "b", "c", "d"],
    "none": None,
    "int": 1234,
}

QUERY_METHODS = {
    "search": lambda searcher, query: searcher.search(query),
    "search_many": lambda searcher, query: searcher.search_many(
        ["abcd", query]),
    "search_top_k": lambda searcher, query: searcher.search_top_k(query, 2),
    "search_top_k_many": lambda searcher, query: searcher.search_top_k_many(
        ["abcd", query], 2),
    "explain": lambda searcher, query: searcher.explain(query),
}


@pytest.fixture(scope="module")
def searchers():
    router = ShardRouter(STRINGS, shards=2, max_tau=2, backend="thread")
    yield {"pass-join-searcher": PassJoinSearcher(STRINGS, max_tau=2),
           "dynamic-searcher": DynamicSearcher(STRINGS, max_tau=2),
           "shard-router": router}
    router.close()


@pytest.mark.parametrize("method", list(QUERY_METHODS.values()),
                         ids=list(QUERY_METHODS))
@pytest.mark.parametrize("query", list(BAD_QUERIES.values()),
                         ids=list(BAD_QUERIES))
@pytest.mark.parametrize("kind", ["pass-join-searcher", "dynamic-searcher",
                                  "shard-router"])
def test_non_str_query_refused_before_any_probe(searchers, kind, query,
                                                method):
    searcher = searchers[kind]
    before = searcher.statistics.as_dict()
    with pytest.raises(TypeError, match="query must be a str"):
        method(searcher, query)
    assert searcher.statistics.as_dict() == before
    # The refusal leaves the searcher answering str queries.
    assert [match.text for match in searcher.search("abcd", 1)] == [
        "abcd", "abc"]
