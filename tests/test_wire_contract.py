"""The wire contract: every op declares its fields, anything else is refused.

``repro.service.server.OPS`` is the one table of ops, their fields and
their handlers.  A request carrying a field its op does not declare is
answered ``ok: false`` with the op's field list, and touches nothing: the
collection, its epoch and the cache counters stay as they were.  Both
entry points check through the table — ``handle_request`` and the TCP
transport, including ``shutdown`` and the resize ops it answers itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ServiceError
from repro.service import BackgroundServer, ServiceClient, SimilarityService
from repro.service.server import ALL_OPS, OPS, check_request

STRINGS = ["vldb", "pvldb", "vldbj", "icde"]
#: Sharded, so the resize ops are valid requests too.
CONFIG = ServiceConfig(port=0, max_tau=2, shards=2, shard_backend="thread")

#: One valid request per op, every optional field set where there is one.
VALID = {
    "search": {"op": "search", "query": "vldb", "tau": 1,
               "kernel": "edit-distance"},
    "top-k": {"op": "top-k", "query": "vldb", "k": 2, "max_tau": 1},
    "search-batch": {"op": "search-batch", "queries": ["vldb", "icde"],
                     "tau": 0, "kernels": [None, "edit-distance"]},
    "top-k-batch": {"op": "top-k-batch", "queries": ["vldb"], "k": 1},
    "add-shard": {"op": "add-shard", "drain": True},
    "remove-shard": {"op": "remove-shard", "drain": False},
    "rebalance-status": {"op": "rebalance-status"},
    "insert": {"op": "insert", "text": "sigmod", "id": 9},
    "delete": {"op": "delete", "id": 1},
    "stats": {"op": "stats"},
    "metrics": {"op": "metrics"},
    "explain": {"op": "explain", "query": "vldb", "tau": None},
    "ping": {"op": "ping"},
    "shutdown": {"op": "shutdown"},
}
#: What JSON can carry as a field value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)
#: Ops that are not strings: each must be an unknown op, not a crash.
NON_STRING_OPS = [["search"], {"op": "search"}, None, 3, 2.5, True]


def state(service):
    """Everything a refused request must leave as it was."""
    searcher = service.searcher
    return (len(searcher), searcher.epoch,
            [(record.id, record.text) for record in searcher.records],
            service.cache.stats.as_dict(), service.queries_served)


def assert_refusal(error, op, name):
    assert f"op {op!r} has no field {name!r}" in error, error
    for field in OPS[op].fields:
        assert repr(field) in error, (field, error)
    if not OPS[op].fields:
        assert "none" in error, error


@pytest.fixture(scope="module")
def service():
    service = SimilarityService(STRINGS, CONFIG)
    yield service
    service.close()


@pytest.fixture(scope="module")
def background():
    server = BackgroundServer(STRINGS, CONFIG)
    with server as address:
        yield server, address


class TestTable:
    def test_every_op_has_a_row_and_a_valid_example(self):
        assert set(VALID) == set(ALL_OPS) == set(OPS)
        for op, payload in VALID.items():
            assert check_request(payload) is OPS[op]

    def test_missing_required_field_is_refused(self, service):
        for op, operation in OPS.items():
            for name, field in operation.fields.items():
                if not field.required:
                    continue
                payload = {key: value for key, value in VALID[op].items()
                           if key != name}
                response = service.handle_request(payload)
                assert response == {
                    "ok": False,
                    "error": f"op {op!r} requires field {name!r}"}


class TestUndeclaredFieldsInProcess:
    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(ALL_OPS), data=st.data())
    def test_undeclared_field_is_refused_and_changes_nothing(
            self, service, op, data):
        name = data.draw(st.text(min_size=1, max_size=8).filter(
            lambda name: name != "op" and name not in OPS[op].fields))
        value = data.draw(JSON_VALUES)
        before = state(service)
        response = service.handle_request({**VALID[op], name: value})
        assert response["ok"] is False
        assert_refusal(response["error"], op, name)
        assert state(service) == before

    @pytest.mark.parametrize("request_", [
        {"op": "search", "query": "vldb", "tua": 0},
        {"op": "search-batch", "queries": ["vldb"], "taus": [0]},
        {"op": "top-k", "query": "vldb", "k": 1, "max_tua": 0},
        {"op": "insert", "text": "x", "idd": 5},
        {"op": "ping", "bogus": 1},
    ], ids=lambda request: request["op"])
    def test_misspelled_fields_are_not_answered_as_absent(self, service,
                                                          request_):
        before = state(service)
        response = service.handle_request(request_)
        assert response["ok"] is False
        assert "has no field" in response["error"]
        assert state(service) == before

    @pytest.mark.parametrize("op", NON_STRING_OPS, ids=repr)
    def test_non_string_op_is_an_unknown_op(self, service, op):
        response = service.handle_request({"op": op})
        assert response["ok"] is False
        assert response["error"].startswith(f"unknown op {op!r}")


class TestUndeclaredFieldsOverTcp:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_undeclared_field_is_refused_and_changes_nothing(
            self, background, op):
        server, address = background
        with ServiceClient(*address) as client:
            before = state(server.service)
            with pytest.raises(ServiceError) as excinfo:
                client.request({**VALID[op], "bogus": 1})
            assert_refusal(str(excinfo.value), op, "bogus")
            # The refused shutdown stops nothing and the refused resize
            # starts no migration: the same connection goes on serving.
            assert client.ping() is True
            assert state(server.service) == before
            assert not client.rebalance_status()["active"]
            assert client.stats()["shards"]["count"] == 2
        with ServiceClient(*address) as client:
            assert [match.text for match in client.search("vldb", tau=0)] \
                == ["vldb"]

    def test_non_string_op_keeps_the_connection(self, background):
        _, address = background
        with ServiceClient(*address) as client:
            for op in NON_STRING_OPS:
                with pytest.raises(ServiceError,
                                   match=r"^unknown op "):
                    client.request({"op": op})
                assert client.ping() is True
