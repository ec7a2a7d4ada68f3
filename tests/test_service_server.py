"""End-to-end tests for the similarity service: dispatch, TCP, clients."""

import asyncio
import json

import pytest

from repro.config import ServiceConfig
from repro.exceptions import ServiceError
from repro.search import PassJoinSearcher, SearchMatch
from repro.service import (AsyncServiceClient, BackgroundServer, ServiceClient,
                           SimilarityServer, SimilarityService)

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde"]


@pytest.fixture(scope="module")
def server_address():
    with BackgroundServer(STRINGS, ServiceConfig(port=0, max_tau=2)) as address:
        yield address


@pytest.fixture
def client(server_address):
    with ServiceClient(*server_address) as client:
        yield client


class TestDispatch:
    """White-box tests of the transport-free service core."""

    def setup_method(self):
        self.service = SimilarityService(STRINGS, ServiceConfig(max_tau=2))

    def test_search_matches_local_searcher(self):
        response = self.service.handle_request(
            {"op": "search", "query": "vldb", "tau": 1})
        local = PassJoinSearcher(STRINGS, max_tau=2).search("vldb", tau=1)
        assert response["ok"] is True
        assert response["matches"] == [m.to_dict() for m in local]
        assert response["cached"] is False

    def test_second_identical_search_is_cached(self):
        request = {"op": "search", "query": "vldb", "tau": 1}
        first = self.service.handle_request(request)
        before = self.service.searcher.statistics.as_dict()
        second = self.service.handle_request(request)
        after = self.service.searcher.statistics.as_dict()
        assert second["cached"] is True
        assert second["matches"] == first["matches"]
        # A hit does no engine work: no counter of the searcher moves.
        counters = [name for name in before if not name.endswith("_seconds")]
        assert {name: after[name] for name in counters} == {
            name: before[name] for name in counters}

    def test_mutations_update_epoch_and_invalidate(self):
        request = {"op": "search", "query": "icde", "tau": 1}
        self.service.handle_request(request)
        insert = self.service.handle_request({"op": "insert", "text": "icdm"})
        assert insert["ok"] is True
        after = self.service.handle_request(request)
        assert after["cached"] is False
        assert {m["text"] for m in after["matches"]} == {"icde", "icdm"}

    def test_unknown_op(self):
        response = self.service.handle_request({"op": "nonsense"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_shutdown_is_transport_level(self):
        response = self.service.handle_request({"op": "shutdown"})
        assert response["ok"] is False
        assert "transport" in response["error"]

    def test_non_object_request(self):
        assert self.service.handle_request([1, 2])["ok"] is False

    def test_invalid_field_types(self):
        assert self.service.handle_request(
            {"op": "search", "query": 42})["ok"] is False
        assert self.service.handle_request(
            {"op": "search", "query": "x", "tau": "high"})["ok"] is False
        assert self.service.handle_request(
            {"op": "top-k", "query": "x", "k": 0})["ok"] is False
        assert self.service.handle_request(
            {"op": "delete", "id": "zero"})["ok"] is False

    def test_tau_above_max_rejected(self):
        response = self.service.handle_request(
            {"op": "search", "query": "x", "tau": 9})
        assert response["ok"] is False
        assert response["error"] == "threshold 9 exceeds this index's max_tau=2"

    @pytest.mark.parametrize("request_", [
        {"op": "search-batch", "queries": ["vldb", "icde"], "tau": 3},
        {"op": "explain", "query": "vldb", "tau": 3},
        {"op": "search", "query": "vldb", "tau": 3, "kernel": "edit-distance"},
    ], ids=["search-batch", "explain", "search-naming-the-kernel"])
    def test_tau_above_max_names_the_limit(self, request_):
        response = self.service.handle_request(request_)
        assert response["ok"] is False
        assert response["error"] == "threshold 3 exceeds this index's max_tau=2"

    def test_stats_and_ping(self):
        assert self.service.handle_request({"op": "ping"})["pong"] is True
        stats = self.service.handle_request({"op": "stats"})
        assert stats["size"] == len(STRINGS)
        assert "cache" in stats and "epoch" in stats
        assert "shards" not in stats  # unsharded service

    def test_compact_op_is_unknown(self):
        # Deletes purge at once, so there is nothing left to compact.
        response = self.service.handle_request({"op": "compact"})
        assert response["ok"] is False
        assert "unknown op 'compact'" in response["error"]

    def test_delete_frees_its_row_and_stats_show_no_tombstones(self):
        before = self.service.handle_request({"op": "stats"})
        deleted = self.service.handle_request({"op": "delete", "id": 4})
        assert deleted["deleted"] is True
        after = self.service.handle_request({"op": "stats"})
        assert after["index"]["records"] == before["index"]["records"] - 1
        assert after["index_entries"] < before["index_entries"]
        assert after["tombstones"] == 0


class TestSyncClientEndToEnd:
    def test_ping_and_stats(self, client):
        assert client.ping() is True
        assert client.stats()["size"] >= len(STRINGS)

    def test_search_round_trip_equals_local_search(self, client):
        matches = client.search("vldb", tau=1)
        local = PassJoinSearcher(STRINGS, max_tau=2).search("vldb", tau=1)
        assert matches == local  # SearchMatch round-trips exactly

    def test_top_k(self, client):
        matches = client.top_k("sigmod", 2)
        assert matches[0] == SearchMatch(0, 2, "sigmod")
        assert len(matches) == 2

    def test_insert_search_delete(self, client):
        new_id = client.insert("brandnew")
        assert client.search("brandnew", tau=0) == [
            SearchMatch(0, new_id, "brandnew")]
        assert client.delete(new_id) is True
        assert client.delete(new_id) is False
        assert client.search("brandnew", tau=0) == []

    def test_server_error_raises_service_error(self, client):
        with pytest.raises(ServiceError):
            client.search("x", tau=99)

    def test_malformed_line_keeps_connection_alive(self, server_address):
        with ServiceClient(*server_address) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert "invalid JSON" in response["error"]
            assert client.ping() is True  # same connection still works


class TestAsyncClientEndToEnd:
    def test_concurrent_queries_coalesce(self):
        async def scenario():
            config = ServiceConfig(port=0, max_tau=2, batch_window=0.01)
            service = SimilarityService(STRINGS, config)
            server = SimilarityServer(service)
            host, port = await server.start()
            clients = [await AsyncServiceClient.connect(host, port)
                       for _ in range(5)]
            try:
                results = await asyncio.gather(
                    *(client.search("vldb", tau=1) for client in clients))
            finally:
                for client_ in clients:
                    await client_.close()
                await server.stop()
            return results, server.batcher.stats, service.cache.stats

        results, stats, cache = asyncio.run(scenario())
        assert all(result == results[0] for result in results)
        assert stats.requests == 5
        assert stats.batches == 1
        # One index pass for all five: execute_queries answers the four
        # duplicates from the first.
        assert (cache.misses, cache.hits, cache.coalesced) == (1, 0, 4)

    def test_full_vocabulary(self):
        async def scenario():
            service = SimilarityService(STRINGS, ServiceConfig(port=0, max_tau=2))
            server = SimilarityServer(service)
            host, port = await server.start()
            async with await AsyncServiceClient.connect(host, port) as client:
                assert await client.ping() is True
                new_id = await client.insert("asyncnew", id=777)
                assert new_id == 777
                assert (await client.search("asyncnew", tau=0)) == [
                    SearchMatch(0, 777, "asyncnew")]
                assert (await client.top_k("vldb", 1))[0].distance == 0
                assert await client.delete(777) is True
                assert (await client.stats())["size"] == len(STRINGS)
            await server.stop()

        asyncio.run(scenario())

    def test_shutdown_op_stops_the_server(self):
        async def scenario():
            service = SimilarityService(STRINGS, ServiceConfig(port=0))
            server = SimilarityServer(service)
            host, port = await server.start()
            async with await AsyncServiceClient.connect(host, port) as client:
                await client.shutdown()
            await asyncio.wait_for(server.serve_forever(), timeout=5)
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(scenario())


class TestInsertIdRangeOverTheWire:
    def test_id_outside_64_bits_is_an_error_line(self):
        # The wire accepts any id >= 0; one past the store's signed 64-bit
        # column must come back as an error response on a live connection.
        config = ServiceConfig(port=0, max_tau=2)
        with BackgroundServer(STRINGS, config) as address, \
                ServiceClient(*address) as client:
            before = client.stats()
            with pytest.raises(ServiceError, match="64 bits"):
                client.insert("icdeicde", id=2**63)
            after = client.stats()
            assert (after["size"], after["epoch"]) == (
                before["size"], before["epoch"])
            counters = client.metrics()["merged"]["counters"]
            assert counters["requests.insert"] == 1
            assert counters["errors.insert"] == 1
            assert client.insert("icdeicde", id=2**63 - 1) == 2**63 - 1


class TestCacheInvalidationOverTheWire:
    def test_mutation_between_identical_queries(self, server_address):
        with ServiceClient(*server_address) as client:
            request = {"op": "search", "query": "uniquemut", "tau": 2}
            client.request(request)
            cached = client.request(request)
            assert cached["cached"] is True
            new_id = client.insert("uniquemut")
            fresh = client.request(request)
            assert fresh["cached"] is False
            assert new_id in {m["id"] for m in fresh["matches"]}
            client.delete(new_id)
