"""Concurrent mutation-vs-query tests against a live BackgroundServer.

Multiple client threads interleave inserts, deletes, and searches over real
TCP connections.  The asyncio server serializes every request on its event
loop, so each client must observe **epoch-consistent** results:

* the ``epoch`` reported by responses never decreases on any connection
  (mutations only move it forward, and responses on one connection are
  ordered);
* a search issued after a client's own mutation was acknowledged reflects
  that mutation (its inserted string is found at tau=0; its deleted string
  is gone);
* reader threads querying the immutable base collection always get exactly
  the base answer — concurrent writers touch disjoint strings and may move
  the epoch, but can never change those results.

Run both unsharded and against a 2-shard router, which exercises the
composite-epoch cache keys under concurrent load.
"""

import threading

import pytest

from repro.config import ServiceConfig
from repro.service import BackgroundServer, ServiceClient

BASE = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt", "kdd"]

WRITERS = 3
READERS = 2
ROUNDS = 25


class _Worker(threading.Thread):
    """A client thread that records the epochs it saw and any failure."""

    def __init__(self, host, port):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.error: BaseException | None = None
        self.epochs: list[int] = []

    def run(self):
        try:
            with ServiceClient(self.host, self.port) as client:
                self.work(client)
        except BaseException as error:  # noqa: BLE001 - reported by the test
            self.error = error

    def observe(self, response: dict) -> dict:
        epoch = response.get("epoch")
        if isinstance(epoch, int):
            self.epochs.append(epoch)
        return response

    def work(self, client: ServiceClient) -> None:
        raise NotImplementedError


class _Writer(_Worker):
    """Insert/search/delete a private namespace of strings."""

    def __init__(self, host, port, name):
        super().__init__(host, port)
        self.namespace = name

    def work(self, client):
        for round_ in range(ROUNDS):
            text = f"{self.namespace}word{round_:03d}"
            inserted = self.observe(
                client.request({"op": "insert", "text": text}))
            new_id = inserted["id"]
            found = self.observe(client.request(
                {"op": "search", "query": text, "tau": 0}))
            assert [m["id"] for m in found["matches"]] == [new_id], (
                f"insert of {text!r} not visible to its own client")
            if round_ % 2:
                deleted = self.observe(
                    client.request({"op": "delete", "id": new_id}))
                assert deleted["deleted"] is True
                gone = self.observe(client.request(
                    {"op": "search", "query": text, "tau": 0}))
                assert gone["matches"] == [], (
                    f"delete of {text!r} not visible to its own client")


class _Reader(_Worker):
    """Query the immutable base collection; answers must never change."""

    def work(self, client):
        for round_ in range(ROUNDS * 2):
            query = BASE[round_ % len(BASE)]
            response = self.observe(client.request(
                {"op": "search", "query": query, "tau": 0}))
            texts = [m["text"] for m in response["matches"]]
            assert texts == [query], (
                f"base query {query!r} returned {texts}")


def run_concurrent_load(config: ServiceConfig) -> None:
    with BackgroundServer(BASE, config) as (host, port):
        workers = [_Writer(host, port, f"w{i}") for i in range(WRITERS)]
        workers += [_Reader(host, port) for _ in range(READERS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive(), "worker thread hung"
        failures = [worker.error for worker in workers if worker.error]
        assert not failures, failures
        for worker in workers:
            # Epoch consistency: on one connection the epoch never rewinds.
            assert worker.epochs == sorted(worker.epochs), worker.epochs


@pytest.mark.parametrize("shards", [1, 2])
def test_interleaved_clients_observe_consistent_results(shards):
    run_concurrent_load(ServiceConfig(
        port=0, max_tau=2, shards=shards, shard_backend="thread"))


def test_interleaved_clients_with_tiny_batch_window():
    # A wider batch window forces queries from different connections into
    # shared batcher executions while mutations land between batches.
    run_concurrent_load(ServiceConfig(
        port=0, max_tau=2, batch_window=0.005, shards=2,
        shard_backend="thread"))
