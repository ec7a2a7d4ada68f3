"""The serving front end as one thing of each kind.

* One event loop: stopping it with clients still connected is clean — no
  handler is left parked in ``readline()`` for the loop to cancel.
* One op table: every op the server dispatches is a method of both
  clients, and the two clients return equal values for it.
"""

import asyncio
import logging
import threading
import time

import pytest

from repro.config import ServiceConfig
from repro.exceptions import ProtocolError
from repro.service import (AsyncServiceClient, BackgroundServer,
                           ServiceClient)
from repro.service.server import ALL_OPS

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt"]


class TestShutdownWithOpenConnections:
    def test_idle_clients_do_not_leave_cancelled_handlers(self, caplog):
        """Regression: ``stop()`` used to leave the handlers of idle
        connections awaiting ``readline()``; the loop then cancelled them
        on its way out and asyncio logged one ``CancelledError`` traceback
        per open connection."""
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with BackgroundServer(STRINGS, ServiceConfig(port=0)) as address:
                clients = [ServiceClient(*address) for _ in range(8)]
                assert all(client.ping() for client in clients)
                started = time.perf_counter()
            assert time.perf_counter() - started < 1.0
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.WARNING] == []
        for client in clients:
            # The server hung up; the client sees a clean end of stream.
            with pytest.raises(ProtocolError, match="before sending"):
                client.ping()
            client.close()

    def test_request_in_flight_gets_a_response_or_a_protocol_error(
            self, caplog):
        # A long batch window parks the search inside the batcher, so the
        # stop lands while the request is in flight.
        config = ServiceConfig(port=0, batch_window=0.2)
        outcome = []

        def search(address):
            with ServiceClient(*address) as client:
                try:
                    outcome.append(client.search("vldb", tau=1))
                except ProtocolError as error:
                    outcome.append(error)

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with BackgroundServer(STRINGS, config) as address:
                thread = threading.Thread(target=search, args=(address,))
                thread.start()
                time.sleep(0.05)
            thread.join(timeout=5)
        assert not thread.is_alive()
        (result,) = outcome
        assert isinstance(result, ProtocolError) or [
            match.text for match in result] == ["vldb", "pvldb"]
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.WARNING] == []


#: One call per op of the server's vocabulary: client method arguments.
OP_CALLS = {
    "search": ("vldb", 1),
    "top-k": ("vldb", 2),
    "search-batch": (["vldb", "icde", "nothing"], 1),
    "top-k-batch": (["vldb", "sigmod"], 2),
    "add-shard": (),
    "remove-shard": (),
    "rebalance-status": (),
    "insert": ("pvldbj",),
    "delete": (1,),
    "compact": (),
    "stats": (),
    "metrics": (),
    "explain": ("vldb", 1),
    "kernels": (),
    "ping": (),
    "shutdown": (),
}
#: Ops whose payload carries uptimes and wall-clock timings: two servers
#: agree on its shape, not on its numbers.
TIMED_OPS = ("stats", "metrics", "explain")


def method_name(op):
    return op.replace("-", "_")


class TestOpTableParity:
    def test_every_dispatched_op_is_a_method_of_both_clients(self):
        assert set(OP_CALLS) == set(ALL_OPS)
        for op in ALL_OPS:
            for client_class in (ServiceClient, AsyncServiceClient):
                assert callable(getattr(client_class, method_name(op))), op

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_both_clients_return_equal_values(self, op):
        config = ServiceConfig(port=0, max_tau=2, shards=2,
                               shard_backend="thread")
        method, arguments = method_name(op), OP_CALLS[op]

        async def call_async(address):
            async with await AsyncServiceClient.connect(*address) as client:
                return await getattr(client, method)(*arguments)

        # A fresh server per client: the mutating ops must see equal state.
        with BackgroundServer(STRINGS, config) as address:
            with ServiceClient(*address) as client:
                blocking = getattr(client, method)(*arguments)
        with BackgroundServer(STRINGS, config) as address:
            awaited = asyncio.run(call_async(address))
        if op in TIMED_OPS:
            blocking, awaited = sorted(blocking), sorted(awaited)
        assert blocking == awaited
        assert type(blocking) is type(awaited)
