"""The serving front end as one thing of each kind.

* One event loop: stopping it with clients still connected is clean — no
  handler is left parked in ``readline()`` for the loop to cancel.
* One op table: every op the server dispatches is a method of both
  clients, and the two clients return equal values for it.
* No removed knob (``acceptors``, ``replicas``, ``kernel``) comes back.
"""

import asyncio
import dataclasses
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
    "stats": (),
    "metrics": (),
    "explain": ("vldb", 1),
    "ping": (),
    "shutdown": (),
}
#: Ops whose payload carries uptimes and wall-clock timings: two servers
#: agree on its shape, not on its numbers.
TIMED_OPS = ("stats", "metrics", "explain")


class TestRemovedKnobs:
    def test_acceptor_knob_is_gone(self, capsys):
        # The acceptor pool, the read replicas and the kernel choice were
        # removed (one event loop serves every connection, one service lock
        # keeps one read in flight, one similarity is served); no spelling
        # of any of these knobs may drift back.
        from repro.cli import main as cli_main

        for knob, value in (("acceptors", 2), ("replicas", 1),
                            ("kernel", "edit-distance")):
            with pytest.raises(TypeError):
                ServiceConfig(**{knob: value})
            with pytest.raises(SystemExit) as excinfo:
                cli_main(["serve", "strings.txt", f"--{knob}", str(value)])
            assert excinfo.value.code == 2
            assert f"--{knob}" in capsys.readouterr().err

    def test_kernel_cli_surfaces_are_gone(self, capsys):
        from repro.cli import main as cli_main

        for argv in (["query", "vldb", "--kernel", "edit-distance"],
                     ["admin", "kernels"]):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(argv)
            assert excinfo.value.code == 2
            assert "kernel" in capsys.readouterr().err

    def test_clients_take_no_kernel(self):
        # Neither client lists kernels or takes a kernel with a query.
        for client_class in (ServiceClient, AsyncServiceClient):
            assert not hasattr(client_class, "kernels")
            for method, arguments in (("search", ("vldb",)),
                                      ("search_batch", (["vldb"],)),
                                      ("top_k", ("vldb", 1)),
                                      ("top_k_batch", (["vldb"], 1))):
                with pytest.raises(TypeError):
                    getattr(client_class, method)(None, *arguments,
                                                  kernel="edit-distance")

    def test_config_and_op_table_sizes(self):
        assert len(dataclasses.fields(ServiceConfig)) == 13
        assert len(ALL_OPS) == 14
        assert "kernels" not in ALL_OPS
        assert "compact" not in ALL_OPS

    def test_compaction_surfaces_are_gone(self, capsys):
        # Deletes purge at once: no compaction knob, op or client method.
        from repro.cli import main as cli_main

        with pytest.raises(TypeError):
            ServiceConfig(compact_interval=8)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "strings.txt", "--compact-interval", "8"])
        assert excinfo.value.code == 2
        assert "--compact-interval" in capsys.readouterr().err
        for client_class in (ServiceClient, AsyncServiceClient):
            assert not hasattr(client_class, "compact")


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
