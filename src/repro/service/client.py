"""Clients for the JSON-lines similarity service.

Two flavours over the same wire protocol (see
:mod:`repro.service.server`) and the same op table, which both inherit:

* :class:`AsyncServiceClient` — asyncio streams, for async applications
  and for issuing genuinely concurrent requests (the server coalesces
  them into batched index passes).
* :class:`ServiceClient` — a blocking socket client for scripts, the CLI
  ``query`` subcommand, and interactive use.  No asyncio required on the
  client side.

Both return :class:`~repro.search.searcher.SearchMatch` objects rebuilt
from the wire payload via :meth:`SearchMatch.from_dict`, so a round trip
through the service yields values indistinguishable from a local search.
Read-scaled servers need no client-side awareness: with read replicas the
freshness routing happens entirely inside the shard router — a client
never sees which replica served it, and the exactness guarantee is
unchanged.
``ok: false`` responses raise :class:`~repro.exceptions.ServiceError`;
violations of the wire protocol itself — the server closing the connection
mid-response, a truncated or non-JSON frame, a reset transport — raise the
more specific :class:`~repro.exceptions.ProtocolError` instead of leaking
``json.JSONDecodeError`` or ``ConnectionResetError``.
"""

from __future__ import annotations

import asyncio
import json
import socket
from operator import itemgetter
from typing import Any, Callable, Sequence

from ..exceptions import ProtocolError, ServiceError
from ..search.searcher import SearchMatch

#: Transport errors a closing/resetting server surfaces mid-request.
_CONNECTION_ERRORS = (ConnectionResetError, BrokenPipeError)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _decode(line: bytes) -> dict:
    if not line:
        raise ProtocolError(
            "server closed the connection before sending a response")
    if not line.endswith(b"\n"):
        raise ProtocolError(
            f"server closed the connection mid-response "
            f"(half-written frame of {len(line)} bytes)")
    try:
        response = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid response from server: {error}") from error
    if not isinstance(response, dict):
        raise ProtocolError(f"invalid response from server: {response!r}")
    if not response.get("ok"):
        raise ServiceError(str(response.get("error", "unknown server error")))
    return response


def _matches(payload: object, field: str = "matches") -> list[SearchMatch]:
    if not isinstance(payload, list):
        raise ServiceError(f"malformed {field} payload: {payload!r}")
    try:
        return [SearchMatch.from_dict(item) for item in payload]
    except ValueError as error:
        raise ServiceError(str(error)) from error


def _parse_matches(response: dict) -> list[SearchMatch]:
    return _matches(response.get("matches"))


def _parse_batch(response: dict) -> list[list[SearchMatch]]:
    payload = response.get("results")
    if not isinstance(payload, list):
        raise ServiceError(f"malformed results payload: {payload!r}")
    return [_matches(matches, "results") for matches in payload]


def _whole(response: dict) -> dict:
    return response


def _payload(op: str, **fields: object) -> dict:
    """The request object of ``op``; ``None`` fields stay off the wire."""
    return {"op": op, **{name: value for name, value in fields.items()
                         if value is not None}}


class _OpTable:
    """The op vocabulary: every op written once, for both clients.

    Each method builds its request payload and names the function that
    parses the response, then hands both to :meth:`_roundtrip` — a plain
    call on :class:`ServiceClient`, a coroutine on
    :class:`AsyncServiceClient`.  So ``client.search(...)`` and ``await
    client.search(...)`` run the same line and return the same value (the
    annotations give the blocking client's return type; the asyncio client
    returns an awaitable of it), and an op added here exists on both.
    """

    def _roundtrip(self, payload: dict, parse: Callable[[dict], Any]) -> Any:
        """Send ``payload``; return ``parse`` of the ``ok`` response."""
        raise NotImplementedError

    def search(self, query: str, tau: int | None = None, *,
               kernel: str | None = None) -> list[SearchMatch]:
        """Search; ``kernel`` (optional) asserts which kernel must serve it."""
        return self._roundtrip(
            _payload("search", query=query, tau=tau, kernel=kernel),
            _parse_matches)

    def search_batch(self, queries: Sequence[str], tau: int | None = None, *,
                     kernel: str | None = None) -> list[list[SearchMatch]]:
        """Answer many queries with one ``search-batch`` request line.

        Returns one result list per query, aligned with ``queries`` — the
        server answers the whole batch with a single grouped index pass.
        A whole batch targets one kernel; pass ``kernel`` to assert it.
        """
        return self._roundtrip(
            _payload("search-batch", queries=list(queries), tau=tau,
                     kernel=kernel), _parse_batch)

    def top_k(self, query: str, k: int, max_tau: int | None = None, *,
              kernel: str | None = None) -> list[SearchMatch]:
        return self._roundtrip(
            _payload("top-k", query=query, k=k, max_tau=max_tau,
                     kernel=kernel), _parse_matches)

    def top_k_batch(self, queries: Sequence[str], k: int,
                    max_tau: int | None = None, *,
                    kernel: str | None = None) -> list[list[SearchMatch]]:
        """Answer many top-k queries with one ``top-k-batch`` request line.

        ``k`` and ``max_tau`` are shared across the batch; the server
        widens tau in lockstep and retires satisfied queries, so the batch
        costs far fewer index passes than ``len(queries)`` calls to
        :meth:`top_k` while returning element-identical results.
        """
        return self._roundtrip(
            _payload("top-k-batch", queries=list(queries), k=k,
                     max_tau=max_tau, kernel=kernel), _parse_batch)

    def insert(self, text: str, *, id: int | None = None) -> int:
        return self._roundtrip(_payload("insert", text=text, id=id),
                               itemgetter("id"))

    def delete(self, record_id: int) -> bool:
        return self._roundtrip(_payload("delete", id=record_id),
                               itemgetter("deleted"))

    def compact(self) -> int:
        return self._roundtrip(_payload("compact"), itemgetter("purged"))

    def stats(self) -> dict:
        return self._roundtrip(_payload("stats"), _whole)

    def metrics(self) -> dict:
        """The server's merged telemetry snapshot (the ``metrics`` op).

        The response carries ``merged`` (a registry snapshot summing the
        request metrics, cache counters, and engine funnel — render it
        with :func:`repro.obs.render_prometheus`), ``uptime_seconds``, and
        a per-shard breakdown under ``shards`` on sharded servers.
        """
        return self._roundtrip(_payload("metrics"), _whole)

    def kernels(self) -> dict:
        """The server's similarity-kernel catalogue (the ``kernels`` op).

        The response carries ``serving`` (the kernel name this service is
        configured with) and ``kernels`` (one descriptor per registered
        kernel: name, threshold semantics, partition-key definition).
        """
        return self._roundtrip(_payload("kernels"), _whole)

    def explain(self, query: str, tau: int | None = None, *,
                kernel: str | None = None) -> dict:
        """Run one traced probe on the server; return the explain report.

        The report's per-stage funnel, per-length breakdown, verifier
        counters, and stage wall times describe exactly the probe that a
        :meth:`search` with the same arguments would run; its matches are
        the same, as dicts (see :meth:`PassJoinSearcher.explain
        <repro.search.searcher.PassJoinSearcher.explain>`).
        """
        return self._roundtrip(
            _payload("explain", query=query, tau=tau, kernel=kernel),
            itemgetter("explain"))

    def add_shard(self) -> dict:
        """Grow the server's shard fleet by one; return the rebalance status.

        The server answers as soon as the migration is planned and streams
        the affected records between shards in the background; poll
        :meth:`rebalance_status` until ``active`` is false to observe
        completion.  Requires a sharded server.
        """
        return self._roundtrip(_payload("add-shard"), itemgetter("status"))

    def remove_shard(self) -> dict:
        """Retire the server's highest-numbered shard; return the status."""
        return self._roundtrip(_payload("remove-shard"), itemgetter("status"))

    def rebalance_status(self) -> dict:
        """Progress of the in-flight (or summary of the last) migration."""
        return self._roundtrip(_payload("rebalance-status"),
                               itemgetter("status"))

    def ping(self) -> bool:
        return self._roundtrip(_payload("ping"),
                               lambda response: bool(response.get("pong")))

    def shutdown(self) -> None:
        """Ask the server to stop accepting connections."""
        return self._roundtrip(_payload("shutdown"), lambda response: None)


class ServiceClient(_OpTable):
    """Blocking JSON-lines client.

    Examples
    --------
    ::

        with ServiceClient("127.0.0.1", 8765) as client:
            for match in client.search("vldb", tau=1):
                print(match.id, match.distance, match.text)
    """

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def request(self, payload: dict) -> dict:
        """Send one request object, return the (``ok``) response object.

        A server vanishing mid-exchange surfaces as
        :class:`~repro.exceptions.ProtocolError`, never as a bare
        ``ConnectionResetError``/``BrokenPipeError``.
        """
        try:
            self._file.write(_encode(payload))
            self._file.flush()
            line = self._file.readline()
        except _CONNECTION_ERRORS as error:
            raise ProtocolError(
                f"connection to server lost mid-request: {error}") from error
        return _decode(line)

    def _roundtrip(self, payload: dict, parse: Callable[[dict], Any]) -> Any:
        return parse(self.request(payload))


class AsyncServiceClient(_OpTable):
    """Asyncio JSON-lines client: every op method returns an awaitable.

    Examples
    --------
    ::

        client = await AsyncServiceClient.connect("127.0.0.1", 8765)
        matches = await client.search("vldb", tau=1)
        await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        from .server import STREAM_LIMIT  # shared wire-protocol line limit

        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=STREAM_LIMIT)
        return cls(reader, writer)

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def request(self, payload: dict) -> dict:
        """Send one request object, return the (``ok``) response object.

        A lock pairs each request with its response line, so one client
        object can be shared by concurrent tasks (responses on a single
        connection are otherwise interleaved in arrival order).  As in the
        blocking client, a server vanishing mid-exchange surfaces as
        :class:`~repro.exceptions.ProtocolError`.
        """
        async with self._lock:
            try:
                self._writer.write(_encode(payload))
                await self._writer.drain()
                line = await self._reader.readline()
            except _CONNECTION_ERRORS as error:
                raise ProtocolError(
                    f"connection to server lost mid-request: {error}"
                ) from error
            except ValueError as error:  # response line beyond the limit
                raise ProtocolError(
                    f"response line exceeds the stream limit: {error}"
                ) from error
            return _decode(line)

    async def _roundtrip(self, payload: dict,
                         parse: Callable[[dict], Any]) -> Any:
        return parse(await self.request(payload))
