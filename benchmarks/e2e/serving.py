"""Server lifecycle and the closed-loop load generator for ``serve_*``.

The server under test is ``python -m repro.cli serve`` with the default
``ServiceConfig``: only ``--tau``, ``--port 0`` and ``--shards`` are set.
It runs in a process group of its own, so its shard workers are found (for
memory) and reaped (always) through the group id.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: A request that takes longer than this counts as failed.
REQUEST_TIMEOUT = 5.0
_ANNOUNCE = re.compile(r"serving \d+ strings on ([\d.]+):(\d+)")


def program_env() -> dict[str, str]:
    """The environment child interpreters and the server run under."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks and context
    managers still reap servers and passes."""
    def terminate(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)


def pids_in(kind: str, leader: int) -> list[int]:
    """Live, non-zombie processes of a process ``"group"`` or ``"session"``."""
    field = {"group": 2, "session": 3}[kind]
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[field]) == leader:
            pids.append(int(entry))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path("/proc", str(pid), "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro.cli serve`` subprocess and everything it forks."""

    def __init__(self, data_path: Path, tau: int, shards: int) -> None:
        self.command = [sys.executable, "-m", "repro.cli", "serve",
                        str(data_path), "--tau", str(tau), "--port", "0"]
        if shards > 1:
            self.command += ["--shards", str(shards)]
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.stderr_lines: list[str] = []
        self._announced: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._pump_stderr, daemon=True)

    def _pump_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for raw in self.process.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self.stderr_lines.append(line)
            match = _ANNOUNCE.search(line)
            if match:
                self._announced.put((match.group(1), int(match.group(2))))
        self._announced.put(None)

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        """Spawn the server; return its address once it is listening."""
        self.process = subprocess.Popen(
            self.command, cwd=ROOT, env=program_env(), process_group=0,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        self._pump.start()
        try:
            address = self._announced.get(timeout=timeout)
        except queue.Empty:
            address = None
        if address is None:
            tail = "\n".join(self.stderr_lines[-5:])
            raise RuntimeError(f"server did not start: {tail}")
        self.address = address
        return address

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its shard workers."""
        assert self.process is not None
        return sum(_vm_hwm_kb(pid)
                   for pid in pids_in("group", self.process.pid)) / 1024.0

    def stop(self) -> bool:
        """Shut the server down and reap its group; True when it went
        cleanly (a ``shutdown`` op sufficed and nothing was left behind)."""
        process = self.process
        if process is None:
            return True
        pgid = process.pid
        clean = False
        if process.poll() is None and self.address is not None:
            try:
                with Connection(self.address) as connection:
                    connection.call(b'{"op": "shutdown"}\n')
                process.wait(timeout=10)
                clean = True
            except (OSError, subprocess.TimeoutExpired):
                pass
        deadline = time.monotonic() + 5.0
        while pids_in("group", pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if pids_in("group", pgid):
            clean = False
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(pgid, signum)
                except ProcessLookupError:
                    break
                time.sleep(0.5)
        process.wait()
        self._pump.join(timeout=5)  # ends at EOF: every writer is gone
        process.stderr.close()
        return clean


class Connection:
    """One blocking JSON-lines connection (the load generator's own)."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()

    def call(self, line: bytes) -> bytes:
        self._file.write(line)
        self._file.flush()
        return self._file.readline()

    def request(self, payload: dict) -> dict:
        return json.loads(self.call(json.dumps(payload).encode() + b"\n"))


def replay(address: tuple[str, int], streams: list[list[dict]],
           ) -> tuple[float, list[list[tuple[float, float, bytes]]]]:
    """Replay every stream on its own closed-loop connection.

    Returns the wall time from the first request to the last response and,
    per stream, one ``(start, end, raw response line)`` per op.  An op that
    times out or loses the connection gets an empty line; the rest of its
    stream is not sent (the framing is gone) and counts as failed too.
    """
    encoded = [[json.dumps(payload).encode("utf-8") + b"\n"
                for payload in stream] for stream in streams]
    records: list[list[tuple[float, float, bytes]]] = [[] for _ in streams]
    connections = [Connection(address) for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)

    def run(index: int) -> None:
        out = records[index]
        connection = connections[index]
        clock = time.perf_counter
        barrier.wait()
        try:
            for line in encoded[index]:
                start = clock()
                response = connection.call(line)
                out.append((start, clock(), response))
        except OSError:
            pass
        out.extend((0.0, 0.0, b"")
                   for _ in range(len(encoded[index]) - len(out)))

    try:
        for connection in connections:
            connection.call(b'{"op": "ping"}\n')
        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(streams))]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        for connection in connections:
            connection.close()
    return wall, records


def answer_of(payload: dict, raw: bytes) -> object:
    """The checked part of one response, or ``None`` when the op failed.

    ``search``: ``[[id, distance], ...]``; ``search-batch``: one such list
    per query; ``insert``: the assigned id; ``delete``: whether it was live.
    """
    if not raw.endswith(b"\n"):
        return None
    try:
        response = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(response, dict) or not response.get("ok"):
        return None
    op = payload["op"]
    try:
        if op == "search":
            return [[match["id"], match["distance"]]
                    for match in response["matches"]]
        if op == "search-batch":
            return [[[match["id"], match["distance"]] for match in matches]
                    for matches in response["results"]]
        if op == "insert":
            return response["id"]
        if op == "delete":
            return bool(response["deleted"])
    except (KeyError, TypeError):
        return None
    return None
