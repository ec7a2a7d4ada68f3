"""One measured pass, run in a fresh interpreter by ``run.py``.

``python -m benchmarks.e2e.passes --workload W --seed S --t0 T`` generates
the inputs, sets the program up (for ``serve_*``: writes the data file,
spawns the server, waits for the first ``ping``), replays the fixed op list
once and prints one JSON object on the last line of standard output.
``--t0`` is the parent's wall clock at spawn, so ``setup_s`` includes the
interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from benchmarks.e2e import serving, workloads

WORK_ROOT = Path(__file__).resolve().parent / ".work"


def join_pass(workload: workloads.Workload, inputs: workloads.Inputs,
              t0: float) -> dict:
    from repro import pass_join

    setup_s = time.time() - t0
    started = time.perf_counter()
    result = pass_join(inputs.strings, workload.tau)
    join_s = time.perf_counter() - started
    return {
        "setup_s": setup_s,
        "wall_s": join_s,
        "ops": len(inputs.strings),
        "latency_ms": {"read": [join_s * 1000.0], "write": []},
        "answers": sorted([pair.left_id, pair.right_id, pair.distance]
                          for pair in result.pairs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": result.statistics.as_dict(),
    }


class ServedCollection:
    """The data file plus the running server of one ``serve_*`` pass."""

    def __init__(self, workload: workloads.Workload,
                 inputs: workloads.Inputs) -> None:
        self.directory = WORK_ROOT / f"{os.getpid()}"
        self.directory.mkdir(parents=True, exist_ok=True)
        data_path = self.directory / "collection.txt"
        data_path.write_text("".join(f"{text}\n" for text in inputs.strings),
                             encoding="utf-8")
        self.server = serving.Server(data_path, workload.tau, workload.shards)
        self.clean: bool | None = None

    def __enter__(self) -> "ServedCollection":
        try:
            address = self.server.start()
            with serving.Connection(address) as connection:
                if not connection.request({"op": "ping"}).get("pong"):
                    raise RuntimeError("server did not answer the first ping")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.clean = self.server.stop()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another pass is using it


def collect_answers(streams: list[list[dict]],
                    records: list[list[tuple[float, float, bytes]]],
                    ) -> tuple[list[list], dict[str, list[float]]]:
    """Per-stream answers (``None`` = failed) and latencies by op class."""
    answers: list[list] = []
    latency: dict[str, list[float]] = {"read": [], "write": []}
    for stream, stream_records in zip(streams, records):
        stream_answers = []
        for payload, (start, end, raw) in zip(stream, stream_records):
            answer = serving.answer_of(payload, raw)
            stream_answers.append(answer)
            if answer is not None:
                kind = ("write" if payload["op"] in ("insert", "delete")
                        else "read")
                latency[kind].append((end - start) * 1000.0)
        answers.append(stream_answers)
    return answers, latency


def server_counters(connection: serving.Connection) -> dict:
    """Counts the running server reports about the pass just replayed."""
    stats = connection.request({"op": "stats"})
    merged = connection.request({"op": "metrics"})["merged"]
    return {"stats": {key: stats[key] for key in
                      ("size", "epoch", "tombstones", "queries_served",
                       "requests_by_op", "errors", "cache", "index",
                       "index_entries", "index_bytes")},
            "shards": stats.get("shards", {}).get("sizes"),
            "shard_backend": stats.get("shards", {}).get("backend"),
            "counters": merged["counters"],
            "histograms": {name: {"sum": value["sum"], "count": value["count"]}
                           for name, value in merged["histograms"].items()}}


def ping_p50_ms(address: tuple[str, int], count: int = 100) -> float:
    """Median round trip of an op that does nothing."""
    samples = []
    with serving.Connection(address) as connection:
        for _ in range(count):
            started = time.perf_counter()
            connection.call(b'{"op": "ping"}\n')
            samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def serve_pass(workload: workloads.Workload, inputs: workloads.Inputs,
               t0: float) -> tuple[dict, list]:
    """Serve, replay, shut down; the result and the raw ``replay`` records."""
    with ServedCollection(workload, inputs) as served:
        setup_s = time.time() - t0
        address = served.server.address
        ping_ms = ping_p50_ms(address)
        wall_s, records = serving.replay(address, inputs.streams)
        with serving.Connection(address) as connection:
            counters = server_counters(connection)
        peak_rss_mb = served.server.peak_rss_mb()
    answers, latency = collect_answers(inputs.streams, records)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": sum(len(stream) for stream in inputs.streams) * workload.batch,
        "latency_ms": latency,
        "answers": answers,
        "peak_rss_mb": peak_rss_mb,
        "ping_p50_ms": ping_ms,
        "counters": counters,
        "server_clean": served.clean,
        "server_command": served.server.command,
    }, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this pass to one CPU")
    args = parser.parse_args(argv)
    serving.exit_on_sigterm()  # unwinds through ServedCollection
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    workload = workloads.BY_NAME[args.workload]
    inputs = workloads.generate(workload, args.seed, args.smoke)
    if args.trace:
        from benchmarks.e2e import tracing

        result = tracing.traced_pass(workload, inputs, args.t0)
    elif workload.kind == "join":
        result = join_pass(workload, inputs, args.t0)
    else:
        result, _ = serve_pass(workload, inputs, args.t0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
