"""The traced pass: per-layer numbers, taken from outside the program.

Nothing under ``src/`` is instrumented.  A layer is timed by wrapping the
objects the program's public entry points accept (``index``, ``selector``,
``verifier``) in span-recording proxies, or by replaying the same op list
at each public depth of the serving stack and taking differences:

========================  ==================================================
depth                     what the replay calls
========================  ==================================================
TCP client                request lines over a socket (spans: one per op)
server handler            ``latency_seconds.<op>`` from the ``metrics`` op
in-process dispatch       ``SimilarityService.handle_request``
direct searcher           ``DynamicSearcher`` / ``ShardRouter`` methods
kernel backend + proxies  ``get_kernel(...).make_backend(...).probe``
cache, batcher, JSON      ``QueryCache.get/put``, ``RequestBatcher`` with a
                          no-op ``execute``, ``json.loads/dumps``
========================  ==================================================

A layer's self time is its span minus the spans nested in it.  End-to-end
metrics are never taken from this pass; ``run.py`` compares its wall time
with an untraced pass to report the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import resource
import statistics
import time
from collections import defaultdict

from benchmarks.e2e import serving, workloads
from benchmarks.e2e.passes import serve_pass

#: Raw spans are kept for this many requests; every span is aggregated.
RAW_SPAN_REQUESTS = 100


class Recorder:
    """Aggregates spans by name; keeps the first requests' spans raw."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.nested: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.raw: list[tuple[str, float, float, str | None, int]] = []
        self.request = 0
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, nested = self._stack.pop()
        self._close(name, start, end, nested)
        return end - start

    def leaf(self, name: str, start: float, end: float) -> None:
        """A span with nothing nested in it (no push/pop: it is the hot one)."""
        self._close(name, start, end, 0.0)

    def _close(self, name: str, start: float, end: float,
               nested: float) -> None:
        self.total[name] += end - start
        self.nested[name] += nested
        self.count[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][2] += end - start
            parent = self._stack[-1][0]
        if self.request < RAW_SPAN_REQUESTS:
            self.raw.append((name, start, end, parent, self.request))

    def self_time(self, name: str) -> float:
        return self.total[name] - self.nested[name]

    def spans(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "request": request}
                for name, start, end, parent, request in self.raw]


class _Proxy:
    def __init__(self, target: object, recorder: Recorder) -> None:
        self._target = target
        self._recorder = recorder

    def __getattr__(self, name: str) -> object:
        return getattr(self._target, name)


class IndexProxy(_Proxy):
    """``SegmentIndex`` with spans around lookup, add, remove and evict."""

    def lookup(self, length: int, ordinal: int, text: str) -> object:
        start = time.perf_counter()
        postings = self._target.lookup(length, ordinal, text)
        self._recorder.leaf("core.index.lookup", start, time.perf_counter())
        return postings

    def add(self, record: object, **kwargs: object) -> int:
        start = time.perf_counter()
        added = self._target.add(record, **kwargs)
        self._recorder.leaf("core.index.add", start, time.perf_counter())
        return added

    def remove(self, record: object) -> int:
        start = time.perf_counter()
        removed = self._target.remove(record)
        self._recorder.leaf("core.index.remove", start, time.perf_counter())
        return removed

    def evict_below(self, min_length: int) -> int:
        start = time.perf_counter()
        evicted = self._target.evict_below(min_length)
        self._recorder.leaf("core.index.evict", start, time.perf_counter())
        return evicted


class SelectorProxy(_Proxy):
    def select(self, probe: str, indexed_length: int, layout: object) -> list:
        start = time.perf_counter()
        selected = self._target.select(probe, indexed_length, layout)
        self._recorder.leaf("core.selection.select", start,
                            time.perf_counter())
        return selected


class VerifierProxy(_Proxy):
    def verify_rows(self, probe: str, store: object, rows: object,
                    context: object) -> list:
        start = time.perf_counter()
        accepted = self._target.verify_rows(probe, store, rows, context)
        self._recorder.leaf("core.verify.verify_rows", start,
                            time.perf_counter())
        return accepted


#: Serving-layer metrics every workload reports on the driver's JSON line:
#: shares of the client-observed mean read latency, and counts.  A join
#: never enters these layers, so there they are 0 by measurement.
SERVICE_LINE_METRICS = (
    "service.client.wire_share", "service.batcher.wait_share",
    "service.server.execute_share", "service.server.json_share",
    "service.cache.op_share", "service.cache.hit_share",
    "service.cache.invalidations", "service.dynamic.compactions")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _core_counts(stats: dict) -> dict[str, float]:
    """Per-layer counts from a ``JoinStatistics.as_dict()``."""
    return {
        "core.index.lookups": stats["num_index_probes"],
        "core.selection.substrings": stats["num_selected_substrings"],
        "core.engine.postings_scanned": stats["num_postings_scanned"],
        "core.engine.candidates": stats["num_candidates"],
        "core.engine.candidate_share": _share(stats["num_candidates"],
                                              stats["num_postings_scanned"]),
        "core.engine.postings_fanout": stats["num_postings_fanout"],
        "core.verify.verifications": stats["num_verifications"],
        "core.verify.accept_share": _share(stats["num_accepted"],
                                           stats["num_verifications"]),
        "core.verify.matrix_cells": stats["num_matrix_cells"],
        "core.verify.early_terminations": stats["num_early_terminations"],
    }


# ----------------------------------------------------------------------
# join_*
# ----------------------------------------------------------------------
def traced_join(workload: workloads.Workload, inputs: workloads.Inputs,
                t0: float) -> dict:
    """Re-run the self-join through ``probe_record`` with proxied layers."""
    from repro.config import DEFAULT_CONFIG
    from repro.core.engine import probe_record, sort_key
    from repro.core.index import SegmentIndex
    from repro.core.partition import can_partition
    from repro.core.selection import make_selector
    from repro.core.verify import make_verifier
    from repro.types import JoinStatistics, as_records

    tau = workload.tau
    setup_s = time.time() - t0
    recorder = Recorder()
    started = time.perf_counter()
    records = as_records(inputs.strings)
    stats = JoinStatistics(num_strings=len(records))
    selector = SelectorProxy(make_selector(DEFAULT_CONFIG.selection, tau),
                             recorder)
    verifier = VerifierProxy(
        make_verifier(DEFAULT_CONFIG.verification, tau, stats), recorder)
    index = IndexProxy(SegmentIndex(tau, DEFAULT_CONFIG.partition), recorder)
    short_pool: list = []
    answers: list[list[int]] = []
    entries = index_bytes = 0
    for request, probe in enumerate(sorted(records, key=sort_key)):
        recorder.request = request
        recorder.enter("core.engine.probe_record")
        matches = probe_record(probe, tau=tau, index=index,
                               short_pool=short_pool, selector=selector,
                               verifier=verifier, stats=stats,
                               max_length=probe.length)
        recorder.exit()
        for partner, distance in matches:
            answers.append([min(probe.id, partner.id),
                            max(probe.id, partner.id), distance])
        if can_partition(probe.length, tau):
            index.add(probe)
        else:
            short_pool.append(probe)
        index.evict_below(probe.length - tau)
        entries = max(entries, index.current_entry_count)
        index_bytes = max(index_bytes, index.current_approximate_bytes)
    wall_s = time.perf_counter() - started

    layers = _core_counts(stats.as_dict())
    layers.update({
        "core.index.build_s": (recorder.total["core.index.add"]
                               + recorder.total["core.index.evict"]),
        "core.index.entries": entries,
        "core.index.bytes": index_bytes,
        "core.index.lookup_s": recorder.total["core.index.lookup"],
        "core.selection.select_s": recorder.total["core.selection.select"],
        "core.selection.window_cache_hit_share": 0.0,  # pass_join has none
        "core.engine.scan_self_s":
            recorder.self_time("core.engine.probe_record"),
        "core.verify.verify_s": recorder.total["core.verify.verify_rows"],
    })
    covered = sum(layers[name] for name in (
        "core.index.build_s", "core.index.lookup_s",
        "core.selection.select_s", "core.engine.scan_self_s",
        "core.verify.verify_s"))
    layers["trace.coverage_share"] = _share(covered, wall_s)
    layers.update(dict.fromkeys(SERVICE_LINE_METRICS, 0))
    return {
        "setup_s": setup_s, "wall_s": wall_s, "ops": len(records),
        "latency_ms": {"read": [wall_s * 1000.0], "write": []},
        "answers": sorted(answers),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": stats.as_dict(), "layers": layers,
        "spans": recorder.spans(),
    }


# ----------------------------------------------------------------------
# serve_*
# ----------------------------------------------------------------------
def _interleaved(streams: list[list[dict]]) -> list[tuple[int, int, dict]]:
    """``(stream, op index, payload)`` in round-robin order: the order a
    single-threaded replay uses for ops that ran on several connections."""
    merged = []
    for op_index in range(max(len(stream) for stream in streams)):
        for stream_index, stream in enumerate(streams):
            if op_index < len(stream):
                merged.append((stream_index, op_index, stream[op_index]))
    return merged


def _is_read(payload: dict) -> bool:
    return payload["op"] in ("search", "search-batch")


def _in_process(workload: workloads.Workload, inputs: workloads.Inputs,
                order: list[tuple[int, int, dict]],
                ) -> tuple[float, float, list]:
    """Replay through ``SimilarityService.handle_request`` (no transport).

    Returns the mean milliseconds per read, the part of it spent inside the
    searcher's ``search_many`` (timed in place: on a sharded service that is
    the scatter, the slower shard, the pipes and the merge), and every answer.
    """
    from repro.config import ServiceConfig
    from repro.service import SimilarityService

    service = SimilarityService(
        inputs.strings, ServiceConfig(max_tau=workload.tau,
                                      shards=workload.shards))
    search_many = service.searcher.search_many
    searching = 0.0

    def timed_search_many(*args: object, **kwargs: object) -> list:
        nonlocal searching
        started = time.perf_counter()
        try:
            return search_many(*args, **kwargs)
        finally:
            searching += time.perf_counter() - started

    service.searcher.search_many = timed_search_many
    reads: list[float] = []
    answers: list[list] = [[None] * len(stream) for stream in inputs.streams]
    try:
        for stream_index, op_index, payload in order:
            started = time.perf_counter()
            response = service.handle_request(payload)
            elapsed = time.perf_counter() - started
            if _is_read(payload):
                reads.append(elapsed * 1000.0)
            answers[stream_index][op_index] = serving.answer_of(
                payload, json.dumps(response).encode("utf-8") + b"\n")
    finally:
        service.close()
    return (statistics.fmean(reads), searching * 1000.0 / len(reads),
            answers)


def _direct(workload: workloads.Workload, inputs: workloads.Inputs,
            order: list[tuple[int, int, dict]], missed: set) -> dict:
    """Replay cache misses and writes on the searcher itself."""
    from repro.service import DynamicSearcher
    from repro.service.sharding import ShardRouter

    tau = workload.tau
    searcher = DynamicSearcher(inputs.strings, max_tau=tau)
    times: dict[str, list[float]] = defaultdict(list)
    compactions: list[float] = []
    for stream_index, op_index, payload in order:
        op = payload["op"]
        if _is_read(payload) and (stream_index, op_index) not in missed:
            continue
        tombstones = searcher.tombstone_count
        started = time.perf_counter()
        if op == "search":
            searcher.search(payload["query"], tau)
        elif op == "search-batch":
            searcher.search_many(payload["queries"], tau)
        elif op == "insert":
            searcher.insert(payload["text"])
        else:
            searcher.delete(payload["id"])
        elapsed = (time.perf_counter() - started) * 1000.0
        times[op].append(elapsed)
        if op == "delete" and searcher.tombstone_count < tombstones:
            compactions.append(elapsed)

    def p50(op: str) -> float:
        return statistics.median(times[op]) if times[op] else 0.0

    def mean(op: str) -> float:
        return statistics.fmean(times[op]) if times[op] else 0.0

    layers = {
        "service.dynamic.search_p50_ms": p50("search"),
        "service.dynamic.search_mean_ms": mean("search"),
        "service.dynamic.insert_p50_ms": p50("insert"),
        "service.dynamic.delete_p50_ms": p50("delete"),
        "service.dynamic.compactions": len(compactions),
        "service.dynamic.compact_max_ms": max(compactions, default=0.0),
        "service.dynamic.search_many_mean_ms": mean("search-batch"),
    }
    if workload.shards > 1:
        router = ShardRouter(inputs.strings, shards=workload.shards,
                             max_tau=tau)
        try:
            started = time.perf_counter()
            for _, _, payload in order:
                router.search_many(payload["queries"], tau)
            sharded_mean_ms = ((time.perf_counter() - started) * 1000.0
                               / len(order))
            sizes = router.shard_sizes()
            backend = router.backend
        finally:
            router.close()
        layers.update({
            "service.sharding.direct_search_many_mean_ms": sharded_mean_ms,
            "service.sharding.speedup_vs_unsharded":
                _share(mean("search-batch"), sharded_mean_ms),
            "service.sharding.rows_skew":
                _share(max(sizes), statistics.fmean(sizes)),
            "service.sharding.backend": backend,
        })
    return layers


def _core(workload: workloads.Workload, inputs: workloads.Inputs,
          order: list[tuple[int, int, dict]], missed: set,
          recorder: Recorder) -> tuple[dict, list]:
    """Replay cache misses and writes on a kernel backend whose index and
    verifiers are span-recording proxies."""
    from repro.core.kernel import get_kernel
    from repro.types import JoinStatistics, StringRecord

    tau = workload.tau
    backend = get_kernel("edit-distance").make_backend(tau)
    started = time.perf_counter()
    live = {}
    for record_id, text in enumerate(inputs.strings):
        live[record_id] = StringRecord(id=record_id, text=text)
        backend.add(live[record_id])
    build_s = time.perf_counter() - started
    entries, index_bytes = backend.entry_count(), backend.approximate_bytes()
    backend.index = IndexProxy(backend.index, recorder)
    stats = JoinStatistics()

    def verifier_factory(query_tau: int) -> VerifierProxy:
        return VerifierProxy(backend.new_verifier(query_tau, stats), recorder)

    def ranked(found: list) -> list[list[int]]:
        return [[record_id, distance] for distance, record_id in
                sorted((distance, record.id) for record, distance in found)]

    answers: list[list] = [[None] * len(stream) for stream in inputs.streams]
    next_id = len(inputs.strings)
    for request, (stream_index, op_index, payload) in enumerate(order):
        op = payload["op"]
        if _is_read(payload) and (stream_index, op_index) not in missed:
            continue
        recorder.request = request
        if op == "search":
            recorder.enter("core.engine.probe")
            found = backend.probe(payload["query"], tau, stats=stats,
                                  verifier=verifier_factory(tau))
            recorder.exit()
            answers[stream_index][op_index] = ranked(found)
        elif op == "search-batch":
            recorder.enter("core.engine.probe")
            batches = backend.probe_many(
                [(query, tau) for query in payload["queries"]], stats=stats,
                verifier_factory=verifier_factory)
            recorder.exit()
            answers[stream_index][op_index] = [ranked(found)
                                               for found in batches]
        elif op == "insert":
            live[next_id] = StringRecord(id=next_id, text=payload["text"])
            backend.add(live[next_id])
            next_id += 1
        else:
            backend.remove_indexed(live.pop(payload["id"]))
    counts = stats.as_dict()
    probe_total = recorder.total["core.engine.probe"]
    lookup_s = recorder.total["core.index.lookup"]
    verify_s = recorder.total["core.verify.verify_rows"]
    select_s = counts["selection_seconds"]
    cache = backend.window_cache
    layers = _core_counts(counts)
    layers.update({
        "core.index.build_s": build_s,
        "core.index.entries": entries,
        "core.index.bytes": index_bytes,
        "core.index.lookup_s": lookup_s,
        "core.selection.select_s": select_s,
        "core.selection.window_cache_hit_share":
            _share(cache.hits, cache.hits + cache.misses),
        "core.engine.scan_self_s":
            probe_total - lookup_s - verify_s - select_s,
        "core.verify.verify_s": verify_s,
    })
    return layers, answers


def _cache_drive(order: list[tuple[int, int, dict]],
                 answers: list[list]) -> float:
    """Microseconds per read of the ``QueryCache`` calls the service makes."""
    from repro.config import ServiceConfig
    from repro.service import QueryCache

    cache = QueryCache(ServiceConfig().cache_capacity)
    epoch = calls = 0
    elapsed = 0.0
    for stream_index, op_index, payload in order:
        if not _is_read(payload):
            epoch += 1
            continue
        answer = answers[stream_index][op_index]
        if payload["op"] == "search":
            keyed = [(("search", payload["query"], payload["tau"]), answer)]
        else:
            keyed = [(("search", query, payload["tau"]), matches)
                     for query, matches in zip(payload["queries"], answer)]
        started = time.perf_counter()
        for key, matches in keyed:
            if cache.get(key, epoch) is None:
                cache.put(key, epoch, matches)
        elapsed += time.perf_counter() - started
        calls += 1
    return elapsed / calls * 1e6


def _batcher_floor(connections: int, batch: int, submits: int = 150) -> float:
    """Milliseconds one request line waits in a ``RequestBatcher`` whose
    ``execute`` does nothing, at the workload's concurrency."""
    from repro.config import ServiceConfig
    from repro.service import RequestBatcher

    config = ServiceConfig()

    async def client(batcher: RequestBatcher, name: int) -> float:
        started = time.perf_counter()
        for number in range(submits):
            await asyncio.gather(*(batcher.submit((name, number, item))
                                   for item in range(batch)))
        return (time.perf_counter() - started) / submits

    async def drive() -> float:
        batcher = RequestBatcher(lambda keys: [None] * len(keys),
                                 max_batch=config.max_batch,
                                 window=config.batch_window)
        waits = await asyncio.gather(*(client(batcher, name)
                                       for name in range(connections)))
        return statistics.fmean(waits) * 1000.0

    return asyncio.run(drive())


def _json_cost(streams: list[list[dict]], records: list[list]) -> float:
    """Microseconds per read spent in ``json`` on both ends of the wire."""
    elapsed = 0.0
    reads = 0
    for stream, stream_records in zip(streams, records):
        for payload, (_, _, raw) in zip(stream, stream_records):
            if not _is_read(payload) or not raw:
                continue
            started = time.perf_counter()
            line = json.dumps(payload).encode("utf-8")
            json.loads(line)
            json.dumps(json.loads(raw)).encode("utf-8")
            elapsed += time.perf_counter() - started
            reads += 1
    return elapsed / reads * 1e6


def _missed_reads(streams: list[list[dict]], records: list[list]) -> set:
    """``(stream, op index)`` of the reads the server did not answer from
    its cache: the ones the searcher and the engine actually worked on."""
    missed = set()
    for stream_index, stream_records in enumerate(records):
        for op_index, (_, _, raw) in enumerate(stream_records):
            if raw and _is_read(streams[stream_index][op_index]):
                cached = json.loads(raw).get("cached")
                if cached is False or (isinstance(cached, list)
                                       and not all(cached)):
                    missed.add((stream_index, op_index))
    return missed


def traced_serve(workload: workloads.Workload, inputs: workloads.Inputs,
                 t0: float) -> dict:
    streams = inputs.streams
    result, records = serve_pass(workload, inputs, t0)
    answers, latency = result["answers"], result["latency_ms"]
    counters = result["counters"]
    spans = [{"name": "client.request", "start": start, "end": end,
              "parent": None, "request": [stream_index, op_index]}
             for stream_index, stream_records in enumerate(records)
             for op_index, (start, end, _) in enumerate(stream_records)
             if op_index < RAW_SPAN_REQUESTS]

    missed = _missed_reads(streams, records)
    order = _interleaved(streams)
    reads = sum(_is_read(payload) for _, _, payload in order)
    miss_share = len(missed) / reads

    client_mean_ms = statistics.fmean(latency["read"])
    read_op = "search-batch" if workload.batch > 1 else "search"
    histogram = counters["histograms"][f"latency_seconds.{read_op}"]
    handler_mean_ms = histogram["sum"] / histogram["count"] * 1000.0
    execute_mean_ms, searching_ms, in_process_answers = _in_process(
        workload, inputs, order)
    recorder = Recorder()
    core, core_answers = _core(workload, inputs, order, missed, recorder)
    cache_op_us = _cache_drive(order, answers)
    json_us = _json_cost(streams, records)
    cache = counters["stats"]["cache"]

    layers = dict(core)
    layers.update(_direct(workload, inputs, order, missed))
    layers.update({
        "service.cache.hit_share": cache["hit_rate"],
        "service.cache.invalidations": cache["invalidations"],
        "service.cache.op_us": cache_op_us,
        "service.server.execute_mean_ms": execute_mean_ms,
        "service.server.handler_mean_ms": handler_mean_ms,
        "service.server.json_us": json_us,
        "service.batcher.wait_mean_ms": handler_mean_ms - execute_mean_ms,
        "service.batcher.floor_ms": _batcher_floor(workload.connections,
                                                   workload.batch),
        "service.client.wire_mean_ms": client_mean_ms - handler_mean_ms,
        "service.client.ping_p50_ms": result["ping_p50_ms"],
        "service.client.read_mean_ms": client_mean_ms,
    })
    # Bottom-up: transport and batcher by difference, everything below the
    # dispatch from its own replay.  It must land near the client's mean.
    # A sharded read waits for its slower shard, so its engine time is the
    # router's wall time per batch (timed inside the in-process dispatch),
    # not the CPU seconds summed over shards.
    if workload.shards > 1:
        layers["service.sharding.search_many_mean_ms"] = searching_ms
        engine_ms = searching_ms
    else:
        engine_ms = sum(core[name] for name in (
            "core.index.lookup_s", "core.selection.select_s",
            "core.engine.scan_self_s", "core.verify.verify_s")) * 1e3 / reads
    covered = (layers["service.client.wire_mean_ms"]
               + layers["service.batcher.wait_mean_ms"]
               + cache_op_us / 1000.0 + engine_ms)
    layers["trace.coverage_share"] = _share(covered, client_mean_ms)
    layers["service.cache.read_miss_share"] = miss_share
    for share, part_ms in (
            ("service.client.wire_share",
             layers["service.client.wire_mean_ms"]),
            ("service.batcher.wait_share",
             layers["service.batcher.wait_mean_ms"]),
            ("service.server.execute_share", execute_mean_ms),
            ("service.server.json_share", json_us / 1000.0),
            ("service.cache.op_share", cache_op_us / 1000.0)):
        layers[share] = _share(part_ms, client_mean_ms)

    # Every depth must give the answers the TCP replay gave.
    disagreements = 0
    for stream_index, op_index, payload in order:
        expected = answers[stream_index][op_index]
        if in_process_answers[stream_index][op_index] != expected:
            disagreements += 1
        replayed = core_answers[stream_index][op_index]
        if replayed is not None and replayed != expected:
            disagreements += 1
    return {**result, "layers": layers, "depth_disagreements": disagreements,
            "spans": spans + recorder.spans()}


def traced_pass(workload: workloads.Workload, inputs: workloads.Inputs,
                t0: float) -> dict:
    if workload.kind == "join":
        return traced_join(workload, inputs, t0)
    return traced_serve(workload, inputs, t0)
