"""Batch-probe executor — batched vs sequential search, columnar memory.

The paper's system answers one probe at a time; this benchmark measures the
batch executor that amortises per-query substring-selection work across a
whole batch (and probes duplicate queries once), plus the columnar record
store's memory win over the pre-columnar object-list index layout.  Two
entry points:

* Under pytest-benchmark (the suite's idiom) it runs the ``batch-search``
  experiment at ``BENCH_SCALE`` and asserts the acceptance criteria:
  element-identical results (the experiment itself raises on mismatch),
  >= 1.3x batched throughput on the repeated workload, and a columnar
  index footprint below the object-list layout.  A second benchmark runs
  the mixed-tau workload (per-query thresholds drawn from 1..3), gating
  unconditionally on equality and on the persistent window cache hitting,
  and on >= 1.2x batched throughput when the runner has >= 2 CPUs.
* As a script it runs the acceptance-sized demonstration::

      PYTHONPATH=src python benchmarks/bench_batch_search.py \\
          --size 2000 --tau 2 --queries 512 --batch 64

  exits non-zero if any bar is missed, and appends the measurements to the
  ``BENCH_batch_search.json`` trajectory (``--no-json`` to skip).  Script
  mode also measures the cost of recording per-request metrics (counter +
  latency histogram into a :class:`~repro.obs.metrics.MetricsRegistry`)
  against the mean search time — it must stay under 5% — and embeds the
  engine's filter-funnel counters in the trajectory so candidate-count
  regressions are tracked alongside speedups.
"""

from __future__ import annotations

import argparse
import sys

try:  # absent when executed as a plain script (python benchmarks/bench_...py)
    from .conftest import BENCH_SCALE, record_table
except ImportError:  # pragma: no cover - script mode
    BENCH_SCALE, record_table = 0.25, None

from repro.bench.experiments import batch_search
from repro.bench.reporting import (append_bench_run, bench_run_payload,
                                   bench_trajectory_path, format_table,
                                   funnel_metrics)

#: Acceptance bar: batched must reach this multiple of sequential qps on
#: the 64-query / 10%-distinct workload.
SPEEDUP_TARGET = 1.3
#: Acceptance bar for the mixed-tau workload (per-query taus 1..3): the
#: v2 executor's cross-group window sharing must keep batching ahead even
#: when per-query thresholds differ.  Enforced only on >= 2-CPU runners —
#: on a 1-CPU box scheduler noise swamps the margin, so there the mixed
#: run gates only on result equality and non-zero cache hits.
MIXED_SPEEDUP_TARGET = 1.2
#: Mixed-tau workloads draw per-query thresholds from 1..MIXED_TAU.
MIXED_TAU = 3
#: Acceptance bar: recording per-request metrics (counter + latency
#: histogram observation around every search) must cost < this percent.
METRICS_OVERHEAD_LIMIT_PCT = 5.0


def measure_metrics_overhead(size: int, tau: int, queries: int,
                             distinct_fraction: float, seed: int = 7,
                             repeats: int = 3) -> dict:
    """Cost of per-request metrics as a share of the plain search time.

    Times two loops of ``queries`` iterations each: the repeated-query
    workload against one searcher (``plain_seconds``), and — on its own,
    with no search inside — what the service's hot path records per
    request: a ``requests.search`` counter increment and a
    latency-histogram observation into a
    :class:`~repro.obs.metrics.MetricsRegistry`, clock reads included.
    The overhead is the second over the first, i.e. the registry cost per
    request over the mean search time.  (Differencing a recorded query
    loop against a plain one instead subtracts two ~0.1 s samples whose
    run-to-run noise is several times the few-hundred-microsecond
    quantity being measured.)  Both loops take the best of ``repeats``
    runs.  ``recorded_seconds`` is their sum: the query loop with
    recording on.  Returns the timings, the overhead percentage, and the
    searcher's filter-funnel counters so the trajectory can track
    candidate-count regressions too.
    """
    import random
    import time

    from repro.bench.experiments import DEFAULT_SIZES, build_datasets
    from repro.datasets.corruption import apply_random_edits
    from repro.obs.metrics import MetricsRegistry
    from repro.search.searcher import PassJoinSearcher

    scale = size / DEFAULT_SIZES["author"]
    strings = build_datasets(scale, ["author"])["author"]
    rng = random.Random(seed)
    distinct = max(1, min(queries, int(queries * distinct_fraction)))
    pool = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
            for _ in range(distinct)]
    workload = [rng.choice(pool) for _ in range(queries)]
    searcher = PassJoinSearcher(strings, max_tau=tau)

    # One untimed pass so the timed ones do not pay first-run warm-up
    # costs (allocator growth, branch warm-up).
    for query in workload:
        searcher.search(query, tau)

    plain_seconds = float("inf")
    recording_seconds = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        for query in workload:
            searcher.search(query, tau)
        plain_seconds = min(plain_seconds, time.perf_counter() - started)

        registry = MetricsRegistry()
        started = time.perf_counter()
        for _ in workload:
            began = time.perf_counter()
            registry.inc("requests.search")
            registry.observe("latency_seconds.search",
                             time.perf_counter() - began)
        recording_seconds = min(recording_seconds,
                                time.perf_counter() - started)

    overhead_pct = recording_seconds / max(plain_seconds, 1e-9) * 100.0
    return {
        "plain_seconds": round(plain_seconds, 6),
        "recorded_seconds": round(plain_seconds + recording_seconds, 6),
        "metrics_overhead_pct": round(overhead_pct, 3),
        "metrics_overhead_limit_pct": METRICS_OVERHEAD_LIMIT_PCT,
        "funnel": funnel_metrics(searcher.statistics),
    }


def _check_rows(table) -> tuple[dict, dict]:
    rows = {row["mode"]: row for row in table.rows}
    return rows["sequential"], rows["batch"]


def _mixed_speedup_enforced() -> bool:
    import os

    return (os.cpu_count() or 1) >= 2


def _verify_mixed(table, *, strict_speedup: bool) -> list[str]:
    """Gates for the mixed-tau run.

    Result equality is asserted inside the experiment itself (it raises),
    so the unconditional gate here is the window cache: selection windows
    depend only on the index partition threshold, so a mixed-tau batch
    must hit the persistent cache.  The speedup bar applies only when
    ``strict_speedup`` (>= 2 CPUs — see :data:`MIXED_SPEEDUP_TARGET`).
    """
    sequential, batch = _check_rows(table)
    failures = []
    if batch["total_matches"] != sequential["total_matches"]:
        failures.append("mixed-tau batched and sequential runs disagree")
    if batch["windows_cache_hits"] <= 0:
        failures.append("mixed-tau batch recorded no window-cache hits")
    if strict_speedup and batch["speedup"] < MIXED_SPEEDUP_TARGET:
        failures.append(f"mixed-tau batch reached only {batch['speedup']}x "
                        f"(target: >= {MIXED_SPEEDUP_TARGET}x)")
    return failures


def _verify(table, *, strict_speedup: bool = True) -> list[str]:
    """Return the list of failed acceptance criteria (empty when green)."""
    sequential, batch = _check_rows(table)
    failures = []
    if batch["total_matches"] != sequential["total_matches"]:
        failures.append("batched and sequential runs disagree on the matches")
    if strict_speedup and batch["speedup"] < SPEEDUP_TARGET:
        failures.append(f"batch reached only {batch['speedup']}x "
                        f"(target: >= {SPEEDUP_TARGET}x)")
    if batch["index_bytes"] >= batch["object_index_bytes"]:
        failures.append(f"columnar index ({batch['index_bytes']} B) is not "
                        f"below the object layout "
                        f"({batch['object_index_bytes']} B)")
    return failures


def test_batch_search(benchmark):
    table = benchmark.pedantic(
        lambda: batch_search(scale=BENCH_SCALE, tau=2),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    assert not _verify(table), _verify(table)


def test_batch_search_mixed_tau(benchmark):
    table = benchmark.pedantic(
        lambda: batch_search(scale=BENCH_SCALE, tau=MIXED_TAU,
                             mixed_tau=True),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    failures = _verify_mixed(table,
                             strict_speedup=_mixed_speedup_enforced())
    assert not failures, failures


def run_batch_demo(size: int, tau: int, queries: int, batch_size: int,
                   distinct_fraction: float, seed: int = 7,
                   json_dir: str | None = None) -> int:
    """Run the workload at ``size`` author strings, print the table.

    Returns 0 when batched search beat the 1.3x bar with identical results
    and the columnar index undercuts the object layout; 1 otherwise.  When
    ``json_dir`` is given, the measurements extend the
    ``BENCH_batch_search.json`` trajectory there (failures included — a
    missed bar is exactly the kind of run the history should record).
    """
    from repro.bench.experiments import DEFAULT_SIZES

    scale = size / DEFAULT_SIZES["author"]
    table = batch_search(scale=scale, tau=tau, num_queries=queries,
                         batch_size=batch_size,
                         distinct_fraction=distinct_fraction, seed=seed)
    print(format_table(table))
    failures = _verify(table)
    mixed_table = batch_search(scale=scale, tau=MIXED_TAU,
                               num_queries=queries, batch_size=batch_size,
                               distinct_fraction=distinct_fraction,
                               seed=seed, mixed_tau=True)
    print(format_table(mixed_table))
    mixed_enforced = _mixed_speedup_enforced()
    if not mixed_enforced:
        print(f"note: single-CPU runner — the mixed-tau "
              f">= {MIXED_SPEEDUP_TARGET}x bar is reported, not enforced")
    failures.extend(_verify_mixed(mixed_table,
                                  strict_speedup=mixed_enforced))
    overhead = measure_metrics_overhead(size, tau, queries,
                                        distinct_fraction, seed=seed)
    print(f"metrics overhead: {overhead['metrics_overhead_pct']}% "
          f"(plain {overhead['plain_seconds']}s, recorded "
          f"{overhead['recorded_seconds']}s, limit "
          f"< {METRICS_OVERHEAD_LIMIT_PCT}%)")
    if overhead["metrics_overhead_pct"] >= METRICS_OVERHEAD_LIMIT_PCT:
        failures.append(
            f"per-request metrics cost {overhead['metrics_overhead_pct']}% "
            f"(limit: < {METRICS_OVERHEAD_LIMIT_PCT}%)")
    if json_dir is not None:
        sequential, batch = _check_rows(table)
        mixed_sequential, mixed_batch = _check_rows(mixed_table)
        metrics = {
            "size": size,
            "tau": tau,
            "queries": queries,
            "batch_size": batch_size,
            "distinct_fraction": distinct_fraction,
            "sequential_qps": sequential["qps"],
            "batch_qps": batch["qps"],
            "speedup": batch["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "engine_windows_cache_hits": batch["windows_cache_hits"],
            "engine_postings_fanout": batch["postings_fanout"],
            "mixed_tau": f"1..{MIXED_TAU}",
            "mixed_sequential_qps": mixed_sequential["qps"],
            "mixed_batch_qps": mixed_batch["qps"],
            "mixed_speedup": mixed_batch["speedup"],
            "mixed_speedup_target": MIXED_SPEEDUP_TARGET,
            "mixed_speedup_enforced": mixed_enforced,
            "mixed_engine_windows_cache_hits":
                mixed_batch["windows_cache_hits"],
            "mixed_engine_postings_fanout": mixed_batch["postings_fanout"],
            "index_bytes": batch["index_bytes"],
            "object_index_bytes": batch["object_index_bytes"],
            "passed": not failures,
        }
        metrics.update(
            {key: value for key, value in overhead.items()
             if key != "funnel"})
        metrics.update(overhead["funnel"])
        path = bench_trajectory_path(json_dir, "batch-search")
        document = append_bench_run(
            path, "batch-search",
            bench_run_payload(metrics, tables=[table, mixed_table]))
        print(f"trajectory: {path} ({len(document['runs'])} run(s))")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2000,
                        help="number of synthetic author strings "
                             "(default 2000)")
    parser.add_argument("--tau", type=int, default=2,
                        help="edit-distance threshold (default 2)")
    parser.add_argument("--queries", type=int, default=512,
                        help="workload size (default 512)")
    parser.add_argument("--batch", type=int, default=64,
                        help="queries per search_many batch (default 64)")
    parser.add_argument("--distinct", type=float, default=0.1,
                        help="fraction of distinct queries (default 0.1)")
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_batch_search.json "
                             "(default: current directory)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the trajectory file")
    args = parser.parse_args(argv)
    return run_batch_demo(args.size, args.tau, args.queries, args.batch,
                          args.distinct,
                          json_dir=None if args.no_json else args.json_dir)


if __name__ == "__main__":
    sys.exit(main())
