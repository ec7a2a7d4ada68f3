"""Multi-worker join — join time vs worker count (beyond the paper).

The paper's system is single-threaded; this benchmark measures how the
join's span jobs scale over a worker pool.  Both entry points run the one
``parallel-scaling`` experiment, which raises unless every worker count
returns the same pairs in the same order:

* Under pytest-benchmark (the suite's idiom) at ``BENCH_SCALE``.
* As a script at ``--size`` author strings (what CI runs)::

      PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \\
          --size 50000 --tau 1 --workers 1 2 4

  which prints the experiment's table.

Either way the >1.5x-at-4-workers target is gated on the CPUs actually
available (:func:`scaling_verdict`): a 4-worker run cannot beat serial on a
1-core box.
"""

from __future__ import annotations

import argparse
import sys

try:  # absent when executed as a plain script (python benchmarks/bench_...py)
    from .conftest import BENCH_SCALE, record_table
except ImportError:  # pragma: no cover - script mode
    BENCH_SCALE, record_table = 0.25, None

from repro.bench.experiments import DEFAULT_SIZES, parallel_scaling
from repro.bench.harness import available_cpus
from repro.bench.reporting import format_table
from repro.core.join import resolve_workers


def test_parallel_scaling(benchmark):
    table = benchmark.pedantic(
        lambda: parallel_scaling(scale=BENCH_SCALE, name="author", tau=2,
                                 worker_counts=(1, 2, 4)),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    assert len(set(table.column("results"))) == 1
    assert scaling_verdict(table) == 0


def scaling_verdict(table) -> int:
    """Exit code for one sweep: 1 when the >1.5x target is owed and missed.

    Result-set equality across worker counts is the experiment's own
    assertion.  The documented target is >1.5x at 4 workers; it is only
    enforced when the sweep reaches 4+ effective workers AND the machine
    has the cores to deliver it (a 2-worker sweep needs >75% parallel
    efficiency for 1.5x, which fork/merge overhead makes an unfair bar).
    """
    cpus = available_cpus()
    top = max(table.rows, key=lambda row: resolve_workers(row["workers"]))
    effective = resolve_workers(top["workers"])
    if effective >= 4 and cpus >= effective and top["speedup"] <= 1.5:
        print(f"FAIL: {effective} workers on {cpus} CPUs only reached "
              f"{top['speedup']:.2f}x", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=50000,
                        help="number of synthetic author strings (default 50000)")
    parser.add_argument("--tau", type=int, default=1,
                        help="edit-distance threshold (default 1)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to sweep (default 1 2 4)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="probe strings per span (default: auto)")
    args = parser.parse_args(argv)
    try:
        table = parallel_scaling(scale=args.size / DEFAULT_SIZES["author"],
                                 tau=args.tau,
                                 worker_counts=tuple(args.workers),
                                 chunk_size=args.chunk_size)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(format_table(table))
    return scaling_verdict(table)


if __name__ == "__main__":
    sys.exit(main())
