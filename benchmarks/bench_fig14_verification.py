"""Figure 14 — verification strategies, plus the tracked kernel benchmark.

Paper shape: SharePrefix <= Extension <= tau+1 (length-aware) <= 2tau+1
(banded).  At benchmark scale wall-clock differences are noisy, so the
assertions are made on the deterministic work counter (DP cells computed),
which is what drives the elapsed-time ordering the paper reports.

The module also carries the *tracked* verification-kernel benchmark: the
library's default verifier (``myers-batch``: a 64-bit histogram-signature
reject in front of the batched bit-parallel sweep) against the per-pair
Myers baseline on a verification-dominated Figure 14 configuration.  The
ratio is the whole default verifier's — signature reject and mask reuse
together, not mask building alone — and ``signature_reject_share`` records
per kernel how much of it the first stage decides.  Two entry points:

* Under pytest-benchmark it runs the ``verification-kernels`` experiment at
  ``BENCH_SCALE`` and asserts result equality plus a soft speedup bar (the
  scaled-down workload has shorter inverted lists, so the batching
  advantage shrinks with it).
* As a script it runs the full-size configuration, asserts the strict
  >= 1.5x bar CI gates on, and appends the measurements to the
  ``BENCH_verification.json`` trajectory::

      PYTHONPATH=src python benchmarks/bench_fig14_verification.py \\
          --tau 3 --repeats 3 --json-dir .

  exiting non-zero if the kernels disagree or the bar is missed.
"""

from __future__ import annotations

import argparse
import sys

import pytest

try:  # absent when executed as a plain script (python benchmarks/bench_...py)
    from .conftest import BENCH_SCALE, record_table
except ImportError:  # pragma: no cover - script mode
    BENCH_SCALE, record_table = 0.25, None

from repro.bench.experiments import fig14_verification, verification_kernels
from repro.bench.reporting import (append_bench_run, bench_run_payload,
                                   bench_trajectory_path, format_table)

#: Acceptance bar (script/CI mode): the default verifier must beat per-pair
#: Myers by this factor on the full-size configuration.
SPEEDUP_TARGET = 1.5
#: Soft bar applied under pytest, where ``BENCH_SCALE`` shrinks the
#: inverted lists the batching amortises over.
SOFT_SPEEDUP_TARGET = 1.0

SWEEPS = {
    "author": {"author": (2, 4)},
    "querylog": {"querylog": (4, 8)},
    "title": {"title": (6, 10)},
}


@pytest.mark.parametrize("dataset", sorted(SWEEPS))
def test_fig14_verification(benchmark, dataset):
    table = benchmark.pedantic(
        lambda: fig14_verification(scale=BENCH_SCALE, names=[dataset],
                                   taus=SWEEPS[dataset]),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    for tau in SWEEPS[dataset][dataset]:
        rows = {row["method"]: row for row in table.filter_rows(tau=tau)}
        assert len({row["results"] for row in rows.values()}) == 1
        assert rows["length-aware"]["matrix_cells"] <= rows["banded"]["matrix_cells"]
        assert rows["share-prefix"]["matrix_cells"] <= rows["extension"]["matrix_cells"]


def _kernel_failures(table, *, target: float) -> list[str]:
    """Failed acceptance criteria of a ``verification-kernels`` table."""
    rows = {row["method"]: row for row in table.rows}
    failures = []
    # The experiment itself raises if any kernel's (left, right, distance)
    # triple set diverges from the oracle's; re-check the visible column so
    # a regression in that assertion cannot pass silently either.
    if len({row["results"] for row in rows.values()}) != 1:
        failures.append("kernels disagree on the result count")
    speedup = rows["myers-batch"]["speedup_vs_myers"]
    if speedup < target:
        failures.append(f"the default verifier reached only {speedup}x over "
                        f"the per-pair kernel (target: >= {target}x)")
    return failures


def test_verification_kernels(benchmark):
    table = benchmark.pedantic(
        lambda: verification_kernels(scale=BENCH_SCALE),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    failures = _kernel_failures(table, target=SOFT_SPEEDUP_TARGET)
    assert not failures, failures


def run_kernel_bench(scale: float, name: str, tau: int, repeats: int,
                     json_dir: str | None) -> int:
    """Run the tracked kernel benchmark, print the table, extend the trajectory.

    Returns 0 when every kernel produced the identical result set and the
    default verifier beat the per-pair baseline by :data:`SPEEDUP_TARGET`;
    1 otherwise.  The trajectory is appended even on failure — a missed bar
    is exactly the kind of run the history should record.
    """
    table = verification_kernels(scale=scale, name=name, tau=tau,
                                 repeats=repeats)
    print(format_table(table))
    failures = _kernel_failures(table, target=SPEEDUP_TARGET)

    rows = {row["method"]: row for row in table.rows}
    batch_row = rows["myers-batch"]
    metrics = {
        "dataset": name,
        "tau": tau,
        "scale": scale,
        "repeats": repeats,
        "results": batch_row["results"],
        "length_aware_seconds": rows["length-aware"]["verification_seconds"],
        "myers_seconds": rows["myers"]["verification_seconds"],
        "myers_batch_seconds": batch_row["verification_seconds"],
        "speedup_batch_vs_myers": batch_row["speedup_vs_myers"],
        "signature_reject_share": {
            method: row["signature_reject_share"]
            for method, row in rows.items()},
        "speedup_target": SPEEDUP_TARGET,
        "passed": not failures,
    }
    if json_dir is not None:
        path = bench_trajectory_path(json_dir, "verification")
        document = append_bench_run(
            path, "verification", bench_run_payload(metrics, tables=[table]))
        print(f"trajectory: {path} ({len(document['runs'])} run(s))")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--dataset", default="author",
                        help="Figure 14 dataset name (default author)")
    parser.add_argument("--tau", type=int, default=3,
                        help="edit-distance threshold (default 3)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best taken (default 3)")
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_verification.json "
                             "(default: current directory)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the trajectory file")
    args = parser.parse_args(argv)
    return run_kernel_bench(args.scale, args.dataset, args.tau, args.repeats,
                            None if args.no_json else args.json_dir)


if __name__ == "__main__":
    sys.exit(main())
