"""Benchmark harness reproducing the paper's evaluation (Section 6).

Each experiment function in :mod:`repro.bench.experiments` regenerates one
table or figure of the paper as an :class:`repro.bench.harness.ExperimentTable`
— the same rows/series the paper reports, computed on the synthetic
stand-in datasets.  :mod:`repro.bench.reporting` renders the tables as
plain text or Markdown (used to produce ``EXPERIMENTS.md``), and the
``benchmarks/`` directory drives the same functions through
``pytest-benchmark``.
"""

from .harness import ExperimentTable, Timer, scaled
from .reporting import (append_bench_run, bench_run_payload,
                        bench_trajectory_path, format_table,
                        table_to_dict)

__all__ = [
    "ExperimentTable",
    "Timer",
    "scaled",
    "format_table",
    "table_to_dict",
    "bench_run_payload",
    "append_bench_run",
    "bench_trajectory_path",
]
