"""Smoke tests for the parallel-scaling experiment and its benchmark script."""

import os
import subprocess
import sys
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, parallel_scaling

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_parallel_scaling.py"


def test_parallel_scaling_experiment_tiny():
    table = parallel_scaling(scale=0.05, name="author", tau=1,
                             worker_counts=(1, 2), chunk_size=10)
    assert table.column("workers") == [1, 2]
    # Identical result sets regardless of worker count (the experiment
    # itself raises if the pairs or their order differ).
    assert len(set(table.column("results"))) == 1
    assert table.filter_rows(workers=1)[0]["speedup"] == 1.0
    assert "backend" not in table.columns
    assert "CPU(s) available" in table.notes


def test_parallel_scaling_is_registered():
    assert EXPERIMENTS["parallel-scaling"] is parallel_scaling


def test_benchmark_script_runs_on_tiny_dataset():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--size", "200", "--tau", "1",
         "--workers", "1", "2"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # Script mode prints the experiment's own table, at --size.
    assert "(parallel-scaling)" in proc.stdout
    header, _, *rows = proc.stdout.splitlines()[1:4 + 1]
    assert header.split() == ["dataset", "tau", "num_strings", "workers",
                              "total_seconds", "speedup", "results"]
    assert [row.split()[2:4] for row in rows] == [["200", "1"], ["200", "2"]]
