"""The benchmark keeps its own contract (collected by the tier-1 run).

``BENCHMARK.json`` must stay inside the limits its reader enforces and agree
with ``catalogue.json`` and ``workloads.py``; ``run.py --smoke`` must run
every workload end to end, check its answers and end on the JSON line.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_the_contract():
    contract, catalogue = run.load_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60

    listed = contract["workloads"]
    assert 2 <= len(listed) <= 8
    assert all(set(entry) == {"name", "why"} for entry in listed)
    assert all(entry["why"] and "\n" not in entry["why"]
               and len(entry["why"]) <= 200 for entry in listed)
    assert ([(entry["name"], entry["why"]) for entry in listed]
            == [(w.name, w.why) for w in workloads.WORKLOADS])

    end_to_end, per_layer = contract["end_to_end"], contract["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert all(set(entry) == {"name", "unit", "better", "bound"}
               and 0 < entry["bound"] <= 0.25 for entry in end_to_end)
    assert all(set(entry) == {"name", "unit", "better"}
               for entry in per_layer)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(entry for entry in end_to_end
             if entry["name"] == "setup_s").items()
    names = [entry["name"] for entry in listed + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in end_to_end + per_layer:
        assert UNIT.match(entry["unit"])
        assert entry["unit"] == run.unit_of(entry["name"])
        assert entry["better"] in ("lower", "higher")

    # catalogue.json holds what BENCHMARK.json has no keys for.
    bounded = {entry["name"] for entry in end_to_end}
    assert {entry["name"] for entry in catalogue["end_to_end"]} == bounded
    described = {entry["name"]: entry for entry in catalogue["per_layer"]}
    assert {entry["name"] for entry in per_layer} <= set(described)
    for name, entry in described.items():
        assert NAME.match(name), name
        assert entry["moves"] or entry["layer"] == "trace", name
        for move in entry["moves"]:
            assert move["metric"] in bounded, (name, move)
            assert move["workload"] in workloads.BY_NAME, (name, move)
        assert entry["on_driver_line"] == (
            name in {entry["name"] for entry in per_layer}), name
    assert set(tracing.SERVICE_LINE_METRICS) == {
        entry["name"] for entry in per_layer
        if entry["name"].startswith("service.")}
    for entry in catalogue["printed"]:  # judged by compare.py only
        assert entry["name"] not in bounded
        assert entry["unit"] == run.unit_of(entry["name"])
        assert 0 < entry["bound"] <= 0.25
    assert set(catalogue["digests"]) == set(workloads.BY_NAME)


def test_smoke_runs_every_workload_end_to_end():
    contract, _ = run.load_contract()
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    finals = [json.loads(line) for line in done.stdout.splitlines()
              if line.startswith("{")]
    assert len(finals) == len(workloads.WORKLOADS)
    wanted = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    for final in finals:
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0
        assert final["attempted"] >= 1
        assert {name: metric["unit"]
                for name, metric in final["metrics"].items()} == wanted
        assert all(metric["value"] > 0 for metric in final["metrics"].values())


def test_smoke_trace_reports_every_per_layer_metric():
    contract, _ = run.load_contract()
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke",
         "--trace", "1", "--workload", "serve_rw"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    final = json.loads(done.stdout.splitlines()[-1])
    assert final["correct"]
    assert set(final["metrics"]) == {entry["name"]
                                     for entry in contract["per_layer"]}
