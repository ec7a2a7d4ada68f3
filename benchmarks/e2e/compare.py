"""Verdict per (metric, workload) between two sets of benchmark runs.

    python -m benchmarks.e2e.compare A B

``A`` (the parent) and ``B`` (the change) are ``results.jsonl`` files written
by ``run.py --out DIR`` (or the directories holding them); a file may hold
several runs of a workload, paired with the other file's in order.

* **regressed** — B's median is worse than A's by more than the metric's
  bound (and by more than its absolute floor, for tiny values).
* **improved** — with five or more pairs: B wins at least nine tenths of
  the pairs (ties count for neither) and the medians differ by more than
  the distance between A's quartiles.  With fewer pairs: B's median is
  better by more than the bound.
* **unresolved** — neither, but A's own quartile distance is wider than
  the bound, so "no change" cannot be told from "a change within the
  noise" — unless every run of B reads better than every run of A.
* **unchanged** — otherwise.

Bounds come from ``BENCHMARK.json`` (the metrics the driver bounds) and from
``catalogue.json`` (the ones ``run.py`` only prints: ``read_tail_ms``,
``join_s``, the write latencies).  Per-layer metrics have no bound: they are
listed with their medians and get no verdict.  The exit code is 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from benchmarks.e2e.run import load_contract

PAIRED_RULE_FROM = 5


def load_runs(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` in the order the runs were written."""
    if path.is_dir():
        path = path / "results.jsonl"
    runs: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in {**run["metrics"],
                             **run.get("printed", {})}.items():
            runs[run["workload"], name].append(metric["value"])
    return runs


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, floor: float = 0.0) -> str:
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    gain = sign * (statistics.median(change) - parent_median)
    allowed = max(bound * abs(parent_median), floor)
    spread = quartile_distance(parent)
    if -gain > allowed:
        return "regressed"
    pairs = list(zip(parent, change))
    if len(pairs) >= PAIRED_RULE_FROM:
        wins = sum(sign * (after - before) > 0 for before, after in pairs)
        if wins >= 0.9 * len(pairs) and gain > spread:
            return "improved"
    elif gain > allowed:
        return "improved"
    if spread > allowed:
        worst_change = min(sign * value for value in change)
        best_parent = max(sign * value for value in parent)
        if worst_change <= best_parent:
            return "unresolved"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> tuple[list[dict], bool]:
    contract, catalogue = load_contract()
    bounded = {entry["name"]: entry
               for entry in contract["end_to_end"] + catalogue["printed"]}
    floors = {entry["name"]: entry["floor"]
              for entry in catalogue["end_to_end"] + catalogue["printed"]}
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        before, after = parent[key], change[key]
        row = {"workload": workload, "metric": name, "runs": len(before),
               "parent_median": statistics.median(before),
               "parent_quartile_distance": quartile_distance(before),
               "change_median": statistics.median(after), "verdict": "-"}
        if name in bounded:
            row["verdict"] = verdict(before, after, bounded[name]["better"],
                                     bounded[name]["bound"], floors[name])
        rows.append(row)
    return rows, any(row["verdict"] == "regressed" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows, regressed = compare(args.parent, args.change)
    print(f"{'workload':<20} {'metric':<40} {'runs':>4} {'parent':>12} "
          f"{'q3-q1':>10} {'change':>12} {'rel':>8}  verdict")
    for row in rows:
        base = row["parent_median"]
        relative = (row["change_median"] - base) / base if base else 0.0
        print(f"{row['workload']:<20} {row['metric']:<40} {row['runs']:>4} "
              f"{base:>12.4f} {row['parent_quartile_distance']:>10.4f} "
              f"{row['change_median']:>12.4f} {relative:>+8.1%}  "
              f"{row['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
