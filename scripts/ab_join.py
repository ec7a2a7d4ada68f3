#!/usr/bin/env python3
"""Alternating in-process A/B of one join workload between two source trees.

Usage::

    python scripts/ab_join.py PARENT_TREE CHANGE_TREE \\
        --workload join_title --seed 2011 --pairs 10 [--smoke]

A tree is a checkout of this repository (``git clone`` the parent commit
to get one).  The input is generated once, by this repository's
``benchmarks/e2e/workloads.py``, so both trees join the very same strings.
Every run is a fresh interpreter that imports ``repro`` from one tree's
``src/`` only and times five ``pass_join`` calls, keeping the fastest.
Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd, so a drift in the machine's speed falls on both sides.

Prints each pair's join seconds and ``JoinStatistics.selection_seconds``,
how many pairs the change won, and the medians.  Exits 1 when the two
trees' pairs (ids, distances, order) or non-time counters differ in any
run.  ``--smoke`` joins the workload's smoke-sized input, one call a run
and by default in two pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Run in each fresh interpreter: argv = tree, input file, tau, repeats.
CHILD = r"""
import hashlib, json, sys, time
tree, path, tau, repeats = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, tree + "/src")
from repro import pass_join
with open(path, encoding="utf-8") as handle:
    strings = json.load(handle)
best = None
for _ in range(repeats):
    started = time.perf_counter()
    result = pass_join(strings, tau)
    elapsed = time.perf_counter() - started
    if best is None or elapsed < best[0]:
        best = (elapsed, result)
seconds, result = best
stats = result.statistics.as_dict()
sha = hashlib.sha256()
for pair in result.pairs:
    sha.update(b"%d %d %d\n" % (pair.left_id, pair.right_id, pair.distance))
print(json.dumps({
    "seconds": seconds,
    "selection_seconds": stats["selection_seconds"],
    "verification_seconds": stats["verification_seconds"],
    "pairs": sha.hexdigest(),
    "counters": {name: value for name, value in stats.items()
                 if not name.endswith("_seconds")},
}))
"""


def run_tree(tree: Path, input_path: Path, tau: int, repeats: int) -> dict:
    """One fresh-interpreter run of ``pass_join`` from ``tree``."""
    completed = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(tree), str(input_path),
         str(tau), str(repeats)],
        capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"run from {tree} failed:\n{completed.stderr}")
    return json.loads(completed.stdout)


def mismatches(parent: dict, change: dict) -> list[str]:
    """What differs between two runs apart from their times."""
    found = []
    if parent["pairs"] != change["pairs"]:
        found.append("pairs differ")
    for name in sorted(set(parent["counters"]) | set(change["counters"])):
        before = parent["counters"].get(name)
        after = change["counters"].get(name)
        if before != after:
            found.append(f"{name}: {before} -> {after}")
    return found


def load_workloads():
    """``benchmarks/e2e/workloads.py`` of this repository (read only)."""
    for path in (REPO_ROOT / "src", REPO_ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.e2e import workloads
    return workloads


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    joins = sorted(name for name, workload in workloads.BY_NAME.items()
                   if workload.kind == "join")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", choices=joins, default="join_title")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--pairs", type=int,
                        help="alternating pairs (default 10, smoke 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="join the workload's smoke-sized input")
    args = parser.parse_args(argv)
    pairs = args.pairs or (2 if args.smoke else 10)
    repeats = 1 if args.smoke else 5
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "repro").is_dir():
            parser.error(f"{side} tree {tree} has no src/repro")

    workload = workloads.BY_NAME[args.workload]
    strings = workloads.generate(workload, args.seed, smoke=args.smoke).strings
    print(f"{workload.name} seed {args.seed}: {len(strings)} strings, "
          f"tau {workload.tau}, best of {repeats} call(s) per run")
    print(f"{'pair':>4}  {'first':<6}  {'parent s':>9}  {'change s':>9}  "
          f"{'parent sel s':>12}  {'change sel s':>12}")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    differences: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ab_join-") as scratch:
        input_path = Path(scratch) / "strings.json"
        input_path.write_text(json.dumps(strings), encoding="utf-8")
        for number in range(pairs):
            order = ("parent", "change") if number % 2 == 0 else (
                "change", "parent")
            pair = {side: run_tree(trees[side], input_path, workload.tau,
                                   repeats)
                    for side in order}
            for side in runs:
                runs[side].append(pair[side])
            differences.extend(f"pair {number}: {difference}"
                               for difference in mismatches(pair["parent"],
                                                            pair["change"]))
            print(f"{number:>4}  {order[0]:<6}  "
                  f"{pair['parent']['seconds']:>9.3f}  "
                  f"{pair['change']['seconds']:>9.3f}  "
                  f"{pair['parent']['selection_seconds']:>12.3f}  "
                  f"{pair['change']['selection_seconds']:>12.3f}")

    wins = sum(change["seconds"] < parent["seconds"]
               for parent, change in zip(runs["parent"], runs["change"]))
    print(f"change won {wins} of {pairs} pairs")
    for metric in ("seconds", "selection_seconds", "verification_seconds"):
        before = statistics.median(run[metric] for run in runs["parent"])
        after = statistics.median(run[metric] for run in runs["change"])
        shift = (after - before) / before * 100 if before else 0.0
        print(f"median {metric}: parent {before:.3f}  change {after:.3f}  "
              f"({shift:+.1f}%)")
    if differences:
        print("MISMATCH between the trees:")
        for difference in differences:
            print(f"  {difference}")
        return 1
    print("pairs and non-time counters identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
