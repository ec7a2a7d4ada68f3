"""Tests for ``scripts/ab_join.py``, the alternating two-tree join A/B."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "ab_join.py"


@pytest.fixture(scope="module")
def ab_join():
    spec = importlib.util.spec_from_file_location("ab_join", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_of_this_tree_against_itself():
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), str(REPO_ROOT), str(REPO_ROOT),
         "--smoke", "--workload", "join_title"],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    assert lines[0].startswith("join_title seed 2011: 150 strings, tau 8")
    assert sum(line.split()[0].isdigit() for line in lines) == 2  # pairs
    assert "change won" in completed.stdout
    assert "median selection_seconds" in completed.stdout
    assert lines[-1] == "pairs and non-time counters identical"


def test_mismatches_name_pairs_and_counters(ab_join):
    run = {"pairs": "x", "counters": {"num_candidates": 3, "num_accepted": 1}}
    assert ab_join.mismatches(run, dict(run)) == []
    other = {"pairs": "y", "counters": {"num_candidates": 4,
                                        "num_accepted": 1}}
    assert ab_join.mismatches(run, other) == ["pairs differ",
                                              "num_candidates: 3 -> 4"]


def test_a_tree_without_sources_is_refused(ab_join, tmp_path, capsys):
    with pytest.raises(SystemExit):
        ab_join.main([str(tmp_path), str(REPO_ROOT), "--smoke"])
    assert "has no src/repro" in capsys.readouterr().err
