"""Tests for the EXPERIMENTS.md report generator script."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_experiments_report.py"


@pytest.fixture(scope="module")
def report_module():
    spec = importlib.util.spec_from_file_location("make_experiments_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_report(report_module):
    return report_module.build_report(scale=0.04)


def test_report_mentions_every_table_and_figure(tiny_report):
    for token in ("Table 2", "Table 3", "Figure 11", "Figures 12 & 13",
                  "Figure 14", "Figure 15", "Figure 16", "Filter funnel",
                  "Verification kernels", "Ablations"):
        assert token in tiny_report, token


def test_report_contains_paper_and_measured_sections(tiny_report):
    assert tiny_report.count("**Paper.**") >= 8
    assert tiny_report.count("**Measured.**") >= 8
    assert "scale factor 0.04" in tiny_report


def test_report_tables_are_markdown(tiny_report):
    assert "| dataset" in tiny_report


def test_main_writes_output_file(report_module, tmp_path):
    output = tmp_path / "report.md"
    assert report_module.main(["--scale", "0.04", "--output", str(output)]) == 0
    assert output.exists()
    assert "EXPERIMENTS" in output.read_text(encoding="utf-8")


def test_checked_in_experiments_md_is_current_format():
    text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    assert "Pass-Join" in text
    assert "**Measured.**" in text
