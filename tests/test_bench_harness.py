"""Tests for the benchmark harness primitives and reporting."""

import json

import pytest

from repro.bench.harness import ExperimentTable, Timer, scaled
from repro.bench.reporting import (BENCH_SCHEMA, append_bench_run,
                                   bench_run_payload, bench_trajectory_path,
                                   format_table, table_to_dict)
from repro.exceptions import ExperimentError


class TestExperimentTable:
    def _table(self):
        return ExperimentTable(key="demo", title="Demo", columns=["x", "y"])

    def test_add_row_and_column(self):
        table = self._table()
        table.add_row(x=1, y=2)
        table.add_row(x=3, y=4)
        assert table.column("y") == [2, 4]

    def test_add_row_missing_column(self):
        with pytest.raises(ExperimentError):
            self._table().add_row(x=1)

    def test_add_row_rejects_undeclared_columns(self):
        # Regression: a typo'd column name used to be stored silently and
        # only surface as a hole in the rendered report.
        with pytest.raises(ExperimentError, match="undeclared"):
            self._table().add_row(x=1, y=2, z=3)

    def test_add_row_rejects_typo_even_with_all_columns_present(self):
        table = self._table()
        with pytest.raises(ExperimentError, match="undeclared"):
            table.add_row(x=1, y=2, Y=4)
        assert table.rows == []

    def test_unknown_column(self):
        with pytest.raises(ExperimentError):
            self._table().column("z")

    def test_filter_rows(self):
        table = self._table()
        table.add_row(x=1, y="a")
        table.add_row(x=2, y="a")
        table.add_row(x=1, y="b")
        assert len(table.filter_rows(x=1)) == 2
        assert table.filter_rows(x=1, y="b")[0]["y"] == "b"


class TestTimerAndScaling:
    def test_timer_measures_nonnegative_time(self):
        with Timer() as timer:
            sum(range(10000))
        assert timer.seconds >= 0

    def test_scaled_sizes(self):
        assert scaled({"a": 1000, "b": 400}, 0.5) == {"a": 500, "b": 200}

    def test_scaled_floor(self):
        assert scaled({"a": 100}, 0.001) == {"a": 50}

    def test_scaled_invalid(self):
        for scale in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ExperimentError):
                scaled({"a": 100}, scale)


class TestReporting:
    def _table(self):
        table = ExperimentTable(key="t", title="Numbers", columns=["name", "value"],
                                notes="a note")
        table.add_row(name="pi", value=3.14159)
        table.add_row(name="big", value=1234567)
        return table

    def test_plain_text_rendering(self):
        text = format_table(self._table())
        assert "Numbers" in text
        assert "pi" in text and "3.142" in text
        assert "1,234,567" in text
        assert "a note" in text

    def test_markdown_rendering(self):
        markdown = format_table(self._table(), markdown=True)
        assert markdown.startswith("| name")
        assert "|---" in markdown.replace(" ", "")

    def test_empty_table_renders(self):
        table = ExperimentTable(key="empty", title="Empty", columns=["a"])
        assert "Empty" in format_table(table)


class TestBenchTrajectories:
    def _table(self):
        table = ExperimentTable(key="k", title="Kernels", columns=["m", "s"])
        table.add_row(m="a", s=1.0)
        return table

    def test_table_to_dict_round_trips_through_json(self):
        document = json.loads(json.dumps(table_to_dict(self._table())))
        assert document["key"] == "k"
        assert document["columns"] == ["m", "s"]
        assert document["rows"] == [{"m": "a", "s": 1.0}]

    def test_bench_run_payload_carries_environment_and_metrics(self):
        run = bench_run_payload({"speedup": 1.8}, tables=[self._table()],
                                notes="n")
        assert run["metrics"] == {"speedup": 1.8}
        assert run["cpus"] >= 1
        assert run["python"] and run["platform"]
        assert run["notes"] == "n"
        assert run["tables"][0]["key"] == "k"

    def test_append_creates_and_extends_trajectory(self, tmp_path):
        path = bench_trajectory_path(tmp_path, "verification")
        assert path.name == "BENCH_verification.json"
        first = append_bench_run(path, "verification", {"metrics": {"x": 1}})
        second = append_bench_run(path, "verification", {"metrics": {"x": 2}})
        assert len(first["runs"]) == 1 and len(second["runs"]) == 2
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == BENCH_SCHEMA
        assert on_disk["bench"] == "verification"
        assert [run["metrics"]["x"] for run in on_disk["runs"]] == [1, 2]

    def test_append_rotates_out_old_runs(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        for i in range(6):
            document = append_bench_run(path, "t", {"i": i}, keep=4)
        assert [run["i"] for run in document["runs"]] == [2, 3, 4, 5]

    def test_append_refuses_foreign_or_corrupt_files(self, tmp_path):
        corrupt = tmp_path / "BENCH_a.json"
        corrupt.write_text("{not json")
        with pytest.raises(ExperimentError):
            append_bench_run(corrupt, "a", {})
        foreign = tmp_path / "BENCH_b.json"
        foreign.write_text(json.dumps({"schema": BENCH_SCHEMA,
                                       "bench": "other", "runs": []}))
        with pytest.raises(ExperimentError):
            append_bench_run(foreign, "b", {})

    def test_append_creates_missing_parent_directory(self, tmp_path):
        path = tmp_path / "artifacts" / "BENCH_c.json"
        append_bench_run(path, "c", {"ok": True})
        assert path.exists()
