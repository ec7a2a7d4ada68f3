"""Rendering experiment tables as text, Markdown, and JSON trajectories.

The paper reports its evaluation as figures (line plots) and tables; this
module renders the same data as aligned text tables, which is what the CLI
prints and what ``EXPERIMENTS.md`` embeds.

It also makes performance a *tracked artifact*: :func:`append_bench_run`
appends one machine-readable run (environment header, headline metrics,
optionally full tables) to a ``BENCH_<name>.json`` trajectory file that
benchmark scripts emit and CI uploads, so speedups asserted today stay
comparable against the measurements of every past revision.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..exceptions import ExperimentError
from ..types import JoinStatistics
from .harness import ExperimentTable, available_cpus

#: Version of the BENCH_*.json trajectory layout.
BENCH_SCHEMA = 1
#: Runs kept per trajectory file; older runs rotate out oldest-first.
BENCH_KEEP_RUNS = 50

#: :class:`~repro.types.JoinStatistics` counters that make up the filter
#: funnel, in pipeline order (each stage can only shrink the stream).
FUNNEL_METRIC_FIELDS = ("num_selected_substrings", "num_index_probes",
                        "num_postings_scanned", "num_candidates",
                        "num_verifications", "num_accepted")


def funnel_metrics(statistics: JoinStatistics) -> dict[str, int]:
    """The filter-funnel counters of ``statistics`` as a flat mapping.

    The ``filter-funnel`` experiment reports these stage by stage, so a
    filter change that suddenly lets 10x more candidates through to the
    verifier shows as a count jump rather than as wall-clock noise.
    """
    return {field: getattr(statistics, field)
            for field in FUNNEL_METRIC_FIELDS}


def _format_value(value: Any) -> str:
    """Format one cell: floats get 4 significant digits, the rest ``str``."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,}"
    return str(value)


def format_table(table: ExperimentTable, markdown: bool = False) -> str:
    """Render one table as aligned plain text or GitHub-flavoured Markdown."""
    headers = list(table.columns)
    body = [[_format_value(row.get(column, "")) for column in headers]
            for row in table.rows]
    widths = [max(len(header), *(len(line[i]) for line in body)) if body else len(header)
              for i, header in enumerate(headers)]

    lines: list[str] = []
    if markdown:
        lines.append("| " + " | ".join(header.ljust(width)
                                       for header, width in zip(headers, widths)) + " |")
        lines.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
        for row in body:
            lines.append("| " + " | ".join(cell.ljust(width)
                                           for cell, width in zip(row, widths)) + " |")
    else:
        lines.append(f"== {table.title} ({table.key}) ==")
        lines.append("  ".join(header.ljust(width)
                               for header, width in zip(headers, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)))
        if table.notes:
            lines.append(f"note: {table.notes}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Machine-readable performance trajectories (BENCH_*.json)
# ----------------------------------------------------------------------
def table_to_dict(table: ExperimentTable) -> dict[str, Any]:
    """One table as a JSON-ready mapping (keys mirror the dataclass)."""
    return {
        "key": table.key,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [dict(row) for row in table.rows],
        "notes": table.notes,
    }


def bench_run_payload(metrics: Mapping[str, Any], *,
                      tables: Iterable[ExperimentTable] = (),
                      notes: str = "") -> dict[str, Any]:
    """Assemble one benchmark run: environment header + headline metrics.

    ``metrics`` carries the numbers a trajectory reader plots or gates on
    (seconds, speedups, result counts); ``tables`` optionally embeds the
    full experiment tables for forensic comparisons between runs.
    """
    payload: dict[str, Any] = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": available_cpus(),
        "metrics": dict(metrics),
    }
    if notes:
        payload["notes"] = notes
    table_dicts = [table_to_dict(table) for table in tables]
    if table_dicts:
        payload["tables"] = table_dicts
    return payload


def append_bench_run(path: str | Path, name: str, run: Mapping[str, Any],
                     keep: int = BENCH_KEEP_RUNS) -> dict[str, Any]:
    """Append ``run`` to the ``BENCH_<name>.json`` trajectory at ``path``.

    The file holds ``{"schema": 1, "bench": name, "runs": [...]}`` with the
    oldest runs rotated out beyond ``keep``.  A corrupt or foreign file is
    an :class:`ExperimentError`, not a silent overwrite — a trajectory that
    quietly restarted would read as a perf cliff.  Returns the document
    written (handy for tests and for printing a summary).
    """
    path = Path(path)
    document: dict[str, Any] = {"schema": BENCH_SCHEMA, "bench": name,
                                "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ExperimentError(
                f"cannot extend benchmark trajectory {path}: {exc}") from exc
        if (not isinstance(existing, dict)
                or existing.get("schema") != BENCH_SCHEMA
                or existing.get("bench") != name
                or not isinstance(existing.get("runs"), list)):
            raise ExperimentError(
                f"benchmark trajectory {path} does not look like a "
                f"schema-{BENCH_SCHEMA} {name!r} trajectory; refusing to "
                f"overwrite it")
        document["runs"] = existing["runs"]
    document["runs"].append(dict(run))
    if keep > 0:
        document["runs"] = document["runs"][-keep:]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return document


def bench_trajectory_path(directory: str | Path, name: str) -> Path:
    """Canonical trajectory filename for benchmark ``name`` (BENCH_<name>.json)."""
    safe = name.replace("-", "_")
    return Path(directory) / f"BENCH_{safe}.json"
