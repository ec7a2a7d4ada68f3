"""Experiment harness primitives.

The harness is deliberately small: an :class:`ExperimentTable` is a named
list of row dictionaries (one per parameter combination), a :class:`Timer`
measures wall-clock time, and :func:`scaled` applies a global scale factor
to dataset sizes so the same experiment code serves both the quick
``pytest-benchmark`` runs and larger standalone reproductions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..exceptions import ExperimentError


@dataclass(slots=True)
class ExperimentTable:
    """The result of one experiment: a titled table of rows.

    Attributes
    ----------
    key:
        Stable identifier, e.g. ``"figure12"`` or ``"table3"``.
    title:
        Human-readable title, e.g. ``"Numbers of selected substrings"``.
    columns:
        Column order for rendering; every row must provide these keys.
    rows:
        One mapping per measured configuration.
    notes:
        Free-form notes (scale factors, substitutions, expected shape).
    """

    key: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append a row, checking it carries exactly the declared columns.

        Undeclared keys are rejected, not silently stored: a typo'd column
        name would otherwise survive every run and only surface as a hole
        in the rendered report (or worse, not at all).
        """
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ExperimentError(
                f"experiment {self.key}: row is missing columns {missing}")
        unknown = [key for key in values if key not in self.columns]
        if unknown:
            raise ExperimentError(
                f"experiment {self.key}: row has undeclared columns {unknown}")
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """Return one column as a list (handy for assertions on trends)."""
        if name not in self.columns:
            raise ExperimentError(f"experiment {self.key}: unknown column {name!r}")
        return [row[name] for row in self.rows]

    def filter_rows(self, **criteria: Any) -> list[dict[str, Any]]:
        """Return the rows matching every given column=value criterion."""
        matched = []
        for row in self.rows:
            if all(row.get(column) == value for column, value in criteria.items()):
                matched.append(row)
        return matched


class Timer:
    """Context manager measuring wall-clock seconds.

    >>> with Timer() as timer:
    ...     _ = sum(range(1000))
    >>> timer.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started


def scaled(sizes: Mapping[str, int], scale: float) -> dict[str, int]:
    """Scale dataset sizes by ``scale``, keeping every size at least 50.

    The paper's corpora have 460k–860k strings; pure-Python joins at that
    size are impractically slow, so experiments run on scaled-down corpora
    and report the scale in their notes.
    """
    if scale <= 0:
        raise ExperimentError(f"scale must be positive, got {scale}")
    return {name: max(50, int(size * scale)) for name, size in sizes.items()}


def available_cpus() -> int:
    """CPUs this process may use — the honest upper bound on parallel speedup.

    Scaling experiments record this next to their measurements: a 4-worker
    run on a single-core container *cannot* beat serial, and asserting that
    it does would make the benchmark suite flaky across machines.
    """
    from ..core.join import available_workers

    return available_workers()


def geometric_speedup(times: Sequence[float], baseline: Sequence[float]) -> float:
    """Geometric-mean speedup of ``times`` over ``baseline`` (for summaries)."""
    if len(times) != len(baseline) or not times:
        raise ExperimentError("speedup requires two equal-length, non-empty series")
    product = 1.0
    for fast, slow in zip(times, baseline):
        if fast <= 0 or slow <= 0:
            raise ExperimentError("speedup requires strictly positive timings")
        product *= slow / fast
    return product ** (1.0 / len(times))
