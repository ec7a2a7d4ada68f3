"""Mergeable metrics: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is the telemetry sink of the serving stack.  Its
design constraints, in order:

1. **Cheap on the hot path.**  A counter bump is one dict operation; a
   histogram observation is one :func:`bisect.bisect_left` over a short
   tuple of bucket bounds plus three scalar updates.  No locks, no label
   hashing, no string formatting — rendering cost is paid at scrape time.
2. **Snapshot-able to plain dicts.**  :meth:`MetricsRegistry.snapshot`
   returns nothing but ``dict``/``list``/``str``/numbers, so a snapshot
   travels unchanged over the JSON wire protocol *and* over the pickle
   pipes of the process shard backend.
3. **Mergeable.**  :func:`merge_snapshots` sums counters, gauges, and
   bucket counts element-wise, so the shard router can aggregate the
   snapshots its fork-spawned workers ship back — the same aggregation
   shape as :meth:`repro.service.sharding.ShardRouter.status_summary`.

:func:`funnel_snapshot` bridges the engine's per-run
:class:`~repro.types.JoinStatistics` (where the probe pipeline and the
verification kernels already count their work) into the same snapshot
format, and :func:`render_prometheus`/:func:`parse_prometheus` handle the
Prometheus text exposition format for ``admin metrics --prometheus``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from ..types import JoinStatistics

#: Default latency histogram bounds, in seconds.  Sub-millisecond buckets
#: matter here: a cached lookup answers in tens of microseconds while a
#: cold sharded scatter takes milliseconds, and one decade-spaced ladder
#: must resolve both.  Observations above the last bound land in the
#: implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: JoinStatistics counter fields surfaced as funnel metrics, in funnel
#: order: what the index scanned, what survived the id-column filters,
#: what the verifiers checked, what they accepted.
FUNNEL_COUNTER_FIELDS: tuple[tuple[str, str], ...] = (
    ("num_selected_substrings", "engine_selected_substrings"),
    ("num_index_probes", "engine_index_probes"),
    ("num_postings_scanned", "engine_postings_scanned"),
    ("num_candidates", "engine_candidates"),
    ("num_verifications", "engine_verifications"),
    ("num_signature_rejects", "engine_signature_rejects"),
    ("num_accepted", "engine_accepted"),
    ("num_results", "engine_results"),
    ("num_matrix_cells", "engine_matrix_cells"),
    ("num_early_terminations", "engine_early_terminations"),
    ("num_windows_cache_hits", "engine_windows_cache_hits"),
    ("selection_seconds", "engine_selection_seconds"),
    ("verification_seconds", "engine_verification_seconds"),
)


class _Histogram:
    """One fixed-bucket histogram: bounds, per-bucket counts, sum, count."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # One slot per bound plus the overflow (+Inf) slot.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms with plain snapshots.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("requests.search")
    >>> registry.observe("latency_seconds.search", 0.004)
    >>> snap = registry.snapshot()
    >>> snap["counters"]["requests.search"]
    1
    >>> snap["histograms"]["latency_seconds.search"]["count"]
    1
    """

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Hot-path updates
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the counter ``name``."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: int | float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        """Record ``value`` into the histogram ``name``.

        The histogram is created on first observation with ``buckets``
        (ascending upper bounds; values above the last bound count in the
        implicit +Inf bucket).  Later ``buckets`` arguments for the same
        name are ignored — bounds are fixed at creation, which is what
        keeps snapshots mergeable.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram(tuple(buckets))
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> int | float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict[str, int | float]:
        """Counters whose name starts with ``prefix``, keyed by the suffix."""
        return {name[len(prefix):]: value
                for name, value in self._counters.items()
                if name.startswith(prefix)}

    def snapshot(self) -> dict[str, Any]:
        """The registry as a plain (JSON- and pickle-ready) dictionary."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {"buckets": list(histogram.bounds),
                       "counts": list(histogram.counts),
                       "sum": histogram.total,
                       "count": histogram.count}
                for name, histogram in self._histograms.items()},
        }


def empty_snapshot() -> dict[str, Any]:
    """The snapshot of a registry nothing was ever recorded into."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Sum several registry snapshots into one.

    Counters and gauges are summed by name (gauges in this library are
    additive fleet quantities — index entries, bytes, cache sizes — so the
    sum is the fleet total).  Histograms are summed bucket-by-bucket;
    merging two histograms of the same name with different bucket bounds
    raises ``ValueError``, because their counts are not comparable.
    ``merge_snapshots([s])`` equals ``s`` and the operation is associative,
    which is what makes router-side aggregation order-independent
    (property-tested).
    """
    merged = empty_snapshot()
    counters = merged["counters"]
    gauges = merged["gauges"]
    histograms = merged["histograms"]
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, histogram in snapshot.get("histograms", {}).items():
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = {"buckets": list(histogram["buckets"]),
                                    "counts": list(histogram["counts"]),
                                    "sum": histogram["sum"],
                                    "count": histogram["count"]}
                continue
            if list(existing["buckets"]) != list(histogram["buckets"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ "
                    f"({existing['buckets']} vs {histogram['buckets']})")
            existing["counts"] = [a + b for a, b in zip(existing["counts"],
                                                        histogram["counts"])]
            existing["sum"] += histogram["sum"]
            existing["count"] += histogram["count"]
    return merged


def funnel_snapshot(statistics: JoinStatistics,
                    memory: Mapping[str, int] | None = None,
                    ) -> dict[str, Any]:
    """Render a :class:`~repro.types.JoinStatistics` as a registry snapshot.

    The engine's probe pipeline and the verification kernels (including
    the batched Myers kernel's matrix-cell and early-termination counters)
    all record into a ``JoinStatistics``; this is the bridge that lets
    those funnel counters merge with the service-level request metrics —
    and ship over a shard worker's pipe as a plain dict.  ``memory``
    optionally adds the columnar index's memory report as gauges.
    """
    registry = MetricsRegistry()
    for field_name, metric_name in FUNNEL_COUNTER_FIELDS:
        value = getattr(statistics, field_name)
        if value:
            registry.inc(metric_name, value)
    registry.set_gauge("engine_index_entries", statistics.index_entries)
    registry.set_gauge("engine_index_bytes", statistics.index_bytes)
    if memory is not None:
        for field_name, value in memory.items():
            registry.set_gauge(f"index_{field_name}", value)
    return registry.snapshot()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_:]")
_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$")


def _prometheus_name(name: str, prefix: str) -> str:
    """A snapshot metric name as a legal Prometheus metric name."""
    sanitised = _NAME_SANITISER.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = f"_{sanitised}"
    return f"{prefix}_{sanitised}" if prefix else sanitised


def _prometheus_value(value: int | float) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(snapshot: Mapping[str, Any],
                      prefix: str = "passjoin") -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    Counters and gauges become single samples; histograms become the
    conventional ``_bucket{le=...}`` (cumulative, ending in ``+Inf``),
    ``_sum``, and ``_count`` series.  Metric names are sanitised to the
    Prometheus grammar (dots and dashes become underscores) and prefixed,
    and the output is deterministically ordered — scrape diffs stay
    readable.  :func:`parse_prometheus` accepts everything emitted here.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f"{metric} {_prometheus_value(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prometheus_value(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        histogram = snapshot["histograms"][name]
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram["buckets"], histogram["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_prometheus_value(float(bound))}"}}'
                         f" {cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram["count"]}')
        lines.append(f"{metric}_sum {_prometheus_value(histogram['sum'])}")
        lines.append(f"{metric}_count {histogram['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, dict[str, Any]]:
    """Parse (and thereby validate) Prometheus text exposition format.

    Returns ``{metric_family: {"type": ..., "samples": [(name, labels,
    value), ...]}}``.  Raises ``ValueError`` on malformed lines, samples
    without a preceding ``# TYPE`` declaration, non-monotone histogram
    buckets, or a histogram whose ``+Inf`` bucket disagrees with its
    ``_count`` — the checks CI runs over the ``admin metrics
    --prometheus`` output.
    """
    families: dict[str, dict[str, Any]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram", "summary",
                                                   "untyped"):
                raise ValueError(f"line {line_number}: malformed TYPE "
                                 f"declaration: {line!r}")
            families[parts[2]] = {"type": parts[3], "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample: {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[:-len(suffix)] if name.endswith(suffix) else None
            if trimmed is not None and families.get(trimmed, {}).get(
                    "type") == "histogram":
                family = trimmed
                break
        if family not in families:
            raise ValueError(f"line {line_number}: sample {name!r} has no "
                             f"preceding TYPE declaration")
        labels: dict[str, str] = {}
        if match.group("labels"):
            for pair in match.group("labels").split(","):
                key, _, raw = pair.partition("=")
                labels[key.strip()] = raw.strip().strip('"')
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(f"line {line_number}: non-numeric sample value "
                             f"{raw_value!r}") from exc
        families[family]["samples"].append((name, labels, value))
    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        buckets = [(labels["le"], value) for name, labels, value
                   in data["samples"] if name == f"{family}_bucket"]
        counts = [value for name, _, value in data["samples"]
                  if name == f"{family}_count"]
        if not buckets or not counts:
            raise ValueError(f"histogram {family!r} is missing bucket or "
                             f"count samples")
        previous = -1.0
        for le, value in buckets:
            if value < previous:
                raise ValueError(f"histogram {family!r} has non-monotone "
                                 f"cumulative buckets")
            previous = value
        if buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {family!r} does not end in a "
                             f"+Inf bucket")
        if buckets[-1][1] != counts[0]:
            raise ValueError(f"histogram {family!r}: +Inf bucket "
                             f"({buckets[-1][1]}) != count ({counts[0]})")
    return families
