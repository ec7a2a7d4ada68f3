"""Per-probe tracing for the ``explain`` op.

A :class:`ProbeTrace` rides through one
:func:`repro.core.engine.probe_record` call and records what the metrics
counters deliberately aggregate away: *per indexed length*, which
partition layout was consulted, how many selection windows were probed,
how many postings each probe scanned, and where candidates fell out of
the funnel (same id, already matched, already verified).  ``explain``
runs the probe against a private :class:`~repro.types.JoinStatistics`,
so the trace plus the statistics deltas reconstruct the paper's filter
funnel exactly for a single query.

The trace is an *observer* of the one probe pass, not a second copy of
it: the engine hands it each indexed length's hit posting lists as the
match step produces them (:meth:`ProbeTrace.record_length`) and, once the
probe has verified, what it accepted (:meth:`ProbeTrace.settle`), which
then walks the hit lists once to split every row into same id, already
found, rechecked or candidate, and gives each verification and acceptance
to its length.  Traced and untraced probes execute the same code.

:func:`build_explain_report` renders trace + statistics + matches into a
plain-dict report (JSON- and pickle-ready), and
:func:`merge_explain_reports` aggregates the per-shard reports a
:class:`~repro.service.sharding.ShardRouter` scatter collects.
"""

from __future__ import annotations

from typing import Any, Container, Iterable, Mapping, Sequence

from ..types import JoinStatistics

#: Funnel counters shared by single-searcher and merged shard reports,
#: in funnel order.
FUNNEL_FIELDS: tuple[str, ...] = (
    "selected_substrings", "index_probes", "postings_scanned",
    "candidates", "verifications", "accepted")

#: Per-length counters, in report order; summed when merging shard
#: reports for a length indexed on several shards (the hash ring spreads
#: every length fleet-wide).
_LENGTH_COUNTER_FIELDS: tuple[str, ...] = (
    "selection_windows", "index_probes", "postings_scanned",
    "filtered_same_id", "filtered_already_found", "filtered_rechecked",
    "candidates", "verifications", "accepted")

_STAGE_FIELDS: tuple[str, ...] = (
    "selection_seconds", "verification_seconds", "total_seconds")


class ProbeTrace:
    """Mutable tracing context threaded through one ``probe_record`` call."""

    __slots__ = ("lengths", "short_pool_checked", "short_pool_accepted",
                 "_hits")

    def __init__(self) -> None:
        self.lengths: dict[int, dict[str, Any]] = {}
        self.short_pool_checked = 0
        self.short_pool_accepted = 0
        # (length entry, hit posting lists) per visited length, in probe
        # order, awaiting :meth:`settle`.
        self._hits: list[tuple[dict[str, Any], Sequence[Sequence[int]]]] = []

    def record_length(self, length: int,
                      layout: Sequence[tuple[int, int]],
                      num_selections: int,
                      hit_lists: Sequence[Sequence[int]]) -> None:
        """Note one indexed length the probe matched against.

        ``layout`` is the even-partition segment table for ``length``
        (``(seg_start, seg_length)`` pairs), ``num_selections`` the number
        of substrings the probe selected against it — each is one index
        probe — and ``hit_lists`` the store-row posting lists that hit, in
        selection order.
        """
        entry = self.lengths.get(length)
        if entry is None:
            entry = self.lengths[length] = {
                "indexed_length": length,
                "partition_layout": [[start, seg_length]
                                     for start, seg_length in layout],
                **dict.fromkeys(_LENGTH_COUNTER_FIELDS, 0),
            }
        entry["selection_windows"] += num_selections
        entry["index_probes"] += num_selections
        self._hits.append((entry, hit_lists))

    def settle(self, store_ids: Sequence[int], excluded_id: int | None,
               found: Container[int]) -> None:
        """Attribute every hit row to its length once the probe verified.

        A row belongs to one indexed length, so each length's figures come
        from its own hit lists.  A row with ``excluded_id`` (the probe's
        own) is a same-id drop.  The verifier is exact per pair and
        ``found`` holds the accepted ids: a row's first hit is a candidate
        and one verification, accepted if found; a later hit is already
        found when the row was accepted and rechecked when not.
        """
        seen: set[int] = set()
        for entry, hit_lists in self._hits:
            for postings in hit_lists:
                entry["postings_scanned"] += len(postings)
                for row in postings:
                    record_id = store_ids[row]
                    if record_id == excluded_id:
                        entry["filtered_same_id"] += 1
                    elif record_id in seen:
                        entry["filtered_already_found" if record_id in found
                              else "filtered_rechecked"] += 1
                    else:
                        seen.add(record_id)
                        entry["candidates"] += 1
                        entry["verifications"] += 1
                        entry["accepted"] += record_id in found
        self._hits.clear()

    def length_payloads(self) -> list[dict[str, Any]]:
        """Per-length entries as plain dicts, ascending by indexed length."""
        return [dict(self.lengths[length])
                for length in sorted(self.lengths)]


def build_explain_report(*, query: str, tau: int, verifier: Any,
                         trace: ProbeTrace, stats: JoinStatistics,
                         matches: Sequence[Any],
                         total_seconds: float) -> dict[str, Any]:
    """Assemble the ``explain`` report for one traced probe.

    ``stats`` must be a *fresh* :class:`~repro.types.JoinStatistics` used
    only for this probe, so its counters are exact per-query deltas.
    ``matches`` are the probe's results (anything with a ``to_dict()``,
    i.e. :class:`~repro.search.searcher.SearchMatch`); the report's
    ``funnel.accepted`` always equals ``num_matches`` because the engine
    filters previously-found ids *before* verification.
    """
    return {
        "query": query,
        "tau": tau,
        "funnel": {field: getattr(stats, f"num_{field}")
                   for field in FUNNEL_FIELDS},
        "verifier": {
            "kernel": verifier.method.value,
            "verifications": stats.num_verifications,
            "signature_rejects": stats.num_signature_rejects,
            "matrix_cells": stats.num_matrix_cells,
            "early_terminations": stats.num_early_terminations,
        },
        "short_pool": {
            "records_checked": trace.short_pool_checked,
            "accepted": trace.short_pool_accepted,
        },
        "lengths": trace.length_payloads(),
        "stages": {
            "selection_seconds": stats.selection_seconds,
            "verification_seconds": stats.verification_seconds,
            "total_seconds": total_seconds,
        },
        "matches": [match.to_dict() for match in matches],
        "num_matches": len(matches),
    }


def empty_explain_report(query: str, tau: int) -> dict[str, Any]:
    """The report for a probe that touched no shard (empty length window)."""
    return {
        "query": query,
        "tau": tau,
        "funnel": {field: 0 for field in FUNNEL_FIELDS},
        "verifier": {"kernel": None, "verifications": 0,
                     "signature_rejects": 0, "matrix_cells": 0,
                     "early_terminations": 0},
        "short_pool": {"records_checked": 0, "accepted": 0},
        "lengths": [],
        "stages": {field: 0.0 for field in _STAGE_FIELDS},
        "matches": [],
        "num_matches": 0,
    }


def merge_explain_reports(query: str, tau: int,
                          reports: Iterable[Mapping[str, Any]]
                          ) -> dict[str, Any]:
    """Aggregate per-shard ``explain`` reports into one fleet-wide report.

    Funnel counters, verifier counters, short-pool counts, per-length
    entries, and stage times are summed (stage times are summed *work*,
    not wall time — shards probe concurrently).  Matches are merged under
    the router's ``(distance, id)`` order with ids deduplicated, matching
    what ``search`` returns mid-migration when a row is briefly present
    on both donor and recipient; the merged ``funnel.accepted`` keeps the
    raw per-shard sum, so it can exceed ``num_matches`` only during such
    a migration.  The original reports are preserved under ``"shards"``.
    """
    reports = list(reports)
    if not reports:
        return empty_explain_report(query, tau)
    merged = empty_explain_report(query, tau)
    lengths: dict[int, dict[str, Any]] = {}
    all_matches: list[Mapping[str, Any]] = []
    for report in reports:
        for field in FUNNEL_FIELDS:
            merged["funnel"][field] += report["funnel"][field]
        verifier = report["verifier"]
        for field in ("verifications", "signature_rejects", "matrix_cells",
                      "early_terminations"):
            merged["verifier"][field] += verifier[field]
        if verifier["kernel"] is not None:
            # Every shard runs the one served verifier.
            merged["verifier"]["kernel"] = verifier["kernel"]
        merged["short_pool"]["records_checked"] += (
            report["short_pool"]["records_checked"])
        merged["short_pool"]["accepted"] += report["short_pool"]["accepted"]
        for entry in report["lengths"]:
            existing = lengths.get(entry["indexed_length"])
            if existing is None:
                lengths[entry["indexed_length"]] = dict(entry)
                continue
            for field in _LENGTH_COUNTER_FIELDS:
                existing[field] += entry[field]
        for field in _STAGE_FIELDS:
            merged["stages"][field] += report["stages"][field]
        all_matches.extend(report["matches"])

    merged["lengths"] = [lengths[length] for length in sorted(lengths)]
    seen_ids: set[int] = set()
    matches: list[Mapping[str, Any]] = []
    for match in sorted(all_matches,
                        key=lambda m: (m["distance"], m["id"])):
        if match["id"] in seen_ids:
            continue
        seen_ids.add(match["id"])
        matches.append(dict(match))
    merged["matches"] = matches
    merged["num_matches"] = len(matches)
    merged["shards"] = [dict(report) for report in reports]
    return merged
