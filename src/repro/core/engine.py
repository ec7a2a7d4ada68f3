"""Shared filter-and-verify probe engine.

The heart of Pass-Join — "given one probe string, find every similar string
in a segment index" — is needed by callers with different index lifecycles:
:class:`~repro.core.join.PassJoin` slides an index window along the sorted
input and probes each string against it, while the searchers and the
serving stack probe external queries against a long-lived index.

This module holds the logic they share: the canonical record ordering and
:func:`probe_record`, the per-probe select → lookup → verify pipeline.  The
optional ``accept`` predicate (a function of the candidate's record *id*)
restricts which indexed records may partner a probe — the serving stack's
tombstones and top-k exclusion.

Candidate filtering runs on the columnar postings directly — record ids are
read straight from the :class:`~repro.core.store.RecordStore` id column and
surviving row ordinals are handed to the verifier's ``verify_rows`` entry
point, so a :class:`~repro.types.StringRecord` is only materialised for
candidates the verifier actually touches (and, for the batched Myers
verifier, only for candidates it *accepts*).

The pipeline itself is written once, in :func:`_probe_group`: a list of
per-query states sharing one ``(length, tau)`` shape walks the indexed
lengths, selects substrings, looks each distinct substring up once, runs
the one per-posting id filter per interested query, and verifies the
survivors.  :func:`probe_record` drives it with a single state (carrying
the join's ``max_length``, same-id exclusion and the optional ``explain``
trace); :func:`probe_many` is the batch driver: duplicate ``(query, tau)``
lookups execute once (:func:`dedupe_batch`), unique queries are grouped by
shape, and when several queries of a group select the same substring its
posting list is scanned once and fans out to every interested query
(``num_postings_fanout``).  Selection windows resolve through the caller's
persistent :class:`~repro.core.selection.WindowCache` when one is passed
(hits counted as ``num_windows_cache_hits``).
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Sequence

from ..distance.banded import length_aware_edit_distance
from ..types import JoinStatistics, StringRecord
from .index import SegmentIndex
from .selection import (SelectedSubstring, SubstringSelector, WindowCache,
                        substrings_from_windows)
from .verify import BaseVerifier, MatchContext

if TYPE_CHECKING:
    from ..obs.trace import ProbeTrace


#: A predicate over candidate record ids (tombstones, top-k exclusion).
Accept = Callable[[int], bool]


def sort_key(record: StringRecord) -> tuple[int, str]:
    """Canonical (length, text) ordering of the join and every searcher."""
    return (record.length, record.text)


def sort_records(records: Sequence[StringRecord]) -> list[StringRecord]:
    """Return records in canonical order (stable, so ties keep input order)."""
    return sorted(records, key=sort_key)


class _ProbeState:
    """Per-query accumulator of one :func:`_probe_group` pass."""

    __slots__ = ("text", "probe_id", "exclude_self", "accept", "found",
                 "matches", "checked")

    def __init__(self, text: str, skip_rechecks: bool,
                 accept: Accept | None,
                 probe_id: int = -1, exclude_self: bool = False) -> None:
        self.text = text
        self.probe_id = probe_id
        self.exclude_self = exclude_self
        self.accept = accept
        self.found: dict[int, int] = {}
        self.matches: list[tuple[StringRecord, int]] = []
        self.checked: set[int] | None = set() if skip_rechecks else None


def _fuse(states: Sequence[_ProbeState],
          selections: Sequence[SelectedSubstring],
          ) -> list[tuple[SelectedSubstring, list[_ProbeState]]]:
    """Pair every distinct substring to look up with the queries selecting it.

    ``selections`` are the lead state's; every state of a group has the
    same length, hence the same windows, and differs only in the text
    under them.
    """
    work: list[tuple[SelectedSubstring, list[_ProbeState]]] = []
    for selection in selections:
        start = selection.start
        stop = start + selection.seg_length
        by_substring: dict[str, list[_ProbeState]] = {}
        for state in states:
            by_substring.setdefault(state.text[start:stop], []).append(state)
        for substring, interested in by_substring.items():
            work.append((selection._replace(text=substring), interested))
    return work


def _probe_group(states: Sequence[_ProbeState], *, tau: int, max_length: int,
                 index: SegmentIndex, short_pool: Sequence[StringRecord],
                 selector: SubstringSelector,
                 window_cache: WindowCache | None, verifier: BaseVerifier,
                 stats: JoinStatistics,
                 trace: "ProbeTrace | None" = None) -> None:
    """Run the select → lookup → filter → verify pipeline for one group.

    ``states`` are queries of one length probed at one ``tau`` with one
    ``verifier``; each accumulates its own ``matches``.  Every posting
    list is fetched once per distinct substring and then filtered per
    interested state, in the fixed order same-id → excluded (``accept``)
    → already-found → rechecked; ``trace`` is fed once per filtered list.
    """
    lead_text = states[0].text
    query_length = len(lead_text)

    # Strings too short to partition are verified directly, per query.
    for record in short_pool:
        if abs(record.length - query_length) > tau:
            continue
        for state in states:
            if record.id == state.probe_id and state.exclude_self:
                continue
            accept = state.accept
            if accept is not None and not accept(record.id):
                continue
            verification_started = time.perf_counter()
            stats.num_verifications += 1
            distance = length_aware_edit_distance(record.text, state.text,
                                                  tau, stats)
            stats.verification_seconds += (
                time.perf_counter() - verification_started)
            if trace is not None:
                trace.short_pool_checked += 1
                trace.short_pool_accepted += distance <= tau
            if distance <= tau:
                state.found[record.id] = distance
                state.matches.append((record, distance))

    for length in range(max(query_length - tau, 0), max_length + 1):
        if not index.has_length(length):
            continue
        layout = index.layout(length)

        selection_started = time.perf_counter()
        if window_cache is None:
            selections = selector.select(lead_text, length, layout)
        else:
            selections = substrings_from_windows(
                lead_text,
                window_cache.windows(query_length, length, layout, stats))
        stats.selection_seconds += time.perf_counter() - selection_started
        stats.num_selected_substrings += len(selections) * len(states)
        if len(states) == 1:
            # The join, and every all-distinct batch shape: nothing to fuse.
            work, num_probes = zip(selections, repeat(states)), len(selections)
        else:
            work = _fuse(states, selections)
            num_probes = len(work)
        stats.num_index_probes += num_probes
        entry = (None if trace is None
                 else trace.length_entry(length, layout, num_probes))

        for selection, interested in work:
            postings = index.lookup(length, selection.ordinal, selection.text)
            if not postings:
                continue
            scanned = len(postings)
            stats.num_postings_scanned += scanned
            if len(interested) > 1:
                # One scan of this posting list serves every interested
                # query in the group.
                stats.num_postings_fanout += len(interested) - 1
            store = postings.store
            store_ids = store.ids
            for state in interested:
                probe_id = state.probe_id
                exclude_self = state.exclude_self
                accept = state.accept
                found = state.found
                checked = state.checked
                rows: list[int] = []
                row_ids: list[int] = []
                same_id = excluded = rechecked = 0
                for row in postings.ordinals:
                    record_id = store_ids[row]
                    if record_id == probe_id and exclude_self:
                        same_id += 1
                        continue
                    if accept is not None and not accept(record_id):
                        excluded += 1
                        continue
                    if record_id in found:
                        continue
                    if checked is not None and record_id in checked:
                        rechecked += 1
                        continue
                    rows.append(row)
                    row_ids.append(record_id)
                verifications = accepted_here = 0
                if rows:
                    stats.num_candidates += len(rows)
                    context = MatchContext(ordinal=selection.ordinal,
                                           probe_start=selection.start,
                                           seg_start=selection.seg_start,
                                           seg_length=selection.seg_length)
                    verifications_before = stats.num_verifications
                    verification_started = time.perf_counter()
                    accepted = verifier.verify_rows(state.text, store, rows,
                                                    context)
                    stats.verification_seconds += (
                        time.perf_counter() - verification_started)
                    verifications = (stats.num_verifications
                                     - verifications_before)
                    if checked is not None:
                        checked.update(row_ids)
                    for record, distance in accepted:
                        if record.id not in found:
                            found[record.id] = distance
                            state.matches.append((record, distance))
                            accepted_here += 1
                if entry is not None:
                    trace.record_scan(
                        entry, scanned=scanned, same_id=same_id,
                        excluded=excluded, rechecked=rechecked,
                        candidates=len(rows), verifications=verifications,
                        accepted=accepted_here)

    for state in states:
        # Counted once per unique query (not per fan-out position), so the
        # funnel invariant accepted <= verifications holds.
        stats.num_accepted += len(state.matches)


def probe_record(probe: StringRecord, *, tau: int, index: SegmentIndex,
                 short_pool: Sequence[StringRecord],
                 selector: SubstringSelector, verifier: BaseVerifier,
                 stats: JoinStatistics, max_length: int,
                 allow_same_id: bool = False,
                 accept: Accept | None = None,
                 trace: "ProbeTrace | None" = None,
                 window_cache: WindowCache | None = None,
                 ) -> list[tuple[StringRecord, int]]:
    """Find indexed (and short-pool) strings similar to ``probe``.

    The one-state driver of :func:`_probe_group`.  ``max_length`` bounds
    the indexed lengths probed: ``|probe|`` for the self join (a partner
    longer than the probe sorts after it) and ``|probe| + τ`` for the R-S
    join.  ``accept`` optionally restricts which indexed records may
    partner the probe by record id; ids it rejects are skipped before
    candidate counting and verification, exactly as if they were not
    indexed at all.  Unless ``allow_same_id``, the probe's own id is
    excluded by an integer compare (no callable on the join hot path).

    ``trace`` optionally collects a per-indexed-length breakdown for the
    ``explain`` op.  ``window_cache`` optionally resolves selection windows
    through a persistent :class:`~repro.core.selection.WindowCache` (hits
    counted as ``num_windows_cache_hits``) instead of calling
    ``selector.select`` per probe.
    """
    state = _ProbeState(probe.text, verifier.exact_per_pair, accept,
                        probe_id=probe.id, exclude_self=not allow_same_id)
    _probe_group([state], tau=tau, max_length=max_length, index=index,
                 short_pool=short_pool, selector=selector,
                 window_cache=window_cache, verifier=verifier, stats=stats,
                 trace=trace)
    return state.matches


def dedupe_batch(queries: Sequence[tuple[str, int]],
                 accept: Accept | Sequence[Accept | None] | None,
                 ) -> dict[tuple[str, int, Accept | None], list[int]]:
    """Collapse a batch to its unique probes and the positions they answer.

    ``accept`` is one predicate for the whole batch or a sequence aligned
    with ``queries``; two entries are the same probe when query, tau and
    predicate (by identity) all agree.  Shared by every kernel's
    ``probe_many`` so the batch contract cannot drift between them.
    """
    if accept is None or callable(accept):
        accepts: Sequence[Accept | None] = [accept] * len(queries)
    else:
        accepts = list(accept)
        if len(accepts) != len(queries):
            raise ValueError(
                f"accept sequence length {len(accepts)} does not match "
                f"{len(queries)} queries")
    unique: dict[tuple[str, int, Accept | None], list[int]] = {}
    for position, (text, tau) in enumerate(queries):
        unique.setdefault((text, tau, accepts[position]), []).append(position)
    return unique


def probe_many(queries: Sequence[tuple[str, int]], *, index: SegmentIndex,
               short_pool: Sequence[StringRecord],
               selector: SubstringSelector,
               verifier_factory: Callable[[int], BaseVerifier],
               stats: JoinStatistics,
               accept: Accept | Sequence[Accept | None] | None = None,
               window_cache: WindowCache | None = None,
               ) -> list[list[tuple[StringRecord, int]]]:
    """Answer a batch of ``(query text, tau)`` searches in one grouped pass.

    The batch driver of :func:`_probe_group`, behind ``search_many()`` and
    the top-k widening:

    1. **Deduplicate** — identical ``(query, tau)`` pairs (under the same
       ``accept`` predicate) are probed once and their result is fanned
       out to every occurrence (:func:`dedupe_batch`).
    2. **Group by shape** — unique queries are grouped by
       ``(query length, tau)``; a group shares one verifier, one selection
       per indexed length (windows depend only on the two lengths — the
       selector's tau is the index partition threshold, not the per-query
       one) and one scan of every posting list several of its queries
       select (``num_postings_fanout`` counts the scans saved).

    Each result list is element-identical to :func:`probe_record` on that
    query — both run the same loop — which is the property-test contract.
    Queries are external probes (no same-id exclusion); ``accept`` is one
    predicate for every query or a sequence aligned with ``queries`` (one
    predicate or ``None`` per position — the hook top-k widening uses to
    exclude each query's already-found partners).  Returns one
    ``(record, distance)`` list per input position.
    """
    results: list[list[tuple[StringRecord, int]]] = [[] for _ in queries]
    groups: dict[tuple[int, int],
                 list[tuple[str, Accept | None, list[int]]]] = {}
    for (text, tau, query_accept), positions in dedupe_batch(
            queries, accept).items():
        groups.setdefault((len(text), tau), []).append(
            (text, query_accept, positions))
    for query_length, tau in sorted(groups):
        members = groups[query_length, tau]
        verifier = verifier_factory(tau)
        states = [_ProbeState(text, verifier.exact_per_pair, query_accept)
                  for text, query_accept, _ in members]
        _probe_group(states, tau=tau, max_length=query_length + tau,
                     index=index, short_pool=short_pool, selector=selector,
                     window_cache=window_cache, verifier=verifier, stats=stats)
        for state, (_, _, positions) in zip(states, members):
            for position in positions:
                results[position] = list(state.matches)
    return results
