"""Shared filter-and-verify probe engine.

The heart of Pass-Join — "given one probe string, find every similar string
in a segment index" — is needed by callers with different index lifecycles:
:class:`~repro.core.join.PassJoin` slides an index window along the sorted
input and probes each string against it, while the searchers and the
serving stack probe external queries against a long-lived index.

This module holds the logic they share: the canonical record ordering and
the one probe loop, :func:`_probe_group`, behind :func:`probe_record` (one
query: the join, ``search``, ``explain``) and :func:`probe_many` (a
batch).  Per indexed length the loop runs three steps:

1. **Match** — for every segment ordinal, the substrings the selection
   window (Section 4) picks are tested against that ordinal's segment
   dictionary *as a set*: one ``dict_keys.isdisjoint`` call, in C, per
   window.  Most windows miss outright; only a window that hits is walked
   position by position, in selection order, to fetch its posting lists.
   A group of same-length queries tests the union of its members'
   substrings and fans each hit list out to every query selecting it
   (``num_postings_fanout``).
2. **Collect** — each posting list is filtered per interested query on the
   store's id column (same id → already found → already seen), so a
   :class:`~repro.types.StringRecord` is only materialised for rows the
   verifier accepts.
3. **Verify** — with an exact-per-pair verifier (the default batched
   Myers and every whole-string kernel) each query gathers its candidate
   rows over the whole probe, in first-seen order, and makes **one**
   ``verify_rows`` call.  The paper's extension verifiers decide a pair
   relative to the matching segment, so they verify each hit list as it
   is collected, with its :class:`~repro.core.verify.MatchContext`.

Selection windows resolve through a :class:`~repro.core.selection.WindowCache`
when the caller passes one (the join's span-local cache, a searcher's
persistent one); ``selection_seconds`` times the whole match step.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

from ..distance.banded import length_aware_edit_distance
from ..types import JoinStatistics, StringRecord
from .index import SegmentIndex
from .selection import SubstringSelector, WindowCache
from .verify import BaseVerifier, MatchContext

if TYPE_CHECKING:
    from ..obs.trace import ProbeTrace


def sort_key(record: StringRecord) -> tuple[int, str]:
    """Canonical (length, text) ordering of the join and every searcher."""
    return (record.length, record.text)


def sort_records(records: Sequence[StringRecord]) -> list[StringRecord]:
    """Return records in canonical order (stable, so ties keep input order)."""
    return sorted(records, key=sort_key)


class _ProbeState:
    """Per-query accumulator of one :func:`_probe_group` pass.

    ``seen`` (record ids) and ``pending`` (their store rows, first-seen
    order) serve an exact-per-pair verifier: a pair is decided once, so
    every later hit of a seen row is dropped and ``pending`` is verified
    in one call at the end.
    """

    __slots__ = ("text", "probe_id", "exclude_self", "found", "matches",
                 "seen", "pending")

    def __init__(self, text: str, probe_id: int = -1,
                 exclude_self: bool = False) -> None:
        self.text = text
        self.probe_id = probe_id
        self.exclude_self = exclude_self
        self.found: dict[int, int] = {}
        self.matches: list[tuple[StringRecord, int]] = []
        self.seen: set[int] = set()
        self.pending: list[int] = []


def _probe_group(states: Sequence[_ProbeState], *, tau: int, max_length: int,
                 index: SegmentIndex, short_pool: Sequence[StringRecord],
                 selector: SubstringSelector,
                 window_cache: WindowCache | None, verifier: BaseVerifier,
                 stats: JoinStatistics,
                 trace: "ProbeTrace | None" = None) -> None:
    """Run the match → collect → verify pipeline for one group.

    ``states`` are queries of one length probed at one ``tau`` with one
    ``verifier``; each accumulates its own ``matches``.  Every posting
    list is fetched once per distinct selected substring and then filtered
    per interested state, in the fixed order same-id → already-found →
    already-seen; ``trace`` observes the counts per indexed length.
    """
    lead_text = states[0].text
    query_length = len(lead_text)
    fused = len(states) > 1
    texts = [state.text for state in states]
    per_hit = not verifier.exact_per_pair

    # Strings too short to partition are verified directly, per query.
    for record in short_pool:
        if abs(record.length - query_length) > tau:
            continue
        for state in states:
            if record.id == state.probe_id and state.exclude_self:
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

    store = index.store
    store_ids = store.ids
    for length in range(max(query_length - tau, 0), max_length + 1):
        segments_by_ordinal = index.length_group(length)
        if segments_by_ordinal is None:
            continue
        layout = index.layout(length)

        # Match: one key-set test per window; walk only the windows that hit.
        match_started = time.perf_counter()
        windows = (selector.windows(query_length, length, layout)
                   if window_cache is None
                   else window_cache.windows(query_length, length, layout))
        # (ordinal, start, seg_start, seg_length, posting rows, interested
        # states) per hit, in selection order.
        hits: list[tuple] = []
        num_positions = num_probes = 0
        for ordinal, seg_start, seg_length, lo, hi in windows:
            if hi < lo:
                continue
            positions = range(lo, hi + 1)
            num_positions += len(positions)
            if fused:
                per_position = [{text[start:start + seg_length]
                                 for text in texts} for start in positions]
                num_probes += sum(map(len, per_position))
                keys = set().union(*per_position)
            else:
                num_probes += len(positions)
                keys = {lead_text[start:start + seg_length]
                        for start in positions}
            segments = segments_by_ordinal.get(ordinal)
            if segments is None or segments.keys().isdisjoint(keys):
                continue
            for start in positions:
                stop = start + seg_length
                if not fused:
                    postings = segments.get(lead_text[start:stop])
                    if postings:
                        hits.append((ordinal, start, seg_start, seg_length,
                                     postings, states))
                    continue
                interested_by_substring: dict[str, list[_ProbeState]] = {}
                for state in states:
                    interested_by_substring.setdefault(
                        state.text[start:stop], []).append(state)
                for substring, interested in interested_by_substring.items():
                    postings = segments.get(substring)
                    if postings:
                        hits.append((ordinal, start, seg_start, seg_length,
                                     postings, interested))
        stats.selection_seconds += time.perf_counter() - match_started
        stats.num_selected_substrings += num_positions * len(states)
        stats.num_index_probes += num_probes
        entry = (None if trace is None
                 else trace.length_entry(length, layout, num_probes))

        # Collect (and, for a per-hit verifier, verify) every hit list.
        for ordinal, start, seg_start, seg_length, postings, interested in hits:
            scanned = len(postings)
            stats.num_postings_scanned += scanned
            if len(interested) > 1:
                # One scan of this posting list serves every interested
                # query in the group.
                stats.num_postings_fanout += len(interested) - 1
            for state in interested:
                probe_id = state.probe_id
                exclude_self = state.exclude_self
                found = state.found
                seen = None if per_hit else state.seen
                rows = [] if per_hit else state.pending
                collected = len(rows)
                repeats: list[int] | None = [] if entry is not None else None
                same_id = 0
                for row in postings:
                    record_id = store_ids[row]
                    if record_id == probe_id and exclude_self:
                        same_id += 1
                        continue
                    if record_id in found:
                        continue
                    if seen is not None:
                        if record_id in seen:
                            if repeats is not None:
                                repeats.append(record_id)
                            continue
                        seen.add(record_id)
                    rows.append(row)
                candidates = len(rows) - collected
                stats.num_candidates += candidates
                verifications = accepted_here = 0
                if per_hit and rows:
                    context = MatchContext(ordinal=ordinal, probe_start=start,
                                           seg_start=seg_start,
                                           seg_length=seg_length)
                    verifications_before = stats.num_verifications
                    verification_started = time.perf_counter()
                    accepted = verifier.verify_rows(state.text, store, rows,
                                                    context)
                    stats.verification_seconds += (
                        time.perf_counter() - verification_started)
                    verifications = (stats.num_verifications
                                     - verifications_before)
                    for record, distance in accepted:
                        if record.id not in found:
                            found[record.id] = distance
                            state.matches.append((record, distance))
                            accepted_here += 1
                if entry is not None:
                    trace.record_scan(
                        entry, scanned=scanned, same_id=same_id,
                        candidates=candidates, verifications=verifications,
                        accepted=accepted_here)
                    if not per_hit:
                        trace.record_collected(
                            entry, [store_ids[row] for row in rows[collected:]],
                            repeats)

    for state in states:
        if state.pending:
            # Verify once: every candidate row of the probe in one call.
            verification_started = time.perf_counter()
            accepted = verifier.verify_rows(state.text, store, state.pending,
                                            None)
            stats.verification_seconds += (
                time.perf_counter() - verification_started)
            for record, distance in accepted:
                state.found[record.id] = distance
                state.matches.append((record, distance))
            if trace is not None:
                trace.record_verified(state.found)
        # Counted once per unique query (not per fan-out position), so the
        # funnel invariant accepted <= verifications holds.
        stats.num_accepted += len(state.matches)


def probe_record(probe: StringRecord, *, tau: int, index: SegmentIndex,
                 short_pool: Sequence[StringRecord],
                 selector: SubstringSelector, verifier: BaseVerifier,
                 stats: JoinStatistics, max_length: int,
                 allow_same_id: bool = False,
                 trace: "ProbeTrace | None" = None,
                 window_cache: WindowCache | None = None,
                 ) -> list[tuple[StringRecord, int]]:
    """Find indexed (and short-pool) strings similar to ``probe``.

    The one-state driver of :func:`_probe_group`.  ``max_length`` bounds
    the indexed lengths probed: ``|probe|`` for the self join (a partner
    longer than the probe sorts after it) and ``|probe| + τ`` for the R-S
    join.  Unless ``allow_same_id``, the probe's own id is excluded by an
    integer compare.

    ``trace`` optionally collects a per-indexed-length breakdown for the
    ``explain`` op.  ``window_cache`` optionally resolves selection windows
    through a :class:`~repro.core.selection.WindowCache` instead of
    calling ``selector.windows`` per probe; the cache counts its own hits.
    """
    state = _ProbeState(probe.text, probe_id=probe.id,
                        exclude_self=not allow_same_id)
    _probe_group([state], tau=tau, max_length=max_length, index=index,
                 short_pool=short_pool, selector=selector,
                 window_cache=window_cache, verifier=verifier, stats=stats,
                 trace=trace)
    return state.matches


def probe_many(queries: Sequence[tuple[str, int]], *, index: SegmentIndex,
               short_pool: Sequence[StringRecord],
               selector: SubstringSelector,
               verifier_factory: Callable[[int], BaseVerifier],
               stats: JoinStatistics,
               window_cache: WindowCache | None = None,
               ) -> list[list[tuple[StringRecord, int]]]:
    """Answer a batch of ``(query text, tau)`` searches in one grouped pass.

    The batch form of :func:`_probe_group`, behind ``search_many()``:

    1. **Deduplicate** — identical ``(query, tau)`` pairs are probed once
       and their result is fanned out to every occurrence.
    2. **Group by shape** — unique queries are grouped by
       ``(query length, tau)``; a group shares one verifier, one selection
       per indexed length (windows depend only on the two lengths — the
       selector's tau is the index partition threshold, not the per-query
       one) and one scan of every posting list several of its queries
       select (``num_postings_fanout`` counts the scans saved).

    Each result list is element-identical to :func:`probe_record` on that
    query — both run the same loop — which is the property-test contract.
    Queries are external probes (no same-id exclusion).  Returns one
    ``(record, distance)`` list per input position.
    """
    results: list[list[tuple[StringRecord, int]]] = [[] for _ in queries]
    unique: dict[tuple[str, int], list[int]] = {}
    for position, (text, tau) in enumerate(queries):
        unique.setdefault((text, tau), []).append(position)
    groups: dict[tuple[int, int], list[tuple[str, list[int]]]] = {}
    for (text, tau), positions in unique.items():
        groups.setdefault((len(text), tau), []).append((text, positions))
    for query_length, tau in sorted(groups):
        members = groups[query_length, tau]
        verifier = verifier_factory(tau)
        states = [_ProbeState(text) for text, _ in members]
        _probe_group(states, tau=tau, max_length=query_length + tau,
                     index=index, short_pool=short_pool, selector=selector,
                     window_cache=window_cache, verifier=verifier, stats=stats)
        for state, (_, positions) in zip(states, members):
            for position in positions:
                results[position] = list(state.matches)
    return results
