"""Shared filter-and-verify probe engine.

The heart of Pass-Join — "given one probe string, find every similar string
in a segment index" — is needed by callers with different index lifecycles:
:class:`~repro.core.join.PassJoin` slides an index window along the sorted
input and probes each string against it, while the searchers and the
serving stack probe external queries against a long-lived index.

This module holds the logic they share: the canonical record ordering and
the one probe pass, :func:`probe_record` (one query: the join, ``search``,
``explain``), which :func:`probe_many` runs once per unique query of a
batch.  A pass runs three steps:

1. **Match** — per indexed length, the selection windows (Section 4)
   come as a :class:`~repro.core.selection.WindowPlan`: per non-empty
   window, its segment ordinal and the ``slice`` objects that cut its
   substrings out of the probe.  One loop walks the plan for every
   verifier.  Each window's substrings are tested against that ordinal's
   segment dictionary *as a set*: one ``dict_keys.isdisjoint`` call, in
   C, per window.  Most windows miss outright; only a window that hits is
   looked up, in selection order, and its posting lists are kept.  For
   the extension verifiers of step 3 a hit also records where it
   matched, a :class:`~repro.core.verify.MatchContext` built from the
   slice and the indexed length's segment layout.
2. **Collect** — with an exact-per-pair verifier (the default batched
   Myers and every whole-string kernel) the hit lists are deduplicated in
   C, in first-seen order, so a :class:`~repro.types.StringRecord` is only
   materialised for rows the verifier accepts.
3. **Verify** — that verifier gets the probe's candidate rows in **one**
   ``verify_rows`` call.  The paper's extension verifiers decide a pair
   relative to the matching segment, so they verify each hit list on its
   own, with its :class:`~repro.core.verify.MatchContext`.

Plans resolve through a :class:`~repro.core.selection.WindowCache` when
the caller passes one (the join's span-local cache, a searcher's
persistent one), so a cached length pair costs no per-window arithmetic
and, under an exact-per-pair verifier, no layout read; without one,
every call plans ``selector.windows`` afresh.  A plan is segment geometry
only, so a cached one never goes stale.  ``selection_seconds`` times the
whole match step, once per probe.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import TYPE_CHECKING, Callable, Sequence

from ..distance.banded import length_aware_edit_distance
from ..types import JoinStatistics, StringRecord
from .index import SegmentIndex
from .selection import SubstringSelector, WindowCache, plan_windows
from .verify import BaseVerifier, MatchContext

if TYPE_CHECKING:
    from ..obs.trace import ProbeTrace


def sort_key(record: StringRecord) -> tuple[int, str]:
    """Canonical (length, text) ordering of the join and every searcher."""
    return (record.length, record.text)


def sort_records(records: Sequence[StringRecord]) -> list[StringRecord]:
    """Return records in canonical order (stable, so ties keep input order)."""
    return sorted(records, key=sort_key)


def probe_record(probe: StringRecord, *, tau: int, index: SegmentIndex,
                 short_pool: Sequence[StringRecord],
                 selector: SubstringSelector, verifier: BaseVerifier,
                 stats: JoinStatistics, max_length: int,
                 allow_same_id: bool = False,
                 trace: "ProbeTrace | None" = None,
                 window_cache: WindowCache | None = None,
                 ) -> list[tuple[StringRecord, int]]:
    """Find indexed (and short-pool) strings similar to ``probe``.

    Runs the match → collect → verify pass for one query.
    ``max_length`` bounds the indexed lengths probed: ``|probe|`` for the
    self join (a partner longer than the probe sorts after it) and
    ``|probe| + τ`` for the R-S join.  Unless ``allow_same_id``, the
    probe's own id is excluded by an integer compare.

    ``trace`` optionally collects a per-indexed-length breakdown for the
    ``explain`` op, which only the searchers run: its figures assume an
    exact-per-pair verifier.  ``window_cache`` optionally resolves
    window plans through a :class:`~repro.core.selection.WindowCache`
    instead of planning ``selector.windows`` per probe; the cache counts
    its own hits.
    """
    text = probe.text
    query_length = len(text)
    excluded_id = None if allow_same_id else probe.id
    matches: list[tuple[StringRecord, int]] = []

    # Strings too short to partition are verified directly.
    checked = 0
    verification_started = time.perf_counter()
    for record in short_pool:
        if (abs(record.length - query_length) > tau
                or record.id == excluded_id):
            continue
        checked += 1
        distance = length_aware_edit_distance(record.text, text, tau, stats)
        if distance <= tau:
            matches.append((record, distance))
    stats.verification_seconds += time.perf_counter() - verification_started
    stats.num_verifications += checked
    if trace is not None:
        trace.short_pool_checked += checked
        trace.short_pool_accepted += len(matches)

    # Match: one key-set test per window of the length pair's plan; look
    # up only the windows that hit.
    per_hit = not verifier.exact_per_pair
    hits: list[Sequence[int]] = []  # hit posting lists, in selection order
    contexts: list[MatchContext] = []  # where each hit matched, if per_hit
    slice_text = text.__getitem__
    layout_of = index.layout
    num_positions = 0
    match_started = time.perf_counter()
    for length in range(max(query_length - tau, 0), max_length + 1):
        segments_by_ordinal = index.length_group(length)
        if segments_by_ordinal is None:
            continue
        plan = (plan_windows(selector.windows(query_length, length,
                                              layout_of(length)))
                if window_cache is None
                else window_cache.plan(query_length, length, layout_of))
        num_positions += plan.num_positions
        first_hit = len(hits)
        for ordinal, slices in plan.steps:
            segments = segments_by_ordinal.get(ordinal)
            if segments is None or segments.keys().isdisjoint(
                    map(slice_text, slices)):
                continue
            if per_hit:
                seg_start = layout_of(length)[ordinal - 1][0]
                for cut in slices:
                    postings = segments.get(text[cut])
                    if postings:
                        hits.append(postings)
                        contexts.append(MatchContext(
                            ordinal=ordinal, probe_start=cut.start,
                            seg_start=seg_start,
                            seg_length=cut.stop - cut.start))
            else:
                hits.extend(filter(None, map(
                    segments.get, map(slice_text, slices))))
        if trace is not None:
            trace.record_length(length, layout_of(length),
                                plan.num_positions, hits[first_hit:])
    stats.selection_seconds += time.perf_counter() - match_started
    stats.num_selected_substrings += num_positions
    stats.num_index_probes += num_positions

    store = index.store
    store_ids = store.ids
    stats.num_postings_scanned += sum(map(len, hits))
    if per_hit:
        # Verify each hit list with where it matched (Section 5.2): a pair
        # rejected through one segment may be accepted through a later
        # one, so only pairs already accepted are dropped.
        found: set[int] = set()
        for postings, context in zip(hits, contexts):
            rows = [row for row in postings
                    if (record_id := store_ids[row]) != excluded_id
                    and record_id not in found]
            stats.num_candidates += len(rows)
            if rows:
                verification_started = time.perf_counter()
                for record, distance in verifier.verify_rows(
                        text, store, rows, context):
                    found.add(record.id)
                    matches.append((record, distance))
                stats.verification_seconds += (
                    time.perf_counter() - verification_started)
    else:
        # Collect: every hit row once, in first-seen order.  No found test:
        # short-pool ids (the only ones found yet) and indexed ids are
        # disjoint, both coming from one side whose ids are unique.
        rows = list(dict.fromkeys(chain.from_iterable(hits)))
        if excluded_id is not None:
            rows = [row for row in rows if store_ids[row] != excluded_id]
        stats.num_candidates += len(rows)
        if rows:
            # Verify once: every candidate row of the probe in one call.
            verification_started = time.perf_counter()
            matches.extend(verifier.verify_rows(text, store, rows, None))
            stats.verification_seconds += (
                time.perf_counter() - verification_started)
    stats.num_accepted += len(matches)
    if trace is not None:
        trace.settle(store_ids, excluded_id,
                     {record.id for record, _ in matches})
    return matches


def probe_many(queries: Sequence[tuple[str, int]], *, index: SegmentIndex,
               short_pool: Sequence[StringRecord],
               selector: SubstringSelector,
               verifier_factory: Callable[[int], BaseVerifier],
               stats: JoinStatistics,
               window_cache: WindowCache | None = None,
               ) -> list[list[tuple[StringRecord, int]]]:
    """Answer a batch of ``(query text, tau)`` searches, one pass each.

    The batch form of :func:`probe_record`, behind ``search_many()``:
    identical ``(query, tau)`` pairs are probed once and their result is
    given to every occurrence; each tau gets one verifier; and the unique
    queries run in ``(length, tau)`` order, so a persistent window cache
    sees each probe length's windows back to back.

    Each result list is element-identical to :func:`probe_record` on that
    query — it *is* that call.  Queries are external probes (no same-id
    exclusion).  Returns one ``(record, distance)`` list per input
    position.
    """
    keys = [(text, tau) for text, tau in queries]
    answers: dict[tuple[str, int], list[tuple[StringRecord, int]]] = (
        dict.fromkeys(keys))
    verifiers = {tau: verifier_factory(tau)
                 for tau in sorted({tau for _, tau in answers})}
    for text, tau in sorted(answers, key=lambda key: (len(key[0]), key[1])):
        answers[text, tau] = probe_record(
            StringRecord(id=-1, text=text), tau=tau, index=index,
            short_pool=short_pool, selector=selector,
            verifier=verifiers[tau], stats=stats,
            max_length=len(text) + tau, allow_same_id=True,
            window_cache=window_cache)
    return [list(answers[key]) for key in keys]
