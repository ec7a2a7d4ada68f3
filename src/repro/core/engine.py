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

1. **Match** — per indexed length and segment ordinal, the substrings the
   selection window (Section 4) picks are tested against that ordinal's
   segment dictionary *as a set*: one ``dict_keys.isdisjoint`` call, in C,
   per window.  Most windows miss outright; only a window that hits is
   looked up, in selection order, and its posting lists are kept.
2. **Collect** — with an exact-per-pair verifier (the default batched
   Myers and every whole-string kernel) the hit lists are deduplicated in
   C, in first-seen order, so a :class:`~repro.types.StringRecord` is only
   materialised for rows the verifier accepts.
3. **Verify** — that verifier gets the probe's candidate rows in **one**
   ``verify_rows`` call.  The paper's extension verifiers decide a pair
   relative to the matching segment, so they verify each hit list on its
   own, with its :class:`~repro.core.verify.MatchContext`.

Selection windows resolve through a :class:`~repro.core.selection.WindowCache`
when the caller passes one (the join's span-local cache, a searcher's
persistent one); ``selection_seconds`` times the whole match step.
"""

from __future__ import annotations

import time
from itertools import chain
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
    ``explain`` op.  ``window_cache`` optionally resolves selection windows
    through a :class:`~repro.core.selection.WindowCache` instead of
    calling ``selector.windows`` per probe; the cache counts its own hits.
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

    # Match: one key-set test per window; look up only the windows that hit.
    per_hit = not verifier.exact_per_pair
    hits: list[Sequence[int]] = []  # hit posting lists, in selection order
    contexts: list[MatchContext] = []  # where each hit matched, if per_hit
    for length in range(max(query_length - tau, 0), max_length + 1):
        segments_by_ordinal = index.length_group(length)
        if segments_by_ordinal is None:
            continue
        layout = index.layout(length)
        match_started = time.perf_counter()
        windows = (selector.windows(query_length, length, layout)
                   if window_cache is None
                   else window_cache.windows(query_length, length, layout))
        first_hit = len(hits)
        num_positions = 0
        for ordinal, seg_start, seg_length, lo, hi in windows:
            if hi < lo:
                continue
            num_positions += hi + 1 - lo
            segments = segments_by_ordinal.get(ordinal)
            if segments is None:
                continue
            substrings = [text[start:start + seg_length]
                          for start in range(lo, hi + 1)]
            if segments.keys().isdisjoint(substrings):
                continue
            if not per_hit:
                hits.extend(filter(None, map(segments.get, substrings)))
                continue
            for start, substring in enumerate(substrings, lo):
                postings = segments.get(substring)
                if postings:
                    hits.append(postings)
                    contexts.append(MatchContext(
                        ordinal=ordinal, probe_start=start,
                        seg_start=seg_start, seg_length=seg_length))
        stats.selection_seconds += time.perf_counter() - match_started
        stats.num_selected_substrings += num_positions
        stats.num_index_probes += num_positions
        if trace is not None:
            trace.record_length(length, layout, num_positions,
                                hits[first_hit:])

    store = index.store
    store_ids = store.ids
    stats.num_postings_scanned += sum(map(len, hits))
    if per_hit:
        # Verify each hit list with where it matched (Section 5.2): a pair
        # rejected through one segment may be accepted through a later
        # one, so only pairs already accepted are dropped.  ``found`` maps
        # an accepted id to its hit list's number, for the trace.
        found: dict[int, int] = {}
        verifications: list[int] = []
        for number, (postings, context) in enumerate(zip(hits, contexts)):
            rows = [row for row in postings
                    if (record_id := store_ids[row]) != excluded_id
                    and record_id not in found]
            stats.num_candidates += len(rows)
            verifications_before = stats.num_verifications
            if rows:
                verification_started = time.perf_counter()
                for record, distance in verifier.verify_rows(
                        text, store, rows, context):
                    found[record.id] = number
                    matches.append((record, distance))
                stats.verification_seconds += (
                    time.perf_counter() - verification_started)
            verifications.append(
                stats.num_verifications - verifications_before)
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
        if per_hit:
            trace.settle(store_ids, excluded_id, found, verifications)
        else:
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
