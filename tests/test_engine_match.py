"""The planned match step against a plain loop over ``selector.windows``.

``probe_record`` walks each probe length's cached
:class:`~repro.core.selection.ProbePlan` (the distinct slices of every
non-empty window and each window's positions among them) instead of the
windows themselves.  The reference here
is the loop it replaced, written out: every window of
``selector.windows``, every start position, one posting lookup each.  The
plan walk must find the same hit lists in the same order: as the engine
hands them to the trace, in the returned matches' order, in every
:class:`~repro.types.JoinStatistics` counter and in the ``explain``
per-length payloads — under all four
selectors, all three partitions, with and without a window cache, and for
probes shorter than a segment, whose windows clamp to nothing.  No
caller's length window reaches such a segment (``max_length`` is
``|probe|`` or ``|probe| + τ``); the test reaches further to make them.
"""

from itertools import chain

from hypothesis import given, settings, strategies as st

from repro.config import PartitionStrategy, SelectionMethod
from repro.core.engine import probe_record
from repro.core.index import SegmentIndex
from repro.core.selection import WindowCache, make_selector
from repro.core.verify import MatchContext, make_verifier
from repro.obs.trace import ProbeTrace
from repro.types import JoinStatistics, StringRecord, as_records

TIME_FIELDS = ("selection_seconds", "verification_seconds",
               "indexing_seconds", "total_seconds")

TEXTS = st.text(alphabet="abc", max_size=14)


@st.composite
def probe_and_collection(draw):
    """A probe text and up to 12 strings, about half of them a few edits
    from the probe, so one length often has several windows that hit."""
    probe = draw(st.text(alphabet="abc", max_size=16))
    strings = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            strings.append(draw(TEXTS))
            continue
        text = probe
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text)))
            text = (text[:at] + draw(st.text(alphabet="abc", max_size=1))
                    + text[at + draw(st.integers(0, 1)):])
        strings.append(text)
    return probe, strings


def counters(stats):
    return {name: value for name, value in stats.as_dict().items()
            if name not in TIME_FIELDS}


def found(matches):
    return [(record.id, distance) for record, distance in matches]


class HitRecorder(ProbeTrace):
    """A trace that also keeps the hit lists of every length, as rows."""

    def __init__(self):
        super().__init__()
        self.hit_rows = []

    def record_length(self, length, layout, num_selections, hit_lists):
        self.hit_rows.append((length, [list(postings)
                                       for postings in hit_lists]))
        super().record_length(length, layout, num_selections, hit_lists)


def reference_match(text, tau, max_length, index, selector):
    """``(length, layout, positions, hit lists, contexts)`` per length."""
    visited = []
    for length in range(max(len(text) - tau, 0), max_length + 1):
        group = index.length_group(length)
        if group is None:
            continue
        layout = index.layout(length)
        positions = 0
        hits, contexts = [], []
        for window in selector.windows(len(text), length, layout):
            positions += window.size
            segments = group.get(window.ordinal)
            if segments is None:
                continue
            for start in range(window.lo, window.hi + 1):
                postings = segments.get(
                    text[start:start + window.seg_length])
                if postings:
                    hits.append(postings)
                    contexts.append(MatchContext(
                        ordinal=window.ordinal, probe_start=start,
                        seg_start=window.seg_start,
                        seg_length=window.seg_length))
        visited.append((length, layout, positions, hits, contexts))
    return visited


def reference_probe(probe, tau, max_length, index, selector, verification,
                    excluded_id):
    """What ``probe_record`` must return, count and trace (no short pool)."""
    stats = JoinStatistics()
    verifier = make_verifier(verification, tau, stats)
    visited = reference_match(probe.text, tau, max_length, index, selector)
    positions = sum(entry[2] for entry in visited)
    stats.num_selected_substrings = stats.num_index_probes = positions
    hits = [postings for entry in visited for postings in entry[3]]
    contexts = [context for entry in visited for context in entry[4]]
    stats.num_postings_scanned = sum(map(len, hits))
    store, store_ids = index.store, index.store.ids
    matches = []
    if verifier.exact_per_pair:
        rows = [row for row in dict.fromkeys(chain.from_iterable(hits))
                if store_ids[row] != excluded_id]
        stats.num_candidates = len(rows)
        matches = verifier.verify_rows(probe.text, store, rows, None)
    else:
        accepted = set()
        for postings, context in zip(hits, contexts):
            rows = [row for row in postings
                    if store_ids[row] != excluded_id
                    and store_ids[row] not in accepted]
            stats.num_candidates += len(rows)
            if rows:
                for record, distance in verifier.verify_rows(
                        probe.text, store, rows, context):
                    accepted.add(record.id)
                    matches.append((record, distance))
    stats.num_accepted = len(matches)
    trace = HitRecorder()
    for length, layout, length_positions, length_hits, _ in visited:
        trace.record_length(length, layout, length_positions, length_hits)
    trace.settle(store_ids, excluded_id,
                 {record.id for record, _ in matches})
    return (trace.hit_rows, found(matches), counters(stats),
            trace.length_payloads())


@settings(max_examples=400, deadline=None)
@given(drawn=probe_and_collection(),
       tau=st.integers(0, 4), query_tau=st.integers(0, 4),
       method=st.sampled_from(list(SelectionMethod)),
       strategy=st.sampled_from(list(PartitionStrategy)),
       verification=st.sampled_from(["myers-batch", "extension",
                                    "share-prefix"]),
       probe_is_indexed=st.booleans(), reach=st.integers(0, 8),
       cached=st.booleans())
def test_plan_walk_matches_window_loop(drawn, tau, query_tau, method,
                                       strategy, verification,
                                       probe_is_indexed, reach, cached):
    probe_text, strings = drawn
    query_tau = min(query_tau, tau)  # the index's tau bounds a query's
    records = as_records(strings)
    index = SegmentIndex(tau, strategy)
    for record in records:
        index.add(record)
    selector = make_selector(method, tau)
    if probe_is_indexed and records:
        # A probe that is itself indexed: its own id is excluded.
        probe, allow_same_id = records[len(probe_text) % len(records)], False
    else:
        probe, allow_same_id = StringRecord(id=-1, text=probe_text), True
    max_length = probe.length + reach
    expected = reference_probe(probe, query_tau, max_length, index, selector,
                               verification,
                               None if allow_same_id else probe.id)
    window_cache = WindowCache(selector) if cached else None
    # With a cache the second run walks the plans the first one cached.
    for _ in range(2 if cached else 1):
        stats = JoinStatistics()
        trace = HitRecorder()
        matches = probe_record(
            probe, tau=query_tau, index=index, short_pool=[],
            selector=selector,
            verifier=make_verifier(verification, query_tau, stats),
            stats=stats, max_length=max_length, allow_same_id=allow_same_id,
            trace=trace, window_cache=window_cache)
        assert (trace.hit_rows, found(matches), counters(stats),
                trace.length_payloads()) == expected
    if cached:
        assert window_cache.hits == window_cache.misses == len(expected[0])

