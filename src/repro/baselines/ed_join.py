"""ED-Join: location-based and content-based mismatch filtering.

ED-Join (Xiao, Wang, Lin — PVLDB 2008) is q-gram prefix filtering:

1. Compute a global gram ordering (ascending document frequency).
2. Visit strings in (length, text) order.  For the current string, probe a
   positional inverted index over the grams of the already-visited strings
   with the current string's probing prefix, applying the length and
   positional filters.
3. Apply the count filter and the content filter, then verify survivors
   with the bounded edit-distance kernel.
4. Add all of the current string's positional grams to the index.

Indexing *all* grams of visited strings (rather than only their prefixes)
makes the correctness argument direct — if ``ed(s, r) ≤ τ`` then at least
one gram of ``s``'s probing prefix survives in ``r`` at a position shifted
by at most ``τ``, so probing that gram finds ``r`` — at the price of a
larger index, which is consistent with the index sizes the paper reports
for the gram-based methods in Table 3.

ED-Join improves plain prefix filtering in two ways, both reproduced here:

Location-based mismatch filtering
    Destroying a *set* of positional q-grams may require far fewer edit
    operations than one per gram, because one operation can destroy up to
    ``q`` overlapping grams.  ``min_edit_errors`` computes the minimum
    number of operations needed to destroy a gram set (a greedy sweep over
    gram positions).  The probing prefix can therefore be shortened to the
    smallest prefix whose destruction already requires ``τ + 1`` operations
    — often much shorter than ``q·τ + 1`` grams, which shrinks both the
    index probes and the candidate set.

Content-based mismatch filtering
    Before verification, the pair is screened with a character-frequency
    histogram bound: every edit operation changes the histogram by an L1
    mass of at most 2, so ``ed(a, b) ≥ ⌈L1(freq(a), freq(b)) / 2⌉``.  The
    original paper applies the bound to the mismatching regions; applying
    it to the whole strings is a sound (slightly weaker) variant.

Strings whose grams cannot support a sound prefix (``prefix_grams`` returns
``None``: very short strings or large thresholds) are joined by direct
verification within the length window; this keeps the join complete on
arbitrary inputs and mirrors the known weakness of q-gram methods on short
strings.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from ..config import validate_threshold
from ..distance.banded import length_aware_edit_distance
from ..filters.content_filter import content_filter_passes
from ..filters.count_filter import minimum_shared_grams, shared_gram_count
from ..types import (JoinResult, JoinStatistics, SimilarPair, StringRecord,
                     as_records, normalise_pair)
from .qgram import (PositionalGram, gram_document_frequencies, order_grams,
                    positional_qgrams, qgrams)


def min_edit_errors(grams: Sequence[PositionalGram], q: int) -> int:
    """Minimum number of edit operations destroying every gram in ``grams``.

    Greedy interval argument: sort the grams by start position; an edit
    operation placed at the last character of the earliest not-yet-destroyed
    gram destroys every gram overlapping that character, i.e. every gram
    starting within the next ``q - 1`` positions.

    >>> from repro.baselines.qgram import positional_qgrams
    >>> min_edit_errors(positional_qgrams("abcdefgh", 2), 2)
    4
    """
    count = 0
    covered_until = -1
    for gram, position in sorted(grams, key=lambda pg: pg.position):
        if position > covered_until:
            count += 1
            covered_until = position + q - 1
    return count


class EdJoin:
    """ED-Join with location-based prefixes and the content filter."""

    #: Human-readable algorithm name (used by the benchmark reports).
    name = "ed-join"

    def __init__(self, tau: int, q: int = 3) -> None:
        self.tau = validate_threshold(tau)
        if q <= 0:
            raise ValueError(f"gram length q must be positive, got {q}")
        self.q = q

    def prefix_grams(self, ordered: Sequence[PositionalGram]
                     ) -> list[PositionalGram] | None:
        """Shortest prefix requiring more than ``τ`` edits to destroy.

        Returns ``None`` when even the full gram set can be destroyed with
        ``τ`` or fewer operations — such strings cannot be filtered by
        q-grams at this threshold and fall back to direct verification.
        """
        if min_edit_errors(ordered, self.q) <= self.tau:
            return None
        prefix: list[PositionalGram] = []
        for gram in ordered:
            prefix.append(gram)
            if min_edit_errors(prefix, self.q) > self.tau:
                return prefix
        return list(ordered)

    def self_join(self, strings: Iterable[str | StringRecord]) -> JoinResult:
        """Find every similar pair inside one collection."""
        records = as_records(strings)
        stats = JoinStatistics(num_strings=len(records))
        started = time.perf_counter()
        pairs = self._self_join(records, stats)
        stats.total_seconds = time.perf_counter() - started
        stats.num_results = len(pairs)
        return JoinResult(pairs=pairs, statistics=stats)

    def _self_join(self, records: Sequence[StringRecord],
                   stats: JoinStatistics) -> list[SimilarPair]:
        tau, q = self.tau, self.q
        ordered_records = sorted(records, key=lambda record: (record.length, record.text))

        indexing_started = time.perf_counter()
        frequencies = gram_document_frequencies(
            (record.text for record in ordered_records), q)
        stats.indexing_seconds += time.perf_counter() - indexing_started

        # gram -> list of (record, gram position); holds every gram of every
        # visited string.
        index: dict[str, list[tuple[StringRecord, int]]] = {}
        # All visited records grouped by length, for unfiltered probes.
        visited_by_length: dict[int, list[StringRecord]] = {}
        # Cached full gram lists of visited strings, for the count filter.
        gram_cache: dict[int, list[str]] = {}
        pairs: list[SimilarPair] = []

        for probe in ordered_records:
            probe_grams = qgrams(probe.text, q)
            positional = positional_qgrams(probe.text, q)

            selection_started = time.perf_counter()
            ordered_grams = order_grams(positional, frequencies)
            prefix = self.prefix_grams(ordered_grams)
            stats.selection_seconds += time.perf_counter() - selection_started

            candidates: dict[int, StringRecord] = {}
            if prefix is None:
                # No sound prefix: compare against every visited string in
                # the length window.
                for length in range(probe.length - tau, probe.length + tau + 1):
                    for record in visited_by_length.get(length, ()):
                        candidates[record.id] = record
            else:
                stats.num_selected_substrings += len(prefix)
                for gram, position in prefix:
                    stats.num_index_probes += 1
                    for record, record_position in index.get(gram, ()):
                        if record.id in candidates:
                            continue
                        if abs(record.length - probe.length) > tau:
                            continue
                        if abs(record_position - position) > tau:
                            continue
                        candidates[record.id] = record

            stats.num_candidates += len(candidates)
            verification_started = time.perf_counter()
            for record in candidates.values():
                needed = minimum_shared_grams(probe.length, record.length, q, tau)
                if needed > 0:
                    shared = shared_gram_count(probe_grams, gram_cache[record.id])
                    if shared < needed:
                        continue
                if not content_filter_passes(probe.text, record.text, tau):
                    continue
                stats.num_verifications += 1
                distance = length_aware_edit_distance(record.text, probe.text,
                                                      tau, stats)
                if distance <= tau:
                    pairs.append(normalise_pair(probe.id, record.id, distance,
                                                probe.text, record.text))
            stats.verification_seconds += time.perf_counter() - verification_started

            indexing_started = time.perf_counter()
            for gram, position in positional:
                index.setdefault(gram, []).append((probe, position))
                stats.index_entries += 1
            gram_cache[probe.id] = probe_grams
            visited_by_length.setdefault(probe.length, []).append(probe)
            stats.indexing_seconds += time.perf_counter() - indexing_started

        stats.index_bytes = self._approximate_index_bytes(index)
        return pairs

    @staticmethod
    def _approximate_index_bytes(index: dict[str, list[tuple[StringRecord, int]]]) -> int:
        """Approximate index footprint: gram keys plus 16 bytes per posting."""
        total = 0
        for gram, postings in index.items():
            total += len(gram.encode("utf-8", errors="replace"))
            total += 16 * len(postings)
        return total


def ed_join(strings: Iterable[str | StringRecord], tau: int, q: int = 3) -> JoinResult:
    """Convenience wrapper: ED-Join self join."""
    return EdJoin(tau, q).self_join(strings)
