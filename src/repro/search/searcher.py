"""Build-once / query-many approximate similarity search.

:class:`PassJoinSearcher` indexes a string collection for a maximum
threshold ``max_tau`` with the Pass-Join partition scheme: a query string
``q`` with a per-query threshold ``tau ≤ max_tau`` is answered by probing
the segment indices of every length in ``[|q| − tau, |q| + tau]`` with the
multi-match-aware substring selection and verifying the candidates with
:data:`~repro.config.DEFAULT_VERIFICATION`, all held by the one searcher
class, :class:`Searcher`.  A searcher is built one way, with the even
partition and that verifier; the paper's other partitions and verifiers
are join options (:class:`~repro.config.JoinConfig`).

Why a query threshold below the index threshold stays correct: the index
partitions every string into ``max_tau + 1`` segments.  If
``ed(r, q) ≤ tau ≤ max_tau``, then by the pigeonhole principle (Lemma 1
applied with ``max_tau``) ``q`` contains a substring matching one of ``r``'s
``max_tau + 1`` segments, and the selection windows — computed with the
*index's* ``max_tau`` — cover that substring.  Probing with the smaller
``tau`` only affects the verification bound, never the candidate coverage.

Strings too short to partition are kept in a side pool and verified
against every query that passes the length filter, exactly as in the join
driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..config import DEFAULT_VERIFICATION, validate_threshold
from ..core.engine import probe_many, probe_record
from ..core.index import SegmentIndex
from ..core.partition import can_partition
from ..core.selection import MultiMatchAwareSelector, WindowCache
from ..core.verify import make_verifier
from ..exceptions import InvalidThresholdError
from ..obs.trace import ProbeTrace, build_explain_report
from ..types import JoinStatistics, StringRecord, as_records


def resolve_tau(tau: int | None, max_tau: int) -> int:
    """One query threshold: ``None`` means ``max_tau``, above it is refused.

    The one over-the-limit check of every searcher, the shard router and
    the wire layer, so all of them name the index's limit in the error.
    """
    resolved = max_tau if tau is None else validate_threshold(tau)
    if resolved > max_tau:
        raise InvalidThresholdError(resolved, max_tau)
    return resolved


def resolve_query_taus(queries: Sequence[str],
                       tau: int | Sequence[int | None] | None,
                       max_tau: int) -> list[int]:
    """Resolve a ``search_many`` threshold argument to one tau per query.

    ``tau`` may be a single value applied to every query (``None`` means
    ``max_tau``) or a sequence aligned with ``queries`` whose entries are
    again ints or ``None``.  Every resolved threshold is validated against
    ``max_tau`` — shared by all three batch searchers so their threshold
    semantics cannot drift apart.  A bare ``str`` is refused for either
    argument: it is one query (or no threshold), not a sequence of them;
    so is any query that is not a ``str``, before any probe.
    """
    if isinstance(queries, str):
        raise TypeError("search_many takes a sequence of queries, not a str")
    for query in queries:
        if not isinstance(query, str):
            raise TypeError(f"a query must be a str, got {query!r}")
    if isinstance(tau, str):
        raise TypeError("tau must be an int, None or a sequence of them, "
                        "not a str")
    if tau is None or isinstance(tau, int):
        return [resolve_tau(tau, max_tau)] * len(queries)
    taus = list(tau)
    if len(taus) != len(queries):
        raise ValueError(f"got {len(queries)} queries but {len(taus)} "
                         f"thresholds")
    return [resolve_tau(value, max_tau) for value in taus]


def resolve_top_k(k: int, max_tau: int | None, ceiling: int) -> int:
    """Validate a top-k request; return the threshold it searches at.

    ``k`` must be a positive ``int`` (not a ``bool``).  ``ceiling`` is the
    index's ``max_tau``; a larger ``max_tau`` is clamped to it.  Shared by
    the searchers and the shard router, so a bad ``k`` is refused before
    any probe.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return ceiling if max_tau is None else min(validate_threshold(max_tau),
                                               ceiling)


def length_window(query: str, tau: int) -> tuple[int, int]:
    """Inclusive range of record lengths within ``tau`` edits of ``query``."""
    return max(0, len(query) - tau), len(query) + tau


def any_key_within(counts: Mapping[int, int], lo: int, hi: int) -> bool:
    """True when some live record length of ``counts`` lies in ``[lo, hi]``.

    The length filter every probe applies first: with no live record's
    length inside a query's :func:`length_window` no match is possible, so
    the shard router skips the scatter.
    """
    if hi - lo + 1 > len(counts):
        return any(lo <= key <= hi for key in counts)
    return any(key in counts for key in range(lo, hi + 1))


@dataclass(frozen=True, slots=True, order=True)
class SearchMatch:
    """One search hit: the indexed record's id, text, and distance."""

    distance: int
    id: int
    text: str = ""

    def sort_key(self) -> tuple[int, int]:
        """Canonical result ordering: ``(distance, id)``.

        Record ids are unique within a collection, so this key is total —
        every search and top-k result list is deterministic regardless of
        index build order, posting order, or which process produced it.
        """
        return (self.distance, self.id)

    def to_dict(self) -> dict[str, int | str]:
        """Stable wire representation used by the service protocol."""
        return {"id": self.id, "distance": self.distance, "text": self.text}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SearchMatch":
        """Rebuild a match from :meth:`to_dict` output (wire round-trip).

        Raises ``ValueError`` on malformed payloads so transport code can
        turn them into protocol errors instead of attribute crashes.
        """
        try:
            distance = payload["distance"]
            record_id = payload["id"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed SearchMatch payload: {payload!r}") from exc
        text = payload.get("text", "")
        if (isinstance(distance, bool) or not isinstance(distance, int)
                or isinstance(record_id, bool) or not isinstance(record_id, int)
                or not isinstance(text, str)):
            raise ValueError(f"malformed SearchMatch payload: {payload!r}")
        return cls(distance=distance, id=record_id, text=text)


def ranked_matches(raw: Iterable[tuple[StringRecord, int]],
                   ) -> list[SearchMatch]:
    """A probe's ``(record, distance)`` hits as ``(distance, id)``-sorted
    matches — the canonical result order of every search."""
    return sorted((SearchMatch(distance, record.id, record.text)
                   for record, distance in raw),
                  key=SearchMatch.sort_key)


class Searcher:
    """The Pass-Join pipeline over one mutable index, with its query surface.

    A searcher holds the segment ``index``, the ``selector``, the
    ``short_pool`` of records too short to partition and the plan
    ``window_cache``, and is the one record table: :meth:`record` answers
    by id.  :meth:`probe` / :meth:`probe_many` run the engine's drivers
    over ``index`` as it is at call time.

    :class:`PassJoinSearcher` (a frozen collection) and
    :class:`~repro.service.dynamic.DynamicSearcher` (a mutable one) share
    the constructor and every query method from here; the dynamic one adds
    mutation.  A delete leaves nothing in the index, so a frozen
    collection and a mutable one probe alike.

    Scalar calls are the batch of one: :meth:`search` and
    :meth:`search_top_k` run exactly the code of :meth:`search_many` and
    :meth:`search_top_k_many`, and a top-k search is a threshold search at
    the limit cut to ``k``.
    """

    def __init__(self, records: Sequence[StringRecord], max_tau: int) -> None:
        """Index ``records`` (ids must be unique) for thresholds up to
        ``max_tau``."""
        self.max_tau = validate_threshold(max_tau)
        self.index = SegmentIndex(self.max_tau)
        self.selector = MultiMatchAwareSelector(self.max_tau)
        self.short_pool: dict[int, StringRecord] = {}
        # id -> store row of every indexed record: what record() reads and
        # remove_indexed() purges by.  Joins drive a bare SegmentIndex and
        # never pay for it.
        self._rows: dict[int, int] = {}
        # Persistent probe-plan cache, shared across search /
        # search_many / explain calls and across batches.  Plans are pure
        # in (probe length, indexed-length range) under this searcher's
        # fixed partition threshold and never hold row ordinals, so no
        # write makes one stale; the LRU bound caps the keys of lengths
        # gone cold.
        self.window_cache = WindowCache(self.selector)
        self.statistics = JoinStatistics(num_strings=len(records))
        for record in records:
            if record.id in self:
                # A duplicate would shadow one record and leave the other's
                # postings (or short-pool entry) behind as a ghost.
                raise ValueError(
                    f"duplicate id {record.id} in the initial collection")
            self.statistics.num_indexed_segments += self.add(record)
        self.statistics.index_entries = self.entry_count()
        self.statistics.index_bytes = self.approximate_bytes()

    def add(self, record: StringRecord) -> int:
        """Index ``record`` (or pool it); return the segment entries added."""
        if can_partition(record.length, self.max_tau):
            row = self._rows[record.id] = self.index.store.add(record)
            return self.index.add_row(row)
        self.short_pool[record.id] = record
        return 0

    def record(self, record_id: int) -> StringRecord | None:
        """The record held under ``record_id`` (indexed or pooled), or None."""
        row = self._rows.get(record_id)
        if row is None:
            return self.short_pool.get(record_id)
        return self.index.store.record_at(row)

    def __len__(self) -> int:
        """Number of records held, indexed or pooled."""
        return len(self._rows) + len(self.short_pool)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows or record_id in self.short_pool

    def remove_indexed(self, record: StringRecord) -> int:
        """Remove an indexed record's segments and release its store row;
        return the number of segments removed."""
        row = self._rows.pop(record.id, None)
        return 0 if row is None else self.index.remove(row)

    def entry_count(self) -> int:
        """Segment entries currently stored (postings)."""
        return self.index.current_entry_count

    def approximate_bytes(self) -> int:
        """Approximate bytes of the inverted lists."""
        return self.index.current_approximate_bytes

    def new_verifier(self, tau: int, stats: JoinStatistics) -> Any:
        """The verifier :meth:`probe` uses at ``tau`` (explain reports it)."""
        return make_verifier(DEFAULT_VERIFICATION, tau, stats)

    def probe(self, query: str, tau: int, *, stats: JoinStatistics,
              trace: ProbeTrace | None = None,
              verifier: Any = None) -> list[tuple[StringRecord, int]]:
        """All indexed/pooled records within ``tau`` of ``query``, unranked.

        ``trace`` collects the per-stage explain breakdown; ``verifier``
        overrides the default verifier (the explain path passes the
        instance it will report on).
        """
        if verifier is None:
            verifier = self.new_verifier(tau, stats)
        window_cache = self.window_cache
        hits = window_cache.hits
        matches = probe_record(
            StringRecord(id=-1, text=query), tau=tau, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier=verifier, stats=stats,
            max_length=len(query) + tau, allow_same_id=True, trace=trace,
            window_cache=window_cache)
        stats.num_windows_cache_hits += window_cache.hits - hits
        return matches

    def probe_many(self, queries: Sequence[tuple[str, int]], *,
                   stats: JoinStatistics,
                   verifier_factory: Callable[[int], Any] | None = None,
                   ) -> list[list[tuple[StringRecord, int]]]:
        """Batch :meth:`probe`: one result list per ``(query, tau)`` input.

        ``verifier_factory`` maps a tau to the verifier of its group
        (default: :meth:`new_verifier`).
        """
        if verifier_factory is None:
            def verifier_factory(tau: int) -> Any:
                return self.new_verifier(tau, stats)
        window_cache = self.window_cache
        hits = window_cache.hits
        found = probe_many(
            queries, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier_factory=verifier_factory,
            stats=stats, window_cache=window_cache)
        stats.num_windows_cache_hits += window_cache.hits - hits
        return found

    def _probe(self, queries: Sequence[str], taus: Sequence[int],
               ) -> list[list[SearchMatch]]:
        """One batch pass over the index (validated taus, no result
        counting): a ``(distance, id)``-sorted match list per query."""
        raw = self.probe_many(list(zip(queries, taus)),
                              stats=self.statistics)
        return [ranked_matches(matches) for matches in raw]

    def search(self, query: str, tau: int | None = None) -> list[SearchMatch]:
        """Return every live indexed string within ``tau`` of ``query``.

        ``tau`` defaults to the index's ``max_tau`` and must not exceed it.
        Results are sorted by ``(distance, id)`` — for a mutable searcher,
        identical to a fresh build over the live records.
        """
        return self.search_many([query], [tau])[0]

    def search_many(self, queries: Sequence[str],
                    tau: int | Sequence[int | None] | None = None,
                    ) -> list[list[SearchMatch]]:
        """Answer a batch of queries, one probe pass per unique query.

        ``tau`` is a single threshold for the whole batch or a sequence of
        per-query thresholds (``None`` entries default to ``max_tau``).
        Returns one result list per query, aligned with ``queries``;
        duplicates in the batch are executed once and each tau builds one
        verifier (see :func:`repro.core.engine.probe_many`).
        """
        results = self._probe(queries,
                              resolve_query_taus(queries, tau, self.max_tau))
        self.statistics.num_results += sum(map(len, results))
        return results

    def explain(self, query: str, tau: int | None = None) -> dict[str, Any]:
        """Run one traced probe and return the per-stage funnel breakdown.

        The probe executes the :meth:`search` pipeline, but against a
        *private* :class:`~repro.types.JoinStatistics` (production counters
        stay untouched) and with a :class:`~repro.obs.trace.ProbeTrace`
        observing the engine.  The report (a plain JSON-ready dict) carries the filter
        funnel, a per-indexed-length breakdown with the partition layout and
        selection windows, the verifier kernel and its counters, stage wall
        times, and the matches themselves — ``funnel.accepted`` always
        equals ``num_matches``, which equals what :meth:`search` returns
        for the same arguments.
        """
        (tau,) = resolve_query_taus([query], [tau], self.max_tau)
        stats = JoinStatistics()
        verifier = self.new_verifier(tau, stats)
        trace = ProbeTrace()
        started = time.perf_counter()
        raw = self.probe(query, tau, stats=stats, trace=trace,
                         verifier=verifier)
        total_seconds = time.perf_counter() - started
        matches = ranked_matches(raw)
        return build_explain_report(
            query=query, tau=tau, verifier=verifier, trace=trace,
            stats=stats, matches=matches, total_seconds=total_seconds)

    def search_top_k(self, query: str, k: int,
                     max_tau: int | None = None) -> list[SearchMatch]:
        """Return the ``k`` live indexed strings closest to ``query``.

        Only strings within ``max_tau`` (default, and at most: the index's
        ``max_tau``) are candidates.  Results follow the canonical
        ``(distance, id)`` ordering of :meth:`SearchMatch.sort_key`, so
        ties at the cut-off distance are broken by record id —
        deterministic across processes, index builds, and shards.
        """
        return self.search_top_k_many([query], k, max_tau)[0]

    def search_top_k_many(self, queries: Sequence[str], k: int,
                          max_tau: int | None = None,
                          ) -> list[list[SearchMatch]]:
        """Top-k for a batch: one threshold search at the limit, cut to k.

        A search's matches are sorted by ``(distance, id)``, so its first
        ``k`` are the exact top-k.  ``k`` is validated before any probe;
        ``num_results`` counts the matches returned.
        """
        limit = resolve_top_k(k, max_tau, self.max_tau)
        best = [matches[:k] for matches in self._probe(
            queries, resolve_query_taus(queries, limit, self.max_tau))]
        self.statistics.num_results += sum(map(len, best))
        return best


class PassJoinSearcher(Searcher):
    """Approximate similarity search over a fixed collection.

    Parameters
    ----------
    strings:
        The collection to index (plain strings or
        :class:`~repro.types.StringRecord` objects with caller-chosen ids).
    max_tau:
        Largest edit-distance threshold any future query may use.  Larger values make the index bigger (more signatures
        per string) and individual queries slightly slower, but allow
        looser searches.

    Examples
    --------
    >>> searcher = PassJoinSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
    >>> [match.text for match in searcher.search("vldbj", tau=2)]
    ['vldb', 'pvldb']
    """

    def __init__(self, strings: Iterable[str | StringRecord],
                 max_tau: int) -> None:
        self._records = as_records(strings)
        super().__init__(self._records, max_tau)

    @property
    def records(self) -> Sequence[StringRecord]:
        """The indexed records (in their original order)."""
        return self._records
