"""Build-once / query-many approximate similarity search.

:class:`PassJoinSearcher` indexes a string collection for a maximum
threshold ``max_tau`` under a pluggable
:class:`~repro.core.kernel.SimilarityKernel`.  With the default
``edit-distance`` kernel this is the Pass-Join partition scheme: a query
string ``q`` with a per-query threshold ``tau ≤ max_tau`` is answered by
probing the segment indices of every length in ``[|q| − tau, |q| + tau]``
with the multi-match-aware substring selection and a pluggable
verification kernel (:data:`~repro.config.DEFAULT_VERIFICATION` by default;
see :class:`~repro.config.VerificationMethod` for the alternatives).  The
``token-jaccard`` kernel answers the same surface with prefix-filter
signatures over token sets instead (see :mod:`repro.core.kernel`).

Why a query threshold below the index threshold stays correct: the index
partitions every string into ``max_tau + 1`` segments.  If
``ed(r, q) ≤ tau ≤ max_tau``, then by the pigeonhole principle (Lemma 1
applied with ``max_tau``) ``q`` contains a substring matching one of ``r``'s
``max_tau + 1`` segments, and the selection windows — computed with the
*index's* ``max_tau`` — cover that substring.  Probing with the smaller
``tau`` only affects the verification bound, never the candidate coverage.
(The token-jaccard analogue: index prefixes are sized for the loosest
similarity ``max_tau`` admits, so tighter query thresholds only shorten
the *query* prefix.)

Strings the kernel cannot index (too short to partition; token-less) are
kept in a side pool and verified against every query that passes the
length filter, exactly as in the join driver.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..config import (DEFAULT_VERIFICATION, PartitionStrategy,
                      VerificationMethod, validate_threshold)
from ..core.engine import Accept, sort_records
from ..core.kernel import (KernelBackend, SimilarityKernel,
                           check_batch_kernels, resolve_kernel)
from ..exceptions import InvalidThresholdError
from ..obs.trace import ProbeTrace, build_explain_report
from ..types import JoinStatistics, StringRecord, as_records


def resolve_query_taus(queries: Sequence[str],
                       tau: int | Sequence[int | None] | None,
                       max_tau: int) -> list[int]:
    """Resolve a ``search_many`` threshold argument to one tau per query.

    ``tau`` may be a single value applied to every query (``None`` means
    ``max_tau``) or a sequence aligned with ``queries`` whose entries are
    again ints or ``None``.  Every resolved threshold is validated against
    ``max_tau`` — shared by all three batch searchers so their threshold
    semantics cannot drift apart.
    """
    def resolve_one(value: int | None) -> int:
        resolved = max_tau if value is None else validate_threshold(value)
        if resolved > max_tau:
            raise InvalidThresholdError(resolved)
        return resolved

    if tau is None or isinstance(tau, int):
        return [resolve_one(tau)] * len(queries)
    taus = list(tau)
    if len(taus) != len(queries):
        raise ValueError(f"got {len(queries)} queries but {len(taus)} "
                         f"thresholds")
    return [resolve_one(value) for value in taus]


def resolve_top_k(kernel: SimilarityKernel, k: int, max_tau: int | None,
                  ceiling: int,
                  batch_kernel: "str | Sequence[str | None] | None" = None,
                  ) -> int:
    """Validate a top-k request; return the threshold widening may reach.

    ``ceiling`` is the index's ``max_tau``; a larger ``max_tau`` is clamped
    to it.  Shared by the searchers and the shard router.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    check_batch_kernels(kernel, batch_kernel)
    return ceiling if max_tau is None else min(kernel.validate_tau(max_tau),
                                               ceiling)


def any_key_within(counts: Mapping[int, int], lo: int, hi: int) -> bool:
    """True when some live partition key of ``counts`` lies in ``[lo, hi]``.

    The key filter every probe applies first: with no live record's key
    (length; token count) inside a query's window no match is possible, so
    top-k widening skips the round and the router skips the scatter.
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
    """A backend's ``(record, distance)`` hits as ``(distance, id)``-sorted
    matches — the canonical result order of every search."""
    return sorted((SearchMatch(distance, record.id, record.text)
                   for record, distance in raw),
                  key=SearchMatch.sort_key)


class KernelSearcher:
    """The query surface over one kernel backend, written once.

    :class:`PassJoinSearcher` (a frozen collection) and
    :class:`~repro.service.dynamic.DynamicSearcher` (a mutable one) own
    construction and mutation and share every query method from here.  A
    frozen collection is the no-tombstone case of the mutable one, so the
    only things a subclass provides besides ``kernel`` / ``max_tau`` /
    ``statistics`` / ``_backend`` are ``_tombstones`` (records still in the
    index but logically gone — always empty when frozen), ``_length_counts``
    (live partition key → live record count) and ``__len__`` (live count).

    Scalar calls are the batch of one: :meth:`search` and
    :meth:`search_top_k` run exactly the code of :meth:`search_many` and
    :meth:`search_top_k_many`.
    """

    kernel: SimilarityKernel
    max_tau: int
    statistics: JoinStatistics
    _backend: KernelBackend
    _tombstones: Mapping[int, StringRecord]
    _length_counts: Mapping[int, int]

    @property
    def _index(self):
        """The backend's signature index (edit-distance kernel only)."""
        return self._backend.index

    @property
    def _selector(self):
        """The backend's substring selector (edit-distance kernel only)."""
        return self._backend.selector

    def _accept(self, exclude: "Mapping[int, SearchMatch] | None" = None,
                ) -> Accept | None:
        """The candidate-id predicate of one probe (``None``: accept all).

        Rejects tombstoned ids and, for top-k widening, the ids in
        ``exclude`` — earlier rounds' hits, whose distance is already
        known and must not be verified again.
        """
        tombstones = self._tombstones
        if not tombstones and not exclude:
            return None
        if not exclude:
            return lambda record_id: record_id not in tombstones
        return lambda record_id: (record_id not in tombstones
                                  and record_id not in exclude)

    def _probe(self, queries: Sequence[str], taus: Sequence[int],
               excludes: "Sequence[Mapping[int, SearchMatch]] | None" = None,
               ) -> list[list[SearchMatch]]:
        """One batch pass over the backend (validated taus, no result
        counting): a ``(distance, id)``-sorted match list per query."""
        accept = (self._accept() if excludes is None
                  else [self._accept(exclude) for exclude in excludes])
        raw = self._backend.probe_many(list(zip(queries, taus)),
                                       stats=self.statistics, accept=accept)
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
                    kernel: "str | Sequence[str | None] | None" = None,
                    ) -> list[list[SearchMatch]]:
        """Answer a batch of queries in one grouped index pass.

        ``tau`` is a single threshold for the whole batch or a sequence of
        per-query thresholds (``None`` entries default to ``max_tau``).
        Returns one result list per query, aligned with ``queries``;
        duplicates in the batch are executed once and (for the
        edit-distance kernel) queries of one shape share their selection
        and posting scans (see :func:`repro.core.engine.probe_many`).
        ``kernel`` (scalar or per-query) must name this searcher's kernel;
        a batch naming two different kernels is rejected (see
        :func:`repro.core.kernel.check_batch_kernels`).
        """
        check_batch_kernels(self.kernel, kernel)
        results = self._probe(queries,
                              resolve_query_taus(queries, tau, self.max_tau))
        self.statistics.num_results += sum(map(len, results))
        return results

    def explain(self, query: str, tau: int | None = None) -> dict[str, Any]:
        """Run one traced probe and return the per-stage funnel breakdown.

        The probe executes the :meth:`search` pipeline — including the
        tombstone filter, whose rejections show up as ``filtered_excluded``
        in the per-length entries — but against a *private*
        :class:`~repro.types.JoinStatistics` (production counters stay
        untouched) and with a :class:`~repro.obs.trace.ProbeTrace` observing
        the engine.  The report (a plain JSON-ready dict) carries the filter
        funnel, a per-indexed-length breakdown with the partition layout and
        selection windows, the verifier kernel and its counters, stage wall
        times, and the matches themselves — ``funnel.accepted`` always
        equals ``num_matches``, which equals what :meth:`search` returns
        for the same arguments.
        """
        (tau,) = resolve_query_taus([query], [tau], self.max_tau)
        stats = JoinStatistics()
        verifier = self._backend.new_verifier(tau, stats)
        trace = ProbeTrace()
        started = time.perf_counter()
        raw = self._backend.probe(query, tau, stats=stats,
                                  accept=self._accept(), trace=trace,
                                  verifier=verifier)
        total_seconds = time.perf_counter() - started
        matches = ranked_matches(raw)
        return build_explain_report(
            query=query, tau=tau, verifier=verifier, trace=trace,
            stats=stats, matches=matches, total_seconds=total_seconds)

    def search_top_k(self, query: str, k: int,
                     max_tau: int | None = None) -> list[SearchMatch]:
        """Return the ``k`` live indexed strings closest to ``query``.

        The threshold is grown from 0 upwards (see
        :meth:`search_top_k_many`) until ``k`` matches are found or
        ``max_tau`` (default: the index's ``max_tau``) is reached.  Results
        follow the canonical ``(distance, id)`` ordering of
        :meth:`SearchMatch.sort_key`, so ties at the cut-off distance are
        broken by record id — deterministic across processes, index
        builds, and serving replicas.
        """
        return self.search_top_k_many([query], k, max_tau)[0]

    def search_top_k_many(self, queries: Sequence[str], k: int,
                          max_tau: int | None = None,
                          kernel: "str | Sequence[str | None] | None" = None,
                          ) -> list[list[SearchMatch]]:
        """Top-k for a batch: widen tau in lockstep across the queries.

        Each round is one batch pass at ``tau`` over the queries that still
        need matches, and it is incremental: earlier rounds' hits carry
        over and are excluded from the probe (a round at ``tau`` can only
        add matches at distance exactly ``tau``), a query retires once it
        has ``k`` matches or has matched every live record, and a round no
        live partition key can serve is skipped for that query.  Duplicate
        queries widen once; ``num_results`` counts the matches returned,
        not every round's.
        """
        limit = resolve_top_k(self.kernel, k, max_tau, self.max_tau, kernel)
        needed = min(k, len(self))
        found: dict[str, dict[int, SearchMatch]] = {
            query: {} for query in queries}
        for tau in range(0, limit + 1):
            active = [query for query, hits in found.items()
                      if len(hits) < needed]
            if not active:
                break
            members = [query for query in active
                       if any_key_within(
                           self._length_counts,
                           *self.kernel.probe_key_range(query, tau))]
            if not members:
                continue
            rounds = self._probe(members, [tau] * len(members),
                                 [found[query] for query in members])
            for query, matches in zip(members, rounds):
                found[query].update((match.id, match) for match in matches)
        best = {query: sorted(hits.values(), key=SearchMatch.sort_key)[:k]
                for query, hits in found.items()}
        self.statistics.num_results += sum(len(best[query])
                                           for query in queries)
        return [list(best[query]) for query in queries]


class PassJoinSearcher(KernelSearcher):
    """Approximate similarity search over a fixed collection.

    Parameters
    ----------
    strings:
        The collection to index (plain strings or
        :class:`~repro.types.StringRecord` objects with caller-chosen ids).
    max_tau:
        Largest threshold any future query may use, under the kernel's
        semantics.  Larger values make the index bigger (more signatures
        per string) and individual queries slightly slower, but allow
        looser searches.
    partition:
        Partition strategy for the edit-distance kernel (the paper's even
        scheme by default).
    verification:
        Verification kernel used by the edit-distance kernel to check
        candidates (a :class:`~repro.config.VerificationMethod` or its
        string name).  Defaults to
        :data:`~repro.config.DEFAULT_VERIFICATION`.
    kernel:
        Similarity kernel — a registered name or a
        :class:`~repro.core.kernel.SimilarityKernel` instance; defaults
        to ``edit-distance``.

    Examples
    --------
    >>> searcher = PassJoinSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
    >>> [match.text for match in searcher.search("vldbj", tau=2)]
    ['vldb', 'pvldb']
    """

    def __init__(self, strings: Iterable[str | StringRecord], max_tau: int,
                 partition: PartitionStrategy = PartitionStrategy.EVEN,
                 verification: VerificationMethod | str =
                 DEFAULT_VERIFICATION,
                 kernel: str | SimilarityKernel | None = None) -> None:
        self.kernel = resolve_kernel(kernel)
        self.max_tau = self.kernel.validate_tau(max_tau)
        self.verification = (verification
                            if isinstance(verification, VerificationMethod)
                            else VerificationMethod(str(verification)))
        self.statistics = JoinStatistics()
        self._records = as_records(strings)
        self.statistics.num_strings = len(self._records)
        self._backend = self.kernel.make_backend(
            self.max_tau, partition=partition, verification=self.verification,
            seed=self._records)
        for record in sort_records(self._records):
            self.statistics.num_indexed_segments += self._backend.add(record)
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()
        self._tombstones: dict[int, StringRecord] = {}  # frozen: never any
        self._length_counts = Counter(self.kernel.record_key(record.text)
                                      for record in self._records)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[StringRecord]:
        """The indexed records (in their original order)."""
        return self._records

    # ------------------------------------------------------------------
    def contains_within(self, query: str, tau: int | None = None) -> bool:
        """True when at least one indexed string is within ``tau`` of ``query``."""
        return bool(self.search(query, tau))


def search_all(strings: Iterable[str | StringRecord],
               queries: Sequence[str], tau: int) -> dict[str, list[SearchMatch]]:
    """Index ``strings`` once and search every query at threshold ``tau``."""
    searcher = PassJoinSearcher(strings, max_tau=tau)
    return {query: searcher.search(query, tau) for query in queries}


def iter_matches(searcher: PassJoinSearcher, queries: Iterable[str],
                 tau: int | None = None) -> Iterator[tuple[str, SearchMatch]]:
    """Yield ``(query, match)`` pairs for a stream of queries (lazy batch search)."""
    for query in queries:
        for match in searcher.search(query, tau):
            yield query, match
