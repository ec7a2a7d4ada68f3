"""Pluggable similarity kernels behind one probe pipeline.

Every searcher in this library — static, dynamic, sharded — runs the same
three-phase pipeline: *signature generation* when a record is indexed,
*probe generation* when a query arrives, and *verification* of the
candidates the signatures let through.  Historically all three phases were
welded to edit distance (partition segments, multi-match-aware substring
selection, extension verification).  This module extracts them into a
:class:`SimilarityKernel` interface so the serving stack above — dynamic
index, query cache, request batcher, shard router, live resharding,
explain traces — is similarity-agnostic, and registers two kernels:

``edit-distance``
    The Pass-Join pipeline, delegated unchanged to
    :func:`repro.core.engine.probe_record` / :func:`~repro.core.engine.probe_many`
    over a :class:`~repro.core.index.SegmentIndex`.  Results are
    element-identical to the pre-kernel code paths; ``tau`` is an
    edit-distance bound.

``token-jaccard``
    A prefix-filter set-similarity pipeline in the style of the
    signature-scheme literature (Schmitt et al., PVLDB'23): records are
    whitespace-tokenized into sets, tokens are totally ordered by
    ascending frequency in the seed collection (rare first), and each
    record is indexed under the first ``|r| − ⌈t_min·|r|⌉ + 1`` tokens of
    its sorted set, where ``t_min`` is the loosest Jaccard similarity the
    index must answer.  ``tau`` is a *scaled Jaccard distance*: a record
    matches when ``⌈100·(1 − J(q, r))⌉ ≤ tau``, i.e. ``tau = 20`` means
    Jaccard similarity at least ``0.8``; valid thresholds are
    ``0 ≤ tau < 100``.

Completeness of the token-jaccard filters: ``J(q, r) ≥ t`` implies
``|q ∩ r| ≥ t·|union| ≥ ⌈t·max(|q|, |r|)⌉ =: α`` (the intersection is an
integer), and by the standard prefix-filter theorem two sets sharing ``α``
elements under a fixed total order intersect within their first
``|·| − α + 1`` tokens.  The query probes its first
``|q| − ⌈t·|q|⌉ + 1 ≥ |q| − α + 1`` tokens and every record is indexed
under its first ``|r| − ⌈t_min·|r|⌉ + 1 ≥ |r| − α + 1`` tokens (because
``t_min ≤ t``), so every true match is found; the size filter
``⌈t·|q|⌉ ≤ |r| ≤ ⌊|q|/t⌋`` is implied by the same bound.  Any fixed
total order is correct — frequency ordering is purely a selectivity
heuristic — so per-shard indices may rank tokens differently and still
merge exactly.

A kernel also owns the *partition key* the sharded tier places and routes
by (record length for edit distance, token-set size for Jaccard) and the
per-query key window a probe can touch, which is what lets length-band
placement prune shards for both kernels.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import Counter, OrderedDict
from itertools import chain
from typing import (TYPE_CHECKING, Any, Callable, Collection, Iterator,
                    Sequence)

from ..config import (DEFAULT_VERIFICATION, KERNELS, PartitionStrategy,
                      VerificationMethod, validate_threshold)
from ..exceptions import (ConfigurationError, InvalidThresholdError,
                          UnknownMethodError)
from ..types import JoinStatistics, StringRecord
from .engine import dedupe_batch, probe_many, probe_record
from .index import SegmentIndex
from .partition import can_partition
from .selection import MultiMatchAwareSelector, WindowCache
from .verify import make_verifier

if TYPE_CHECKING:
    from ..obs.trace import ProbeTrace

#: The kernel every searcher uses when none is named.
DEFAULT_KERNEL = "edit-distance"

#: Fixed-point scale of the ``token-jaccard`` distance: ``tau`` counts
#: hundredths of Jaccard *distance*, so ``tau = 20`` accepts pairs with
#: Jaccard similarity ``>= 0.80`` and valid thresholds are ``[0, 100)``.
JACCARD_SCALE = 100


def tokenize(text: str) -> frozenset[str]:
    """The token set of ``text``: whitespace-split, duplicates collapsed."""
    return frozenset(text.split())


def token_jaccard_distance(left: str | Collection[str],
                           right: str | Collection[str]) -> int:
    """Scaled Jaccard distance ``ceil(100 · (1 − J(left, right)))``.

    Accepts raw strings (tokenized with :func:`tokenize`) or ready token
    collections.  Two empty sets are identical (distance ``0``); an empty
    set against a non-empty one is maximally distant (``100``).  This is
    the exact distance the ``token-jaccard`` verifier reports and the
    brute-force oracle the property suite compares against.
    """
    a = tokenize(left) if isinstance(left, str) else frozenset(left)
    b = tokenize(right) if isinstance(right, str) else frozenset(right)
    inter = len(a & b)
    union = len(a) + len(b) - inter
    if union == 0:
        return 0
    return -(-(JACCARD_SCALE * (union - inter)) // union)


def _min_overlap(tau: int, size: int) -> int:
    """``⌈t · size⌉`` for ``t = (100 − tau)/100``, in exact integer math."""
    return -(-(JACCARD_SCALE - tau) * size // JACCARD_SCALE)


class KernelBackend(ABC):
    """Per-searcher mutable state of one kernel: index + pool + verifier.

    A backend owns the kernel-specific data structures of one searcher
    (segment index and short-string pool for edit distance; token postings
    and empty-set pool for Jaccard) and answers probes against them.  It is
    also the one place a record is held: :meth:`record` answers by id from
    ``_rows`` or ``short_pool``.  The searcher above it keeps the
    kernel-agnostic bookkeeping: tombstones, epochs, per-key counts.

    ``_rows`` maps the id of every indexed record to the backend's handle
    on it (a store row; a record and its sorted tokens).  ``short_pool``
    holds the records the kernel cannot index (too short to partition;
    token-less) — the searcher removes them directly via :meth:`unpool`
    instead of tombstoning, exactly as the dynamic searcher always treated
    the edit-distance short pool.
    """

    kernel: "SimilarityKernel"
    max_tau: int
    short_pool: dict[int, StringRecord]
    _rows: dict[int, Any]

    @abstractmethod
    def add(self, record: StringRecord) -> int:
        """Index ``record`` (or pool it); return the signature entries added."""

    @abstractmethod
    def record(self, record_id: int) -> StringRecord | None:
        """The record held under ``record_id`` (indexed or pooled), or None."""

    def record_ids(self) -> Iterator[int]:
        """Ids of every record held, indexed then pooled."""
        return chain(self._rows, self.short_pool)

    def __len__(self) -> int:
        """Number of records held, indexed or pooled."""
        return len(self._rows) + len(self.short_pool)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows or record_id in self.short_pool

    def unpool(self, record_id: int) -> bool:
        """Drop a pooled record; True when it was in the short pool."""
        return self.short_pool.pop(record_id, None) is not None

    @abstractmethod
    def remove_indexed(self, record: StringRecord) -> int:
        """Physically purge an indexed record's signatures; return the count."""

    @abstractmethod
    def new_verifier(self, tau: int, stats: JoinStatistics) -> Any:
        """A verifier usable by :meth:`probe`, with explain metadata
        (``.method.value``) attached."""

    @abstractmethod
    def probe(self, query: str, tau: int, *, stats: JoinStatistics,
              accept: Callable[[int], bool] | None = None,
              trace: "ProbeTrace | None" = None,
              verifier: Any = None) -> list[tuple[StringRecord, int]]:
        """All indexed/pooled records within ``tau`` of ``query``.

        ``accept`` filters candidate record ids before verification
        (tombstones, top-k exclusion); ``trace`` collects the per-stage
        explain breakdown; ``verifier`` overrides the default verifier
        (the explain path passes the instance it will report on).
        """

    def probe_many(self, queries: Sequence[tuple[str, int]], *,
                   stats: JoinStatistics,
                   accept: (Callable[[int], bool]
                            | Sequence[Callable[[int], bool] | None]
                            | None) = None,
                   verifier_factory: Callable[[int], Any] | None = None,
                   ) -> list[list[tuple[StringRecord, int]]]:
        """Batch :meth:`probe`: one result list per ``(query, tau)`` input.

        ``accept`` is one predicate applied to every query or a sequence
        aligned with ``queries`` (one predicate or ``None`` per position
        — what the top-k widening uses to exclude each query's own
        earlier hits).  The default probes each unique
        ``(query, tau, predicate)`` of the batch once
        (:func:`~repro.core.engine.dedupe_batch`); kernels with deeper
        batch structure (the edit-distance fused posting scans) override
        it.
        """
        results: list[list[tuple[StringRecord, int]]] = [[] for _ in queries]
        for (text, tau, query_accept), positions in dedupe_batch(
                queries, accept).items():
            verifier = (None if verifier_factory is None
                        else verifier_factory(tau))
            matches = self.probe(text, tau, stats=stats, accept=query_accept,
                                 verifier=verifier)
            for position in positions:
                results[position] = list(matches)
        return results

    @abstractmethod
    def entry_count(self) -> int:
        """Signature entries currently stored (postings)."""

    @abstractmethod
    def approximate_bytes(self) -> int:
        """Approximate bytes of the signature structures."""

    @abstractmethod
    def memory_report(self) -> dict[str, int]:
        """Memory figures for the ``stats`` op (``records``,
        ``approximate_bytes``, and kernel-specific detail)."""


class SimilarityKernel(ABC):
    """One similarity modality: thresholds, partition keys, and backends.

    A kernel owns the three decisions the engine used to hard-code —
    signature generation for indexing, probe generation for querying, and
    verification — plus the threshold semantics (:meth:`validate_tau`) and
    the integer *partition key* the sharded tier places records and routes
    queries by (:meth:`record_key` / :meth:`probe_key_range`).
    """

    name: str

    @abstractmethod
    def validate_tau(self, tau: Any) -> int:
        """Validate a threshold under this kernel's semantics; return it."""

    @abstractmethod
    def record_key(self, text: str) -> int:
        """The partition key of a record (length; token-set size)."""

    @abstractmethod
    def probe_key_range(self, query: str, tau: int) -> tuple[int, int]:
        """Inclusive record-key window a probe at ``tau`` can match."""

    @abstractmethod
    def make_backend(self, max_tau: int, *,
                     partition: PartitionStrategy = PartitionStrategy.EVEN,
                     verification: VerificationMethod | str =
                     DEFAULT_VERIFICATION,
                     seed: Sequence[StringRecord] = ()) -> KernelBackend:
        """Build this kernel's per-searcher backend.

        ``seed`` is the initial collection (the Jaccard kernel freezes its
        token order from it; edit distance ignores it).  ``partition`` /
        ``verification`` configure the edit-distance pipeline and must be
        left at their defaults for kernels they do not apply to.
        """

    def describe(self) -> dict[str, Any]:
        """Wire-ready description for the ``kernels`` discovery op."""
        return {"name": self.name}


# ----------------------------------------------------------------------
# Edit distance: the Pass-Join pipeline as one registered kernel
# ----------------------------------------------------------------------
class EditDistanceBackend(KernelBackend):
    """Segment index + short pool + selector, probed via the shared engine.

    Probes delegate to the two drivers of the engine's one probe loop,
    :func:`repro.core.engine.probe_record` (one query, optionally traced)
    and :func:`~repro.core.engine.probe_many` (a batch).
    """

    def __init__(self, kernel: "EditDistanceKernel", max_tau: int, *,
                 partition: PartitionStrategy,
                 verification: VerificationMethod) -> None:
        self.kernel = kernel
        self.max_tau = max_tau
        self.verification = verification
        self.index = SegmentIndex(max_tau, partition)
        self.selector = MultiMatchAwareSelector(max_tau)
        self.short_pool: dict[int, StringRecord] = {}
        # id -> store row of every indexed record: what record() reads and
        # remove_indexed() purges by.  Joins drive a bare SegmentIndex and
        # never pay for it.
        self._rows: dict[int, int] = {}
        # Persistent selection-window cache, shared across search /
        # search_many / explain calls and across batches.  Windows are pure
        # in (probe length, indexed length) under this backend's fixed
        # partition threshold and never hold row ordinals, so staleness is
        # impossible; the cache is still dropped whenever the indexed
        # length *set* changes (remove / compact / evict_below) so keys for
        # dead lengths do not pin memory.
        self.window_cache = WindowCache(self.selector)
        self._cache_lengths_version = self.index.lengths_version

    def add(self, record: StringRecord) -> int:
        if can_partition(record.length, self.max_tau):
            row = self._rows[record.id] = self.index.store.add(record)
            return self.index.add_row(row)
        self.short_pool[record.id] = record
        return 0

    def record(self, record_id: int) -> StringRecord | None:
        row = self._rows.get(record_id)
        if row is None:
            return self.short_pool.get(record_id)
        return self.index.store.record_at(row)

    def remove_indexed(self, record: StringRecord) -> int:
        row = self._rows.pop(record.id, None)
        return 0 if row is None else self.index.remove(row)

    def new_verifier(self, tau: int, stats: JoinStatistics) -> Any:
        return make_verifier(self.verification, tau, stats)

    def active_window_cache(self) -> WindowCache:
        """The persistent window cache, cleared if the length set changed."""
        version = self.index.lengths_version
        if version != self._cache_lengths_version:
            self.window_cache.clear()
            self._cache_lengths_version = version
        return self.window_cache

    def probe(self, query: str, tau: int, *, stats: JoinStatistics,
              accept: Callable[[int], bool] | None = None,
              trace: "ProbeTrace | None" = None,
              verifier: Any = None) -> list[tuple[StringRecord, int]]:
        if verifier is None:
            verifier = self.new_verifier(tau, stats)
        return probe_record(
            StringRecord(id=-1, text=query), tau=tau, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier=verifier, stats=stats,
            max_length=len(query) + tau, allow_same_id=True, accept=accept,
            trace=trace, window_cache=self.active_window_cache())

    def probe_many(self, queries: Sequence[tuple[str, int]], *,
                   stats: JoinStatistics,
                   accept: (Callable[[int], bool]
                            | Sequence[Callable[[int], bool] | None]
                            | None) = None,
                   verifier_factory: Callable[[int], Any] | None = None,
                   ) -> list[list[tuple[StringRecord, int]]]:
        if verifier_factory is None:
            def verifier_factory(tau: int) -> Any:
                return self.new_verifier(tau, stats)
        return probe_many(
            queries, index=self.index,
            short_pool=list(self.short_pool.values()),
            selector=self.selector, verifier_factory=verifier_factory,
            stats=stats, accept=accept,
            window_cache=self.active_window_cache())

    def entry_count(self) -> int:
        return self.index.current_entry_count

    def approximate_bytes(self) -> int:
        return self.index.current_approximate_bytes

    def memory_report(self) -> dict[str, int]:
        return self.index.memory_report()


class EditDistanceKernel(SimilarityKernel):
    """Partition-based edit-distance similarity (the paper's pipeline)."""

    name = "edit-distance"

    def validate_tau(self, tau: Any) -> int:
        return validate_threshold(tau)

    def record_key(self, text: str) -> int:
        return len(text)

    def probe_key_range(self, query: str, tau: int) -> tuple[int, int]:
        return max(0, len(query) - tau), len(query) + tau

    def make_backend(self, max_tau: int, *,
                     partition: PartitionStrategy = PartitionStrategy.EVEN,
                     verification: VerificationMethod | str =
                     DEFAULT_VERIFICATION,
                     seed: Sequence[StringRecord] = ()) -> EditDistanceBackend:
        if not isinstance(verification, VerificationMethod):
            verification = VerificationMethod(str(verification))
        return EditDistanceBackend(self, self.validate_tau(max_tau),
                                   partition=partition,
                                   verification=verification)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "record_unit": "characters",
            "tau_semantics": "maximum edit distance (non-negative integer)",
            "signatures": "partition segments (tau + 1 per record)",
            # What make_backend builds when no method is named, and the
            # serving tiers never name one: explain's verifier.kernel.
            "verifier": DEFAULT_VERIFICATION.value,
            "partition_key": "string length",
        }


# ----------------------------------------------------------------------
# Token-set Jaccard: prefix-filter signatures over a frozen token order
# ----------------------------------------------------------------------
class _KernelMethodLabel:
    """Duck-typed stand-in for a VerificationMethod in explain reports."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class TokenOverlapVerifier:
    """Exact token-set verifier: reports the scaled Jaccard distance.

    Mirrors the :class:`~repro.core.verify.BaseVerifier` surface the
    explain report reads (``method.value``, per-verification counting into
    ``stats``); ``exact_per_pair`` lets the probe loop skip re-checking a
    record found through a second prefix token.
    """

    method = _KernelMethodLabel("token-overlap")
    exact_per_pair = True

    def __init__(self, tau: int, stats: JoinStatistics) -> None:
        self.tau = tau
        self.stats = stats

    def distance(self, query_tokens: frozenset[str],
                 record_tokens: Collection[str]) -> int:
        self.stats.num_verifications += 1
        inter = len(query_tokens.intersection(record_tokens))
        union = len(query_tokens) + len(record_tokens) - inter
        if union == 0:
            return 0
        return -(-(JACCARD_SCALE * (union - inter)) // union)


class TokenJaccardBackend(KernelBackend):
    """Prefix-filtered inverted token index over one searcher's records.

    The token order is frozen at construction from the seed collection's
    token frequencies (rare tokens first; unseen tokens rank after every
    seen one, lexicographically).  Each record is indexed under its sorted
    set's first ``|r| − ⌈t_min·|r|⌉ + 1`` tokens, the prefix the loosest
    admissible threshold (``max_tau``) requires; a probe at ``tau`` looks
    up its own ``|q| − ⌈t·|q|⌉ + 1``-token prefix, size-filters the
    postings, and verifies survivors exactly.  Token-less records live in
    the ``short_pool`` and match only token-less queries (distance ``0``).
    """

    #: Bytes charged per posting in the approximate accounting (one
    #: machine word, mirroring the segment index's convention).
    POSTING_BYTES = 8

    def __init__(self, kernel: "TokenJaccardKernel", max_tau: int,
                 seed: Sequence[StringRecord]) -> None:
        self.kernel = kernel
        self.max_tau = max_tau
        self.short_pool: dict[int, StringRecord] = {}
        frequencies = Counter(token for record in seed
                              for token in tokenize(record.text))
        ranked = sorted(frequencies,
                        key=lambda token: (frequencies[token], token))
        self._rank = {token: position for position, token in enumerate(ranked)}
        # token -> ids of records carrying it in their *index prefix*.
        self._postings: dict[str, set[int]] = {}
        # id -> (record, tokens sorted under the frozen order).
        self._rows: dict[int, tuple[StringRecord, tuple[str, ...]]] = {}
        self._entries = 0
        # Probe-side analogue of the edit-distance window cache: the token
        # order is frozen at construction, so a query's sorted token tuple
        # (what the probe prefix is sliced from) is pure in its text and
        # can persist across probes and batches.  Bounded LRU; hits are
        # counted as ``num_windows_cache_hits`` like window-cache hits.
        self.probe_cache_capacity = 4096
        self._probe_token_cache: OrderedDict[str, tuple[str, ...]] = (
            OrderedDict())

    # -- signature generation ------------------------------------------
    def sorted_tokens(self, text: str) -> tuple[str, ...]:
        """``text``'s token set sorted under the backend's frozen order."""
        rank = self._rank
        return tuple(sorted(
            tokenize(text),
            key=lambda token: ((0, rank[token]) if token in rank
                               else (1, token))))

    def probe_sorted_tokens(self, text: str,
                            stats: JoinStatistics) -> tuple[str, ...]:
        """:meth:`sorted_tokens` through the persistent probe cache."""
        cached = self._probe_token_cache.get(text)
        if cached is not None:
            self._probe_token_cache.move_to_end(text)
            stats.num_windows_cache_hits += 1
            return cached
        tokens = self.sorted_tokens(text)
        self._probe_token_cache[text] = tokens
        if len(self._probe_token_cache) > self.probe_cache_capacity:
            self._probe_token_cache.popitem(last=False)
        return tokens

    def _index_prefix_len(self, size: int) -> int:
        return size - _min_overlap(self.max_tau, size) + 1

    def _query_prefix_len(self, size: int, tau: int) -> int:
        return size - _min_overlap(tau, size) + 1

    def add(self, record: StringRecord) -> int:
        tokens = self.sorted_tokens(record.text)
        if not tokens:
            self.short_pool[record.id] = record
            return 0
        self._rows[record.id] = (record, tokens)
        prefix = tokens[:self._index_prefix_len(len(tokens))]
        for token in prefix:
            self._postings.setdefault(token, set()).add(record.id)
        self._entries += len(prefix)
        return len(prefix)

    def record(self, record_id: int) -> StringRecord | None:
        entry = self._rows.get(record_id)
        return self.short_pool.get(record_id) if entry is None else entry[0]

    def remove_indexed(self, record: StringRecord) -> int:
        entry = self._rows.pop(record.id, None)
        if entry is None:
            return 0
        _, tokens = entry
        removed = 0
        for token in tokens[:self._index_prefix_len(len(tokens))]:
            postings = self._postings.get(token)
            if postings is None or record.id not in postings:
                continue
            postings.discard(record.id)
            removed += 1
            if not postings:
                del self._postings[token]
        self._entries -= removed
        return removed

    # -- probing -------------------------------------------------------
    def new_verifier(self, tau: int, stats: JoinStatistics) -> TokenOverlapVerifier:
        return TokenOverlapVerifier(tau, stats)

    def probe(self, query: str, tau: int, *, stats: JoinStatistics,
              accept: Callable[[int], bool] | None = None,
              trace: "ProbeTrace | None" = None,
              verifier: Any = None) -> list[tuple[StringRecord, int]]:
        if verifier is None:
            verifier = self.new_verifier(tau, stats)
        query_tokens = tokenize(query)
        matches: list[tuple[StringRecord, int]] = []

        # Token-less queries can only match token-less records (and always
        # do, at distance 0); token-less records never match anything else
        # because tau < 100 — the side-pool analogue of the engine's
        # short-string handling.
        if not query_tokens:
            for record in self.short_pool.values():
                if accept is not None and not accept(record.id):
                    continue
                verification_started = time.perf_counter()
                distance = verifier.distance(query_tokens, ())
                stats.verification_seconds += (
                    time.perf_counter() - verification_started)
                if trace is not None:
                    trace.short_pool_checked += 1
                    if distance <= tau:
                        trace.short_pool_accepted += 1
                if distance <= tau:
                    matches.append((record, distance))
            stats.num_accepted += len(matches)
            return matches

        sorted_query = self.probe_sorted_tokens(query, stats)
        lo, hi = self.kernel.probe_key_range(query, tau)
        selection_started = time.perf_counter()
        prefix = sorted_query[:self._query_prefix_len(len(sorted_query), tau)]
        stats.selection_seconds += time.perf_counter() - selection_started
        stats.num_selected_substrings += len(prefix)
        entry = (None if trace is None else trace.length_entry(
            len(sorted_query),
            tuple((position, 1) for position in range(len(prefix))),
            len(prefix)))

        seen: set[int] = set()
        rows = self._rows
        for token in prefix:
            stats.num_index_probes += 1
            postings = self._postings.get(token)
            if not postings:
                continue
            stats.num_postings_scanned += len(postings)
            excluded = candidates = accepted = 0
            for record_id in postings:
                if record_id in seen:
                    continue
                seen.add(record_id)
                if accept is not None and not accept(record_id):
                    excluded += 1
                    continue
                record, tokens = rows[record_id]
                if not lo <= len(tokens) <= hi:
                    # The size filter is a pre-verification exclusion,
                    # reported under the same label as tombstones.
                    excluded += 1
                    continue
                candidates += 1
                verification_started = time.perf_counter()
                distance = verifier.distance(query_tokens, tokens)
                stats.verification_seconds += (
                    time.perf_counter() - verification_started)
                if distance <= tau:
                    matches.append((record, distance))
                    accepted += 1
            stats.num_candidates += candidates
            if entry is not None:
                # Ids met under an earlier prefix token are the
                # already-found remainder record_scan derives.
                trace.record_scan(entry, scanned=len(postings),
                                  excluded=excluded, candidates=candidates,
                                  verifications=candidates, accepted=accepted)
        stats.num_accepted += len(matches)
        return matches

    # -- accounting ----------------------------------------------------
    def entry_count(self) -> int:
        return self._entries

    def approximate_bytes(self) -> int:
        total = 0
        for token, ids in self._postings.items():
            total += len(token.encode("utf-8", errors="replace"))
            total += self.POSTING_BYTES * len(ids)
        return total

    def _store_bytes(self) -> int:
        total = 0
        for record, _ in self._rows.values():
            total += len(record.text.encode("utf-8", errors="replace"))
            total += 2 * self.POSTING_BYTES  # id + key columns' worth
        return total

    def memory_report(self) -> dict[str, int]:
        postings_bytes = self.approximate_bytes()
        store_bytes = self._store_bytes()
        return {
            "records": len(self._rows),
            "postings": self._entries,
            "distinct_segments": len(self._postings),
            "postings_bytes": postings_bytes,
            "store_bytes": store_bytes,
            "approximate_bytes": postings_bytes + store_bytes,
        }


class TokenJaccardKernel(SimilarityKernel):
    """Token-set similarity under the scaled Jaccard distance."""

    name = "token-jaccard"

    def validate_tau(self, tau: Any) -> int:
        tau = validate_threshold(tau)
        if tau >= JACCARD_SCALE:
            raise InvalidThresholdError(tau)
        return tau

    def record_key(self, text: str) -> int:
        return len(tokenize(text))

    def probe_key_range(self, query: str, tau: int) -> tuple[int, int]:
        size = self.record_key(query)
        if size == 0:
            return 0, 0
        return (_min_overlap(tau, size),
                size * JACCARD_SCALE // (JACCARD_SCALE - tau))

    def make_backend(self, max_tau: int, *,
                     partition: PartitionStrategy = PartitionStrategy.EVEN,
                     verification: VerificationMethod | str =
                     DEFAULT_VERIFICATION,
                     seed: Sequence[StringRecord] = ()) -> TokenJaccardBackend:
        if partition != PartitionStrategy.EVEN:
            raise ConfigurationError(
                f"the {self.name!r} kernel does not take a partition "
                f"strategy, got {partition!r}")
        if verification != DEFAULT_VERIFICATION:
            raise ConfigurationError(
                f"the {self.name!r} kernel does not take a verification "
                f"method, got {verification!r}")
        return TokenJaccardBackend(self, self.validate_tau(max_tau), seed)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "record_unit": "whitespace tokens (as a set)",
            "tau_semantics": "scaled Jaccard distance: "
                             "ceil(100 * (1 - J)) <= tau, 0 <= tau < 100",
            "signatures": "prefix filter over a frozen rare-first "
                          "token-frequency order",
            "verifier": "exact token-set overlap",
            "partition_key": "token-set size",
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, SimilarityKernel] = {}


def register_kernel(kernel: SimilarityKernel) -> SimilarityKernel:
    """Register ``kernel`` under its name (latest registration wins)."""
    _REGISTRY[kernel.name] = kernel
    return kernel


def kernel_names() -> tuple[str, ...]:
    """The registered kernel names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str) -> SimilarityKernel:
    """The registered kernel called ``name``; unknown names raise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethodError("similarity kernel", str(name),
                                 kernel_names()) from None


def resolve_kernel(kernel: str | SimilarityKernel | None) -> SimilarityKernel:
    """Coerce a kernel argument (name, instance, or None) to an instance."""
    if kernel is None:
        return _REGISTRY[DEFAULT_KERNEL]
    if isinstance(kernel, SimilarityKernel):
        return kernel
    return get_kernel(str(kernel))


def describe_kernels() -> list[dict[str, Any]]:
    """Wire-ready descriptions of every registered kernel, sorted by name."""
    return [_REGISTRY[name].describe() for name in kernel_names()]


def check_kernel_match(served: SimilarityKernel,
                       requested: str | None) -> None:
    """Reject a request naming a kernel other than the one served.

    One searcher (and one server) serves exactly one kernel; a request may
    name it redundantly, but naming a different one is an error — results
    under another similarity cannot be produced from this index's
    signatures.  Shared by the searchers, the shard router, and the wire
    layer so the error text is identical everywhere.
    """
    if requested is None or requested == served.name:
        return
    raise ConfigurationError(
        f"this searcher serves the {served.name!r} kernel, but the request "
        f"names {requested!r}; registered kernels: {kernel_names()}. "
        f"Mixed-kernel batches must be split by the caller.")


def check_batch_kernels(served: SimilarityKernel,
                        kernel: "str | Sequence[str | None] | None") -> None:
    """Validate a batch's kernel argument against the served kernel.

    ``kernel`` is a scalar name for the whole batch or a per-query
    sequence.  The pinned semantics for mixed-kernel batches is
    **rejection**: one batch targets one kernel, full stop — a batch whose
    entries name two different kernels raises ``ConfigurationError``
    before any query runs (a split-and-group answer would silently hide
    that half the batch was computed under a different similarity than
    the caller's cache keys and thresholds assume).  ``None`` entries
    mean "whatever this searcher serves".
    """
    if kernel is None or isinstance(kernel, str):
        check_kernel_match(served, kernel)
        return
    names = {name for name in kernel if name is not None}
    if len(names) > 1:
        raise ConfigurationError(
            f"mixed-kernel batch: one batch must target a single kernel, "
            f"got {sorted(names)}; split the batch by kernel and issue one "
            f"request per kernel")
    for name in names:
        check_kernel_match(served, name)


register_kernel(EditDistanceKernel())
register_kernel(TokenJaccardKernel())

# The registry and the configuration surface must agree, exactly as the
# placement-map registry agrees with SHARD_POLICIES.
assert set(_REGISTRY) == set(KERNELS), (set(_REGISTRY), KERNELS)
