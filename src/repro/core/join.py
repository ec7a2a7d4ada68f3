"""The Pass-Join driver (Algorithm 1 of the paper) — the only one.

:class:`PassJoin` glues the partition scheme, the segment inverted indices,
a substring selector, and a verifier into the full filter-and-verify join.
A join is an **ordered list of independent span jobs over one sliding index
window**:

1. Sort both sides once in canonical (length, text) order
   (:func:`~repro.core.engine.sort_records`).  For a self join the indexed
   side *is* the probe side.
2. Cut the probe side into contiguous ``[start, stop)`` spans — one span
   for a serial run, ``chunk_size`` probes each otherwise.
3. Run every span through :func:`run_span`, a self-contained job with a
   fresh :class:`~repro.core.index.SegmentIndex`.  Per probe ``s`` the index
   holds exactly the paper's window (Section 3.2):

   Self join (``R = S``)
       every string sorted before ``s`` whose length is at least
       ``|s| − τ``: the job probes, *then* inserts ``s`` and evicts the
       lengths below ``|s| − τ``, so no pair is enumerated twice.
   R–S join
       every indexed-side string whose length lies in
       ``[|r| − τ, |r| + τ]``: the job slides the window ahead of the
       probe, probes, and evicts behind it.

   A span that does not start at position 0 first *warms up*: it indexes
   the records before its first probe that fall inside that probe's window
   (a later probe is no shorter, so it can need nothing earlier).
4. Concatenate the span outputs in span order — which *is* the serial pair
   order, every pair being emitted by its probe — and merge the span
   statistics.  ``workers > 1`` maps the spans over a ``fork`` pool; one
   worker, one span, or a platform without ``fork`` runs them in-process,
   in order.  Nothing is shared between jobs, so no cross-span
   deduplication exists and concurrent joins in one process are safe.

Strings shorter than ``τ + 1`` cannot be partitioned into ``τ + 1``
non-empty segments (the paper assumes they do not occur).  To keep the
implementation total, such strings are kept in a small side pool and joined
by direct verification within the length window; this preserves the exact
result set on arbitrary inputs and costs nothing when, as in the paper's
datasets, no such string exists.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..config import DEFAULT_CONFIG, JoinConfig, validate_threshold
from ..types import (JoinResult, JoinStatistics, SimilarPair, StringRecord,
                     as_records, normalise_pair)
from .engine import probe_record, sort_records
from .index import SegmentIndex
from .partition import can_partition
from .selection import WindowCache, make_selector
from .verify import make_verifier


def available_workers() -> int:
    """Number of CPUs this process may use (the ``workers=0`` resolution)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def resolve_workers(workers: int) -> int:
    """Map the ``workers`` knob to an actual worker count (0 = all CPUs)."""
    if workers == 0:
        return available_workers()
    return workers


def default_chunk_size(total: int, workers: int) -> int:
    """Pick a chunk size giving each worker ~4 spans (bounded for balance).

    Several spans per worker smooths out skew — probe cost grows with
    string length, and spans are length-contiguous — while the upper bound
    keeps a single straggler span from serialising the tail of the run.
    """
    if total <= 0:
        return 1
    return max(1, min(4096, math.ceil(total / (workers * 4))))


def chunk_spans(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into consecutive [start, stop) spans."""
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


@dataclass(slots=True)
class JoinRun:
    """What every span job of one join reads; nothing in it is written.

    ``probes`` and ``indexed`` are in canonical order; a self join passes
    the same list as both.  Workers receive the run through the fork pool's
    initializer (copy-on-write memory, nothing pickled).
    """

    tau: int
    config: JoinConfig
    probes: list[StringRecord]
    indexed: list[StringRecord]
    self_join: bool
    #: ``indexed[i].length`` — sorted, so a length window is two bisects.
    lengths: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.lengths = [record.length for record in self.indexed]

    def window(self, pos: int) -> tuple[int, int]:
        """Indexed-side positions ``[low, high)`` the probe at ``pos`` may pair."""
        length = self.probes[pos].length
        low = bisect_left(self.lengths, length - self.tau)
        if self.self_join:
            return low, pos
        return low, bisect_right(self.lengths, length + self.tau)

    def first_uncounted(self, start: int) -> int:
        """Indexed-side position from which the span at ``start`` counts segments.

        Everything below it was inside the window of an earlier span's probe
        (or inserted by it), so that span already counted it; indexing it
        again is warm-up, not new segments.
        """
        if self.self_join or start == 0:
            return start
        return self.window(start - 1)[1]


def run_span(run: JoinRun, start: int, stop: int,
             ) -> tuple[list[SimilarPair], JoinStatistics]:
    """Join the probes at sorted positions ``[start, stop)``: one whole job.

    Returns exactly the pairs the one-span run emits for those probes, in
    the same order, plus this job's statistics (``index_entries`` /
    ``index_bytes`` are its own peak).  It reads ``run`` and touches nothing
    else, so jobs may run in any order, in any process.
    """
    tau, probes, indexed = run.tau, run.probes, run.indexed
    self_join = run.self_join
    ahead = 0 if self_join else tau  # a self join's longer strings come later
    # Self-join pairs put the smaller id on the left; R-S pairs keep (r, s).
    make_pair = normalise_pair if self_join else SimilarPair
    stats = JoinStatistics()
    selector = make_selector(run.config.selection, tau)
    # Probe lengths ascend, so a probe length's plan is dead once a longer
    # probe arrives.
    window_cache = WindowCache(selector, capacity=1)
    verifier = make_verifier(run.config.verification, tau, stats)
    index = SegmentIndex(tau, run.config.partition)
    short_pool: list[StringRecord] = []
    pairs: list[SimilarPair] = []
    uncounted = run.first_uncounted(start)
    cursor = 0  # indexed[:cursor] has been offered to the index (or skipped)

    def index_range(low: int, high: int) -> None:
        for position in range(low, high):
            record = indexed[position]
            if can_partition(record.length, tau):
                index.add(record)
                if position >= uncounted:
                    stats.num_indexed_segments += tau + 1
            else:
                short_pool.append(record)

    for pos in range(start, stop):
        probe = probes[pos]
        low, high = run.window(pos)
        if cursor < high:
            # R-S join: slide the window ahead of the probe.  Self join:
            # only a span's first probe gets here — the warm-up.
            indexing_started = time.perf_counter()
            index_range(max(cursor, low), high)
            cursor = high
            stats.indexing_seconds += time.perf_counter() - indexing_started
        # No same-id filter: a self-join probe is indexed only after it
        # probes (warm-up included), and an R-S join's sides are different
        # collections whose equal ids are different strings.
        matches = probe_record(probe, tau=tau, index=index,
                               short_pool=short_pool, selector=selector,
                               verifier=verifier, stats=stats,
                               max_length=probe.length + ahead,
                               allow_same_id=True,
                               window_cache=window_cache)
        for partner, distance in matches:
            pairs.append(make_pair(probe.id, partner.id, distance,
                                   probe.text, partner.text))
        indexing_started = time.perf_counter()
        if self_join:
            # Index the probe so later (longer or equal) strings can find it.
            index_range(pos, pos + 1)
            cursor = pos + 1
        index.evict_below(probe.length - tau)
        stats.indexing_seconds += time.perf_counter() - indexing_started
        stats.index_entries = max(stats.index_entries, index.current_entry_count)
        stats.index_bytes = max(stats.index_bytes, index.current_approximate_bytes)
    return pairs, stats


#: Per *worker-process* slot, set by :func:`_install_run` when a fork pool
#: spawns its workers.  The parent process never writes it (each pool
#: installs its own run into its own children), which is what keeps
#: concurrent joins in one process independent.
_WORKER_RUN: JoinRun | None = None


def _install_run(run: JoinRun) -> None:
    """Pool initializer: pin this worker process to its join's run."""
    global _WORKER_RUN
    _WORKER_RUN = run


def _run_span_in_worker(span: tuple[int, int],
                        ) -> tuple[list[SimilarPair], JoinStatistics]:
    """Map function for fork pools: read the run installed at init."""
    assert _WORKER_RUN is not None, "worker started without a run"
    return run_span(_WORKER_RUN, *span)


def _refuse_duplicate_ids(records: list[StringRecord], side: str) -> None:
    seen: set[int] = set()
    for record in records:
        if record.id in seen:
            raise ValueError(f"duplicate id {record.id} in the join's {side}")
        seen.add(record.id)


class PassJoin:
    """Partition-based string similarity join with edit-distance threshold.

    Parameters
    ----------
    tau:
        Edit-distance threshold.
    config:
        Optional :class:`~repro.config.JoinConfig` selecting the substring
        selection method, verification strategy, partition strategy and how
        the join is cut into jobs (``workers``, ``chunk_size``).

    Examples
    --------
    >>> join = PassJoin(tau=2)
    >>> result = join.self_join(["vldb", "pvldb", "sigmod", "icde"])
    >>> sorted((pair.left, pair.right) for pair in result)
    [('vldb', 'pvldb')]
    """

    def __init__(self, tau: int, config: JoinConfig | None = None) -> None:
        self.tau = validate_threshold(tau)
        self.config = config if config is not None else DEFAULT_CONFIG

    def self_join(self, strings: Iterable[str | StringRecord]) -> JoinResult:
        """Find every pair of strings within the threshold in one collection."""
        return self._run(as_records(strings), None)

    def join(self, left: Iterable[str | StringRecord],
             right: Iterable[str | StringRecord]) -> JoinResult:
        """Find every pair ``(r ∈ left, s ∈ right)`` within the threshold."""
        return self._run(as_records(left), as_records(right))

    def _run(self, left: list[StringRecord],
             right: list[StringRecord] | None) -> JoinResult:
        started = time.perf_counter()
        # A pair is reported by id: a repeated id on one side would drop or
        # mislabel its pairs.  Equal ids across the two R-S sides are fine.
        _refuse_duplicate_ids(left, "input" if right is None else "left input")
        if right is not None:
            _refuse_duplicate_ids(right, "right input")
        probes = sort_records(left)
        indexed = probes if right is None else sort_records(right)
        run = JoinRun(tau=self.tau, config=self.config, probes=probes,
                      indexed=indexed, self_join=right is None)
        pairs: list[SimilarPair] = []
        stats = JoinStatistics()
        for span_pairs, span_stats in self._map_spans(run):
            pairs.extend(span_pairs)
            stats = stats.merge(span_stats, coexisting=False)
        stats.num_strings = len(left) + len(right or ())
        stats.num_results = len(pairs)
        stats.total_seconds = time.perf_counter() - started
        return JoinResult(pairs=pairs, statistics=stats)

    def _map_spans(self, run: JoinRun,
                   ) -> list[tuple[list[SimilarPair], JoinStatistics]]:
        """Cut the probe side into spans and run each as its own job."""
        total = len(run.probes)
        workers = resolve_workers(self.config.workers)
        chunk_size = self.config.chunk_size
        if chunk_size is None:
            chunk_size = (max(total, 1) if workers == 1
                          else default_chunk_size(total, workers))
        spans = chunk_spans(total, chunk_size)
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            # Only fork hands the run to the workers for free; pickling both
            # sides to every spawned worker costs more than it saves.
            warnings.warn(
                f"fork is unavailable on this platform; workers={workers} "
                "will run the join's spans in this process",
                RuntimeWarning, stacklevel=4)
            workers = 1
        if workers > 1 and len(spans) > 1:
            with multiprocessing.get_context("fork").Pool(
                    processes=min(workers, len(spans)),
                    initializer=_install_run, initargs=(run,)) as pool:
                return pool.map(_run_span_in_worker, spans)
        return [run_span(run, *span) for span in spans]


# ----------------------------------------------------------------------
# Convenience functions
# ----------------------------------------------------------------------
def pass_join(strings: Iterable[str | StringRecord], tau: int,
              config: JoinConfig | None = None) -> JoinResult:
    """Self-join a collection of strings with threshold ``tau``.

    >>> result = pass_join(["vldb", "pvldb", "icde"], tau=1)
    >>> [(pair.left, pair.right) for pair in result]
    [('vldb', 'pvldb')]
    """
    return PassJoin(tau, config).self_join(strings)


def pass_join_pairs(strings: Iterable[str | StringRecord], tau: int,
                    config: JoinConfig | None = None) -> list[tuple[int, int]]:
    """Self-join and return just the sorted (left_id, right_id) tuples."""
    return sorted(pass_join(strings, tau, config).pair_ids())


def pass_join_rs(left: Iterable[str | StringRecord],
                 right: Iterable[str | StringRecord], tau: int,
                 config: JoinConfig | None = None) -> JoinResult:
    """Join two distinct collections with threshold ``tau``."""
    return PassJoin(tau, config).join(left, right)


def join(strings: Iterable[str | StringRecord], tau: int,
         right: Iterable[str | StringRecord] | None = None, *,
         workers: int | None = None, chunk_size: int | None = None,
         config: JoinConfig | None = None) -> JoinResult:
    """One-call similarity join: self join, or R-S join when ``right`` given.

    This is the top-level convenience API — ``repro.join(strings, tau=2,
    workers=4)``; ``workers`` / ``chunk_size`` override the same fields of
    ``config``.

    >>> result = join(["vldb", "pvldb", "icde"], tau=1, workers=2)
    >>> sorted(result.pair_ids())
    [(0, 1)]
    """
    config = config if config is not None else DEFAULT_CONFIG
    if workers is not None:
        config = replace(config, workers=workers)
    if chunk_size is not None:
        config = replace(config, chunk_size=chunk_size)
    engine = PassJoin(tau, config)
    if right is None:
        return engine.self_join(strings)
    return engine.join(strings, right)
