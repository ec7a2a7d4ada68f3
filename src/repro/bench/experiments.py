"""Experiment definitions: one function per table/figure of the paper.

Every function builds the synthetic stand-in datasets, runs the relevant
algorithms, and returns an :class:`~repro.bench.harness.ExperimentTable`
whose rows mirror the series the paper plots:

==============================  ============================================
function                         paper content
==============================  ============================================
:func:`table2_dataset_statistics`  Table 2 — dataset cardinality and lengths
:func:`table3_index_sizes`         Table 3 — index sizes of the three methods
:func:`fig11_length_distribution`  Figure 11 — string-length histograms
:func:`fig12_selected_substrings`  Figure 12 — #selected substrings, 4 methods
:func:`fig13_selection_time`       Figure 13 — substring-selection time
:func:`fig14_verification`         Figure 14 — verification strategies
:func:`fig15_comparison`           Figure 15 — ED-Join vs Trie-Join vs Pass-Join
:func:`fig16_scalability`          Figure 16 — join time vs collection size
==============================  ============================================

plus ablations that back design choices discussed in DESIGN.md
(:func:`ablation_partition_strategies`, :func:`ablation_verifier_kernels`,
:func:`ablation_filter_quality`) and the tracked kernel benchmark
:func:`verification_kernels` (batched vs per-pair bit-parallel
verification, the source of ``BENCH_verification.json``).

Dataset sizes default to a few hundred–few thousand strings (the paper uses
460k–860k; a pure-Python reproduction keeps the workload *shape* but scales
the cardinality down — see EXPERIMENTS.md).  All functions accept a
``scale`` factor to run larger or smaller versions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

from ..baselines.ed_join import EdJoin
from ..baselines.naive import NaiveJoin
from ..baselines.part_enum import PartEnumJoin
from ..baselines.trie_join import TrieJoin
from ..config import (JoinConfig, PartitionStrategy, SelectionMethod,
                      VerificationMethod)
from ..core.join import PassJoin, resolve_workers
from ..datasets.stats import dataset_statistics, length_histogram
from ..datasets.synthetic import (generate_author_dataset,
                                  generate_querylog_dataset,
                                  generate_title_dataset)
from .harness import ExperimentTable, Timer, available_cpus, scaled

# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
#: Dataset builders keyed by the names used throughout the paper's figures.
DATASET_BUILDERS: dict[str, Callable[[int], list[str]]] = {
    "author": generate_author_dataset,
    "querylog": generate_querylog_dataset,
    "title": generate_title_dataset,
}

#: Default (scaled-down) cardinalities; the paper's Table 2 sizes are
#: 612,781 / 464,189 / 863,073.
DEFAULT_SIZES: dict[str, int] = {
    "author": 2000,
    "querylog": 1000,
    "title": 500,
}

#: Edit-distance thresholds swept per dataset, matching Figures 12-14.
DEFAULT_TAUS: dict[str, tuple[int, ...]] = {
    "author": (1, 2, 3, 4),
    "querylog": (4, 5, 6, 7, 8),
    "title": (5, 6, 7, 8, 9, 10),
}

#: Pass-Join as the paper evaluates it (multi-match selection, even
#: partition, its fastest verifier).  The paper's tables and figures pin
#: it, so their ``candidates`` columns and timings do not move with the
#: library default verifier (``DEFAULT_VERIFICATION``).
PAPER_CONFIG = JoinConfig(verification=VerificationMethod.SHARE_PREFIX)

_SCALE_NOTE = ("datasets are synthetic stand-ins scaled down from the paper's "
               "460k-860k strings; shapes/trends are comparable, absolute "
               "numbers are not")


def build_datasets(scale: float = 1.0,
                   names: Sequence[str] | None = None) -> dict[str, list[str]]:
    """Generate the benchmark datasets (optionally scaled / restricted)."""
    selected = names if names is not None else tuple(DATASET_BUILDERS)
    sizes = scaled({name: DEFAULT_SIZES[name] for name in selected}, scale)
    return {name: DATASET_BUILDERS[name](sizes[name]) for name in selected}


def _taus(name: str, taus: Mapping[str, Sequence[int]] | None) -> Sequence[int]:
    if taus is not None and name in taus:
        return taus[name]
    return DEFAULT_TAUS[name]


# ----------------------------------------------------------------------
# Table 2 / Figure 11 — dataset shape
# ----------------------------------------------------------------------
def table2_dataset_statistics(scale: float = 1.0,
                              names: Sequence[str] | None = None) -> ExperimentTable:
    """Table 2: cardinality and length statistics of the datasets."""
    table = ExperimentTable(
        key="table2",
        title="Datasets (synthetic stand-ins for Table 2)",
        columns=["dataset", "cardinality", "avg_len", "max_len", "min_len"],
        notes=_SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        stats = dataset_statistics(strings)
        table.add_row(dataset=name, **stats.as_row())
    return table


def fig11_length_distribution(scale: float = 1.0, bucket_size: int = 5,
                              names: Sequence[str] | None = None) -> ExperimentTable:
    """Figure 11: string-length distribution of each dataset."""
    table = ExperimentTable(
        key="figure11",
        title="String length distribution",
        columns=["dataset", "length_bucket", "num_strings"],
        notes=f"bucket size {bucket_size}; " + _SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        for bucket, count in length_histogram(strings, bucket_size).items():
            table.add_row(dataset=name, length_bucket=bucket, num_strings=count)
    return table


# ----------------------------------------------------------------------
# Figures 12 & 13 — substring selection
# ----------------------------------------------------------------------
def selection_experiment(scale: float = 1.0,
                         names: Sequence[str] | None = None,
                         taus: Mapping[str, Sequence[int]] | None = None,
                         methods: Sequence[SelectionMethod] = tuple(SelectionMethod),
                         ) -> ExperimentTable:
    """Shared driver for Figures 12 and 13.

    Runs a full Pass-Join per (dataset, τ, selection method) and records the
    number of selected substrings and the time spent selecting them.
    """
    table = ExperimentTable(
        key="figure12-13",
        title="Substring selection: counts and elapsed time",
        columns=["dataset", "tau", "method", "selected_substrings",
                 "selection_seconds", "candidates", "results"],
        notes=_SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        for tau in _taus(name, taus):
            for method in methods:
                config = replace(PAPER_CONFIG, selection=method)
                result = PassJoin(tau, config).self_join(strings)
                stats = result.statistics
                table.add_row(dataset=name, tau=tau, method=method.value,
                              selected_substrings=stats.num_selected_substrings,
                              selection_seconds=round(stats.selection_seconds, 6),
                              candidates=stats.num_candidates,
                              results=stats.num_results)
    return table


def fig12_selected_substrings(scale: float = 1.0,
                              names: Sequence[str] | None = None,
                              taus: Mapping[str, Sequence[int]] | None = None,
                              ) -> ExperimentTable:
    """Figure 12: number of selected substrings per selection method."""
    table = selection_experiment(scale, names, taus)
    table.key = "figure12"
    table.title = "Numbers of selected substrings"
    return table


def fig13_selection_time(scale: float = 1.0,
                         names: Sequence[str] | None = None,
                         taus: Mapping[str, Sequence[int]] | None = None,
                         ) -> ExperimentTable:
    """Figure 13: elapsed time for generating (selecting) substrings."""
    table = selection_experiment(scale, names, taus)
    table.key = "figure13"
    table.title = "Elapsed time for generating substrings"
    return table


# ----------------------------------------------------------------------
# Figure 14 — verification strategies
# ----------------------------------------------------------------------
def fig14_verification(scale: float = 1.0,
                       names: Sequence[str] | None = None,
                       taus: Mapping[str, Sequence[int]] | None = None,
                       methods: Sequence[VerificationMethod] = (
                           VerificationMethod.BANDED,
                           VerificationMethod.LENGTH_AWARE,
                           VerificationMethod.EXTENSION,
                           VerificationMethod.SHARE_PREFIX),
                       ) -> ExperimentTable:
    """Figure 14: elapsed verification time of the four strategies.

    The paper labels the strategies ``2τ+1``, ``τ+1``, ``Extension`` and
    ``SharePrefix``; they map to :class:`VerificationMethod` in that order.
    """
    table = ExperimentTable(
        key="figure14",
        title="Elapsed time for verification",
        columns=["dataset", "tau", "method", "verification_seconds",
                 "matrix_cells", "early_terminations", "results"],
        notes=_SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        for tau in _taus(name, taus):
            for method in methods:
                config = JoinConfig(selection=SelectionMethod.MULTI_MATCH,
                                    verification=method)
                result = PassJoin(tau, config).self_join(strings)
                stats = result.statistics
                table.add_row(dataset=name, tau=tau, method=method.value,
                              verification_seconds=round(stats.verification_seconds, 6),
                              matrix_cells=stats.num_matrix_cells,
                              early_terminations=stats.num_early_terminations,
                              results=stats.num_results)
    return table


# ----------------------------------------------------------------------
# Figure 15 — comparison with ED-Join and Trie-Join
# ----------------------------------------------------------------------
def fig15_comparison(scale: float = 1.0,
                     names: Sequence[str] | None = None,
                     taus: Mapping[str, Sequence[int]] | None = None,
                     q: int = 3) -> ExperimentTable:
    """Figure 15: total join time of ED-Join, Trie-Join, and Pass-Join.

    All three algorithms must (and do) report the same number of similar
    pairs; the row records it once so benchmark assertions can check it.
    ``pass-join`` is :data:`PAPER_CONFIG`; ``pass-join-default`` beside it
    runs the library's default verifier (not a pure-DP kernel, so not part
    of the paper's comparison).
    """
    table = ExperimentTable(
        key="figure15",
        title="Comparison with state-of-the-art methods",
        columns=["dataset", "tau", "algorithm", "total_seconds", "candidates",
                 "results"],
        notes=_SCALE_NOTE + "; ED-Join/Trie-Join are pure-Python "
              "reimplementations of the published algorithms",
    )
    for name, strings in build_datasets(scale, names).items():
        for tau in _taus(name, taus):
            algorithms = [
                ("ed-join", EdJoin(tau, q=q)),
                ("trie-join", TrieJoin(tau)),
                ("pass-join", PassJoin(tau, PAPER_CONFIG)),
                ("pass-join-default", PassJoin(tau)),
            ]
            for label, algorithm in algorithms:
                with Timer() as timer:
                    result = algorithm.self_join(strings)
                table.add_row(dataset=name, tau=tau, algorithm=label,
                              total_seconds=round(timer.seconds, 6),
                              candidates=result.statistics.num_candidates,
                              results=len(result))
    return table


# ----------------------------------------------------------------------
# Figure 16 — scalability
# ----------------------------------------------------------------------
def fig16_scalability(scale: float = 1.0,
                      names: Sequence[str] | None = None,
                      taus: Mapping[str, Sequence[int]] | None = None,
                      steps: int = 4) -> ExperimentTable:
    """Figure 16: Pass-Join elapsed time as the collection grows.

    The paper varies the number of strings from 100k to 600k-800k; here the
    collection grows in ``steps`` equal increments up to the (scaled)
    default size.
    """
    table = ExperimentTable(
        key="figure16",
        title="Scalability of Pass-Join",
        columns=["dataset", "tau", "num_strings", "total_seconds", "results"],
        notes=_SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        sweep = taus[name] if taus is not None and name in taus else (
            DEFAULT_TAUS[name][0], DEFAULT_TAUS[name][-1])
        for tau in sweep:
            for step in range(1, steps + 1):
                size = max(1, len(strings) * step // steps)
                subset = strings[:size]
                result = PassJoin(tau, PAPER_CONFIG).self_join(subset)
                table.add_row(dataset=name, tau=tau, num_strings=size,
                              total_seconds=round(result.statistics.total_seconds, 6),
                              results=len(result))
    return table


# ----------------------------------------------------------------------
# Table 3 — index sizes
# ----------------------------------------------------------------------
def table3_index_sizes(scale: float = 1.0,
                       names: Sequence[str] | None = None,
                       tau: int = 4, q: int = 4) -> ExperimentTable:
    """Table 3: index footprint of ED-Join, Trie-Join, and Pass-Join.

    Sizes are the approximate byte footprints of the data structures each
    algorithm builds (q-gram postings, trie nodes, segment postings); the
    Pass-Join figure is the *peak* of its sliding length-window index, which
    is what the paper reports.
    """
    table = ExperimentTable(
        key="table3",
        title="Index sizes",
        columns=["dataset", "data_bytes", "ed_join_bytes", "trie_join_bytes",
                 "pass_join_bytes"],
        notes=f"tau={tau} for Pass-Join, q={q} for ED-Join, mirroring Table 3; "
              + _SCALE_NOTE,
    )
    for name, strings in build_datasets(scale, names).items():
        data_bytes = sum(len(text.encode("utf-8")) for text in strings)
        ed_stats = EdJoin(tau, q=q).self_join(strings).statistics
        trie_stats = TrieJoin(tau).self_join(strings).statistics
        pass_stats = PassJoin(tau, PAPER_CONFIG).self_join(strings).statistics
        table.add_row(dataset=name, data_bytes=data_bytes,
                      ed_join_bytes=ed_stats.index_bytes,
                      trie_join_bytes=trie_stats.index_bytes,
                      pass_join_bytes=pass_stats.index_bytes)
    return table


# ----------------------------------------------------------------------
# Parallel scaling (beyond the paper — the paper's system is single-threaded)
# ----------------------------------------------------------------------
def parallel_scaling(scale: float = 1.0, name: str = "author", tau: int = 2,
                     worker_counts: Sequence[int] = (1, 2, 4),
                     chunk_size: int | None = None) -> ExperimentTable:
    """Elapsed time of :class:`~repro.core.join.PassJoin` as workers grow.

    Every row runs the same driver over the same strings; only
    ``JoinConfig.workers`` changes (``workers=1`` is the one-span serial
    run), and every row must return the first row's pairs in the first
    row's order.  ``speedup`` is the baseline row's time over the row's
    time; the table notes record the measured CPU budget, since speedups
    are bounded by the cores actually available.
    """
    strings = build_datasets(scale, [name])[name]
    measured: list[tuple[int, float, int]] = []
    expected = None
    for workers in worker_counts:
        engine = PassJoin(tau, JoinConfig(workers=workers,
                                          chunk_size=chunk_size))
        with Timer() as timer:
            result = engine.self_join(strings)
        if expected is None:
            expected = result.pairs
        elif result.pairs != expected:
            raise AssertionError(
                f"workers={workers} disagrees with workers="
                f"{worker_counts[0]} on the result set")
        measured.append((workers, timer.seconds, len(result)))
    # Baseline = the run with the fewest *effective* workers (0 = all CPUs,
    # so it never qualifies as the baseline on a multi-core machine).
    baseline_row = min(measured, key=lambda row: resolve_workers(row[0]))
    table = ExperimentTable(
        key="parallel-scaling",
        title="Parallel join: scaling with worker count",
        columns=["dataset", "tau", "num_strings", "workers", "total_seconds",
                 "speedup", "results"],
        notes=f"{available_cpus()} CPU(s) available; speedup is relative to "
              f"the workers={baseline_row[0]} run; " + _SCALE_NOTE,
    )
    for workers, seconds, results in measured:
        table.add_row(dataset=name, tau=tau, num_strings=len(strings),
                      workers=workers,
                      total_seconds=round(seconds, 6),
                      speedup=round(baseline_row[1] / max(seconds, 1e-9), 3),
                      results=results)
    return table


# ----------------------------------------------------------------------
# Service throughput (beyond the paper — the online serving layer)
# ----------------------------------------------------------------------
def service_throughput(scale: float = 1.0, name: str = "author", tau: int = 2,
                       num_queries: int | None = None,
                       distinct_fraction: float = 0.1,
                       cache_capacity: int = 1024,
                       seed: int = 7) -> ExperimentTable:
    """Queries/sec of the serving core with the query cache off and on.

    A repeated-query workload (``distinct_fraction`` of the requests are
    distinct; the rest repeat them, mimicking popular online lookups) runs
    through :class:`~repro.service.server.SimilarityService` twice — once
    with ``cache_capacity=0`` and once with the cache enabled.  Both runs
    must return the same total number of matches; the table records the
    speedup and the cache hit rate.  Transport (JSON framing, TCP) is
    deliberately excluded: this measures the serving core the transport
    multiplexes onto.
    """
    import random

    from ..config import ServiceConfig
    from ..datasets.corruption import apply_random_edits
    from ..service.server import SimilarityService

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(20, int(400 * scale))
    rng = random.Random(seed)
    distinct = max(1, min(num_queries, int(num_queries * distinct_fraction)))
    pool = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
            for _ in range(distinct)]
    workload = [rng.choice(pool) for _ in range(num_queries)]

    table = ExperimentTable(
        key="service-throughput",
        title="Online service throughput: query cache off vs on",
        columns=["dataset", "tau", "queries", "distinct", "cache", "seconds",
                 "qps", "speedup", "hit_rate", "total_matches"],
        notes=f"{distinct} distinct queries repeated to {num_queries} "
              "requests; serving core only (no TCP transport); " + _SCALE_NOTE,
    )
    measured: list[tuple[str, float, float, int]] = []
    for label, capacity in (("off", 0), ("on", cache_capacity)):
        service = SimilarityService(
            strings, ServiceConfig(max_tau=tau, cache_capacity=capacity))
        keys = [("search", query, tau) for query in workload]
        total_matches = 0
        with Timer() as timer:
            for key in keys:
                matches, _ = service.execute_queries([key])[0]
                total_matches += len(matches)
        measured.append((label, timer.seconds,
                         service.cache.stats.hit_rate, total_matches))
    baseline_seconds = measured[0][1]
    for label, seconds, hit_rate, total_matches in measured:
        table.add_row(dataset=name, tau=tau, queries=num_queries,
                      distinct=distinct, cache=label,
                      seconds=round(seconds, 6),
                      qps=round(num_queries / max(seconds, 1e-9), 1),
                      speedup=round(baseline_seconds / max(seconds, 1e-9), 3),
                      hit_rate=round(hit_rate, 4),
                      total_matches=total_matches)
    return table


# ----------------------------------------------------------------------
# Batch search (beyond the paper — the batch-probe executor)
# ----------------------------------------------------------------------
def batch_search(scale: float = 1.0, name: str = "author", tau: int = 2,
                 num_queries: int | None = None, batch_size: int = 64,
                 distinct_fraction: float = 0.1,
                 seed: int = 7, mixed_tau: bool = False) -> ExperimentTable:
    """Per-query ``search()`` vs the grouped ``search_many()`` batch path.

    A repeated-query workload (``distinct_fraction`` of the requests are
    distinct) runs against one :class:`~repro.search.PassJoinSearcher`
    twice: once as sequential per-query searches and once in
    ``batch_size``-query batches through the batch-probe executor, which
    probes duplicate queries once and shares the selection-window
    computation between same-length queries.  Both runs must return
    element-identical results per query — the benchmark asserts it.

    With ``mixed_tau`` every query draws its own threshold from
    ``1..tau``, the workload where the v2 executor's persistent window
    cache and fused posting scans matter: selection windows depend only on
    the index partition threshold, so same-length queries share them even
    across different per-query taus and across batches.  The
    ``windows_cache_hits`` and ``postings_fanout`` columns record the
    per-run deltas of the matching funnel counters.

    The table also records the columnar index memory
    (:meth:`SegmentIndex.memory_report
    <repro.core.index.SegmentIndex.memory_report>`) next to the estimated
    footprint of the pre-columnar object-list layout
    (:meth:`~repro.core.index.SegmentIndex.object_layout_bytes`), the other
    half of the refactor's win.
    """
    import random

    from ..datasets.corruption import apply_random_edits
    from ..search.searcher import PassJoinSearcher

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(2 * batch_size, int(640 * scale))
    rng = random.Random(seed)
    distinct = max(1, min(num_queries, int(num_queries * distinct_fraction)))
    pool = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
            for _ in range(distinct)]
    workload = [rng.choice(pool) for _ in range(num_queries)]
    if mixed_tau:
        taus = [rng.randint(1, max(1, tau)) for _ in workload]
    else:
        taus = [tau] * len(workload)

    searcher = PassJoinSearcher(strings, max_tau=tau)
    memory = searcher._index.memory_report()
    object_bytes = searcher._index.object_layout_bytes()

    def funnel_counters() -> tuple[int, int]:
        stats = searcher.statistics
        return stats.num_windows_cache_hits, stats.num_postings_fanout

    marker = funnel_counters()
    with Timer() as sequential_timer:
        sequential = [searcher.search(query, query_tau)
                      for query, query_tau in zip(workload, taus)]
    after = funnel_counters()
    sequential_counters = tuple(now - then
                                for now, then in zip(after, marker))
    marker = after
    with Timer() as batch_timer:
        batched: list = []
        for start in range(0, len(workload), batch_size):
            batched.extend(searcher.search_many(
                workload[start:start + batch_size],
                taus[start:start + batch_size]))
    batch_counters = tuple(now - then for now, then
                           in zip(funnel_counters(), marker))
    if batched != sequential:
        raise AssertionError(
            "batch-probe executor disagrees with per-query search")

    table = ExperimentTable(
        key="batch-search",
        title="Batch-probe executor: sequential vs batched search",
        columns=["dataset", "tau", "queries", "distinct", "batch_size",
                 "mode", "seconds", "qps", "speedup", "total_matches",
                 "windows_cache_hits", "postings_fanout",
                 "index_bytes", "object_index_bytes"],
        notes=f"{distinct} distinct queries repeated to {num_queries} "
              f"requests in batches of {batch_size}; results asserted "
              "element-identical; windows_cache_hits / postings_fanout are "
              "the per-run funnel-counter deltas; index_bytes is the "
              "columnar layout (postings + record columns), "
              "object_index_bytes the estimated pre-columnar object-list "
              "layout; " + _SCALE_NOTE,
    )
    tau_label = f"1..{max(1, tau)}" if mixed_tau else tau
    baseline_seconds = sequential_timer.seconds
    for mode, seconds, results, counters in (
            ("sequential", sequential_timer.seconds, sequential,
             sequential_counters),
            ("batch", batch_timer.seconds, batched, batch_counters)):
        table.add_row(dataset=name, tau=tau_label, queries=num_queries,
                      distinct=distinct, batch_size=batch_size, mode=mode,
                      seconds=round(seconds, 6),
                      qps=round(num_queries / max(seconds, 1e-9), 1),
                      speedup=round(baseline_seconds / max(seconds, 1e-9), 3),
                      total_matches=sum(len(matches) for matches in results),
                      windows_cache_hits=counters[0],
                      postings_fanout=counters[1],
                      index_bytes=memory["approximate_bytes"],
                      object_index_bytes=object_bytes)
    return table


# ----------------------------------------------------------------------
# Filter funnel (beyond the paper — the observability layer's view)
# ----------------------------------------------------------------------
def filter_funnel(scale: float = 1.0, name: str = "author",
                  taus: Sequence[int] = (1, 2, 3),
                  num_queries: int | None = None,
                  seed: int = 7) -> ExperimentTable:
    """Per-stage survivor counts of the search path's filter funnel.

    Runs a corrupted-query workload against a fresh
    :class:`~repro.search.PassJoinSearcher` per threshold and reports the
    engine's funnel counters — the same counters the service's ``metrics``
    op exposes as ``engine_*`` — stage by stage: selected substrings →
    index probes → postings scanned → candidates (id-column survivors) →
    verifications → accepted.  ``verify_rate`` (verifications per accepted
    match) is the filter-quality headline: the closer to 1.0, the less
    wasted verifier work, which is the paper's central claim made
    continuously measurable.
    """
    import random

    from ..datasets.corruption import apply_random_edits
    from ..search.searcher import PassJoinSearcher
    from .reporting import funnel_metrics

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(20, int(200 * scale))
    max_tau = max(taus)
    rng = random.Random(seed)
    workload = [apply_random_edits(rng.choice(strings),
                                   rng.randint(0, max_tau), rng)
                for _ in range(num_queries)]

    table = ExperimentTable(
        key="filter-funnel",
        title="Filter funnel: per-stage survivors on the search path",
        columns=["dataset", "tau", "queries", "selected_substrings",
                 "index_probes", "postings_scanned", "candidates",
                 "verifications", "accepted", "verify_rate"],
        notes="counters mirror the service's engine_* metrics; verify_rate "
              "= verifications per accepted match (lower is a tighter "
              "filter); " + _SCALE_NOTE,
    )
    for tau in taus:
        searcher = PassJoinSearcher(strings, max_tau=tau)
        for query in workload:
            searcher.search(query, tau)
        funnel = funnel_metrics(searcher.statistics)
        accepted = funnel["num_accepted"]
        table.add_row(dataset=name, tau=tau, queries=num_queries,
                      selected_substrings=funnel["num_selected_substrings"],
                      index_probes=funnel["num_index_probes"],
                      postings_scanned=funnel["num_postings_scanned"],
                      candidates=funnel["num_candidates"],
                      verifications=funnel["num_verifications"],
                      accepted=accepted,
                      verify_rate=round(
                          funnel["num_verifications"] / max(accepted, 1), 3))
    return table


# ----------------------------------------------------------------------
# Sharded serving throughput (beyond the paper — the sharded serving tier)
# ----------------------------------------------------------------------
def sharded_throughput(scale: float = 1.0, name: str = "author", tau: int = 2,
                       num_queries: int | None = None,
                       shard_counts: Sequence[int] = (1, 2, 3),
                       policy: str = "hash", backend: str = "auto",
                       seed: int = 7) -> ExperimentTable:
    """Queries/sec of the serving core as the collection is sharded.

    The same (all-distinct, cache-off) query workload runs against the
    serving core configured with each shard count in ``shard_counts``;
    ``shards=1`` is the unsharded :class:`~repro.service.DynamicSearcher`
    baseline for the ``speedup`` column; it is always swept, first, no
    matter how ``shard_counts`` is spelled.  Every row must report the same
    total number of matches — the sharded tier is exact by construction,
    and the benchmark asserts it.

    Speedup depends on the machine: with the ``process`` backend each shard
    worker searches a ~``1/N`` slice concurrently on its own core, while on
    a 1-CPU box (or under the in-process ``thread`` backend) scatter-gather
    costs are pure overhead and the column documents exactly that.  The
    table notes record the CPU budget and resolved backend so the numbers
    are interpretable either way.
    """
    import random

    from ..config import ServiceConfig
    from ..datasets.corruption import apply_random_edits
    from ..service.server import SimilarityService
    from ..service.sharding import resolve_shard_backend

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(20, int(400 * scale))
    rng = random.Random(seed)
    workload = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
                for _ in range(num_queries)]
    keys = [("search", query, tau) for query in workload]

    # The unsharded run is the baseline: always present, always first.
    shard_counts = (1, *[count for count in shard_counts if count != 1])
    resolved = resolve_shard_backend(backend)
    table = ExperimentTable(
        key="sharded-throughput",
        title="Sharded serving tier: throughput vs shard count",
        columns=["dataset", "tau", "queries", "shards", "policy", "backend",
                 "seconds", "qps", "speedup", "total_matches"],
        notes=f"{available_cpus()} CPU(s) available, backend resolves to "
              f"{resolved!r}; cache disabled so every query is a real index "
              f"pass; on 1 CPU scatter-gather is pure overhead — speedup "
              f"needs a multi-core runner; " + _SCALE_NOTE,
    )
    baseline_seconds: float | None = None
    for shards in shard_counts:
        service = SimilarityService(strings, ServiceConfig(
            max_tau=tau, cache_capacity=0, shards=shards,
            shard_policy=policy, shard_backend=backend))
        try:
            total_matches = 0
            with Timer() as timer:
                for key in keys:
                    matches, _ = service.execute_queries([key])[0]
                    total_matches += len(matches)
        finally:
            service.close()
        if shards == 1:
            baseline_seconds = timer.seconds
        assert baseline_seconds is not None  # shards=1 is swept first
        table.add_row(dataset=name, tau=tau, queries=num_queries,
                      shards=shards, policy=policy if shards > 1 else "-",
                      backend=resolved if shards > 1 else "unsharded",
                      seconds=round(timer.seconds, 6),
                      qps=round(num_queries / max(timer.seconds, 1e-9), 1),
                      speedup=round(baseline_seconds
                                    / max(timer.seconds, 1e-9), 3),
                      total_matches=total_matches)
    return table


# ----------------------------------------------------------------------
# Resharding throughput (beyond the paper — the elastic shard fleet)
# ----------------------------------------------------------------------
def resharding_throughput(scale: float = 1.0, name: str = "author",
                          tau: int = 2, num_queries: int | None = None,
                          policy: str = "hash", backend: str = "thread",
                          migration_batch: int = 64,
                          seed: int = 7) -> ExperimentTable:
    """Serving throughput while the shard fleet is resized live.

    Runs one query workload five times against a sharded serving core
    (cache off): at a steady 2 shards, *while* an ``add-shard`` rebalance
    streams records to a third shard (one bounded migration step between
    queries — the interleaving a live server produces), at a steady 3
    shards, while a ``remove-shard`` rebalance retires the third shard,
    and at a steady 2 shards again.  Every single answer — including every
    answer produced mid-migration — is asserted element-identical to an
    unsharded :class:`~repro.service.DynamicSearcher` over the same
    collection: the experiment *is* the zero-downtime claim, measured.

    ``rows_moved``/``moved_frac`` report the migration volume of the two
    resize phases: the consistent-hash ``hash`` policy moves ~1/N of the
    collection where the legacy ``modulo`` map would move nearly all of it.
    """
    import random

    from ..config import ServiceConfig
    from ..datasets.corruption import apply_random_edits
    from ..service.dynamic import DynamicSearcher
    from ..service.server import SimilarityService
    from ..service.sharding import resolve_shard_backend

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(20, int(300 * scale))
    rng = random.Random(seed)
    workload = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
                for _ in range(num_queries)]
    keys = [("search", query, tau) for query in workload]

    oracle = DynamicSearcher(strings, max_tau=tau)
    expected = [oracle.search(query, tau) for query in workload]

    resolved = resolve_shard_backend(backend)
    table = ExperimentTable(
        key="resharding-throughput",
        title="Elastic shard fleet: throughput while resharding",
        columns=["dataset", "tau", "queries", "phase", "shards", "policy",
                 "seconds", "qps", "rows_moved", "moved_frac"],
        notes=f"{available_cpus()} CPU(s) available, backend resolves to "
              f"{resolved!r}, migration_batch={migration_batch}; cache "
              f"disabled so every query is a real index pass; every answer "
              f"(mid-migration included) is asserted element-identical to "
              f"an unsharded searcher; on 1 CPU the resize phases pay the "
              f"migration work on the serving core's only core, so their "
              f"qps dips — the point is that it never drops to zero; "
              + _SCALE_NOTE,
    )
    service = SimilarityService(strings, ServiceConfig(
        max_tau=tau, cache_capacity=0, shards=2, shard_policy=policy,
        shard_backend=backend, migration_batch=migration_batch))

    def run_phase(phase: str, resize: str | None) -> None:
        rows_moved = 0
        with Timer() as timer:
            if resize is not None:
                started = service.handle_request({"op": resize,
                                                  "drain": False})
                if not started.get("ok"):
                    # A silently failed resize would degrade this phase
                    # into a steady-state run and report the *previous*
                    # migration's row counts — fail loudly instead.
                    raise AssertionError(
                        f"{phase}: {resize} failed: {started.get('error')}")
            for key, matches in zip(keys, expected):
                if resize is not None:
                    service.migration_step()
                answer, _ = service.execute_queries([key])[0]
                if answer != matches:
                    raise AssertionError(
                        f"{phase}: sharded answer diverged from the "
                        f"unsharded oracle for query {key[1]!r}")
            if resize is not None:
                while service.rebalance_status()["active"]:
                    service.migration_step()
        if resize is not None:
            rows_moved = service.rebalance_status()["rows_copied"]
        table.add_row(dataset=name, tau=tau, queries=num_queries,
                      phase=phase, shards=service.searcher.num_shards,
                      policy=policy, seconds=round(timer.seconds, 6),
                      qps=round(num_queries / max(timer.seconds, 1e-9), 1),
                      rows_moved=rows_moved,
                      moved_frac=round(rows_moved / max(len(strings), 1), 3))

    try:
        run_phase("steady-2", None)
        run_phase("during-add", "add-shard")
        run_phase("steady-3", None)
        run_phase("during-remove", "remove-shard")
        run_phase("steady-2-after", None)
    finally:
        service.close()
    return table


# ----------------------------------------------------------------------
# Replica scaling (beyond the paper — the read-replica fleet)
# ----------------------------------------------------------------------
def replica_scaling(scale: float = 1.0, name: str = "author", tau: int = 2,
                    num_queries: int | None = None,
                    replica_counts: Sequence[int] = (0, 1, 2),
                    readers: int = 4, backend: str = "auto",
                    seed: int = 7) -> ExperimentTable:
    """Read queries/sec as replicas are added to a single-shard fleet.

    A fixed pool of ``readers`` concurrent reader threads drives the same
    query workload against a one-shard :class:`~repro.service.ShardRouter`
    configured with each replica count in ``replica_counts``;
    ``replicas=0`` is the replica-free baseline for the ``speedup`` column
    and is always swept, first, no matter how ``replica_counts`` is
    spelled.  Every single answer is asserted element-identical to an
    unsharded :class:`~repro.service.DynamicSearcher` over the same
    collection — replicas never trade exactness for throughput.

    With ``replicas=0`` all readers serialise on the primary worker's
    request lock; with N replicas the read schedule rotates the same
    readers across N independent workers, so with the ``process`` backend
    on a multi-core box read throughput scales toward ``min(readers, N)``
    concurrent index passes.  On 1 CPU (or under the in-process ``thread``
    backend) replica workers add routing overhead without adding cores,
    and the column documents exactly that; the table notes record the CPU
    budget and resolved backend so the numbers are interpretable either
    way.  ``replica_reads`` counts reads served by replicas (never stale
    ones — a lagging replica falls through to the primary).
    """
    import random
    import threading

    from ..datasets.corruption import apply_random_edits
    from ..service.dynamic import DynamicSearcher
    from ..service.sharding import ShardRouter, resolve_shard_backend

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(20, int(300 * scale))
    rng = random.Random(seed)
    workload = [apply_random_edits(rng.choice(strings), rng.randint(0, tau), rng)
                for _ in range(num_queries)]

    oracle = DynamicSearcher(strings, max_tau=tau)
    expected = [oracle.search(query, tau) for query in workload]

    # The replica-free run is the baseline: always present, always first.
    replica_counts = (0, *[count for count in replica_counts if count != 0])
    resolved = resolve_shard_backend(backend)
    table = ExperimentTable(
        key="replica-scaling",
        title="Read-replica fleet: read throughput vs replica count",
        columns=["dataset", "tau", "queries", "replicas", "readers",
                 "backend", "seconds", "qps", "speedup", "replica_reads",
                 "total_matches"],
        notes=f"{available_cpus()} CPU(s) available, backend resolves to "
              f"{resolved!r}, {readers} concurrent reader threads; every "
              f"answer is asserted element-identical to an unsharded "
              f"searcher; on 1 CPU replica routing is pure overhead — "
              f"speedup needs a multi-core runner; " + _SCALE_NOTE,
    )

    def run_readers(router: ShardRouter) -> int:
        failures: list[str] = []
        matched = [0] * readers

        def read_slice(slot: int) -> None:
            for index in range(slot, len(workload), readers):
                answer = router.search(workload[index], tau)
                if answer != expected[index]:
                    failures.append(workload[index])
                    return
                matched[slot] += len(answer)

        threads = [threading.Thread(target=read_slice, args=(slot,))
                   for slot in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise AssertionError(
                f"replicated answer diverged from the unsharded oracle "
                f"for query {failures[0]!r}")
        return sum(matched)

    baseline_seconds: float | None = None
    for replicas in replica_counts:
        router = ShardRouter(strings, shards=1, max_tau=tau,
                             backend=backend, replicas_per_shard=replicas)
        try:
            with Timer() as timer:
                total_matches = run_readers(router)
            replica_reads = router.replica_reads
        finally:
            router.close()
        if replicas == 0:
            baseline_seconds = timer.seconds
        assert baseline_seconds is not None  # replicas=0 is swept first
        table.add_row(dataset=name, tau=tau, queries=num_queries,
                      replicas=replicas, readers=readers,
                      backend=resolved if replicas else "primary-only",
                      seconds=round(timer.seconds, 6),
                      qps=round(num_queries / max(timer.seconds, 1e-9), 1),
                      speedup=round(baseline_seconds
                                    / max(timer.seconds, 1e-9), 3),
                      replica_reads=replica_reads,
                      total_matches=total_matches)
    return table


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_partition_strategies(scale: float = 1.0, name: str = "author",
                                  tau: int = 3) -> ExperimentTable:
    """Even vs deliberately skewed partitions: why the paper partitions evenly."""
    table = ExperimentTable(
        key="ablation-partition",
        title="Partition strategy ablation",
        columns=["dataset", "tau", "strategy", "candidates", "total_seconds",
                 "results"],
        notes="left/right-heavy create single-character segments with poor "
              "selectivity; candidate counts explode relative to even",
    )
    strings = build_datasets(scale, [name])[name]
    for strategy in PartitionStrategy:
        config = replace(PAPER_CONFIG, partition=strategy)
        result = PassJoin(tau, config).self_join(strings)
        table.add_row(dataset=name, tau=tau, strategy=strategy.value,
                      candidates=result.statistics.num_candidates,
                      total_seconds=round(result.statistics.total_seconds, 6),
                      results=len(result))
    return table


def ablation_verifier_kernels(scale: float = 1.0, name: str = "querylog",
                              tau: int = 6) -> ExperimentTable:
    """Length-aware banded DP vs bit-parallel Myers verification."""
    table = ExperimentTable(
        key="ablation-verifier",
        title="Verifier kernel ablation",
        columns=["dataset", "tau", "method", "verification_seconds", "results"],
        notes="Myers is exact but ignores the threshold band; the paper's "
              "length-aware kernel exploits tau",
    )
    strings = build_datasets(scale, [name])[name]
    for method in (VerificationMethod.LENGTH_AWARE, VerificationMethod.MYERS,
                   VerificationMethod.MYERS_BATCH,
                   VerificationMethod.SHARE_PREFIX):
        config = JoinConfig(verification=method)
        result = PassJoin(tau, config).self_join(strings)
        table.add_row(dataset=name, tau=tau, method=method.value,
                      verification_seconds=round(
                          result.statistics.verification_seconds, 6),
                      results=len(result))
    return table


def verification_kernels(scale: float = 1.0, name: str = "author",
                         tau: int = 3, repeats: int = 3) -> ExperimentTable:
    """The default verifier vs per-pair kernels on the Figure 14 workload.

    One verification-dominated Figure 14 configuration is joined with the
    paper's length-aware kernel (the correctness oracle), the per-pair
    bit-parallel Myers kernel (the speedup baseline) and the library
    default, ``myers-batch`` (signature reject, then the batched Myers
    sweep — ``signature_reject_share`` is the part of its verifications
    the first stage decides).  Every method's ``(left_id, right_id,
    distance)`` triple set is asserted equal to the oracle's — a
    fast-but-wrong kernel must fail the experiment, not win it.
    ``verification_seconds`` is the best of ``repeats`` runs (the standard
    guard against scheduler noise on the 1-CPU CI box) and
    ``speedup_vs_myers`` divides the per-pair Myers time by the method's own.
    """
    table = ExperimentTable(
        key="verification-kernels",
        title="Verification kernels: default vs per-pair (Figure 14 config)",
        columns=["dataset", "tau", "method", "verification_seconds",
                 "matrix_cells", "verifications", "signature_reject_share",
                 "speedup_vs_myers", "results"],
        notes="result triple-sets asserted identical across kernels; "
              "speedup_vs_myers = per-pair Myers verification_seconds over "
              "the method's own (best of %d runs); " % repeats + _SCALE_NOTE,
    )
    strings = build_datasets(scale, [name])[name]
    methods = (VerificationMethod.LENGTH_AWARE, VerificationMethod.MYERS,
               VerificationMethod.MYERS_BATCH)

    measurements: dict[VerificationMethod, tuple[float, object]] = {}
    oracle_pairs: set[tuple[int, int, int]] | None = None
    for method in methods:
        config = JoinConfig(selection=SelectionMethod.MULTI_MATCH,
                            verification=method)
        best_seconds = float("inf")
        best_stats = None
        for _ in range(max(1, repeats)):
            result = PassJoin(tau, config).self_join(strings)
            pairs = {(pair.left_id, pair.right_id, pair.distance)
                     for pair in result.pairs}
            if oracle_pairs is None:
                oracle_pairs = pairs
            elif pairs != oracle_pairs:
                raise AssertionError(
                    f"{method.value} result set diverged from "
                    f"{methods[0].value}: {len(pairs)} vs "
                    f"{len(oracle_pairs)} pairs")
            if result.statistics.verification_seconds < best_seconds:
                best_seconds = result.statistics.verification_seconds
                best_stats = result.statistics
        measurements[method] = (best_seconds, best_stats)

    myers_seconds = measurements[VerificationMethod.MYERS][0]
    for method in methods:
        seconds, stats = measurements[method]
        table.add_row(dataset=name, tau=tau, method=method.value,
                      verification_seconds=round(seconds, 6),
                      matrix_cells=stats.num_matrix_cells,
                      verifications=stats.num_verifications,
                      signature_reject_share=round(
                          stats.num_signature_rejects
                          / max(stats.num_verifications, 1), 4),
                      speedup_vs_myers=round(myers_seconds / max(seconds, 1e-9),
                                             2),
                      results=len(oracle_pairs))
    return table


def ablation_filter_quality(scale: float = 1.0, name: str = "author",
                            tau: int = 2, q: int = 3) -> ExperimentTable:
    """Candidate counts of every algorithm vs the true result count.

    A compact view of filter quality: the closer ``candidates`` is to
    ``results``, the less verification work an algorithm pays for.
    """
    table = ExperimentTable(
        key="ablation-filter-quality",
        title="Filter quality (candidates vs results)",
        columns=["dataset", "tau", "algorithm", "candidates", "results"],
        notes="candidates counts pairs handed to the verifier: the paper's "
              "extension verifiers (pass-join) may meet a pair through several "
              "segments, the library default (pass-join-default) decides it once",
    )
    strings = build_datasets(scale, [name])[name]
    algorithms = [
        ("naive", NaiveJoin(tau)),
        ("part-enum", PartEnumJoin(tau, q=2)),
        ("ed-join", EdJoin(tau, q=q)),
        ("trie-join", TrieJoin(tau)),
        ("pass-join", PassJoin(tau, PAPER_CONFIG)),
        ("pass-join-default", PassJoin(tau)),
    ]
    for label, algorithm in algorithms:
        result = algorithm.self_join(strings)
        table.add_row(dataset=name, tau=tau, algorithm=label,
                      candidates=result.statistics.num_candidates,
                      results=len(result))
    return table


# ----------------------------------------------------------------------
# Similarity kernels (beyond the paper — the pluggable-kernel layer)
# ----------------------------------------------------------------------
def kernel_comparison(scale: float = 1.0, name: str = "title",
                      ed_tau: int = 2, jaccard_tau: int = 40,
                      num_queries: int | None = None,
                      seed: int = 7) -> ExperimentTable:
    """Both similarity kernels serving the same workload, side by side.

    One corrupted-query workload over the multi-token ``title`` dataset is
    answered twice through the same :class:`~repro.search.PassJoinSearcher`
    front end — once under the ``edit-distance`` kernel (character edits,
    partition segments) and once under ``token-jaccard`` (token sets,
    prefix-filter signatures).  Thresholds are chosen to be *semantically*
    comparable, not numerically: ``ed_tau`` character edits vs a scaled
    Jaccard distance of ``jaccard_tau`` (``<= jaccard_tau/100`` dissimilar).

    Every kernel's results are asserted element-identical to a brute-force
    scan with its own distance function — a fast-but-wrong kernel fails the
    experiment rather than winning it.  The funnel columns show what the
    two signature schemes hand the verifier on identical text.
    """
    import random

    from ..core.kernel import token_jaccard_distance
    from ..datasets.corruption import apply_random_edits
    from ..distance import edit_distance
    from ..search.searcher import PassJoinSearcher

    strings = build_datasets(scale, [name])[name]
    if num_queries is None:
        num_queries = max(16, int(128 * scale))
    rng = random.Random(seed)
    workload = [apply_random_edits(rng.choice(strings), rng.randint(0, 3),
                                   rng)
                for _ in range(num_queries)]

    table = ExperimentTable(
        key="kernel-comparison",
        title="Similarity kernels: edit distance vs token-set Jaccard",
        columns=["dataset", "kernel", "tau", "queries", "seconds", "qps",
                 "candidates", "verifications", "accepted", "total_matches",
                 "index_bytes"],
        notes="same workload through both kernels; each kernel's matches "
              "are asserted element-identical to a brute-force scan with "
              "its own distance; tau semantics differ by design "
              "(character edits vs scaled Jaccard distance); " + _SCALE_NOTE,
    )
    oracles = {"edit-distance": edit_distance,
               "token-jaccard": token_jaccard_distance}
    for kernel, tau in (("edit-distance", ed_tau),
                        ("token-jaccard", jaccard_tau)):
        searcher = PassJoinSearcher(strings, max_tau=tau, kernel=kernel)
        with Timer() as timer:
            results = [searcher.search(query, tau) for query in workload]
        distance = oracles[kernel]
        for query, matches in zip(workload, results):
            expected = sorted(
                (record_id, text) for record_id, text in enumerate(strings)
                if distance(text, query) <= tau)
            if sorted((m.id, m.text) for m in matches) != expected:
                raise AssertionError(
                    f"{kernel} kernel disagrees with brute force on "
                    f"{query!r}")
        stats = searcher.statistics
        table.add_row(dataset=name, kernel=kernel, tau=tau,
                      queries=num_queries,
                      seconds=round(timer.seconds, 6),
                      qps=round(num_queries / max(timer.seconds, 1e-9), 1),
                      candidates=stats.num_candidates,
                      verifications=stats.num_verifications,
                      accepted=stats.num_accepted,
                      total_matches=sum(len(m) for m in results),
                      index_bytes=stats.index_bytes)
    return table


#: Registry used by the CLI and by EXPERIMENTS.md generation.
EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "table2": table2_dataset_statistics,
    "table3": table3_index_sizes,
    "figure11": fig11_length_distribution,
    "figure12": fig12_selected_substrings,
    "figure13": fig13_selection_time,
    "figure14": fig14_verification,
    "figure15": fig15_comparison,
    "figure16": fig16_scalability,
    "parallel-scaling": parallel_scaling,
    "service-throughput": service_throughput,
    "batch-search": batch_search,
    "filter-funnel": filter_funnel,
    "sharded-throughput": sharded_throughput,
    "resharding-throughput": resharding_throughput,
    "replica-scaling": replica_scaling,
    "ablation-partition": ablation_partition_strategies,
    "ablation-verifier": ablation_verifier_kernels,
    "verification-kernels": verification_kernels,
    "ablation-filter-quality": ablation_filter_quality,
    "kernel-comparison": kernel_comparison,
}
