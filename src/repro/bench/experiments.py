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

plus ablations that back design choices discussed in EXPERIMENTS.md
(:func:`ablation_partition_strategies`, :func:`ablation_verifier_kernels`,
:func:`ablation_filter_quality`), the tracked kernel benchmark
:func:`verification_kernels` (batched vs per-pair bit-parallel
verification, the source of ``BENCH_verification.json``) and two
experiments beyond the paper: :func:`parallel_scaling` (worker count) and
:func:`filter_funnel` (per-stage survivors on the search path).  Serving
throughput is measured end to end by ``benchmarks/e2e`` rather than here.

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
    "filter-funnel": filter_funnel,
    "ablation-partition": ablation_partition_strategies,
    "ablation-verifier": ablation_verifier_kernels,
    "verification-kernels": verification_kernels,
    "ablation-filter-quality": ablation_filter_quality,
}
