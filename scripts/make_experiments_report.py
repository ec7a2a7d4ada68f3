#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-reported vs measured, per table/figure.

Runs every experiment of the benchmark harness at a configurable scale and
writes a Markdown report pairing the paper's published outcome with the
numbers measured in this reproduction.

Usage::

    python scripts/make_experiments_report.py [--scale 0.25] [--output EXPERIMENTS.md]

The default scale keeps the full report under ~10 minutes of wall clock on a
laptop; larger scales sharpen the trends at the cost of runtime.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

from repro.bench import experiments
from repro.bench.reporting import format_table

HEADER = """\
# EXPERIMENTS — paper vs. this reproduction

Paper: *Pass-Join: A Partition-based Method for Similarity Joins*,
Li, Deng, Wang, Feng — PVLDB 5(3), 2011.

This file is generated by `python scripts/make_experiments_report.py`
(scale factor {scale}, generated {date}).

**How to read it.**  The paper's evaluation ran C++ implementations on
612k–863k-string corpora (DBLP Author, AOL Query Log, DBLP Author+Title).
This reproduction is pure Python on synthetic stand-in datasets of a few
hundred to a few thousand strings (`src/repro/datasets/synthetic.py`
documents the substitutions), so
*absolute* numbers are not comparable.  What is expected to reproduce — and
what the tables below document — is the *shape* of every result: which
method wins, in what order the series move, and where the crossovers fall.

| experiment | paper result (shape) | reproduced? |
|---|---|---|
| Table 2    | three datasets: short / medium / long strings | yes — generators match the length regimes |
| Table 3    | Pass-Join index ≪ Trie-Join ≪/≈ ED-Join index | yes |
| Figure 11  | unimodal length distributions, centres ≈15 / ≈45 / ≈105 | yes |
| Figure 12  | substrings: Multi-match ≤ Position ≤ Shift ≤ Length (≈10× spread) | yes |
| Figure 13  | selection time follows the substring counts | yes |
| Figure 14  | verification: SharePrefix ≤ Extension ≤ τ+1 ≤ 2τ+1 | yes (deterministic cell counts; wall-clock at small scale is noisier) |
| Figure 15  | Pass-Join fastest everywhere; Trie-Join good on short, ED-Join good on long | partially — candidate counts and the Trie/ED crossover reproduce; wall-clock wins require larger corpora than the scaled-down Python run (discussion below) |
| Figure 16  | near-linear scalability | yes |
"""


def _section(title: str, paper: str, measured: str, commentary: str) -> str:
    parts = [f"## {title}\n", f"**Paper.** {paper}\n", "**Measured.**\n", measured, ""]
    if commentary:
        parts.append(f"**Commentary.** {commentary}\n")
    return "\n".join(parts)


def build_report(scale: float) -> str:
    sections: list[str] = []
    date = datetime.date.today().isoformat()
    sections.append(HEADER.format(scale=scale, date=date))

    # ------------------------------------------------------------------
    table2 = experiments.table2_dataset_statistics(scale=scale)
    sections.append(_section(
        "Table 2 — Datasets",
        "Author: 612,781 strings, avg len 14.8 (6–46). Query Log: 464,189, "
        "avg len 44.8 (30–522). Author+Title: 863,073, avg len 105.8 (21–886).",
        format_table(table2, markdown=True),
        "The synthetic stand-ins match the three length regimes (≈13–15 / "
        "≈45–55 / ≈100–130 average characters) at a reduced cardinality; "
        "cardinality is a free parameter of the generators."))

    # ------------------------------------------------------------------
    fig11 = experiments.fig11_length_distribution(scale=scale, bucket_size=5)
    compact = experiments.ExperimentTable(
        key="figure11-summary", title="Length distribution summary",
        columns=["dataset", "peak_bucket", "buckets", "strings"])
    for name in ("author", "querylog", "title"):
        rows = fig11.filter_rows(dataset=name)
        peak = max(rows, key=lambda row: row["num_strings"])["length_bucket"]
        compact.add_row(dataset=name, peak_bucket=peak, buckets=len(rows),
                        strings=sum(row["num_strings"] for row in rows))
    sections.append(_section(
        "Figure 11 — String length distributions",
        "Unimodal distributions centred near 15 (Author), 45 (Query Log), and "
        "105 (Author+Title) characters.",
        format_table(compact, markdown=True),
        "Full histograms are available via "
        "`passjoin experiment figure11`; the summary shows the peak length "
        "bucket per dataset, which reproduces the paper's ordering."))

    # ------------------------------------------------------------------
    sweeps = {"author": (1, 2, 3, 4), "querylog": (4, 6, 8), "title": (5, 7, 10)}
    fig12 = experiments.selection_experiment(
        scale=scale, taus={k: v for k, v in sweeps.items()})
    fig12.key, fig12.title = "figure12+13", "Substring selection (counts and time)"
    sections.append(_section(
        "Figures 12 & 13 — Substring selection",
        "On every dataset and threshold: Multi-match ≤ Position ≤ Shift ≤ "
        "Length, with roughly an order of magnitude between Multi-match and "
        "Length (e.g. Author, τ=1: 2.4M vs 3.7M vs 5.5M vs 19M substrings); "
        "selection time follows the counts.",
        format_table(fig12, markdown=True),
        "The ordering Multi-match ≤ Position ≤ Shift ≤ Length holds for every "
        "dataset/τ row, and the Length-based method is consistently about an "
        "order of magnitude above Multi-match, as in the paper."))

    # ------------------------------------------------------------------
    fig14 = experiments.fig14_verification(
        scale=scale, taus={"author": (2, 4), "querylog": (4, 8), "title": (6, 10)})
    sections.append(_section(
        "Figure 14 — Verification strategies",
        "2τ+1 (banded) is slowest; the length-aware τ+1 method is 2–5× "
        "faster; extension-based verification another 2–4×; SharePrefix is "
        "the fastest (e.g. Author τ=4: 10,000s → 4,000s → 2,000s → 700s).",
        format_table(fig14, markdown=True),
        "All four strategies return identical result counts.  The "
        "deterministic work counter (matrix cells) reproduces the ordering "
        "length-aware ≤ banded and share-prefix ≤ extension on every row; at "
        "this scale wall-clock differences between the two extension variants "
        "are within noise, while the banded→length-aware gap is visible."))

    # ------------------------------------------------------------------
    kernels = experiments.verification_kernels(scale=scale)
    sections.append(_section(
        "Verification kernels (beyond the paper — the library default)",
        "The paper's verifiers process one candidate pair at a time and "
        "start a DP for each.  The library's default verifier "
        "(`VerificationMethod.MYERS_BATCH`, `DEFAULT_VERIFICATION`) first "
        "rejects a candidate whose 256-bit capped character histogram — a "
        "lazily filled column of the record store — is more than tau bucket "
        "counts away from the probe's (ED-Join's content filter in two "
        "popcounts), then encodes the probe's character masks once and "
        "sweeps them across the survivors with Hyyrö's bounded cutoff.  The "
        "paper's tables and figures in this report stay on the paper's "
        "fastest verifier, share-prefix (`PAPER_CONFIG`).",
        format_table(kernels, markdown=True),
        "All three kernels produce identical (left, right, distance) "
        "triple sets (the experiment raises otherwise).  "
        "`signature_reject_share` is the part of the verifications the "
        "histogram signature decides without computing a cell; the rest of "
        "the speedup over the per-pair Myers kernel is the pattern encoding "
        "paid once per probe instead of once per pair.  CI enforces the "
        ">= 1.5x bar at full size via "
        "`benchmarks/bench_fig14_verification.py` and appends every run to "
        "the `BENCH_verification.json` trajectory.  The length-aware DP "
        "kernel computes far fewer cells per sweep (its band is O(tau) per "
        "row) but pays Python-level loop costs per cell, while a "
        "bit-parallel column update is one big-int operation per character."))

    # ------------------------------------------------------------------
    fig15 = experiments.fig15_comparison(
        scale=scale, taus={"author": (2, 4), "querylog": (4, 8), "title": (6, 10)})
    sections.append(_section(
        "Figure 15 — Comparison with ED-Join and Trie-Join",
        "Pass-Join outperforms both baselines on all datasets (short strings: "
        "Pass-Join 700s vs Trie-Join 2,500s vs ED-Join >10,000s at τ=4; long "
        "strings: Pass-Join 130s vs ED-Join 5,000s vs Trie-Join 15,000s at "
        "τ=8).  Trie-Join beats ED-Join on short strings; ED-Join beats "
        "Trie-Join on long strings.",
        format_table(fig15, markdown=True),
        "Reproduced: identical result sets, Pass-Join dominates Trie-Join "
        "everywhere, Trie-Join degrades sharply on long strings (the paper's "
        "crossover), and Pass-Join hands the verifier fewer candidates than "
        "ED-Join at the larger thresholds.  Not fully reproduced at this "
        "scale: the wall-clock gap over ED-Join on the medium/long datasets — "
        "with only a few hundred strings, per-string constant costs dominate "
        "and the candidate explosion that hurts ED-Join at 500k+ strings "
        "never materialises.  The candidate-count column shows the mechanism "
        "that produces the paper's full-scale gap.  `pass-join` is the "
        "paper's configuration (share-prefix verification); "
        "`pass-join-default` is the same join with the library's default "
        "verifier, shown for reference — it is not a pure-DP kernel, and a "
        "whole-string verifier decides each pair once, hence its lower "
        "candidate count."))

    # ------------------------------------------------------------------
    fig16 = experiments.fig16_scalability(
        scale=scale, taus={"author": (2, 4), "querylog": (6,), "title": (8,)},
        steps=4)
    sections.append(_section(
        "Figure 16 — Scalability",
        "Elapsed time grows near-linearly with the number of strings (Author, "
        "τ=4: 360s / 530s / 700s for 400k / 500k / 600k strings).",
        format_table(fig16, markdown=True),
        "Time grows smoothly and clearly sub-quadratically with the "
        "collection size on all three datasets."))

    # ------------------------------------------------------------------
    table3 = experiments.table3_index_sizes(scale=scale, tau=4, q=4)
    sections.append(_section(
        "Table 3 — Index sizes",
        "Author+Title: ED-Join (q=4) 335 MB, Trie-Join 90 MB, Pass-Join "
        "2.1 MB; Pass-Join's index is 1–2 orders of magnitude smaller on all "
        "datasets.",
        format_table(table3, markdown=True),
        "Pass-Join's peak sliding-window segment index is by far the smallest "
        "on every dataset — the paper's headline result.  The relative order "
        "of the two baselines differs from the paper at this scale (the trie's "
        "per-node overhead dominates on small corpora, whereas at 863k strings "
        "ED-Join's posting volume dominates); absolute sizes scale with the "
        "reduced cardinality."))

    # ------------------------------------------------------------------
    funnel = experiments.filter_funnel(scale=scale)
    sections.append(_section(
        "Filter funnel (beyond the paper — observability)",
        "The paper's central claim is filter quality: partition-based "
        "selection hands the verifier a small candidate set.  The "
        "observability layer makes that claim continuously measurable — "
        "the engine counts every stage of the funnel (selected substrings "
        "→ index probes → postings scanned → id-column survivors → "
        "verifications → accepted matches) and the service exports the "
        "counters via its `metrics` op (`passjoin admin metrics "
        "--prometheus`) and per-query via `explain`.",
        format_table(funnel, markdown=True),
        "Each stage can only shrink the stream (CI's service smoke "
        "asserts accepted <= verifications <= candidates <= postings "
        "scanned on a live server), and verify_rate — verifications per "
        "accepted match — quantifies filter tightness per threshold: it "
        "grows with tau exactly as the paper's candidate-count figures "
        "predict.  The end-to-end benchmark reports the same counters "
        "per layer (`benchmarks/e2e/run.py --trace 1`: "
        "`core.engine.candidates`, `core.verify.verifications`, ...), so "
        "a filter regression shows up as a count jump even when "
        "wall-clock noise hides it."))

    # ------------------------------------------------------------------
    ablation_partition = experiments.ablation_partition_strategies(scale=scale)
    ablation_verifier = experiments.ablation_verifier_kernels(scale=scale)
    ablation_quality = experiments.ablation_filter_quality(scale=scale)
    sections.append(_section(
        "Ablations (beyond the paper's figures)",
        "Section 3.1 argues for even partitioning; Section 5 argues the "
        "threshold-aware verifier; the candidate counts behind Figure 15.",
        "\n\n".join([format_table(ablation_partition, markdown=True),
                     format_table(ablation_verifier, markdown=True),
                     format_table(ablation_quality, markdown=True)]),
        "Skewed partitions inflate candidates versus the even scheme, and "
        "Pass-Join generates the fewest candidates of all implemented "
        "algorithms (`pass-join` is the paper's configuration, "
        "`pass-join-default` the library's default verifier).  In the "
        "verifier-kernel ablation the library default (myers-batch) is at "
        "least as fast as its per-pair variant (on a few dozen querylog "
        "candidates the two tie); see the dedicated verification-kernels "
        "section above for the tracked comparison against the paper's "
        "length-aware kernel."))

    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="dataset scale factor (default 0.25)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="output path (default EXPERIMENTS.md)")
    args = parser.parse_args(argv)
    report = build_report(args.scale)
    Path(args.output).write_text(report, encoding="utf-8")
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
