"""Integration tests for the experiment functions (tables/figures).

These run every experiment at a very small scale and assert the qualitative
*shape* the paper reports — who wins, and in which direction the series
move — rather than absolute numbers.
"""

import pytest

from repro.bench import experiments
from repro.config import SelectionMethod


SMALL = 0.06  # ~ 120 author / 60 querylog / 50 title strings


@pytest.fixture(scope="module")
def selection_table():
    return experiments.selection_experiment(
        scale=SMALL, names=["author"], taus={"author": (2, 3)})


class TestDatasetExperiments:
    def test_table2_has_one_row_per_dataset(self):
        table = experiments.table2_dataset_statistics(scale=SMALL)
        assert sorted(table.column("dataset")) == ["author", "querylog", "title"]
        assert all(row["min_len"] <= row["avg_len"] <= row["max_len"]
                   for row in table.rows)

    def test_fig11_histogram_covers_all_strings(self):
        table = experiments.fig11_length_distribution(scale=SMALL, names=["author"])
        total = sum(table.column("num_strings"))
        sizes = experiments.scaled({"author": experiments.DEFAULT_SIZES["author"]},
                                   SMALL)
        assert total == sizes["author"]


class TestSelectionExperiments:
    def test_fig12_method_ordering(self, selection_table):
        for tau in (2, 3):
            counts = {row["method"]: row["selected_substrings"]
                      for row in selection_table.filter_rows(tau=tau)}
            assert counts["multi-match"] <= counts["position"]
            assert counts["position"] <= counts["shift"]
            assert counts["shift"] <= counts["length"]

    def test_fig12_results_identical_across_methods(self, selection_table):
        for tau in (2, 3):
            results = {row["results"] for row in selection_table.filter_rows(tau=tau)}
            assert len(results) == 1

    def test_fig12_counts_grow_with_tau(self, selection_table):
        for method in SelectionMethod:
            series = [row["selected_substrings"]
                      for row in selection_table.filter_rows(method=method.value)]
            assert series == sorted(series)


class TestVerificationExperiment:
    def test_fig14_all_strategies_agree_on_results(self):
        table = experiments.fig14_verification(scale=SMALL, names=["author"],
                                               taus={"author": (3,)})
        assert len({row["results"] for row in table.rows}) == 1

    def test_fig14_length_aware_computes_fewer_cells_than_banded(self):
        table = experiments.fig14_verification(scale=SMALL, names=["querylog"],
                                               taus={"querylog": (6,)})
        cells = {row["method"]: row["matrix_cells"] for row in table.rows}
        assert cells["length-aware"] <= cells["banded"]
        assert cells["share-prefix"] <= cells["extension"]


class TestComparisonExperiments:
    def test_fig15_all_algorithms_return_same_results(self):
        table = experiments.fig15_comparison(scale=SMALL, names=["author"],
                                             taus={"author": (2,)})
        assert len({row["results"] for row in table.rows}) == 1

    def test_fig16_time_and_results_grow_with_size(self):
        table = experiments.fig16_scalability(scale=SMALL, names=["author"],
                                              taus={"author": (2,)}, steps=3)
        results = table.column("results")
        sizes = table.column("num_strings")
        assert sizes == sorted(sizes)
        assert results == sorted(results)

    def test_table3_pass_join_index_is_smallest(self):
        table = experiments.table3_index_sizes(scale=SMALL, names=["author"],
                                               tau=3, q=3)
        row = table.rows[0]
        assert row["pass_join_bytes"] < row["ed_join_bytes"]
        assert row["pass_join_bytes"] < row["trie_join_bytes"]


class TestAblations:
    def test_partition_ablation_even_has_fewest_candidates(self):
        table = experiments.ablation_partition_strategies(scale=SMALL, tau=3)
        candidates = {row["strategy"]: row["candidates"] for row in table.rows}
        assert candidates["even"] <= candidates["left-heavy"]
        assert candidates["even"] <= candidates["right-heavy"]
        assert len({row["results"] for row in table.rows}) == 1

    def test_verifier_ablation_results_agree(self):
        table = experiments.ablation_verifier_kernels(scale=SMALL, tau=5)
        assert len({row["results"] for row in table.rows}) == 1
        assert "myers-batch" in {row["method"] for row in table.rows}

    def test_verification_kernels_rows_and_speedups(self):
        table = experiments.verification_kernels(scale=SMALL, tau=2, repeats=1)
        rows = {row["method"]: row for row in table.rows}
        assert set(rows) == {"length-aware", "myers", "myers-batch"}
        # The experiment raises internally if any kernel's triple set
        # diverges; the visible column must agree too.
        assert len({row["results"] for row in rows.values()}) == 1
        assert rows["myers"]["speedup_vs_myers"] == 1
        assert all(row["speedup_vs_myers"] > 0 for row in rows.values())

    def test_filter_quality_pass_join_beats_naive(self):
        table = experiments.ablation_filter_quality(scale=SMALL, tau=2)
        candidates = {row["algorithm"]: row["candidates"] for row in table.rows}
        results = {row["algorithm"]: row["results"] for row in table.rows}
        assert len(set(results.values())) == 1
        assert candidates["pass-join"] <= candidates["naive"]

    def test_experiment_registry_is_complete(self):
        assert set(experiments.EXPERIMENTS) == {
            "table2", "table3", "figure11", "figure12", "figure13",
            "figure14", "figure15", "figure16", "parallel-scaling",
            "filter-funnel", "ablation-partition",
            "ablation-verifier", "verification-kernels",
            "ablation-filter-quality"}
