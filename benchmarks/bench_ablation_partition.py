"""Ablation — even vs skewed partition strategies (PAPER.md, Section 3.1).

The paper argues (Section 3.1) that short segments have low pruning power,
which is why it partitions evenly.  This ablation makes that concrete: the
deliberately skewed strategies create single-character segments and the
candidate count explodes.
"""

from repro.bench.experiments import ablation_partition_strategies

from .conftest import BENCH_SCALE, record_table


def test_partition_strategy_ablation(benchmark):
    table = benchmark.pedantic(
        lambda: ablation_partition_strategies(scale=BENCH_SCALE, name="author",
                                              tau=3),
        rounds=1, iterations=1)
    record_table(benchmark, table)
    candidates = {row["strategy"]: row["candidates"] for row in table.rows}
    results = {row["results"] for row in table.rows}
    assert len(results) == 1
    assert candidates["even"] <= candidates["left-heavy"]
    assert candidates["even"] <= candidates["right-heavy"]
