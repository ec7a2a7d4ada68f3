"""Cross-algorithm integration tests.

Every join algorithm in the library must return exactly the same set of
similar pairs on the same input — this is the integration-level statement of
correctness/completeness that the paper's Figure 15 comparison silently
relies on (all compared systems compute the same answer, only at different
speeds).
"""

import pytest

from repro import PassJoin
from repro.baselines import EdJoin, NaiveJoin, PartEnumJoin, TrieJoin
from repro.datasets import (generate_author_dataset, generate_querylog_dataset,
                            generate_title_dataset)

ALGORITHMS = {
    "pass-join": lambda tau: PassJoin(tau),
    "naive": lambda tau: NaiveJoin(tau),
    "ed-join": lambda tau: EdJoin(tau, q=3),
    "trie-join": lambda tau: TrieJoin(tau),
    "part-enum": lambda tau: PartEnumJoin(tau, q=2),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_all_algorithms_agree_on_author_data(name):
    strings = generate_author_dataset(200, seed=13)
    tau = 2
    expected = NaiveJoin(tau).self_join(strings).pair_ids()
    assert ALGORITHMS[name](tau).self_join(strings).pair_ids() == expected


@pytest.mark.parametrize("name", ["pass-join", "ed-join", "trie-join"])
def test_figure15_algorithms_agree_on_querylog_data(name):
    strings = generate_querylog_dataset(120, seed=14)
    tau = 4
    expected = NaiveJoin(tau).self_join(strings).pair_ids()
    assert ALGORITHMS[name](tau).self_join(strings).pair_ids() == expected


@pytest.mark.parametrize("name", ["pass-join", "ed-join"])
def test_long_string_agreement(name):
    strings = generate_title_dataset(80, seed=15)
    tau = 8
    expected = NaiveJoin(tau).self_join(strings).pair_ids()
    assert ALGORITHMS[name](tau).self_join(strings).pair_ids() == expected


@pytest.mark.parametrize("q", [2, 4, 5])
def test_ed_join_agrees_on_long_strings_for_every_gram_length(q):
    strings = generate_title_dataset(80, seed=15)
    tau = 6
    expected = NaiveJoin(tau).self_join(strings).pair_ids()
    assert EdJoin(tau, q=q).self_join(strings).pair_ids() == expected


def test_distances_agree_between_passjoin_and_naive():
    strings = generate_author_dataset(150, seed=16)
    tau = 3
    naive_pairs = {pair.ids(): pair.distance
                   for pair in NaiveJoin(tau).self_join(strings)}
    pass_pairs = {pair.ids(): pair.distance
                  for pair in PassJoin(tau).self_join(strings)}
    assert pass_pairs == naive_pairs
