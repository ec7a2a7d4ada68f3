"""Literal ED-Join funnel pins: the baseline's work, counted exactly.

Figure 15 and Table 3 compare Pass-Join with ED-Join on the counters
ED-Join fills in (selected grams, index probes, candidates,
verifications, DP cells, index entries and bytes).  Every figure here was
read off the implementation once and is asserted as a literal, so a change
to how the join loop, its filters or its index accounting are organised
must leave the counted work exactly where it was; the answers are checked
against the naive join.  Wall-clock fields are not compared.

Inputs are small seeded collections of each dataset shape (short authors,
medium query-log strings, long titles) at two thresholds and two gram
lengths each.
"""

from functools import lru_cache

import pytest

from repro.baselines import EdJoin, NaiveJoin
from repro.datasets import (generate_author_dataset, generate_querylog_dataset,
                            generate_title_dataset)

TIME_FIELDS = ("selection_seconds", "verification_seconds",
               "indexing_seconds", "total_seconds")

DATASETS = {
    "author": lambda: generate_author_dataset(250, seed=47),
    "querylog": lambda: generate_querylog_dataset(150, seed=47),
    "title": lambda: generate_title_dataset(100, seed=47),
}

#: Index footprint per (dataset, q): it does not depend on τ, because every
#: gram of every string is indexed.
INDEX = {
    ("author", 2): (3028, 49046), ("author", 3): (2778, 47982),
    ("querylog", 3): (6158, 102809), ("querylog", 4): (6008, 108520),
    ("title", 3): (9996, 165363), ("title", 4): (9896, 177004),
}

#: (dataset, τ, q) -> (selected grams = index probes, candidates,
#: verifications, results, matrix cells, early terminations)
PINS = {
    ("author", 1, 2): (562, 251, 9, 9, 173, 0),
    ("author", 1, 3): (653, 40, 9, 9, 173, 0),
    ("author", 2, 2): (920, 956, 30, 23, 814, 7),
    ("author", 2, 3): (1282, 329, 38, 23, 953, 15),
    ("author", 3, 2): (1353, 2290, 94, 33, 2979, 61),
    ("author", 3, 3): (1544, 2656, 130, 33, 3666, 97),
    ("querylog", 2, 3): (553, 19, 12, 10, 1310, 2),
    ("querylog", 2, 4): (612, 16, 12, 10, 1310, 2),
    ("querylog", 4, 3): (1051, 54, 26, 26, 5021, 0),
    ("querylog", 4, 4): (1370, 30, 26, 26, 5021, 0),
    ("title", 4, 3): (629, 20, 18, 17, 7355, 1),
    ("title", 4, 4): (681, 19, 18, 17, 7355, 1),
    ("title", 8, 3): (1219, 30, 20, 20, 14819, 0),
    ("title", 8, 4): (1455, 20, 20, 20, 14819, 0),
}


@lru_cache(maxsize=None)
def strings_of(dataset):
    return tuple(DATASETS[dataset]())


@lru_cache(maxsize=None)
def truth(dataset, tau):
    return {pair.ids(): pair.distance
            for pair in NaiveJoin(tau).self_join(strings_of(dataset))}


@pytest.mark.parametrize("dataset,tau,q", sorted(PINS),
                         ids=lambda value: str(value))
def test_ed_join_counters_are_pinned(dataset, tau, q):
    strings = strings_of(dataset)
    result = EdJoin(tau, q).self_join(strings)
    counters = {name: value
                for name, value in result.statistics.as_dict().items()
                if name not in TIME_FIELDS}
    selected, candidates, verifications, results, cells, early = PINS[
        dataset, tau, q]
    entries, index_bytes = INDEX[dataset, q]
    assert counters == {
        "num_strings": len(strings), "num_indexed_segments": 0,
        "num_selected_substrings": selected, "num_index_probes": selected,
        "num_postings_scanned": 0, "num_candidates": candidates,
        "num_verifications": verifications, "num_signature_rejects": 0,
        "num_accepted": 0, "num_results": results,
        "num_matrix_cells": cells, "num_early_terminations": early,
        "num_windows_cache_hits": 0, "num_postings_fanout": 0,
        "index_entries": entries, "index_bytes": index_bytes}
    assert {pair.ids(): pair.distance for pair in result} == truth(dataset, tau)
