"""Literal funnel pins: the probe loop's work, counted exactly.

Every figure here was read off the engine once and is asserted as a
literal, so a change to how the one probe loop (selection, index lookup,
posting filters, verification) is organised must leave the counted work —
and the answers — exactly where they were.  Wall-clock fields are not
compared.

Inputs are small seeded collections: titles at ``τ = 8`` (long strings,
sparse candidates) and authors at ``τ = 3`` with a few strings too short
to partition (the short-pool path), self-joined under every verifier;
one R–S join; one ``search_many`` batch with a duplicate and same-length
near-twins, each unique query probed on its own; and an ``explain``
report under the default verifier, the only one a searcher runs.
"""

import pytest

from repro import JoinConfig, PassJoinSearcher, pass_join
from repro.config import VerificationMethod
from repro.core.join import pass_join_rs
from repro.datasets.synthetic import (generate_author_dataset,
                                      generate_title_dataset)

TIME_FIELDS = ("selection_seconds", "verification_seconds",
               "indexing_seconds", "total_seconds")


def counters(statistics):
    return {name: value for name, value in statistics.as_dict().items()
            if name not in TIME_FIELDS}


def triples(result):
    return sorted((pair.left_id, pair.right_id, pair.distance)
                  for pair in result)


@pytest.fixture(scope="module")
def titles():
    return generate_title_dataset(150, seed=35)


@pytest.fixture(scope="module")
def authors():
    return (generate_author_dataset(250, seed=35)
            + ["", "a", "ab", "abc", "abd", "bcd"])


TITLE_PAIRS = [
    (0, 3, 2), (0, 5, 3), (0, 6, 2), (0, 10, 6), (1, 45, 2), (1, 102, 1),
    (3, 5, 1), (3, 6, 4), (3, 10, 4), (5, 6, 5), (5, 10, 3), (6, 10, 8),
    (7, 106, 4), (14, 53, 1), (14, 118, 3), (17, 36, 1), (18, 65, 3),
    (18, 73, 4), (30, 32, 4), (30, 60, 2), (32, 60, 6), (33, 94, 3),
    (37, 83, 2), (40, 148, 2), (45, 102, 3), (53, 118, 4), (62, 78, 4),
    (65, 73, 7), (70, 71, 2), (84, 139, 3), (99, 120, 1), (132, 138, 3)]

TITLE_COMMON = {
    "num_strings": 150, "num_indexed_segments": 1350,
    "num_selected_substrings": 29106, "num_index_probes": 29106,
    "num_postings_scanned": 203, "num_signature_rejects": 0,
    "num_accepted": 32, "num_results": 32, "num_windows_cache_hits": 0,
    "num_postings_fanout": 0, "index_entries": 270, "index_bytes": 5521}

#: (candidates, verifications, matrix cells, early terminations)
TITLE_BY_METHOD = {
    "banded": (32, 32, 60560, 0),
    "length-aware": (32, 32, 30538, 0),
    "extension": (33, 33, 55317, 1),
    "share-prefix": (33, 33, 54948, 1),
    "myers": (32, 32, 0, 0),
    "myers-batch": (32, 32, 431379, 0),
}

AUTHOR_PAIRS = [
    (0, 3, 2), (0, 64, 3), (4, 6, 2), (4, 20, 3), (4, 21, 3), (11, 128, 1),
    (13, 18, 1), (23, 131, 3), (26, 88, 3), (26, 127, 3), (33, 36, 3),
    (36, 84, 2), (37, 211, 2), (39, 47, 2), (40, 52, 2), (41, 135, 3),
    (48, 56, 3), (50, 79, 1), (51, 142, 3), (54, 112, 2), (54, 126, 3),
    (54, 159, 3), (54, 172, 3), (57, 203, 2), (60, 182, 0), (60, 245, 3),
    (63, 78, 1), (63, 103, 2), (72, 167, 2), (78, 103, 1), (83, 183, 3),
    (92, 176, 1), (92, 243, 2), (99, 111, 3), (101, 168, 3), (112, 126, 3),
    (112, 172, 3), (112, 177, 3), (125, 147, 1), (130, 226, 2),
    (133, 244, 2), (144, 148, 2), (151, 172, 2), (151, 183, 3),
    (159, 172, 3), (162, 190, 3), (165, 190, 3), (172, 183, 3),
    (176, 243, 1), (182, 245, 3), (185, 217, 3), (189, 231, 3),
    (207, 245, 3), (218, 231, 3), (250, 251, 1), (250, 252, 2),
    (250, 253, 3), (250, 254, 3), (250, 255, 3), (251, 252, 1),
    (251, 253, 2), (251, 254, 2), (251, 255, 3), (252, 253, 1),
    (252, 254, 1), (252, 255, 3), (253, 254, 1), (253, 255, 2),
    (254, 255, 2)]

AUTHOR_COMMON = {
    "num_strings": 256, "num_indexed_segments": 1000,
    "num_selected_substrings": 5896, "num_index_probes": 5896,
    "num_postings_scanned": 1138, "num_accepted": 69, "num_results": 69,
    "num_windows_cache_hits": 0, "num_postings_fanout": 0,
    "index_entries": 584, "index_bytes": 6264}

#: (candidates, verifications, signature rejects, matrix cells,
#: early terminations); 15 of the verifications are short-pool checks.
AUTHOR_BY_METHOD = {
    "banded": (826, 841, 0, 38874, 720),
    "length-aware": (826, 841, 0, 15953, 772),
    "extension": (1080, 1095, 0, 14070, 1026),
    "share-prefix": (1080, 1095, 0, 11537, 1009),
    "myers": (826, 841, 0, 57, 0),
    "myers-batch": (826, 841, 712, 13383, 60),
}


class TestSelfJoinFunnel:
    def test_every_verifier_is_pinned(self):
        assert set(TITLE_BY_METHOD) == set(AUTHOR_BY_METHOD) == {
            method.value for method in VerificationMethod}

    @pytest.mark.parametrize("method", sorted(TITLE_BY_METHOD))
    def test_titles(self, titles, method):
        result = pass_join(titles, 8, JoinConfig(verification=method))
        candidates, verifications, cells, early = TITLE_BY_METHOD[method]
        assert counters(result.statistics) == {
            **TITLE_COMMON, "num_candidates": candidates,
            "num_verifications": verifications, "num_matrix_cells": cells,
            "num_early_terminations": early}
        assert triples(result) == TITLE_PAIRS

    @pytest.mark.parametrize("method", sorted(AUTHOR_BY_METHOD))
    def test_authors_with_short_strings(self, authors, method):
        result = pass_join(authors, 3, JoinConfig(verification=method))
        (candidates, verifications, rejects, cells,
         early) = AUTHOR_BY_METHOD[method]
        assert counters(result.statistics) == {
            **AUTHOR_COMMON, "num_candidates": candidates,
            "num_verifications": verifications,
            "num_signature_rejects": rejects, "num_matrix_cells": cells,
            "num_early_terminations": early}
        assert triples(result) == AUTHOR_PAIRS


def test_rs_join_funnel(authors):
    result = pass_join_rs(authors[:120], authors[120:], 2)
    assert counters(result.statistics) == {
        "num_strings": 256, "num_indexed_segments": 390,
        "num_selected_substrings": 2184, "num_index_probes": 2184,
        "num_postings_scanned": 170, "num_candidates": 145,
        "num_verifications": 145, "num_signature_rejects": 134,
        "num_accepted": 7, "num_results": 7, "num_matrix_cells": 1879,
        "num_early_terminations": 4, "num_windows_cache_hits": 0,
        "num_postings_fanout": 0, "index_entries": 276, "index_bytes": 3229}
    assert triples(result) == [(11, 8, 1), (37, 91, 2), (57, 83, 2),
                               (60, 62, 0), (72, 47, 2), (92, 56, 1),
                               (92, 123, 2)]


def test_search_many_batch_funnel(authors):
    searcher = PassJoinSearcher(authors, max_tau=3)
    queries = ["praki prasonno", "praki prasonnx", "xraki prasonno",
               "titanu vocheva", "praki prasonno", "rathu brasonno", "abce"]
    answers = searcher.search_many(queries, tau=2)
    assert [[(match.id, match.distance) for match in found]
            for found in answers] == [
        [(1, 0)], [(1, 1)], [(1, 1)], [(11, 0), (128, 1)], [(1, 0)], [],
        [(253, 1), (252, 2), (254, 2), (255, 2)]]
    assert counters(searcher.statistics) == {
        "num_strings": 256, "num_indexed_segments": 1000,
        "num_selected_substrings": 180, "num_index_probes": 180,
        "num_postings_scanned": 33, "num_candidates": 19,
        "num_verifications": 23, "num_signature_rejects": 14,
        "num_accepted": 9, "num_results": 10, "num_matrix_cells": 598,
        "num_early_terminations": 0, "num_windows_cache_hits": 20,
        "num_postings_fanout": 0, "index_entries": 1000,
        "index_bytes": 10903}


EXPLAIN_LAYOUTS = {
    7: [[0, 1], [1, 2], [3, 2], [5, 2]],
    9: [[0, 2], [2, 2], [4, 2], [6, 3]],
    10: [[0, 2], [2, 2], [4, 3], [7, 3]],
    11: [[0, 2], [2, 3], [5, 3], [8, 3]],
    12: [[0, 3], [3, 3], [6, 3], [9, 3]],
    13: [[0, 3], [3, 3], [6, 3], [9, 4]],
}

#: Per indexed length: (selection windows, index probes, postings scanned,
#: same id, already found, rechecked, candidates, verifications, accepted).
EXPLAIN_LENGTHS = {
    "myers-batch": {
        7: (4, 4, 0, 0, 0, 0, 0, 0, 0),
        9: (8, 8, 0, 0, 0, 0, 0, 0, 0),
        10: (8, 8, 16, 0, 7, 2, 7, 7, 4),
        11: (8, 8, 9, 0, 0, 4, 5, 5, 0),
        12: (6, 6, 8, 0, 1, 3, 4, 4, 1),
        13: (4, 4, 4, 0, 0, 0, 4, 4, 0),
    },
}

EXPLAIN_FIELDS = ("selection_windows", "index_probes", "postings_scanned",
                  "filtered_same_id", "filtered_already_found",
                  "filtered_rechecked", "candidates", "verifications",
                  "accepted")


@pytest.mark.parametrize("verification, funnel, verifier", [
    ("myers-batch", (38, 38, 37, 20, 20, 5), (20, 12, 750, 3)),
])
def test_explain_report(authors, verification, funnel, verifier):
    report = PassJoinSearcher(authors, max_tau=3).explain("james demi",
                                                          tau=3)
    assert report["funnel"] == dict(zip(
        ("selected_substrings", "index_probes", "postings_scanned",
         "candidates", "verifications", "accepted"), funnel))
    assert report["verifier"] == {
        "kernel": verification, **dict(zip(
            ("verifications", "signature_rejects", "matrix_cells",
             "early_terminations"), verifier))}
    assert report["short_pool"] == {"records_checked": 0, "accepted": 0}
    assert report["lengths"] == [
        {"indexed_length": length,
         "partition_layout": EXPLAIN_LAYOUTS[length],
         **dict(zip(EXPLAIN_FIELDS, figures))}
        for length, figures in EXPLAIN_LENGTHS[verification].items()]
    assert [(match["id"], match["distance"])
            for match in report["matches"]] == [
        (54, 0), (112, 2), (126, 3), (159, 3), (172, 3)]
