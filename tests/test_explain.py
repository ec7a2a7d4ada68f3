"""Tests for the ``explain`` trace: searcher, dynamic index, shard router."""

import pytest

from helpers import random_strings
from repro.config import DEFAULT_VERIFICATION, PartitionStrategy
from repro.core.engine import probe_record, sort_records
from repro.core.index import SegmentIndex
from repro.core.selection import make_selector
from repro.core.verify import make_verifier
from repro.exceptions import InvalidThresholdError
from repro.obs.trace import FUNNEL_FIELDS, ProbeTrace, empty_explain_report
from repro.search import PassJoinSearcher
from repro.service.dynamic import DynamicSearcher
from repro.service.sharding import ShardRouter
from repro.types import JoinStatistics, as_records

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt"]


def assert_funnel_shrinks(report):
    funnel = report["funnel"]
    assert (funnel["accepted"] <= funnel["verifications"]
            <= funnel["candidates"] <= funnel["postings_scanned"]), funnel
    assert funnel["index_probes"] <= funnel["selected_substrings"], funnel


class TestSearcherExplain:
    def test_accepted_equals_search_result_count(self):
        searcher = PassJoinSearcher(STRINGS, max_tau=2)
        for query in STRINGS + ["vldbx", "nosuchstring"]:
            for tau in (0, 1, 2):
                report = searcher.explain(query, tau)
                matches = searcher.search(query, tau)
                assert report["num_matches"] == len(matches), (query, tau)
                assert report["funnel"]["accepted"] == len(matches)
                assert report["matches"] == [m.to_dict() for m in matches]
                assert_funnel_shrinks(report)

    def test_report_shape(self):
        report = PassJoinSearcher(STRINGS, max_tau=1).explain("vldb", 1)
        assert report["query"] == "vldb"
        assert report["tau"] == 1
        assert set(report["funnel"]) == set(FUNNEL_FIELDS)
        # Every searcher verifies with the library default.
        assert report["verifier"]["kernel"] == DEFAULT_VERIFICATION.value
        assert report["verifier"]["verifications"] >= report["num_matches"]
        assert (0 <= report["verifier"]["signature_rejects"]
                <= report["verifier"]["verifications"])
        assert report["stages"]["total_seconds"] >= 0
        for entry in report["lengths"]:
            assert entry["selection_windows"] >= entry["index_probes"] >= 0
            layout = entry["partition_layout"]
            assert sum(seg_len for _, seg_len in layout) == \
                entry["indexed_length"]

    def test_explain_leaves_search_statistics_untouched(self):
        searcher = PassJoinSearcher(STRINGS, max_tau=1)
        searcher.search("vldb", 1)
        before = searcher.statistics.as_dict()
        searcher.explain("sigmod", 1)
        assert searcher.statistics.as_dict() == before

    def test_explain_does_not_perturb_later_searches(self):
        plain = PassJoinSearcher(STRINGS, max_tau=1)
        traced = PassJoinSearcher(STRINGS, max_tau=1)
        traced.explain("vldb", 1)
        assert traced.search("vldb", 1) == plain.search("vldb", 1)

    def test_tau_above_max_rejected(self):
        with pytest.raises(InvalidThresholdError):
            PassJoinSearcher(STRINGS, max_tau=1).explain("vldb", 2)

    def test_default_tau_is_max_tau(self):
        searcher = PassJoinSearcher(STRINGS, max_tau=2)
        assert searcher.explain("vldb")["tau"] == 2

    def test_randomised_equivalence(self):
        strings = random_strings(60, 3, 12, seed=3)
        searcher = PassJoinSearcher(strings, max_tau=2)
        for query in random_strings(15, 3, 12, seed=4):
            report = searcher.explain(query, 2)
            assert report["num_matches"] == len(searcher.search(query, 2))
            assert_funnel_shrinks(report)


class TestDynamicExplain:
    def test_a_delete_shrinks_the_scan(self):
        # A delete leaves no tombstone: the deleted record's postings are
        # gone, so the probe scans fewer of them and has nothing to skip.
        searcher = DynamicSearcher(STRINGS, max_tau=1)
        before = searcher.explain("vldb", 1)
        searcher.delete(1)  # "pvldb"
        report = searcher.explain("vldb", 1)
        matches = searcher.search("vldb", 1)
        assert [m["text"] for m in report["matches"]] == ["vldb"]
        assert report["num_matches"] == len(matches) == 1

        def scanned(explained):
            return sum(entry["postings_scanned"]
                       for entry in explained["lengths"])

        assert scanned(report) < scanned(before)

    def test_explain_tracks_mutations(self):
        searcher = DynamicSearcher(STRINGS, max_tau=1)
        new_id = searcher.insert("vldbx")
        report = searcher.explain("vldb", 1)
        assert any(m["id"] == new_id for m in report["matches"]), report


class TestRouterExplain:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_report_matches_unsharded(self, shards):
        strings = random_strings(40, 3, 12, seed=5)
        oracle = DynamicSearcher(strings, max_tau=2)
        with ShardRouter(strings, shards=shards, max_tau=2,
                         backend="thread") as router:
            for query in random_strings(10, 3, 12, seed=6):
                report = router.explain(query, 2)
                matches = router.search(query, 2)
                assert report["num_matches"] == len(matches)
                assert report["matches"] == [m.to_dict() for m in matches]
                assert matches == oracle.search(query, 2)
                assert_funnel_shrinks(report)
                assert len(report["shards"]) >= 1

    def test_per_shard_reports_sum_into_merged_funnel(self):
        with ShardRouter(STRINGS, shards=2, max_tau=1,
                         backend="thread") as router:
            report = router.explain("vldb", 1)
            for field in FUNNEL_FIELDS:
                assert report["funnel"][field] == sum(
                    shard["funnel"][field] for shard in report["shards"])
            for field in ("verifications", "signature_rejects",
                          "matrix_cells", "early_terminations"):
                assert report["verifier"][field] == sum(
                    shard["verifier"][field] for shard in report["shards"])

    def test_empty_probe_window_returns_zeroed_report(self):
        # A query far outside every indexed length touches no shard at all.
        with ShardRouter(["ab", "abc"], shards=2, max_tau=1,
                         backend="thread") as router:
            report = router.explain("x" * 50, 1)
            assert report == empty_explain_report("x" * 50, 1)

    def test_tau_above_max_rejected(self):
        with ShardRouter(STRINGS, shards=2, max_tau=1,
                         backend="thread") as router:
            with pytest.raises(InvalidThresholdError):
                router.explain("vldb", 2)

    def test_process_backend_reports_cross_the_pipe(self):
        with ShardRouter(STRINGS, shards=2, max_tau=1,
                         backend="process") as router:
            report = router.explain("vldb", 1)
            matches = router.search("vldb", 1)
            assert report["num_matches"] == len(matches) == 2
            assert report["funnel"]["accepted"] == 2


# ----------------------------------------------------------------------
# Per-length conservation: the trace observes the one probe loop, so every
# scanned posting must land in exactly one bucket, whichever filter took it.
# ----------------------------------------------------------------------
def _self_join_entries():
    # A probe that is itself indexed, its own id excluded: the join never
    # probes an indexed probe, so only a direct call reaches this filter.
    records = sort_records(as_records(["abcdef", "abcdeg", "abcxef"]))
    index = SegmentIndex(1, PartitionStrategy.EVEN)
    for record in records:
        index.add(record)
    stats = JoinStatistics()
    trace = ProbeTrace()
    probe_record(records[0], tau=1, index=index, short_pool=[],
                 selector=make_selector("multi-match", 1),
                 verifier=make_verifier(DEFAULT_VERIFICATION, 1, stats),
                 stats=stats,
                 max_length=records[0].length + 1, allow_same_id=False,
                 trace=trace)
    return trace.length_payloads()


def _multi_segment_entries():
    # The query equals an indexed string: every segment matches, the first
    # accepts it, the later ones find it already matched.
    return PassJoinSearcher(STRINGS, max_tau=2).explain("sigmod", 2)["lengths"]


def _rechecked_entries():
    # "abcxxfgh" shares the segments "ab" and "fgh" of "ab|cde|fgh" but is
    # two edits away: the default (exact-per-pair) verifier rejects it once
    # at tau=1 and the second shared segment must not verify it again.
    searcher = PassJoinSearcher(["abcdefgh"], max_tau=2)
    return searcher.explain("abcxxfgh", 1)["lengths"]


class TestPerLengthConservation:
    @pytest.mark.parametrize("entries_of, branch", [
        (_self_join_entries, "filtered_same_id"),
        (_multi_segment_entries, "filtered_already_found"),
        (_rechecked_entries, "filtered_rechecked"),
    ])
    def test_every_scanned_posting_is_attributed_once(self, entries_of,
                                                      branch):
        entries = entries_of()
        assert sum(entry[branch] for entry in entries) >= 1, branch
        for entry in entries:
            assert entry["postings_scanned"] == (
                entry["filtered_same_id"] + entry["filtered_already_found"]
                + entry["filtered_rechecked"] + entry["candidates"]), entry
            assert entry["accepted"] <= entry["verifications"], entry
            assert all(entry[field] >= 0 for field in entry
                       if field.startswith("filtered_")), entry
