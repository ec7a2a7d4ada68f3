"""Tests for the approximate-string-search extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import edit_distance
from repro.exceptions import InvalidThresholdError
from repro.search import PassJoinSearcher, SearchMatch
from repro.types import StringRecord

from helpers import random_strings


class TestBasicSearch:
    def test_exact_and_near_matches(self):
        searcher = PassJoinSearcher(["vldb", "pvldb", "sigmod", "icde"], max_tau=2)
        matches = searcher.search("vldb", tau=1)
        assert [(m.text, m.distance) for m in matches] == [("vldb", 0), ("pvldb", 1)]

    def test_no_match(self):
        searcher = PassJoinSearcher(["alpha", "beta"], max_tau=1)
        assert searcher.search("gamma", tau=1) == []

    def test_default_tau_is_index_maximum(self):
        searcher = PassJoinSearcher(["abcdef"], max_tau=3)
        assert searcher.search("abc") == [SearchMatch(3, 0, "abcdef")]

    def test_query_tau_above_index_tau_rejected(self):
        searcher = PassJoinSearcher(["abc"], max_tau=1)
        with pytest.raises(InvalidThresholdError,
                           match="threshold 2 exceeds this index's max_tau=1"):
            searcher.search("abc", tau=2)

    @pytest.mark.parametrize("kind", ["static", "dynamic", "sharded"])
    def test_every_entry_point_names_the_limit(self, kind):
        # One over-the-limit check serves every searcher and entry point,
        # so each names the index's max_tau instead of calling 3 invalid.
        from repro.service import DynamicSearcher, ShardRouter

        strings = ["vldb", "pvldb", "icde"]
        searcher = {"static": lambda: PassJoinSearcher(strings, max_tau=2),
                    "dynamic": lambda: DynamicSearcher(strings, max_tau=2),
                    "sharded": lambda: ShardRouter(strings, shards=2,
                                                   max_tau=2,
                                                   backend="thread"),
                    }[kind]()
        message = "threshold 3 exceeds this index's max_tau=2"
        try:
            for call in (lambda: searcher.search("vldb", 3),
                         lambda: searcher.search_many(["vldb", "icde"],
                                                      tau=[1, 3]),
                         lambda: searcher.explain("vldb", 3)):
                with pytest.raises(InvalidThresholdError, match=message):
                    call()
            assert searcher.search("vldb", 2)
        finally:
            getattr(searcher, "close", lambda: None)()

    def test_duplicate_ids_refused(self):
        # Two records under id 0 used to index both: the answer kept one
        # ("vldbx"), dropped "pvldb" at distance 1, and left a ghost row.
        records = [StringRecord(0, "vldbx"), StringRecord(0, "pvldb"),
                   StringRecord(1, "vldb")]
        with pytest.raises(ValueError, match="duplicate id 0"):
            PassJoinSearcher(records, max_tau=1)

    def test_ids_outside_64_bits_refused(self):
        with pytest.raises(ValueError, match="64 bits"):
            PassJoinSearcher([StringRecord(2**63, "abcdef")], max_tau=1)

    def test_short_indexed_strings_are_found(self):
        searcher = PassJoinSearcher(["a", "ab", "abcdef"], max_tau=3)
        assert {m.text for m in searcher.search("ab", tau=1)} == {"a", "ab"}

    def test_empty_collection_and_empty_query(self):
        assert PassJoinSearcher([], max_tau=2).search("anything") == []
        searcher = PassJoinSearcher(["ab", "cd"], max_tau=2)
        assert {m.text for m in searcher.search("", tau=2)} == {"ab", "cd"}

    def test_results_sorted_by_distance_then_id(self):
        searcher = PassJoinSearcher(["abcd", "abce", "abcf", "abcd"], max_tau=2)
        matches = searcher.search("abcd", tau=1)
        assert [m.distance for m in matches] == sorted(m.distance for m in matches)
        assert matches[0].id < matches[1].id or matches[0].distance < matches[1].distance

    def test_caller_supplied_record_ids_are_preserved(self):
        records = [StringRecord(id=101, text="alpha"), StringRecord(id=202, text="alphb")]
        searcher = PassJoinSearcher(records, max_tau=1)
        assert {m.id for m in searcher.search("alpha", tau=1)} == {101, 202}

    def test_len_and_records(self):
        searcher = PassJoinSearcher(["a", "b", "c"], max_tau=1)
        assert len(searcher) == 3
        assert [record.text for record in searcher.records] == ["a", "b", "c"]

    def test_statistics_accumulate_over_queries(self):
        searcher = PassJoinSearcher(random_strings(100, 5, 15, seed=1), max_tau=2)
        before = searcher.statistics.num_index_probes
        searcher.search("abcdefgh", tau=2)
        assert searcher.statistics.num_index_probes > before


class TestTopKSearch:
    def test_returns_k_closest(self):
        searcher = PassJoinSearcher(["vldb", "vldbj", "pvldb", "sigmod"], max_tau=3)
        matches = searcher.search_top_k("vldb", k=2)
        assert [m.text for m in matches] == ["vldb", "pvldb"] or \
            [m.text for m in matches] == ["vldb", "vldbj"]
        assert matches[0].distance == 0

    def test_fewer_matches_than_k(self):
        searcher = PassJoinSearcher(["aaa", "zzzzzzzz"], max_tau=1)
        assert len(searcher.search_top_k("aaa", k=5)) == 1

    def test_invalid_k(self):
        searcher = PassJoinSearcher(["abc"], max_tau=1)
        with pytest.raises(ValueError):
            searcher.search_top_k("abc", k=0)

    @pytest.mark.parametrize("batch", [False, True])
    def test_widening_counts_match_the_dynamic_searcher(self, batch):
        # Regression: the static searcher re-ran a full search per widening
        # round, re-verifying earlier rounds' hits and adding every round
        # to num_results; the dynamic one (same collection) did neither.
        from repro.service import DynamicSearcher

        strings = ["vldb", "pvldb", "vldbj", "sigmod", "sigmmod", "icde",
                   "icdt", "edbt"]
        deltas = []
        for searcher in (PassJoinSearcher(strings, max_tau=3),
                         DynamicSearcher(strings, max_tau=3)):
            stats = searcher.statistics
            before = (stats.num_results, stats.num_candidates,
                      stats.num_verifications)
            found = (searcher.search_top_k_many(["vldb"], 4)[0] if batch
                     else searcher.search_top_k("vldb", 4))
            assert [m.text for m in found] == ["vldb", "pvldb", "vldbj",
                                               "icde"]
            deltas.append(tuple(
                after - start for after, start in zip(
                    (stats.num_results, stats.num_candidates,
                     stats.num_verifications), before)))
        assert deltas[0] == deltas[1]
        assert deltas[0][0] == 4  # the matches returned, counted once


    @pytest.mark.parametrize("kind", ["static", "dynamic", "sharded"])
    @pytest.mark.parametrize("k", [2.5, True, False, "3", 0, -1])
    def test_bad_k_refused_before_any_probe(self, kind, k):
        # A float k used to run every probe and then fail slicing, and
        # k=True was answered as k=1.
        from repro.service import DynamicSearcher, ShardRouter

        strings = ["vldb", "pvldb", "icde"]
        searcher = {"static": lambda: PassJoinSearcher(strings, max_tau=2),
                    "dynamic": lambda: DynamicSearcher(strings, max_tau=2),
                    "sharded": lambda: ShardRouter(strings, shards=2,
                                                   max_tau=2,
                                                   backend="thread"),
                    }[kind]()
        try:
            before = searcher.statistics.as_dict()
            with pytest.raises(ValueError, match="k must be a positive"):
                searcher.search_top_k("vldb", k)
            with pytest.raises(ValueError, match="k must be a positive"):
                searcher.search_top_k_many(["vldb", "icde"], k)
            assert searcher.statistics.as_dict() == before
        finally:
            getattr(searcher, "close", lambda: None)()


class TestSearchMatchWireFormat:
    def test_round_trip(self):
        match = SearchMatch(distance=2, id=17, text="päss-jöin")
        assert SearchMatch.from_dict(match.to_dict()) == match

    def test_round_trip_through_json(self):
        import json

        match = SearchMatch(distance=0, id=0, text="vldb")
        payload = json.loads(json.dumps(match.to_dict()))
        assert SearchMatch.from_dict(payload) == match

    @pytest.mark.parametrize("payload", [
        None, [], "match", {}, {"id": 1}, {"distance": 1},
        {"id": "1", "distance": 0}, {"id": 1, "distance": "0"},
        {"id": 1, "distance": True}, {"id": 1, "distance": 0, "text": 7},
    ])
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(ValueError):
            SearchMatch.from_dict(payload)

    def test_sort_key_is_distance_then_id(self):
        matches = [SearchMatch(1, 9), SearchMatch(0, 5), SearchMatch(1, 2)]
        assert sorted(matches, key=SearchMatch.sort_key) == [
            SearchMatch(0, 5), SearchMatch(1, 2), SearchMatch(1, 9)]


class TestDeterministicTieBreaking:
    def test_top_k_ties_broken_by_id(self):
        # Four strings all at distance 1 from the query; k=2 must take the
        # two smallest ids, independent of build order.
        strings = ["abcx", "abcy", "abcz", "abcw"]
        searcher = PassJoinSearcher(strings, max_tau=2)
        matches = searcher.search_top_k("abc", k=2)
        assert [(m.distance, m.id) for m in matches] == [(1, 0), (1, 1)]

    def test_top_k_is_stable_across_permuted_builds(self):
        from repro.types import StringRecord

        records = [StringRecord(i, text) for i, text in
                   enumerate(["abcx", "abcy", "abcz", "abcw", "abc"])]
        forward = PassJoinSearcher(records, max_tau=2)
        backward = PassJoinSearcher(list(reversed(records)), max_tau=2)
        for k in (1, 2, 3, 5):
            assert (forward.search_top_k("abc", k)
                    == backward.search_top_k("abc", k))


class TestSearchOracle:
    @pytest.mark.parametrize("max_tau,query_tau", [(2, 2), (3, 1), (4, 2), (4, 4)])
    def test_matches_brute_force(self, max_tau, query_tau):
        strings = random_strings(150, 2, 16, alphabet="abc", seed=51)
        queries = random_strings(25, 2, 16, alphabet="abc", seed=52)
        searcher = PassJoinSearcher(strings, max_tau=max_tau)
        for query in queries:
            expected = {(i, edit_distance(text, query))
                        for i, text in enumerate(strings)
                        if edit_distance(text, query) <= query_tau}
            got = {(m.id, m.distance) for m in searcher.search(query, query_tau)}
            assert got == expected

    @given(strings=st.lists(st.text(alphabet="ab", max_size=10), max_size=20),
           query=st.text(alphabet="ab", max_size=10),
           max_tau=st.integers(min_value=0, max_value=4),
           query_tau=st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_search_property(self, strings, query, max_tau, query_tau):
        if query_tau > max_tau:
            return
        searcher = PassJoinSearcher(strings, max_tau=max_tau)
        expected = {(i, edit_distance(text, query))
                    for i, text in enumerate(strings)
                    if edit_distance(text, query) <= query_tau}
        got = {(m.id, m.distance) for m in searcher.search(query, query_tau)}
        assert got == expected
