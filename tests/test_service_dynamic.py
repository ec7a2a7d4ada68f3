"""Tests for the dynamic (mutable) search index of the serving layer.

The load-bearing property: after ANY interleaving of insert/delete/search,
results are identical — element for element — to a fresh
``PassJoinSearcher`` built over the surviving records, which is itself
oracle-checked against brute-force edit distance.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import probe_record
from repro.core.index import SegmentIndex
from repro.core.kernel import get_kernel
from repro.core.verify import make_verifier
from repro.distance import edit_distance
from repro.exceptions import InvalidThresholdError
from repro.search import PassJoinSearcher, SearchMatch
from repro.service import DynamicSearcher
from repro.types import JoinStatistics, StringRecord

from helpers import indexed_records_with_length, random_strings


def fresh_equivalent(searcher: DynamicSearcher) -> PassJoinSearcher:
    """Re-build a static searcher over the surviving records."""
    return PassJoinSearcher(searcher.records, max_tau=searcher.max_tau)


class TestBasics:
    def test_insert_search_delete_cycle(self):
        searcher = DynamicSearcher(["vldb", "sigmod"], max_tau=1)
        new_id = searcher.insert("pvldb")
        assert new_id == 2
        assert [m.text for m in searcher.search("vldb", tau=1)] == ["vldb", "pvldb"]
        assert searcher.delete(0) is True
        assert [m.text for m in searcher.search("vldb", tau=1)] == ["pvldb"]

    def test_delete_missing_returns_false(self):
        searcher = DynamicSearcher(["abc"], max_tau=1)
        assert searcher.delete(99) is False
        assert searcher.delete(0) is True
        assert searcher.delete(0) is False

    def test_epoch_moves_on_every_mutation(self):
        searcher = DynamicSearcher(["abc"], max_tau=1)
        epochs = [searcher.epoch]
        searcher.insert("abd")
        epochs.append(searcher.epoch)
        searcher.delete(0)
        epochs.append(searcher.epoch)
        assert epochs == sorted(set(epochs))  # strictly increasing

    def test_searches_do_not_move_the_epoch(self):
        searcher = DynamicSearcher(["abc", "abd"], max_tau=1)
        before = searcher.epoch
        searcher.search("abc", tau=1)
        searcher.search_top_k("abc", k=1)
        assert searcher.epoch == before

    def test_caller_chosen_ids(self):
        searcher = DynamicSearcher(max_tau=1)
        assert searcher.insert("alpha", id=500) == 500
        assert searcher.insert("alphb") == 501  # auto ids continue above
        with pytest.raises(ValueError):
            searcher.insert("clash", id=500)

    def test_string_records_keep_their_ids(self):
        searcher = DynamicSearcher([StringRecord(7, "alpha")], max_tau=1)
        assert searcher.insert(StringRecord(3, "alphb")) == 3
        assert {m.id for m in searcher.search("alpha", tau=1)} == {7, 3}

    def test_duplicate_initial_ids_rejected(self):
        # The loser of a duplicate would linger as a searchable ghost in
        # the index/short pool; reject it up front, like the shard router.
        with pytest.raises(ValueError):
            DynamicSearcher([StringRecord(0, "ab"), StringRecord(0, "abcdef")],
                            max_tau=1)

    def test_short_strings_are_dynamic_too(self):
        searcher = DynamicSearcher(["a", "ab", "abcdef"], max_tau=3)
        assert searcher.delete(0) is True
        assert {m.text for m in searcher.search("ab", tau=1)} == {"ab"}
        searcher.insert("b")
        assert {m.text for m in searcher.search("b", tau=1)} == {"ab", "b"}

    def test_tau_above_max_rejected(self):
        searcher = DynamicSearcher(["abc"], max_tau=1)
        with pytest.raises(InvalidThresholdError):
            searcher.search("abc", tau=2)

    def test_invalid_k(self):
        searcher = DynamicSearcher(["abc"], max_tau=1)
        with pytest.raises(ValueError):
            searcher.search_top_k("abc", k=0)

    def test_len_and_records(self):
        searcher = DynamicSearcher(["aa", "bb"], max_tau=1)
        searcher.delete(0)
        searcher.insert("cc")
        assert len(searcher) == 2
        assert [record.text for record in searcher.records] == ["bb", "cc"]

    def test_num_strings_tracks_the_live_collection(self):
        searcher = DynamicSearcher(["aa", "bb", "cc"], max_tau=1)
        searcher.delete(0)
        searcher.delete(99)  # miss: must not change the count
        searcher.insert("dd")
        assert searcher.statistics.num_strings == len(searcher) == 3


class TestDeleteIsRemove:
    def test_delete_removes_postings_at_once(self):
        searcher = DynamicSearcher(["abcdef", "abcdeg", "xyzxyz"], max_tau=1)
        searcher.delete(0)
        searcher.delete(2)
        fresh = fresh_equivalent(searcher)
        assert (searcher.statistics.index_entries
                == fresh.statistics.index_entries)
        assert searcher.index_memory()["records"] == 1
        assert searcher.tombstone_count == 0
        assert [m.id for m in searcher.search("abcdef", tau=1)] == [1]

    def test_every_delete_bumps_the_epoch_once(self):
        strings = [f"string{i:04d}" for i in range(10)]
        searcher = DynamicSearcher(strings + ["a"], max_tau=1)
        for record_id in range(11):  # ten indexed records, one pooled
            before = searcher.epoch
            assert searcher.delete(record_id) is True
            assert searcher.epoch == before + 1
        before = searcher.epoch
        assert searcher.delete(0) is False  # a miss changes nothing
        assert searcher.epoch == before

    def test_reusing_a_deleted_id(self):
        searcher = DynamicSearcher(["abcdef"], max_tau=1)
        searcher.delete(0)
        searcher.insert("qrstuv", id=0)
        assert [m.text for m in searcher.search("abcdef", tau=1)] == []
        assert [m.text for m in searcher.search("qrstuv", tau=0)] == ["qrstuv"]
        assert searcher.index_memory()["records"] == 1

    def test_compaction_surface_is_gone(self):
        with pytest.raises(TypeError):
            DynamicSearcher(max_tau=1, compact_interval=-1)
        with pytest.raises(TypeError):
            DynamicSearcher(max_tau=1, compact_interval=64)
        assert not hasattr(DynamicSearcher(max_tau=1), "compact")

    def test_top_k_is_one_probe_at_the_limit_after_a_delete(self,
                                                            monkeypatch):
        # Every query is one backend pass; a top-k call probes once, at
        # its limit, and cuts the sorted answer to k.
        searcher = DynamicSearcher(["abcdef", "abcdeg", "abcdxx"], max_tau=2)
        searcher.delete(1)
        seen = []
        probe_many = searcher._backend.probe_many

        def spy(queries, **kwargs):
            seen.append(queries)
            return probe_many(queries, **kwargs)

        monkeypatch.setattr(searcher._backend, "probe_many", spy)
        searcher.search("abcdef", tau=1)
        searcher.search_many(["abcdef", "abcdxx"], tau=1)
        top = searcher.search_top_k("abcdef", k=1)
        assert seen == [[("abcdef", 1)], [("abcdef", 1), ("abcdxx", 1)],
                        [("abcdef", 2)]]
        assert top == searcher.search("abcdef", tau=2)[:1]


class TestInsertIdValidation:
    @pytest.mark.parametrize("bad_id", [2.5, True, "3"])
    def test_non_integer_id_refused_before_pooling(self, bad_id):
        # "a" is too short to partition: an unchecked id would pool it and
        # push the next auto id to 3.5, breaking every later insert.
        searcher = DynamicSearcher(["vldb"], max_tau=2)
        with pytest.raises(TypeError):
            searcher.insert("a", id=bad_id)
        assert len(searcher) == 1 and searcher._short_pool == {}
        assert searcher.insert("icde") == 1
        assert searcher.insert(StringRecord(5, "sigmod")) == 5

    @pytest.mark.parametrize("bad_id", [2.5, False])
    def test_non_integer_id_refused_before_taking_a_row(self, bad_id):
        # After a delete the store has a free row; a refused insert must
        # not take it, or the row count drifts from the live collection.
        searcher = DynamicSearcher(["vldb", "pvldb", "sigmod"], max_tau=2)
        searcher.delete(1)
        with pytest.raises(TypeError):
            searcher.insert("icde", id=bad_id)
        with pytest.raises(TypeError):
            searcher.insert(StringRecord(bad_id, "icde"))
        assert searcher.index_memory()["records"] == len(searcher) == 2
        assert searcher.insert("icde") == 3
        assert searcher.index_memory()["records"] == 3

    def test_id_outside_64_bits_refused_before_any_change(self):
        # The store's id column is signed 64-bit: an id past it must be
        # refused, not overflow inside the store mid-insert.
        searcher = DynamicSearcher(["vldb", "pvldb"], max_tau=2)
        for bad_id in (2**63, -2**63 - 1):
            with pytest.raises(ValueError):
                searcher.insert("icdeicde", id=bad_id)
        assert (len(searcher), searcher.epoch) == (2, 0)
        assert searcher.insert("icdeicde", id=2**63 - 1) == 2**63 - 1
        epoch = searcher.epoch
        with pytest.raises(ValueError):
            searcher.insert("sigmod")  # the next auto id is 2**63
        assert (len(searcher), searcher.epoch) == (3, epoch)
        assert searcher.index_memory()["records"] == 3

    def test_constructor_refuses_ids_outside_64_bits(self):
        # The constructor path used to reach the store and raise a bare
        # OverflowError; it shares insert's range check now.
        for bad_id in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match="64 bits"):
                DynamicSearcher([StringRecord(bad_id, "abcdef")], max_tau=1)
        searcher = DynamicSearcher([StringRecord(2**63 - 1, "abcdef")],
                                   max_tau=1)
        assert [m.id for m in searcher.search("abcdeg")] == [2**63 - 1]


def _probe_with_verifier(searcher: DynamicSearcher, query: str, tau: int,
                         method: str) -> list[tuple[int, int]]:
    """Run the search pipeline over the dynamic index with a chosen verifier."""
    stats = JoinStatistics()
    verifier = make_verifier(method, tau, stats)
    matches = probe_record(
        StringRecord(id=-1, text=query), tau=tau, index=searcher._index,
        short_pool=list(searcher._short_pool.values()),
        selector=searcher._selector, verifier=verifier, stats=stats,
        max_length=len(query) + tau, allow_same_id=True)
    return sorted((record.id, distance) for record, distance in matches)


class TestSortedPostingInvariant:
    """Serving inserts append, so a mutated index's posting lists are in
    arrival order; a verifier that shares work along a list must stay
    exact in any order."""

    def _mutated_searcher(self) -> DynamicSearcher:
        strings = random_strings(80, 4, 12, alphabet="abc", seed=13)
        rng = random.Random(13)
        rng.shuffle(strings)
        searcher = DynamicSearcher(max_tau=2)
        for text in strings:
            searcher.insert(text)
        for record_id in (3, 11, 42, 60):
            searcher.delete(record_id)
        return searcher

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_share_prefix_matches_extension_on_mutated_index(self, tau):
        searcher = self._mutated_searcher()
        for query in random_strings(10, 4, 12, alphabet="abc", seed=14):
            share = _probe_with_verifier(searcher, query, tau, "share-prefix")
            extension = _probe_with_verifier(searcher, query, tau, "extension")
            assert share == extension


def _counts(statistics):
    """The non-time counters of a JoinStatistics."""
    return {name: value for name, value in statistics.as_dict().items()
            if not name.endswith("_seconds")}


class TestTopKCounters:
    def test_num_results_counted_once(self):
        # num_results counts the matches a top-k call returns, not every
        # match of the search at its limit.
        searcher = DynamicSearcher(["abcd", "abce"], max_tau=2)
        before = searcher.statistics.num_results
        result = searcher.search_top_k("abcd", k=5)
        assert [m.text for m in result] == ["abcd", "abce"]
        assert searcher.statistics.num_results == before + 2
        assert [m.text for m in searcher.search_top_k("abcd", k=1)] == [
            "abcd"]
        assert searcher.statistics.num_results == before + 3

    def test_probes_nothing_outside_every_live_length(self):
        searcher = DynamicSearcher(["abcdefgh"], max_tau=2)
        probes_before = searcher.statistics.num_index_probes
        assert searcher.search_top_k("x", k=1) == []
        assert searcher.statistics.num_index_probes == probes_before
        assert searcher.statistics.num_verifications == 0

    def test_counts_are_one_search_at_the_limit(self):
        # The funnel of a top-k call is the funnel of one search at its
        # limit: every candidate is verified once, whatever k is.
        strings = ["abcd", "abce", "abff", "azzz", "aaaa"]
        for k in (1, 2, len(strings)):
            searcher = DynamicSearcher(strings, max_tau=2)
            fresh = DynamicSearcher(strings, max_tau=2)
            top = searcher.search_top_k("abcd", k=k, max_tau=3)
            found = fresh.search("abcd", tau=2)
            assert top == found[:k]
            expected = _counts(fresh.statistics)
            expected["num_results"] -= len(found) - len(top)
            assert _counts(searcher.statistics) == expected


def _index_rows(index, records):
    """Index ``records``; return their store rows, in order."""
    rows = [index.store.add(record) for record in records]
    for row in rows:
        index.add_row(row)
    return rows


class TestSegmentIndexRemove:
    def test_remove_reverses_add(self):
        index = SegmentIndex(tau=1)
        rows = _index_rows(index, [StringRecord(0, "abcdef"),
                                   StringRecord(1, "abcdeg")])
        entries_with_both = index.entry_count()
        assert index.remove(rows[0]) == 2  # tau + 1 segments
        assert index.entry_count() == entries_with_both - 2
        assert index.current_entry_count == index.entry_count()
        assert index.current_approximate_bytes == index.approximate_bytes()
        assert indexed_records_with_length(index, 6) == 1

    def test_remove_last_record_of_a_length_drops_the_group(self):
        index = SegmentIndex(tau=1)
        [row] = _index_rows(index, [StringRecord(0, "abcdef")])
        index.remove(row)
        assert index.length_group(6) is None
        assert index.entry_count() == 0
        assert index.current_entry_count == 0
        assert index.current_approximate_bytes == 0

    def test_remove_unindexed_record_is_a_noop(self):
        # The backend purges by id: an id it never indexed removes nothing.
        backend = get_kernel("edit-distance").make_backend(2)
        backend.add(StringRecord(0, "abcdef"))
        backend.add(StringRecord(1, "zz"))  # too short: pooled
        before = backend.entry_count()
        assert backend.remove_indexed(StringRecord(9, "zzzzzz")) == 0
        assert backend.remove_indexed(StringRecord(1, "zz")) == 0
        assert backend.entry_count() == before
        assert len(backend) == 2

    def test_no_empty_buckets_survive_removal(self):
        # Regression: remove() used to leave empty per-ordinal dicts (and
        # could leave empty segment buckets) behind after their last key
        # was deleted, leaking dict shells in long-lived dynamic indices.
        index = SegmentIndex(tau=2)
        rows = _index_rows(index, [StringRecord(i, text) for i, text in enumerate(
            ["abcdef", "abcxyz", "qwerty", "qwertz", "zzzzzz"])])
        for row in rows[:-1]:
            index.remove(row)
            for per_length in index._indices.values():
                assert per_length, "empty length group left behind"
                for per_ordinal in per_length.values():
                    assert per_ordinal, "empty per-ordinal dict left behind"
                    for postings in per_ordinal.values():
                        assert len(postings) > 0, "empty posting list"
        index.remove(rows[-1])
        assert index._indices == {}

    def test_no_empty_buckets_after_full_compaction(self):
        searcher = DynamicSearcher(max_tau=2)
        for text in random_strings(40, 3, 12, alphabet="ab", seed=21):
            searcher.insert(text)
        for record_id in range(0, 40, 2):
            searcher.delete(record_id)
        for per_length in searcher._index._indices.values():
            assert per_length
            for per_ordinal in per_length.values():
                assert per_ordinal
                for postings in per_ordinal.values():
                    assert len(postings) > 0
        # The store shrank with the deletes: only live records hold rows.
        assert searcher._index.store.live_count == len(searcher)


def apply_ops(ops, max_tau):
    """Drive a DynamicSearcher and a plain dict of survivors in lockstep."""
    searcher = DynamicSearcher(max_tau=max_tau)
    surviving: dict[int, str] = {}
    for op in ops:
        if op[0] == "insert":
            new_id = searcher.insert(op[1])
            surviving[new_id] = op[1]
        elif op[0] == "delete":
            target = op[1] % (max(surviving) + 1) if surviving else 0
            assert searcher.delete(target) == (target in surviving)
            surviving.pop(target, None)
    return searcher, surviving


class TestOracle:
    def test_scripted_interleaving_matches_fresh_rebuild(self):
        strings = random_strings(60, 2, 12, alphabet="abc", seed=3)
        searcher = DynamicSearcher(strings[:40], max_tau=2)
        for record_id in (0, 7, 13, 39):
            searcher.delete(record_id)
        for text in strings[40:]:
            searcher.insert(text)
        searcher.delete(45)
        fresh = fresh_equivalent(searcher)
        for query in random_strings(15, 2, 12, alphabet="abc", seed=4):
            assert searcher.search(query, tau=2) == fresh.search(query, tau=2)
            assert (searcher.search_top_k(query, k=3)
                    == fresh.search_top_k(query, k=3))

    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.text(alphabet="ab", max_size=8)),
            st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        ), max_size=25),
        queries=st.lists(st.text(alphabet="ab", max_size=8), min_size=1,
                         max_size=5),
        max_tau=st.integers(min_value=0, max_value=3))
    @settings(max_examples=120, deadline=None)
    def test_interleaved_ops_match_brute_force(self, ops, queries, max_tau):
        searcher, surviving = apply_ops(ops, max_tau)
        for query in queries:
            expected = sorted(
                (SearchMatch(edit_distance(text, query), record_id, text)
                 for record_id, text in surviving.items()
                 if edit_distance(text, query) <= max_tau),
                key=SearchMatch.sort_key)
            assert searcher.search(query) == expected

    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.text(alphabet="abc", max_size=7)),
            st.tuples(st.just("delete"), st.integers(min_value=0, max_value=20)),
        ), max_size=20),
        query=st.text(alphabet="abc", max_size=7),
        k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_top_k_matches_fresh_rebuild(self, ops, query, k):
        searcher, _ = apply_ops(ops, max_tau=2)
        fresh = fresh_equivalent(searcher)
        assert searcher.search_top_k(query, k) == fresh.search_top_k(query, k)
