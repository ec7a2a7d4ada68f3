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

from helpers import random_strings


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


class TestTombstonesAndCompaction:
    def test_deleted_record_stays_in_index_until_compaction(self):
        searcher = DynamicSearcher(["abcdef", "abcdeg"], max_tau=1,
                                   compact_interval=100)
        searcher.delete(0)
        assert searcher.tombstone_count == 1
        assert [m.id for m in searcher.search("abcdef", tau=1)] == [1]

    def test_manual_compaction_purges_postings(self):
        searcher = DynamicSearcher(["abcdef", "abcdeg", "xyzxyz"], max_tau=1,
                                   compact_interval=100)
        searcher.delete(0)
        searcher.delete(2)
        assert searcher.compact() == 2
        assert searcher.tombstone_count == 0
        fresh = fresh_equivalent(searcher)
        assert (searcher.statistics.index_entries
                == fresh.statistics.index_entries)
        assert [m.id for m in searcher.search("abcdef", tau=1)] == [1]

    def test_auto_compaction_triggers_at_interval(self):
        strings = [f"string{i:04d}" for i in range(10)]
        searcher = DynamicSearcher(strings, max_tau=1, compact_interval=3)
        for record_id in range(4):
            searcher.delete(record_id)
        assert searcher.tombstone_count <= 3

    def test_compact_interval_zero_compacts_every_delete(self):
        searcher = DynamicSearcher(["abcdef", "abcdeg"], max_tau=1,
                                   compact_interval=0)
        searcher.delete(0)
        assert searcher.tombstone_count == 0

    def test_reusing_a_tombstoned_id_purges_the_old_record(self):
        searcher = DynamicSearcher(["abcdef"], max_tau=1, compact_interval=100)
        searcher.delete(0)
        searcher.insert("qrstuv", id=0)
        assert [m.text for m in searcher.search("abcdef", tau=1)] == []
        assert [m.text for m in searcher.search("qrstuv", tau=0)] == ["qrstuv"]

    def test_negative_compact_interval_rejected(self):
        with pytest.raises(ValueError):
            DynamicSearcher(max_tau=1, compact_interval=-1)

    def test_compact_that_purges_bumps_the_epoch(self):
        # Regression: compact() used to leave the epoch untouched, letting
        # the query cache outlive a physical index change.
        searcher = DynamicSearcher(["abcdef", "abcdeg"], max_tau=1,
                                   compact_interval=100)
        searcher.delete(0)
        before = searcher.epoch
        assert searcher.compact() == 1
        assert searcher.epoch == before + 1

    def test_noop_compact_leaves_the_epoch(self):
        searcher = DynamicSearcher(["abcdef"], max_tau=1)
        before = searcher.epoch
        assert searcher.compact() == 0
        assert searcher.epoch == before


def _probe_with_verifier(searcher: DynamicSearcher, query: str, tau: int,
                         method: str) -> list[tuple[int, int]]:
    """Run the search pipeline over the dynamic index with a chosen verifier."""
    stats = JoinStatistics()
    verifier = make_verifier(method, tau, stats)
    tombstones = searcher._tombstones
    matches = probe_record(
        StringRecord(id=-1, text=query), tau=tau, index=searcher._index,
        short_pool=list(searcher._short_pool.values()),
        selector=searcher._selector, verifier=verifier, stats=stats,
        max_length=len(query) + tau, allow_same_id=True,
        accept=(None if not tombstones
                else lambda record_id: record_id not in tombstones))
    return sorted((record.id, distance) for record, distance in matches)


class TestSortedPostingInvariant:
    """Serving inserts append, so a mutated index's posting lists are in
    arrival order; a verifier that shares work along a list must stay
    exact in any order."""

    def _mutated_searcher(self) -> DynamicSearcher:
        strings = random_strings(80, 4, 12, alphabet="abc", seed=13)
        rng = random.Random(13)
        rng.shuffle(strings)
        searcher = DynamicSearcher(max_tau=2, compact_interval=100)
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


class TestTopKWidening:
    def test_num_results_counted_once(self):
        # Regression: every widening round used to re-count its matches.
        searcher = DynamicSearcher(["abcd", "abce"], max_tau=2)
        before = searcher.statistics.num_results
        result = searcher.search_top_k("abcd", k=5)
        assert [m.text for m in result] == ["abcd", "abce"]
        assert searcher.statistics.num_results == before + 2

    def test_skips_taus_outside_every_live_length(self):
        searcher = DynamicSearcher(["abcdefgh"], max_tau=2)
        probes_before = searcher.statistics.num_index_probes
        assert searcher.search_top_k("x", k=1) == []
        assert searcher.statistics.num_index_probes == probes_before
        assert searcher.statistics.num_verifications == 0

    def test_stops_widening_once_every_live_record_matched(self):
        searcher = DynamicSearcher(["aaaa"], max_tau=2)
        fresh = DynamicSearcher(["aaaa"], max_tau=2)
        result = searcher.search_top_k("aaaa", k=3)
        assert result == fresh.search("aaaa", tau=0)
        # Only the tau=0 round ran: identical selection work to one search.
        assert (searcher.statistics.num_selected_substrings
                == fresh.statistics.num_selected_substrings)

    def test_widening_does_not_reverify_earlier_hits(self):
        strings = ["abcd", "abce", "abff", "azzz"]
        searcher = DynamicSearcher(strings, max_tau=2)
        searcher.search_top_k("abcd", k=len(strings))
        widened = searcher.statistics.num_verifications
        # An upper bound witness: one full search at the final threshold
        # verifies every candidate once; incremental widening may verify a
        # record at most once across all rounds, so it can at worst match
        # the per-round sum of candidates *excluding* earlier hits.
        oracle = DynamicSearcher(strings, max_tau=2)
        oracle.search("abcd", 0)
        oracle.search("abcd", 1)
        oracle.search("abcd", 2)
        assert widened <= oracle.statistics.num_verifications


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
        assert index.records_with_length(6) == 1

    def test_remove_last_record_of_a_length_drops_the_group(self):
        index = SegmentIndex(tau=1)
        [row] = _index_rows(index, [StringRecord(0, "abcdef")])
        index.remove(row)
        assert not index.has_length(6)
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
        searcher = DynamicSearcher(max_tau=2, compact_interval=1000)
        for text in random_strings(40, 3, 12, alphabet="ab", seed=21):
            searcher.insert(text)
        for record_id in range(0, 40, 2):
            searcher.delete(record_id)
        searcher.compact()
        for per_length in searcher._index._indices.values():
            assert per_length
            for per_ordinal in per_length.values():
                assert per_ordinal
                for postings in per_ordinal.values():
                    assert len(postings) > 0
        # The store shrank with the purge: only live records hold rows.
        assert searcher._index.store.live_count == len(searcher)


def apply_ops(ops, max_tau, compact_interval=4):
    """Drive a DynamicSearcher and a plain dict of survivors in lockstep."""
    searcher = DynamicSearcher(max_tau=max_tau,
                               compact_interval=compact_interval)
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
