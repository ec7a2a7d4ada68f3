"""Tests for the dataset substrate: generators, corruption, loaders, stats."""

import random

import pytest

from repro.datasets import (DatasetSpec, apply_random_edits, dataset_statistics,
                            generate_author_dataset, generate_dataset,
                            generate_querylog_dataset, generate_title_dataset,
                            length_histogram, load_strings, make_near_duplicate,
                            save_strings)
from repro.datasets.vocabulary import expanded_vocabulary, zipf_choice
from repro.distance import edit_distance
from repro.exceptions import DatasetError


class TestGenerators:
    def test_requested_cardinality(self):
        assert len(generate_author_dataset(321)) == 321
        assert len(generate_querylog_dataset(100)) == 100
        assert len(generate_title_dataset(50)) == 50

    def test_deterministic_given_seed(self):
        assert generate_author_dataset(200, seed=1) == generate_author_dataset(200, seed=1)
        assert generate_author_dataset(200, seed=1) != generate_author_dataset(200, seed=2)

    def test_author_lengths_are_short(self):
        stats = dataset_statistics(generate_author_dataset(1500))
        assert 10 <= stats.avg_length <= 22
        assert stats.min_length >= 3

    def test_querylog_lengths_are_medium(self):
        stats = dataset_statistics(generate_querylog_dataset(800))
        assert 35 <= stats.avg_length <= 65
        assert stats.min_length >= 25

    def test_title_lengths_are_long(self):
        stats = dataset_statistics(generate_title_dataset(400))
        assert 80 <= stats.avg_length <= 140

    def test_relative_length_ordering_matches_table2(self):
        author = dataset_statistics(generate_author_dataset(500)).avg_length
        querylog = dataset_statistics(generate_querylog_dataset(500)).avg_length
        title = dataset_statistics(generate_title_dataset(500)).avg_length
        assert author < querylog < title

    def test_duplicates_are_planted(self):
        # With a high duplicate fraction the self join must find many pairs.
        from repro import pass_join
        strings = generate_author_dataset(300, duplicate_fraction=0.4)
        assert len(pass_join(strings, 2)) > 10

    def test_zero_duplicate_fraction_is_allowed(self):
        strings = generate_dataset(DatasetSpec("author", 100, duplicate_fraction=0.0))
        assert len(strings) == 100

    def test_unknown_dataset_name(self):
        with pytest.raises(DatasetError):
            generate_dataset(DatasetSpec("nonexistent", 10))

    def test_invalid_spec_values(self):
        with pytest.raises(DatasetError):
            DatasetSpec("author", -1)
        with pytest.raises(DatasetError):
            DatasetSpec("author", 10, duplicate_fraction=1.5)
        with pytest.raises(DatasetError):
            DatasetSpec("author", 10, max_duplicate_edits=0)

    def test_empty_dataset(self):
        assert generate_author_dataset(0) == []


class TestVocabulary:
    def test_expanded_vocabulary_size_and_determinism(self):
        vocab = expanded_vocabulary("first", 500)
        assert len(vocab) == 500
        assert len(set(vocab)) == 500
        assert expanded_vocabulary("first", 500) == vocab

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expanded_vocabulary("verbs", 10)

    def test_zipf_choice_prefers_low_ranks(self):
        vocab = expanded_vocabulary("query", 1000)
        rng = random.Random(0)
        picks = [zipf_choice(vocab, rng) for _ in range(2000)]
        top_share = sum(1 for word in picks if word in vocab[:100]) / len(picks)
        assert top_share > 0.3  # the head of the distribution dominates


class TestCorruption:
    def test_zero_edits_is_identity(self, rng):
        assert apply_random_edits("unchanged", 0, rng) == "unchanged"

    def test_negative_edits_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_random_edits("abc", -1, rng)

    def test_edit_distance_bounded_by_edit_count(self, rng):
        for _ in range(50):
            edits = rng.randint(1, 4)
            original = "some reference string value"
            corrupted = apply_random_edits(original, edits, rng)
            assert edit_distance(original, corrupted) <= edits

    def test_make_near_duplicate_within_bound(self, rng):
        for _ in range(30):
            duplicate = make_near_duplicate("similarity joins", rng, max_edits=3)
            assert 0 <= edit_distance("similarity joins", duplicate) <= 3

    def test_make_near_duplicate_invalid_bound(self, rng):
        with pytest.raises(ValueError):
            make_near_duplicate("abc", rng, max_edits=0)


class TestLoaders:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "strings.txt"
        strings = ["alpha", "beta gamma", "délta"]
        assert save_strings(path, strings) == 3
        assert load_strings(path) == strings

    def test_load_with_limit(self, tmp_path):
        path = tmp_path / "strings.txt"
        save_strings(path, [f"string-{i}" for i in range(100)])
        assert len(load_strings(path, limit=7)) == 7
        assert load_strings(path, limit=0) == []
        for limit in (-1, -5):
            with pytest.raises(DatasetError, match="limit"):
                load_strings(path, limit=limit)

    def test_empty_lines_are_skipped(self, tmp_path):
        path = tmp_path / "strings.txt"
        path.write_text("one\n\ntwo\n\n", encoding="utf-8")
        assert load_strings(path) == ["one", "two"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_strings(tmp_path / "missing.txt")

    def test_newlines_rejected_on_save(self, tmp_path):
        with pytest.raises(DatasetError):
            save_strings(tmp_path / "bad.txt", ["has\nnewline"])


class TestStats:
    def test_dataset_statistics(self):
        stats = dataset_statistics(["ab", "abcd", "abcdef"])
        assert stats.cardinality == 3
        assert stats.avg_length == 4.0
        assert stats.min_length == 2 and stats.max_length == 6
        assert stats.as_row()["avg_len"] == 4.0

    def test_empty_collection(self):
        stats = dataset_statistics([])
        assert stats.cardinality == 0
        assert stats.avg_length == 0.0

    def test_length_histogram_exact(self):
        histogram = length_histogram(["a", "bb", "cc", "dddd"])
        assert histogram == {1: 1, 2: 2, 4: 1}

    def test_length_histogram_buckets(self):
        histogram = length_histogram(["a" * n for n in (3, 7, 12, 14)], bucket_size=5)
        assert histogram == {0: 1, 5: 1, 10: 2}

    def test_length_histogram_counts_sum_to_cardinality(self):
        strings = generate_author_dataset(400)
        histogram = length_histogram(strings, bucket_size=3)
        assert sum(histogram.values()) == len(strings)

    def test_invalid_bucket_size(self):
        with pytest.raises(ValueError):
            length_histogram(["abc"], bucket_size=0)
