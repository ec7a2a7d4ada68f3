"""Tests for the pluggable similarity-kernel layer.

Covers the registry (lookup, unknown-name errors, the discovery
catalogue), the threshold/partition-key semantics of both kernels, the
one-kernel-per-service invariant (mismatch and mixed-kernel batches are
rejected at the searcher, router, and wire layers), and the
``ServiceConfig``/CLI validation that surfaces unknown kernels at
construction time.
"""

import pytest

from repro.config import (DEFAULT_KERNEL, DEFAULT_VERIFICATION, KERNELS,
                          ServiceConfig)
from repro.core.kernel import (JACCARD_SCALE, EditDistanceKernel,
                               SimilarityKernel, TokenJaccardKernel,
                               check_batch_kernels, check_kernel_match,
                               describe_kernels, get_kernel, kernel_names,
                               resolve_kernel, token_jaccard_distance,
                               tokenize)
from repro.config import PartitionStrategy, VerificationMethod
from repro.exceptions import (ConfigurationError, InvalidThresholdError,
                              UnknownMethodError)
from repro.search import PassJoinSearcher
from repro.service import DynamicSearcher, ShardRouter, SimilarityService


class TestRegistry:
    def test_both_kernels_registered(self):
        assert kernel_names() == tuple(sorted(KERNELS))
        assert "edit-distance" in kernel_names()
        assert "token-jaccard" in kernel_names()

    def test_get_kernel_returns_singletons(self):
        assert get_kernel("edit-distance") is get_kernel("edit-distance")
        assert isinstance(get_kernel("edit-distance"), EditDistanceKernel)
        assert isinstance(get_kernel("token-jaccard"), TokenJaccardKernel)

    def test_unknown_kernel_lists_the_registered_ones(self):
        with pytest.raises(UnknownMethodError) as excinfo:
            get_kernel("cosine")
        message = str(excinfo.value)
        assert "cosine" in message
        for name in kernel_names():
            assert name in message

    def test_resolve_kernel(self):
        assert resolve_kernel(None).name == DEFAULT_KERNEL
        assert resolve_kernel("token-jaccard").name == "token-jaccard"
        kernel = get_kernel("edit-distance")
        assert resolve_kernel(kernel) is kernel

    def test_describe_kernels_is_wire_ready(self):
        catalogue = describe_kernels()
        assert [entry["name"] for entry in catalogue] == list(kernel_names())
        for entry in catalogue:
            assert isinstance(entry["tau_semantics"], str)

    def test_described_verifier_is_the_one_served(self):
        # The serving tiers build their backend without naming a method,
        # so `kernels` and explain's verifier.kernel must say the same.
        kernel = get_kernel("edit-distance")
        report = DynamicSearcher(["vldb", "pvldb"], max_tau=1).explain("vldb")
        assert (kernel.describe()["verifier"] == report["verifier"]["kernel"]
                == DEFAULT_VERIFICATION.value)

    def test_kernels_are_similarity_kernels(self):
        for name in kernel_names():
            assert isinstance(get_kernel(name), SimilarityKernel)


class TestTokenJaccardDistance:
    def test_identical_and_disjoint(self):
        assert token_jaccard_distance("a b c", "c b a") == 0
        assert token_jaccard_distance("a b", "c d") == JACCARD_SCALE

    def test_empty_sets(self):
        assert token_jaccard_distance("", "") == 0
        assert token_jaccard_distance("   ", "") == 0  # whitespace-only
        assert token_jaccard_distance("", "a") == JACCARD_SCALE

    def test_scaled_ceiling(self):
        # J({a,b,c}, {a,b}) = 2/3 -> distance = ceil(100/3) = 34.
        assert token_jaccard_distance("a b c", "a b") == 34
        # J = 1/2 -> exactly 50, no rounding.
        assert token_jaccard_distance("a b", "a c") == 67  # J=1/3 -> ceil(200/3)
        assert token_jaccard_distance("a b c d", "a b") == 50

    def test_duplicate_tokens_collapse(self):
        assert token_jaccard_distance("a a a b", "a b") == 0
        assert tokenize("x  x\ty") == frozenset({"x", "y"})

    def test_symmetry(self):
        pairs = [("a b c", "b c d"), ("", "q"), ("one", "one two three")]
        for left, right in pairs:
            assert (token_jaccard_distance(left, right)
                    == token_jaccard_distance(right, left))


class TestThresholdSemantics:
    def test_edit_distance_tau(self):
        kernel = get_kernel("edit-distance")
        assert kernel.validate_tau(0) == 0
        assert kernel.validate_tau(7) == 7
        with pytest.raises(InvalidThresholdError):
            kernel.validate_tau(-1)

    def test_jaccard_tau_bounded_below_the_scale(self):
        kernel = get_kernel("token-jaccard")
        assert kernel.validate_tau(0) == 0
        assert kernel.validate_tau(JACCARD_SCALE - 1) == JACCARD_SCALE - 1
        with pytest.raises(InvalidThresholdError):
            kernel.validate_tau(JACCARD_SCALE)
        with pytest.raises(InvalidThresholdError):
            kernel.validate_tau(-1)

    def test_record_keys(self):
        assert get_kernel("edit-distance").record_key("abcd") == 4
        jaccard = get_kernel("token-jaccard")
        assert jaccard.record_key("a b b c") == 3  # a set, not a list
        assert jaccard.record_key("") == 0

    def test_edit_distance_probe_key_range(self):
        kernel = get_kernel("edit-distance")
        assert kernel.probe_key_range("abcd", 2) == (2, 6)
        assert kernel.probe_key_range("a", 3) == (0, 4)

    def test_jaccard_probe_key_range(self):
        kernel = get_kernel("token-jaccard")
        # Empty queries can only match empty (distance-0) records.
        assert kernel.probe_key_range("", 50) == (0, 0)
        # tau=50 <=> J >= 0.5: candidate sizes span [ceil(n/2), 2n].
        lo, hi = kernel.probe_key_range("a b c d", 50)
        assert lo == 2 and hi == 8
        # tau=0 <=> exact set equality: only same-size sets qualify.
        assert kernel.probe_key_range("a b c", 0) == (3, 3)

    def test_jaccard_range_is_sound(self):
        # Any record within tau must have a token count inside the range.
        kernel = get_kernel("token-jaccard")
        query = "a b c d e"
        for tau in (0, 20, 40, 60, 80, 99):
            lo, hi = kernel.probe_key_range(query, tau)
            for text in ("a", "a b", "a b c", "a b c d e", "a b c d e f g",
                         "x y", "a b c x y z w q r s"):
                if token_jaccard_distance(query, text) <= tau:
                    assert lo <= len(tokenize(text)) <= hi, (tau, text)


class TestBackendConstruction:
    def test_jaccard_rejects_non_even_partition(self):
        kernel = get_kernel("token-jaccard")
        with pytest.raises(ConfigurationError):
            kernel.make_backend(50, partition=PartitionStrategy.LEFT_HEAVY)

    def test_jaccard_rejects_ed_verification_strategies(self):
        kernel = get_kernel("token-jaccard")
        with pytest.raises(ConfigurationError):
            kernel.make_backend(50,
                                verification=VerificationMethod.SHARE_PREFIX)

    def test_searchers_accept_kernel_by_name_or_instance(self):
        data = ["a b", "a c"]
        by_name = PassJoinSearcher(data, max_tau=50, kernel="token-jaccard")
        by_instance = PassJoinSearcher(data, max_tau=50,
                                       kernel=get_kernel("token-jaccard"))
        assert (by_name.search("a b", 50) == by_instance.search("a b", 50))

    def test_unknown_kernel_name_at_searcher_construction(self):
        with pytest.raises(UnknownMethodError):
            DynamicSearcher(["x"], max_tau=1, kernel="levenshtein")


class TestConfigValidation:
    def test_default_kernel(self):
        assert ServiceConfig().kernel == DEFAULT_KERNEL

    def test_known_kernels_accepted(self):
        for name in KERNELS:
            assert ServiceConfig(kernel=name).kernel == name

    def test_unknown_kernel_fails_at_construction(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ServiceConfig(kernel="hamming")
        message = str(excinfo.value)
        assert "hamming" in message
        for name in KERNELS:
            assert name in message


class TestKernelMatch:
    def test_match_and_none_pass(self):
        kernel = get_kernel("edit-distance")
        check_kernel_match(kernel, None)
        check_kernel_match(kernel, "edit-distance")

    def test_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            check_kernel_match(get_kernel("edit-distance"), "token-jaccard")

    def test_batch_scalar_and_per_query_names(self):
        kernel = get_kernel("token-jaccard")
        check_batch_kernels(kernel, None)
        check_batch_kernels(kernel, "token-jaccard")
        check_batch_kernels(kernel, ["token-jaccard", None, "token-jaccard"])

    def test_mixed_kernel_batch_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            check_batch_kernels(get_kernel("edit-distance"),
                                ["edit-distance", "token-jaccard"])
        assert "mixed-kernel batch" in str(excinfo.value)

    def test_searcher_level_rejection(self):
        static = PassJoinSearcher(["ab"], max_tau=1)
        dynamic = DynamicSearcher(["ab"], max_tau=1)
        for searcher in (static, dynamic):
            with pytest.raises(ConfigurationError):
                searcher.search_many(["ab"], kernel="token-jaccard")
            with pytest.raises(ConfigurationError):
                searcher.search_many(["ab", "ba"],
                                     kernel=["edit-distance", "token-jaccard"])

    def test_router_level_rejection(self):
        with ShardRouter(["ab", "cd"], shards=2, max_tau=1,
                         backend="thread") as router:
            with pytest.raises(ConfigurationError):
                router.search_many(["ab"], kernel="token-jaccard")
            assert router.search_many(["ab"], kernel="edit-distance")


class TestWireLayer:
    def setup_method(self):
        self.service = SimilarityService(["vldb", "pvldb"],
                                         ServiceConfig(max_tau=2))

    def test_kernels_op(self):
        response = self.service.handle_request({"op": "kernels"})
        assert response["ok"] is True
        assert response["serving"] == "edit-distance"
        assert ([entry["name"] for entry in response["kernels"]]
                == list(kernel_names()))

    def test_matching_kernel_field_accepted(self):
        response = self.service.handle_request(
            {"op": "search", "query": "vldb", "tau": 1,
             "kernel": "edit-distance"})
        assert response["ok"] is True

    def test_mismatched_kernel_field_rejected(self):
        for op in ("search", "explain"):
            response = self.service.handle_request(
                {"op": op, "query": "vldb", "tau": 1,
                 "kernel": "token-jaccard"})
            assert response["ok"] is False
            assert "token-jaccard" in response["error"]

    def test_non_string_kernel_field_rejected(self):
        response = self.service.handle_request(
            {"op": "search", "query": "vldb", "kernel": 7})
        assert response["ok"] is False

    def test_batch_kernel_field(self):
        good = self.service.handle_request(
            {"op": "search-batch", "queries": ["vldb"],
             "kernel": "edit-distance"})
        assert good["ok"] is True
        bad = self.service.handle_request(
            {"op": "search-batch", "queries": ["vldb"],
             "kernel": "token-jaccard"})
        assert bad["ok"] is False

    def test_mixed_kernel_batch_over_the_wire(self):
        response = self.service.handle_request(
            {"op": "search-batch", "queries": ["vldb", "icde"],
             "kernels": ["edit-distance", "token-jaccard"]})
        assert response["ok"] is False
        assert "mixed-kernel batch" in response["error"]

    def test_kernels_list_length_must_match_queries(self):
        response = self.service.handle_request(
            {"op": "search-batch", "queries": ["vldb", "icde"],
             "kernels": ["edit-distance"]})
        assert response["ok"] is False

    def test_stats_report_the_kernel(self):
        assert (self.service.handle_request({"op": "stats"})["kernel"]
                == "edit-distance")

    def test_jaccard_service_end_to_end(self):
        service = SimilarityService(
            ["apple banana", "banana cherry", "apple"],
            ServiceConfig(max_tau=60, kernel="token-jaccard"))
        response = service.handle_request(
            {"op": "search", "query": "apple banana", "tau": 50,
             "kernel": "token-jaccard"})
        assert response["ok"] is True
        assert ({m["text"] for m in response["matches"]}
                == {"apple banana", "apple"})
        assert service.handle_request({"op": "stats"})["kernel"] == "token-jaccard"
        mismatch = service.handle_request(
            {"op": "search", "query": "x", "kernel": "edit-distance"})
        assert mismatch["ok"] is False
