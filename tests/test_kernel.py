"""Tests for the tracer's searcher factory and the wire kernel guard.

Covers :func:`~repro.core.kernel.get_kernel` (the one name it knows, the
empty :class:`~repro.search.searcher.Searcher` it makes, and the error for
any other name), the searcher's threshold validation, the length
window every probe and shard scatter filters by, and the wire guard: a
request may name the ``edit-distance`` kernel, and naming anything else
fails the request instead of being answered under edit distance.  The
searchers, the router and ``ServiceConfig`` take no kernel argument at
all, so asking them for another similarity fails at the call — and no
partition or verifier argument either: every served index is built with
the even partition and the default verifier.
"""

import pytest

from repro.config import DEFAULT_VERIFICATION, ServiceConfig
from repro.core.kernel import get_kernel
from repro.exceptions import (ConfigurationError, InvalidThresholdError,
                              ServiceError, UnknownMethodError)
from repro.search import PassJoinSearcher
from repro.search.searcher import Searcher, length_window
from repro.service import (BackgroundServer, DynamicSearcher, ServiceClient,
                           ShardRouter, SimilarityService)
from repro.service.server import KERNEL_NAME, check_kernel_fields
from repro.types import JoinStatistics

#: One valid request per op that runs queries, keyed by op.
QUERY_REQUESTS = {
    "search": {"op": "search", "query": "vldb", "tau": 1},
    "top-k": {"op": "top-k", "query": "vldb", "k": 1},
    "search-batch": {"op": "search-batch", "queries": ["vldb"]},
    "top-k-batch": {"op": "top-k-batch", "queries": ["vldb"], "k": 1},
    "explain": {"op": "explain", "query": "vldb", "tau": 1},
}


class TestRegistry:
    def test_get_kernel_returns_singletons(self):
        assert get_kernel("edit-distance") is get_kernel("edit-distance")
        backend = get_kernel("edit-distance").make_backend(1)
        assert type(backend) is Searcher
        assert backend.max_tau == 1 and len(backend) == 0
        assert backend.entry_count() == 0

    def test_unknown_kernel_lists_the_registered_ones(self):
        with pytest.raises(UnknownMethodError) as excinfo:
            get_kernel("cosine")
        message = str(excinfo.value)
        assert "cosine" in message
        assert "edit-distance" in message

    def test_described_verifier_is_the_one_served(self):
        # Every searcher verifies with the default, so a get_kernel
        # searcher's verifier and explain's verifier.kernel agree.
        backend = get_kernel("edit-distance").make_backend(1)
        verifier = backend.new_verifier(1, JoinStatistics())
        report = DynamicSearcher(["vldb", "pvldb"], max_tau=1).explain("vldb")
        assert (verifier.method.value == report["verifier"]["kernel"]
                == DEFAULT_VERIFICATION.value)


class TestThresholdSemantics:
    def test_edit_distance_tau(self):
        kernel = get_kernel("edit-distance")
        assert kernel.make_backend(0).max_tau == 0
        assert kernel.make_backend(7).max_tau == 7
        with pytest.raises(InvalidThresholdError):
            kernel.make_backend(-1)

    def test_edit_distance_probe_key_range(self):
        assert length_window("abcd", 2) == (2, 6)
        assert length_window("a", 3) == (0, 4)


@pytest.mark.parametrize("build", [
    lambda: PassJoinSearcher(["vldb"], max_tau=1, partition="left-heavy"),
    lambda: PassJoinSearcher(["vldb"], max_tau=1, verification="share-prefix"),
    lambda: DynamicSearcher(["vldb"], max_tau=1, partition="left-heavy"),
    lambda: ShardRouter(["vldb"], shards=2, max_tau=1, backend="thread",
                        partition="left-heavy"),
    lambda: ServiceConfig(partition="left-heavy"),
    lambda: get_kernel("edit-distance").make_backend(2, partition="even"),
    lambda: get_kernel("edit-distance").make_backend(
        2, verification="share-prefix"),
    # Only the deleted token-Jaccard backend was seeded.
    lambda: get_kernel("edit-distance").make_backend(2, seed=1),
], ids=["searcher-partition", "searcher-verification", "dynamic-partition",
        "router-partition", "service-config-partition",
        "backend-partition", "backend-verification", "backend-seed"])
def test_searcher_strategy_knobs_are_gone(build):
    # Every served index is built one way; the paper's other partitions and
    # verifiers are join options (JoinConfig) only.
    with pytest.raises(TypeError):
        build()


class TestBackendConstruction:
    def test_unknown_kernel_name_at_searcher_construction(self):
        # No searcher takes a kernel: naming one fails at construction
        # instead of building an edit-distance index.
        with pytest.raises(TypeError):
            PassJoinSearcher(["x"], max_tau=1, kernel="levenshtein")
        with pytest.raises(TypeError):
            DynamicSearcher(["x"], max_tau=1, kernel="levenshtein")
        with pytest.raises(TypeError):
            ShardRouter(["x"], shards=2, max_tau=1, backend="thread",
                        kernel="levenshtein")


class TestConfigValidation:
    def test_default_kernel(self):
        # The default configuration serves edit distance: a request naming
        # it is answered with edit-distance matches.
        service = SimilarityService(["vldb", "pvldb", "icde"], ServiceConfig())
        response = service.handle_request(
            {"op": "search", "query": "vldb", "tau": 1,
             "kernel": get_kernel("edit-distance").name})
        assert [(m["text"], m["distance"]) for m in response["matches"]] == [
            ("vldb", 0), ("pvldb", 1)]

    def test_known_kernels_accepted(self):
        service = SimilarityService(["vldb", "pvldb"], ServiceConfig(max_tau=2))
        for request in QUERY_REQUESTS.values():
            response = service.handle_request(
                {**request, "kernel": KERNEL_NAME})
            assert response["ok"] is True, request

    def test_unknown_kernel_fails_at_construction(self):
        with pytest.raises(TypeError):
            ServiceConfig(kernel="hamming")


class TestKernelMatch:
    def test_match_and_none_pass(self):
        check_kernel_fields({})
        check_kernel_fields({"kernel": None})
        check_kernel_fields({"kernel": "edit-distance"})

    def test_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="'token-jaccard'"):
            check_kernel_fields({"kernel": "token-jaccard"})

    def test_batch_scalar_and_per_query_names(self):
        queries = ["a", "b", "c"]
        check_kernel_fields({"queries": queries, "kernel": "edit-distance"})
        check_kernel_fields({"queries": queries,
                             "kernels": ["edit-distance", None,
                                         "edit-distance"]})
        check_kernel_fields({"queries": queries, "kernel": "edit-distance",
                             "kernels": [None, None, None]})
        with pytest.raises(ConfigurationError):
            check_kernel_fields({"queries": queries, "kernel": "cosine",
                                 "kernels": [None, None, None]})

    def test_mixed_kernel_batch_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            check_kernel_fields({"queries": ["a", "b"],
                                 "kernels": ["edit-distance",
                                             "token-jaccard"]})
        assert "'token-jaccard'" in str(excinfo.value)

    def test_searcher_level_rejection(self):
        # The per-call kernel argument is gone; passing one fails the call.
        static = PassJoinSearcher(["ab"], max_tau=1)
        dynamic = DynamicSearcher(["ab"], max_tau=1)
        for searcher in (static, dynamic):
            with pytest.raises(TypeError):
                searcher.search_many(["ab"], kernel="token-jaccard")
            with pytest.raises(TypeError):
                searcher.search_top_k_many(["ab"], 1, kernel="edit-distance")
            assert searcher.search_many(["ab"]) == [searcher.search("ab")]

    def test_router_level_rejection(self):
        with ShardRouter(["ab", "cd"], shards=2, max_tau=1,
                         backend="thread") as router:
            with pytest.raises(TypeError):
                router.search_many(["ab"], kernel="token-jaccard")
            with pytest.raises(TypeError):
                router.search_top_k_many(["ab"], 1, kernel="edit-distance")
            assert router.search_many(["ab"]) == [router.search("ab")]


class TestWireLayer:
    def setup_method(self):
        self.service = SimilarityService(["vldb", "pvldb"],
                                         ServiceConfig(max_tau=2))

    def test_kernels_op(self):
        # The kernel catalogue op is gone with the registry.
        response = self.service.handle_request({"op": "kernels"})
        assert response["ok"] is False
        assert "unknown op 'kernels'" in response["error"]

    @pytest.mark.parametrize("op", sorted(QUERY_REQUESTS))
    def test_every_query_op_checks_the_kernel_field(self, op):
        request = QUERY_REQUESTS[op]
        assert self.service.handle_request(request)["ok"] is True
        for kernel in ("token-jaccard", 7):
            response = self.service.handle_request({**request,
                                                    "kernel": kernel})
            assert response["ok"] is False
            assert repr(kernel) in response["error"]

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
             "kernel": "cosine"})
        assert bad["ok"] is False

    def test_mixed_kernel_batch_over_the_wire(self):
        good = self.service.handle_request(
            {"op": "top-k-batch", "queries": ["vldb", "icde"], "k": 1,
             "kernels": ["edit-distance", None]})
        assert good["ok"] is True
        for kernels in (["edit-distance", "cosine"],
                        ["edit-distance", 7], "cosine"):
            response = self.service.handle_request(
                {"op": "search-batch", "queries": ["vldb", "icde"],
                 "kernels": kernels})
            assert response["ok"] is False
            assert "edit-distance" in response["error"]

    def test_kernels_list_length_must_match_queries(self):
        for kernels in (["edit-distance"], [None, None, None], []):
            response = self.service.handle_request(
                {"op": "search-batch", "queries": ["vldb", "icde"],
                 "kernels": kernels})
            assert response["ok"] is False
            assert "one kernel name per query" in response["error"]

    def test_jaccard_service_end_to_end(self):
        # A client written for the deleted token-Jaccard service, over TCP:
        # its request is refused with an error response, and the same
        # connection goes on serving edit distance.
        config = ServiceConfig(port=0, max_tau=2)
        with BackgroundServer(["vldb", "pvldb"], config) as address:
            with ServiceClient(*address) as client:
                with pytest.raises(ServiceError, match="'token-jaccard'"):
                    client.request({"op": "search", "query": "vldb",
                                    "kernel": "token-jaccard"})
                response = client.request({"op": "search", "query": "vldb",
                                           "tau": 1,
                                           "kernel": "edit-distance"})
                assert [m["text"] for m in response["matches"]] == [
                    "vldb", "pvldb"]
