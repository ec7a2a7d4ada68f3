"""Service-level observability: metrics op, stats satellites, slow-query log."""

import json
import logging

import pytest

from repro.config import ServiceConfig
from repro.obs.metrics import parse_prometheus, render_prometheus
from repro.obs.slowlog import SLOW_QUERY_LOGGER_NAME
from repro.service import BackgroundServer, ServiceClient, SimilarityService

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt"]


def make_service(**config):
    return SimilarityService(STRINGS, ServiceConfig(max_tau=2, **config))


class TestStatsSatellites:
    def test_uptime_requests_by_op_and_errors(self):
        service = make_service()
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        service.handle_request({"op": "search", "query": "icde", "tau": 1})
        service.handle_request({"op": "top-k", "query": "vldb", "k": 2})
        service.handle_request({"op": "search", "query": "vldb",
                                "tau": 99})  # error: above max_tau
        stats = service.handle_request({"op": "stats"})
        assert stats["ok"] is True
        assert stats["uptime_seconds"] >= 0
        assert stats["requests_by_op"]["search"] == 3
        assert stats["requests_by_op"]["top-k"] == 1
        assert stats["errors"] == 1

    def test_cache_capacity_and_size_surface_in_stats(self):
        service = make_service(cache_capacity=7)
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        stats = service.handle_request({"op": "stats"})
        assert stats["cache"]["capacity"] == 7
        assert stats["cache"]["size"] == 1


class TestMetricsOp:
    def test_merged_snapshot_holds_requests_engine_and_cache(self):
        service = make_service()
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        response = service.handle_request({"op": "metrics"})
        assert response["ok"] is True
        assert response["uptime_seconds"] >= 0
        counters = response["merged"]["counters"]
        assert counters["requests.search"] == 2
        assert counters["cache_hits"] == 1
        assert counters["engine_accepted"] >= 2  # vldb + pvldb, probed once
        funnel = [counters.get(name, 0) for name in (
            "engine_postings_scanned", "engine_candidates",
            "engine_verifications", "engine_accepted")]
        assert funnel == sorted(funnel, reverse=True)
        assert response["merged"]["gauges"]["cache_capacity"] == 1024

    def test_signature_rejects_are_counted_per_kernel(self):
        # Shares the segment "abcd" with the query, four buckets away.
        service = SimilarityService(["abcdwxyz", "abcdmnop"],
                                    ServiceConfig(max_tau=1))
        service.handle_request({"op": "search", "query": "abcdwxyz", "tau": 1})
        counters = service.handle_request({"op": "metrics"})["merged"][
            "counters"]
        assert counters["engine_signature_rejects"] == 1
        assert counters["engine_verifications"] == 2  # rejects are included
        report = service.handle_request(
            {"op": "explain", "query": "abcdwxyz", "tau": 1})["explain"]
        assert report["verifier"]["signature_rejects"] == 1
        assert report["funnel"]["verifications"] == 2

    def test_histogram_count_equals_request_counter(self):
        service = make_service()
        for _ in range(3):
            service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        service.handle_request({"op": "ping"})
        merged = service.handle_request({"op": "metrics"})["merged"]
        for name, value in merged["counters"].items():
            if name.startswith("requests."):
                op = name[len("requests."):]
                histogram = merged["histograms"][f"latency_seconds.{op}"]
                assert histogram["count"] == value, name

    def test_errors_counted_per_op(self):
        service = make_service()
        service.handle_request({"op": "search", "query": "vldb", "tau": 99})
        merged = service.handle_request({"op": "metrics"})["merged"]
        assert merged["counters"]["errors.search"] == 1

    def test_unknown_ops_pool_under_unknown(self):
        service = make_service()
        service.handle_request({"op": "made-up-op-1"})
        service.handle_request({"op": "made-up-op-2"})
        merged = service.handle_request({"op": "metrics"})["merged"]
        assert merged["counters"]["requests.unknown"] == 2
        assert merged["counters"]["errors.unknown"] == 2
        assert "requests.made-up-op-1" not in merged["counters"]

    def test_rendered_snapshot_is_valid_prometheus(self):
        service = make_service()
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        merged = service.handle_request({"op": "metrics"})["merged"]
        families = parse_prometheus(render_prometheus(merged))
        assert "passjoin_requests_search" in families


class TestShardedMetrics:
    def test_thread_backend_reports_per_shard_breakdown(self):
        service = make_service(shards=2, shard_backend="thread",
                               cache_capacity=0)
        try:
            service.handle_request({"op": "search", "query": "vldb", "tau": 1})
            response = service.handle_request({"op": "metrics"})
            assert response["shards"]["count"] == 2
            per_shard = response["shards"]["per_shard"]
            assert len(per_shard) == 2
            merged = response["merged"]
            assert merged["counters"]["engine_candidates"] == sum(
                shard["counters"].get("engine_candidates", 0)
                for shard in per_shard)
            # "vldb" (id 0) and "pvldb" (id 1) live on different shards
            # of the 2-shard ring: both workers accepted a match.
            accepted = [shard["counters"].get("engine_accepted", 0)
                        for shard in per_shard]
            assert accepted == [1, 1]
        finally:
            service.close()

    def test_fork_worker_counters_survive_the_pipe(self):
        service = make_service(shards=2, shard_backend="process",
                               cache_capacity=0)
        try:
            for _ in range(2):
                service.handle_request({"op": "search", "query": "vldb",
                                        "tau": 1})
            response = service.handle_request({"op": "metrics"})
            merged = response["merged"]
            assert merged["counters"]["engine_accepted"] == 4
            assert merged["counters"]["requests.search"] == 2
            per_shard = response["shards"]["per_shard"]
            assert sum(shard["counters"].get("engine_accepted", 0)
                       for shard in per_shard) == 4
            assert json.loads(json.dumps(response)) == response
        finally:
            service.close()


class TestSlowQueryLog:
    @pytest.fixture
    def captured(self):
        logger = logging.getLogger(SLOW_QUERY_LOGGER_NAME)
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = _Capture()
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            yield records
        finally:
            logger.removeHandler(handler)

    def test_slow_requests_logged_with_truncated_query(self, captured):
        service = make_service(slow_query_ms=0.0001)  # everything is slow
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        assert len(captured) == 1
        event = captured[0].slow_query
        assert event["op"] == "search"
        assert event["query"] == "vldb"
        assert event["ok"] is True
        assert event["latency_ms"] >= 0.0001

    def test_threshold_zero_disables_logging(self, captured):
        service = make_service()  # slow_query_ms defaults to 0.0
        service.handle_request({"op": "search", "query": "vldb", "tau": 1})
        assert captured == []

    def test_config_rejects_negative_threshold(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            ServiceConfig(slow_query_ms=-1)


class TestOverTheWire:
    @pytest.fixture(scope="class")
    def server_address(self):
        with BackgroundServer(STRINGS,
                              ServiceConfig(port=0, max_tau=2)) as address:
            yield address

    @pytest.fixture
    def client(self, server_address):
        with ServiceClient(*server_address) as client:
            yield client

    def test_metrics_op_over_tcp(self, client):
        client.search("vldb", tau=1)
        payload = client.metrics()
        assert payload["ok"] is True
        counters = payload["merged"]["counters"]
        assert counters["requests.search"] >= 1
        assert counters["engine_accepted"] >= 1

    def test_explain_op_over_tcp(self, client):
        report = client.explain("vldb", tau=1)
        matches = client.search("vldb", tau=1)
        assert report["num_matches"] == len(matches) == 2
        assert report["funnel"]["accepted"] == 2
        assert report["matches"] == [m.to_dict() for m in matches]

    def test_cli_admin_metrics_json(self, server_address, capsys):
        from repro.cli import main
        host, port = server_address
        assert main(["admin", "metrics", "--host", host,
                     "--port", str(port)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "requests.metrics" in payload["merged"]["counters"]

    def test_cli_admin_metrics_prometheus_parses(self, server_address,
                                                 capsys):
        from repro.cli import main
        host, port = server_address
        assert main(["admin", "metrics", "--prometheus", "--host", host,
                     "--port", str(port)]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert families["passjoin_requests_metrics"]["type"] == "counter"

    def test_cli_query_explain(self, server_address, capsys):
        from repro.cli import main
        host, port = server_address
        assert main(["query", "vldb", "--tau", "1", "--explain",
                     "--host", host, "--port", str(port)]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["query"] == "vldb"
        assert report["num_matches"] == 2
        assert "accepted=2" in captured.err

    def test_cli_query_explain_rejects_file_mode(self, server_address,
                                                 tmp_path, capsys):
        from repro.cli import main
        host, port = server_address
        queries = tmp_path / "queries.txt"
        queries.write_text("vldb\n")
        assert main(["query", "--file", str(queries), "--explain",
                     "--host", host, "--port", str(port)]) == 2
