"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import save_strings


@pytest.fixture
def strings_file(tmp_path):
    path = tmp_path / "strings.txt"
    save_strings(path, ["vldb", "pvldb", "sigmod", "sigmmod", "icde"])
    return path


@pytest.fixture
def right_file(tmp_path):
    path = tmp_path / "right.txt"
    save_strings(path, ["vldb journal", "pvldb", "edbt"])
    return path


class TestJoinCommand:
    def test_self_join_prints_pairs_and_summary(self, strings_file, capsys):
        assert main(["join", str(strings_file), "--tau", "1"]) == 0
        captured = capsys.readouterr()
        assert "vldb\tpvldb" in captured.out
        assert "sigmod\tsigmmod" in captured.out
        assert "pairs=2" in captured.err

    def test_quiet_suppresses_pairs(self, strings_file, capsys):
        assert main(["join", str(strings_file), "--tau", "1", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pairs=2" in captured.err

    def test_rs_join(self, strings_file, right_file, capsys):
        assert main(["join", str(strings_file), "--right", str(right_file),
                     "--tau", "1"]) == 0
        captured = capsys.readouterr()
        assert "vldb\tpvldb" in captured.out

    @pytest.mark.parametrize("algorithm", ["pass-join", "ed-join", "trie-join", "naive"])
    def test_every_algorithm_gives_same_answer(self, strings_file, capsys, algorithm):
        assert main(["join", str(strings_file), "--tau", "1",
                     "--algorithm", algorithm]) == 0
        captured = capsys.readouterr()
        assert "pairs=2" in captured.err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["join", str(tmp_path / "nope.txt"), "--tau", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_rs_join_unsupported_algorithm(self, strings_file, right_file, capsys):
        code = main(["join", str(strings_file), "--right", str(right_file),
                     "--tau", "1", "--algorithm", "trie-join"])
        assert code == 2

    def test_selection_and_verification_flags(self, strings_file, capsys):
        assert main(["join", str(strings_file), "--tau", "2",
                     "--selection", "position", "--verification", "extension",
                     "--quiet"]) == 0


class TestWorkersFlag:
    """Golden regression tests for the parallel engine's CLI surface."""

    def test_workers_round_trip_identical_output(self, strings_file, capsys):
        assert main(["join", str(strings_file), "--tau", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["join", str(strings_file), "--tau", "1",
                     "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_workers_output_is_deterministic_and_sorted(self, strings_file,
                                                        capsys):
        outputs = []
        for _ in range(2):
            assert main(["join", str(strings_file), "--tau", "1",
                         "--workers", "2", "--chunk-size", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        ids = [tuple(map(int, line.split("\t")[:2]))
               for line in outputs[0].splitlines()]
        assert ids == sorted(ids)
        assert ids == [(0, 1), (2, 3)]

    def test_workers_zero_means_all_cpus(self, strings_file, capsys):
        assert main(["join", str(strings_file), "--tau", "1",
                     "--workers", "0"]) == 0
        assert "pairs=2" in capsys.readouterr().err

    def test_workers_rs_join(self, strings_file, right_file, capsys):
        assert main(["join", str(strings_file), "--right", str(right_file),
                     "--tau", "1", "--workers", "2"]) == 0
        assert "vldb\tpvldb" in capsys.readouterr().out

    def test_workers_rejected_for_other_algorithms(self, strings_file, capsys):
        code = main(["join", str(strings_file), "--tau", "1",
                     "--workers", "2", "--algorithm", "naive"])
        assert code == 2
        assert "pass-join" in capsys.readouterr().err

    def test_chunk_size_rejected_for_other_algorithms(self, strings_file,
                                                      capsys):
        code = main(["join", str(strings_file), "--tau", "1",
                     "--chunk-size", "100", "--algorithm", "naive"])
        assert code == 2
        assert "pass-join" in capsys.readouterr().err

    def test_negative_limit_reports_error(self, strings_file, capsys):
        code = main(["join", str(strings_file), "--tau", "1",
                     "--limit", "-1"])
        assert code == 1
        assert "limit" in capsys.readouterr().err

    def test_negative_workers_reports_error(self, strings_file, capsys):
        code = main(["join", str(strings_file), "--tau", "1",
                     "--workers", "-2"])
        assert code == 1
        assert "workers" in capsys.readouterr().err


class TestGenerateAndStats:
    def test_generate_then_stats(self, tmp_path, capsys):
        output = tmp_path / "authors.txt"
        assert main(["generate", "author", str(output), "--size", "150"]) == 0
        assert output.exists()
        assert "wrote 150 strings" in capsys.readouterr().out

        assert main(["stats", str(output)]) == 0
        captured = capsys.readouterr()
        assert "cardinality: 150" in captured.out

    def test_stats_with_limit(self, strings_file, capsys):
        assert main(["stats", str(strings_file), "--limit", "2"]) == 0
        assert "cardinality: 2" in capsys.readouterr().out


class TestExperimentCommand:
    def test_table2_experiment(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "author" in captured.out and "title" in captured.out

    def test_markdown_output(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05", "--markdown"]) == 0
        assert captured_markdown_header(capsys.readouterr().out)

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


def captured_markdown_header(output: str) -> bool:
    return output.lstrip().startswith("| dataset")


class TestServeAndQuery:
    def test_query_against_running_server(self, capsys):
        from repro.config import ServiceConfig
        from repro.service import BackgroundServer

        with BackgroundServer(["vldb", "pvldb", "sigmod"],
                              ServiceConfig(port=0, max_tau=2)) as (host, port):
            assert main(["query", "vldb", "--tau", "1",
                         "--host", host, "--port", str(port)]) == 0
            captured = capsys.readouterr()
            assert "0\t0\tvldb" in captured.out
            assert "1\t1\tpvldb" in captured.out
            assert "matches=2" in captured.err

            assert main(["query", "sigmod", "--top-k", "1",
                         "--host", host, "--port", str(port)]) == 0
            assert capsys.readouterr().out.strip() == "2\t0\tsigmod"

    def test_query_unreachable_server_reports_error(self, capsys):
        # Port 1 is never listening on a test box.
        code = main(["query", "vldb", "--host", "127.0.0.1", "--port", "1"])
        assert code == 1
        assert "cannot reach server" in capsys.readouterr().err

    def test_query_file_batches_against_running_server(self, tmp_path, capsys):
        from repro.config import ServiceConfig
        from repro.service import BackgroundServer

        queries_file = tmp_path / "queries.txt"
        queries_file.write_text("vldb\nsigmod\nzzz\n", encoding="utf-8")
        with BackgroundServer(["vldb", "pvldb", "sigmod"],
                              ServiceConfig(port=0, max_tau=2)) as (host, port):
            assert main(["query", "--file", str(queries_file), "--tau", "1",
                         "--host", host, "--port", str(port)]) == 0
            captured = capsys.readouterr()
            assert "vldb\t0\t0\tvldb" in captured.out
            assert "vldb\t1\t1\tpvldb" in captured.out
            assert "sigmod\t2\t0\tsigmod" in captured.out
            assert "zzz" not in captured.out  # no matches, no lines
            assert "queries=3 matches=3" in captured.err

    def test_query_requires_text_or_file(self, tmp_path, capsys):
        assert main(["query"]) == 2
        assert "exactly one" in capsys.readouterr().err
        queries_file = tmp_path / "queries.txt"
        queries_file.write_text("vldb\n", encoding="utf-8")
        assert main(["query", "vldb", "--file", str(queries_file)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_query_file_with_top_k_batches(self, tmp_path, capsys):
        from repro.config import ServiceConfig
        from repro.service import BackgroundServer

        queries_file = tmp_path / "queries.txt"
        queries_file.write_text("vldb\nsigmod\n", encoding="utf-8")
        with BackgroundServer(["vldb", "pvldb", "sigmod"],
                              ServiceConfig(port=0, max_tau=2)) as (host, port):
            assert main(["query", "--file", str(queries_file),
                         "--top-k", "2",
                         "--host", host, "--port", str(port)]) == 0
            captured = capsys.readouterr()
            assert "vldb\t0\t0\tvldb" in captured.out
            assert "vldb\t1\t1\tpvldb" in captured.out
            assert "sigmod\t2\t0\tsigmod" in captured.out
            assert "queries=2" in captured.err

    def test_serve_wires_flags_into_config(self, strings_file, monkeypatch,
                                           capsys):
        import repro.cli as cli

        captured_args = {}

        async def fake_run_service(strings, config, *, on_ready=None):
            captured_args["strings"] = list(strings)
            captured_args["config"] = config
            if on_ready is not None:
                on_ready((config.host, 54321))

        monkeypatch.setattr("repro.service.server.run_service",
                            fake_run_service)
        assert cli.main(["serve", str(strings_file), "--tau", "1",
                         "--port", "0", "--cache-capacity", "16",
                         "--limit", "3",
                         "--shards", "2",
                         "--shard-backend", "thread",
                         "--migration-batch", "32"]) == 0
        config = captured_args["config"]
        assert config.max_tau == 1
        assert config.port == 0
        assert config.cache_capacity == 16
        assert config.shards == 2
        assert config.shard_backend == "thread"
        assert config.migration_batch == 32
        assert len(captured_args["strings"]) == 3
        err = capsys.readouterr().err
        assert "serving 3 strings" in err
        assert "2 shards" in err

    def test_serve_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestAdmin:
    def sharded_server(self):
        from repro.config import ServiceConfig
        from repro.service import BackgroundServer

        strings = [f"string{i:02d}" for i in range(30)]
        return BackgroundServer(strings, ServiceConfig(
            port=0, max_tau=2, shards=2, shard_backend="thread",
            migration_batch=4))

    def test_reshard_grows_and_shrinks_to_target(self, capsys):
        with self.sharded_server() as (host, port):
            assert main(["admin", "reshard", "--shards", "4",
                         "--host", host, "--port", str(port)]) == 0
            captured = capsys.readouterr()
            assert "now 4 shard(s)" in captured.err
            assert "shards: 4" in captured.out
            assert main(["admin", "reshard", "--shards", "2",
                         "--host", host, "--port", str(port)]) == 0
            captured = capsys.readouterr()
            assert "now 2 shard(s)" in captured.err
            assert "shards: 2" in captured.out

    def test_reshard_to_current_size_is_a_noop(self, capsys):
        with self.sharded_server() as (host, port):
            assert main(["admin", "reshard", "--shards", "2",
                         "--host", host, "--port", str(port)]) == 0
            assert "rebalance: idle" in capsys.readouterr().out

    def test_status_prints_balance(self, capsys):
        with self.sharded_server() as (host, port):
            assert main(["admin", "status",
                         "--host", host, "--port", str(port)]) == 0
            out = capsys.readouterr().out
            assert "shards: 2 (thread backend)" in out
            assert "placement" not in out
            assert "rows per shard:" in out
            assert "rows migrated (lifetime): 0" in out

    def test_admin_on_unsharded_server_reports_error(self, capsys):
        from repro.config import ServiceConfig
        from repro.service import BackgroundServer

        with BackgroundServer(["vldb"], ServiceConfig(
                port=0, max_tau=1)) as (host, port):
            assert main(["admin", "reshard", "--shards", "2",
                         "--host", host, "--port", str(port)]) == 1
            assert "unsharded" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--poll", "-1"), ("--poll", "nan"), ("--poll", "inf"),
        ("--shards", "0")])
    def test_reshard_refuses_bad_values_before_connecting(self, flag, value,
                                                          capsys):
        # Nothing listens on port 1: exit 2 (not 1, "cannot reach") shows
        # the value was refused before any connection or resize.
        args = {"--shards": "3", "--poll": "0.05", flag: value}
        code = main(["admin", "reshard", "--host", "127.0.0.1",
                     "--port", "1", *[part for pair in args.items()
                                      for part in pair]])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "cannot reach" not in err

    def test_admin_unreachable_server_reports_error(self, capsys):
        assert main(["admin", "status", "--host", "127.0.0.1",
                     "--port", "1"]) == 1
        assert "cannot reach server" in capsys.readouterr().err

    def test_admin_server_dying_mid_request_reports_error(self, capsys):
        # A server that accepts the connection but drops it mid-request
        # surfaces as ProtocolError, not OSError; admin must still exit 1
        # with the friendly message instead of a traceback.
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def accept_and_hang_up():
            conn, _ = listener.accept()
            conn.close()

        worker = threading.Thread(target=accept_and_hang_up, daemon=True)
        worker.start()
        try:
            assert main(["admin", "status", "--host", "127.0.0.1",
                         "--port", str(port)]) == 1
            assert "cannot reach server" in capsys.readouterr().err
        finally:
            worker.join(timeout=5)
            listener.close()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "passjoin" in capsys.readouterr().out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
