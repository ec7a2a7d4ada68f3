"""Command-line interface.

Six subcommands cover the day-to-day uses of the library::

    passjoin join FILE --tau 2                 # self-join a file of strings
    passjoin join FILE --tau 2 --workers 4     # ... on 4 cores (0 = all)
    passjoin join LEFT --right RIGHT --tau 2   # join two files
    passjoin generate author out.txt --size 10000
    passjoin stats FILE                        # Table-2-style statistics
    passjoin experiment figure15 --scale 0.5   # rerun a paper experiment
    passjoin serve FILE --tau 2 --port 8765    # online similarity service
    passjoin query "some string" --tau 1       # ask a running service
    passjoin query --file queries.txt --tau 1  # batch: one request, N queries
    passjoin admin reshard --shards 4          # live-resize a sharded server
    passjoin admin status                      # shard balance + rebalance state
    passjoin admin metrics --prometheus        # scrape the telemetry registry
    passjoin query "some string" --explain     # per-stage funnel of one probe

The module is also importable: :func:`main` takes an ``argv`` list, which is
what the CLI tests use.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Sequence

from . import __version__
from .baselines.ed_join import EdJoin
from .baselines.naive import NaiveJoin
from .baselines.trie_join import TrieJoin
from .bench.experiments import DATASET_BUILDERS, EXPERIMENTS
from .bench.reporting import format_table
from .config import (DEFAULT_VERIFICATION, SHARD_BACKENDS, JoinConfig,
                     SelectionMethod, ServiceConfig, VerificationMethod)
from .core.join import PassJoin
from .datasets.loaders import load_strings, save_strings
from .datasets.stats import dataset_statistics
from .exceptions import PassJoinError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passjoin",
        description="Pass-Join: partition-based string similarity joins "
                    "(VLDB 2011 reproduction)")
    parser.add_argument("--version", action="version", version=f"passjoin {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    join = subparsers.add_parser("join", help="run a similarity join on text files")
    join.add_argument("left", help="input file, one string per line")
    join.add_argument("--right", help="optional second file for an R-S join")
    join.add_argument("--tau", type=int, required=True, help="edit-distance threshold")
    join.add_argument("--algorithm", default="pass-join",
                      choices=["pass-join", "ed-join", "trie-join", "naive"],
                      help="join algorithm (default: pass-join)")
    join.add_argument("--selection", default=SelectionMethod.MULTI_MATCH.value,
                      choices=[m.value for m in SelectionMethod],
                      help="Pass-Join substring-selection method")
    join.add_argument("--verification", default=DEFAULT_VERIFICATION.value,
                      choices=[m.value for m in VerificationMethod],
                      help="Pass-Join verification strategy (default: "
                           f"{DEFAULT_VERIFICATION.value}; the paper's "
                           "fastest: share-prefix)")
    join.add_argument("--workers", type=int, default=1,
                      help="worker processes for pass-join "
                           "(1 = serial, 0 = one per CPU; default 1)")
    join.add_argument("--chunk-size", type=int, default=None,
                      help="sorted probe strings per span job (default: auto)")
    join.add_argument("--limit", type=int, help="read at most this many strings per file")
    join.add_argument("--quiet", action="store_true",
                      help="print only the summary, not the pairs")

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(DATASET_BUILDERS),
                          help="dataset family to generate")
    generate.add_argument("output", help="output file (one string per line)")
    generate.add_argument("--size", type=int, default=10000, help="number of strings")

    stats = subparsers.add_parser("stats", help="print Table-2-style statistics of a file")
    stats.add_argument("path", help="input file, one string per line")
    stats.add_argument("--limit", type=int, help="read at most this many strings")

    experiment = subparsers.add_parser("experiment",
                                       help="rerun one of the paper's experiments")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="experiment identifier (table/figure)")
    experiment.add_argument("--scale", type=float, default=1.0,
                            help="dataset scale factor (1.0 = library defaults)")
    experiment.add_argument("--markdown", action="store_true",
                            help="emit a Markdown table instead of plain text")

    serve = subparsers.add_parser(
        "serve", help="serve a collection as an online similarity service "
                      "(JSON lines over TCP)")
    serve.add_argument("path", help="input file, one string per line")
    serve.add_argument("--tau", type=int, default=2,
                       help="maximum per-query distance threshold "
                            "(default 2)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default 8765; 0 = ephemeral)")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="query-cache entries (0 disables; default 1024)")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard workers to partition the collection "
                            "across (default 1 = unsharded)")
    serve.add_argument("--shard-backend", default="auto",
                       choices=SHARD_BACKENDS,
                       help="shard execution: fork-spawned processes, "
                            "in-process, or auto per platform (default auto)")
    serve.add_argument("--migration-batch", type=int, default=256,
                       help="records moved per live-resharding step "
                            "(default 256)")
    serve.add_argument("--slow-query-ms", type=float, default=0.0,
                       help="log requests slower than this (milliseconds) "
                            "to the JSON slow-query log (default 0 = off)")
    serve.add_argument("--limit", type=int,
                       help="read at most this many strings")

    query = subparsers.add_parser(
        "query", help="query a running similarity service")
    query.add_argument("text", nargs="?", default=None,
                       help="the query string (omit when using --file)")
    query.add_argument("--file", default=None,
                       help="file of query strings (one per line), sent as "
                            "one search-batch request (or one top-k-batch "
                            "request when combined with --top-k)")
    query.add_argument("--tau", type=int, default=None,
                       help="distance threshold (default: the "
                            "server's maximum)")
    query.add_argument("--top-k", type=int, default=None,
                       help="return the k closest strings instead of a "
                            "threshold search")
    query.add_argument("--explain", action="store_true",
                       help="print the per-stage filter funnel of one "
                            "traced probe (JSON) instead of plain matches")
    query.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
    query.add_argument("--port", type=int, default=8765,
                       help="server port (default 8765)")

    admin = subparsers.add_parser(
        "admin", help="administer a running sharded similarity service")
    admin_sub = admin.add_subparsers(dest="admin_command", required=True)
    reshard = admin_sub.add_parser(
        "reshard", help="live-resize the shard fleet to a target size")
    reshard.add_argument("--shards", type=int, required=True,
                         help="target number of shards (>= 1)")
    reshard.add_argument("--host", default="127.0.0.1",
                         help="server address (default 127.0.0.1)")
    reshard.add_argument("--port", type=int, default=8765,
                         help="server port (default 8765)")
    reshard.add_argument("--poll", type=float, default=0.05,
                         help="seconds between rebalance-status polls "
                              "(default 0.05)")
    status = admin_sub.add_parser(
        "status", help="print shard balance and rebalance state")
    status.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    status.add_argument("--port", type=int, default=8765,
                        help="server port (default 8765)")
    metrics = admin_sub.add_parser(
        "metrics", help="scrape the server's merged telemetry registry "
                        "(works on sharded and unsharded servers)")
    metrics.add_argument("--host", default="127.0.0.1",
                         help="server address (default 127.0.0.1)")
    metrics.add_argument("--port", type=int, default=8765,
                         help="server port (default 8765)")
    metrics.add_argument("--prometheus", action="store_true",
                         help="render Prometheus text exposition format "
                              "instead of JSON")
    return parser


def _make_join_algorithm(args: argparse.Namespace):
    if args.algorithm == "pass-join":
        config = JoinConfig.from_names(selection=args.selection,
                                       verification=args.verification,
                                       workers=args.workers,
                                       chunk_size=args.chunk_size)
        return PassJoin(args.tau, config)
    if args.algorithm == "ed-join":
        return EdJoin(args.tau)
    if args.algorithm == "trie-join":
        return TrieJoin(args.tau)
    return NaiveJoin(args.tau)


def _command_join(args: argparse.Namespace) -> int:
    if args.algorithm != "pass-join" and (args.workers != 1
                                          or args.chunk_size is not None):
        print("--workers/--chunk-size are only supported by the pass-join "
              "algorithm", file=sys.stderr)
        return 2
    left = load_strings(args.left, limit=args.limit)
    algorithm = _make_join_algorithm(args)
    if args.right:
        if args.algorithm not in ("pass-join", "naive"):
            print("R-S joins are supported by the pass-join and naive algorithms",
                  file=sys.stderr)
            return 2
        right = load_strings(args.right, limit=args.limit)
        result = algorithm.join(left, right)
    else:
        result = algorithm.self_join(left)
    if not args.quiet:
        for pair in result.sorted_pairs():
            print(f"{pair.left_id}\t{pair.right_id}\t{pair.distance}\t"
                  f"{pair.left}\t{pair.right}")
    stats = result.statistics
    print(f"# strings={stats.num_strings} pairs={len(result)} "
          f"candidates={stats.num_candidates} "
          f"verifications={stats.num_verifications} "
          f"time={stats.total_seconds:.3f}s", file=sys.stderr)
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    strings = DATASET_BUILDERS[args.dataset](args.size)
    written = save_strings(args.output, strings)
    summary = dataset_statistics(strings)
    print(f"wrote {written} strings to {args.output} "
          f"(avg len {summary.avg_length:.1f}, "
          f"min {summary.min_length}, max {summary.max_length})")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    strings = load_strings(args.path, limit=args.limit)
    summary = dataset_statistics(strings)
    for key, value in summary.as_row().items():
        print(f"{key}: {value}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    experiment = EXPERIMENTS[args.name]
    table = experiment(scale=args.scale)
    print(format_table(table, markdown=args.markdown))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service.server import run_service

    strings = load_strings(args.path, limit=args.limit)
    config = ServiceConfig(host=args.host, port=args.port, max_tau=args.tau,
                           cache_capacity=args.cache_capacity,
                           shards=args.shards,
                           shard_backend=args.shard_backend,
                           migration_batch=args.migration_batch,
                           slow_query_ms=args.slow_query_ms)
    if config.slow_query_ms:
        from .obs.slowlog import configure_slow_query_logging

        configure_slow_query_logging(sys.stderr)

    def announce(address: tuple[str, int]) -> None:
        sharding = ("unsharded" if config.shards == 1 else
                    f"{config.shards} shards")
        print(f"serving {len(strings)} strings on {address[0]}:{address[1]} "
              f"(max_tau={config.max_tau}, "
              f"cache={config.cache_capacity}, {sharding}); "
              f"Ctrl-C to stop", file=sys.stderr)

    try:
        asyncio.run(run_service(strings, config, on_ready=announce))
    except KeyboardInterrupt:
        print("server stopped", file=sys.stderr)
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    if (args.text is None) == (args.file is None):
        print("provide exactly one of a query string or --file",
              file=sys.stderr)
        return 2
    if args.explain and (args.file is not None or args.top_k is not None):
        print("--explain traces one threshold search; it cannot be combined "
              "with --file or --top-k", file=sys.stderr)
        return 2
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.explain:
                report = client.explain(args.text, args.tau)
                print(json.dumps(report, indent=2, sort_keys=True))
                funnel = report["funnel"]
                print(f"# candidates={funnel['candidates']} "
                      f"verifications={funnel['verifications']} "
                      f"accepted={funnel['accepted']} "
                      f"matches={report['num_matches']}", file=sys.stderr)
                return 0
            if args.file is not None:
                queries = load_strings(args.file)
                if args.top_k is not None:
                    results = client.top_k_batch(queries, args.top_k,
                                                 args.tau)
                else:
                    results = client.search_batch(queries, args.tau)
                total = 0
                for query, matches in zip(queries, results):
                    for match in matches:
                        print(f"{query}\t{match.id}\t{match.distance}\t"
                              f"{match.text}")
                    total += len(matches)
                print(f"# queries={len(queries)} matches={total}",
                      file=sys.stderr)
                return 0
            if args.top_k is not None:
                matches = client.top_k(args.text, args.top_k, args.tau)
            else:
                matches = client.search(args.text, args.tau)
    except OSError as error:
        print(f"error: cannot reach server at {args.host}:{args.port} "
              f"({error})", file=sys.stderr)
        return 1
    for match in matches:
        print(f"{match.id}\t{match.distance}\t{match.text}")
    print(f"# matches={len(matches)}", file=sys.stderr)
    return 0


def _print_admin_status(stats: dict) -> None:
    shards = stats["shards"]
    rebalance = shards["rebalance"]
    print(f"shards: {shards['count']} ({shards['backend']} backend)")
    print(f"rows per shard: {shards['sizes']}")
    print(f"bytes per shard: {shards['bytes']}")
    print(f"rows migrated (lifetime): {shards['rows_migrated']}")
    if rebalance["active"]:
        print(f"rebalance in flight: {rebalance['kind']} — "
              f"{rebalance['rows_copied']}/{rebalance['rows_total']} rows "
              f"copied, {rebalance['steps_left']} steps left")
    else:
        print("rebalance: idle")


def _command_admin(args: argparse.Namespace) -> int:
    import time

    from .exceptions import ProtocolError, ServiceError
    from .service.client import ServiceClient

    if args.admin_command == "reshard":
        # Refused before connecting: a bad value must not surface only
        # once a resize is under way.
        if args.shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
        if not (math.isfinite(args.poll) and args.poll >= 0):
            print("error: --poll must be a finite number of seconds >= 0",
                  file=sys.stderr)
            return 2
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.admin_command == "metrics":
                # Metrics work on sharded and unsharded servers alike, so
                # this dispatches before the sharded-only check below.
                payload = client.metrics()
                if args.prometheus:
                    from .obs.metrics import render_prometheus

                    sys.stdout.write(render_prometheus(payload["merged"]))
                else:
                    payload.pop("ok", None)
                    print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            stats = client.stats()
            if "shards" not in stats:
                print("error: the server is unsharded; restart it with "
                      "--shards >= 2 to enable live resharding",
                      file=sys.stderr)
                return 1
            if args.admin_command == "status":
                _print_admin_status(stats)
                return 0
            target = args.shards
            current = stats["shards"]["count"]
            while current != target:
                grow = current < target
                try:
                    status = (client.add_shard() if grow
                              else client.remove_shard())
                except ServiceError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                # The server streams the migration in the background;
                # queries keep being answered while we poll.  A failed
                # drain surfaces as an "error" field — abort rather than
                # polling a migration that will never finish.
                while status["active"] and "error" not in status:
                    time.sleep(args.poll)
                    status = client.rebalance_status()
                if "error" in status:
                    print(f"error: {status['error']}", file=sys.stderr)
                    return 1
                current = status["shards"]
                print(f"{status.get('kind', 'reshard')}: now {current} "
                      f"shard(s), moved {status.get('rows_copied', 0)} "
                      f"row(s)", file=sys.stderr)
            _print_admin_status(client.stats())
    except (OSError, ProtocolError) as error:
        # ProtocolError covers a server dying *mid-poll* (the client wraps
        # resets/half-frames in it, not in OSError) — the reshard loop can
        # run for a while, so that path matters here.
        print(f"error: cannot reach server at {args.host}:{args.port} "
              f"({error})", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used both by the console script and by the tests."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "join": _command_join,
        "generate": _command_generate,
        "stats": _command_stats,
        "experiment": _command_experiment,
        "serve": _command_serve,
        "query": _command_query,
        "admin": _command_admin,
    }
    try:
        return handlers[args.command](args)
    except PassJoinError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
