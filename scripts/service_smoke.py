#!/usr/bin/env python3
"""CI smoke test: start the similarity server, run queries, assert results.

Exercises the full serving stack end to end over a real TCP socket — the
asyncio server, the JSON-lines protocol, the blocking client, the query
cache, and the dynamic index — in under a second, then repeats the exercise
against a 2-shard server (the consistent-hashing ring puts ids 0 and 1
on different shards, so the near-duplicate searches below are genuinely
cross-shard scatter-gathers), requires identical answers, and finishes
with a live add-shard → query → remove-shard resize under load.  On both
servers a request with a misspelled field must be refused, a
duplicate-key ``search-batch`` must raise ``cache.coalesced``, and a write
must drop exactly the cached answers it can change: an insert far from a
cached query leaves it ``cached: true``, one within ``tau`` of it is
answered fresh (``cached: false``, the new id in the answer) and counts
one ``cache_invalidations`` in the ``metrics`` op::

    PYTHONPATH=src python scripts/service_smoke.py

After each pass it scrapes the ``metrics`` op and asserts the
observability invariants: the engine's filter funnel only shrinks
(accepted <= verifications <= candidates <= postings scanned), every
per-op latency histogram counts exactly as many observations as the
``requests.<op>`` counter, the request batcher's ``batch_size`` histogram
counts ``batcher_batches`` drains of ``batcher_requests`` requests in
all, the Prometheus rendering parses as valid exposition text and
carries the batcher's families, and an ``explain`` trace reports the
same number of accepted matches as the equivalent ``search``.
``--metrics-out FILE`` writes the scraped snapshots as JSON (what CI
uploads next to the bench trajectories).

Exits 0 when every assertion holds, 1 (with a traceback) otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402
from repro.config import ServiceConfig  # noqa: E402
from repro.exceptions import ServiceError  # noqa: E402
from repro.obs import parse_prometheus, render_prometheus  # noqa: E402
from repro.service import (BackgroundServer, HashRing,  # noqa: E402
                           ServiceClient)

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt"]
#: The request batcher's metric families in the ``metrics`` payload.
BATCHER_FAMILIES = ("batcher_requests", "batcher_batches", "batch_size",
                    "batcher_wait_seconds", "batcher_pending")


def metrics_smoke(client: ServiceClient,
                  expect_shards: int | None = None) -> dict:
    """Scrape ``metrics``/``explain`` and assert the funnel invariants."""
    payload = client.metrics()
    assert payload["uptime_seconds"] >= 0, payload
    merged = payload["merged"]
    counters = merged["counters"]

    # The filter funnel can only shrink stage over stage, and the queries
    # above found real matches, so the narrow end must be non-empty.
    accepted = counters.get("engine_accepted", 0)
    verified = counters.get("engine_verifications", 0)
    candidates = counters.get("engine_candidates", 0)
    postings = counters.get("engine_postings_scanned", 0)
    assert 0 < accepted <= verified <= candidates <= postings, counters

    # Every request was timed exactly once: each per-op latency histogram
    # holds as many observations as its requests.<op> counter.
    for name, value in sorted(counters.items()):
        if not name.startswith("requests."):
            continue
        op = name[len("requests."):]
        histogram = merged["histograms"].get(f"latency_seconds.{op}")
        assert histogram is not None, (name, sorted(merged["histograms"]))
        assert histogram["count"] == value, (name, value, histogram)

    # The transport's batcher: one batch_size observation per drain, of
    # as many requests as the drain answered, and one wait per request.
    histograms = merged["histograms"]
    batch_size = histograms["batch_size"]
    assert batch_size["count"] == counters["batcher_batches"] > 0, merged
    assert batch_size["sum"] == counters["batcher_requests"], merged
    assert histograms["batcher_wait_seconds"]["count"] == counters[
        "batcher_requests"], merged
    assert merged["gauges"]["batcher_pending"] >= 1, merged["gauges"]

    # The Prometheus rendering must parse as valid exposition text.
    families = parse_prometheus(render_prometheus(merged))
    assert families, "prometheus rendering produced no metric families"
    for family in BATCHER_FAMILIES:
        assert f"passjoin_{family}" in families, (family, sorted(families))

    if expect_shards is not None:
        shards = payload["shards"]
        assert shards["count"] == expect_shards, shards
        assert len(shards["per_shard"]) == expect_shards, shards
        fleet_candidates = sum(
            snapshot["counters"].get("engine_candidates", 0)
            for snapshot in shards["per_shard"])
        assert fleet_candidates == counters.get("engine_candidates", 0), shards

    # An explain trace is one more probe through the same funnel: its
    # accepted count must equal the matches the equivalent search returns.
    report = client.explain("vldb", tau=1)
    matches = client.search("vldb", tau=1)
    assert report["num_matches"] == len(matches), report
    assert report["funnel"]["accepted"] == len(matches), report["funnel"]
    return payload


def batch_smoke(client: ServiceClient, host: str, port: int) -> None:
    """Exercise search-batch over the wire and the CLI ``query --file`` path."""
    queries = ["vldb", "sigmod", "vldb", "nosuchstring"]
    batched = client.search_batch(queries, tau=1)
    assert batched == [client.search(query, tau=1) for query in queries], batched
    assert [m.text for m in batched[0]] == ["vldb", "pvldb"], batched

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as handle:
        handle.write("\n".join(queries) + "\n")
        path = handle.name
    try:
        code = cli_main(["query", "--file", path, "--tau", "1",
                         "--host", host, "--port", str(port)])
        assert code == 0, f"query --file exited {code}"
    finally:
        Path(path).unlink()


def top_k_batch_smoke(client: ServiceClient, host: str, port: int) -> None:
    """Exercise top-k-batch over the wire; assert it is the search cut to k.

    A top-k answer is the threshold search at the limit cut to ``k``, and a
    batch answers each query as a single ``top-k`` would.  The second
    batch uses query strings the query cache has not seen, so its answers
    are computed, not replayed — and computing them must hit
    the engine's persistent window cache (selection windows keyed on the
    index partition threshold survive across batches), which the earlier
    traffic warmed for the same probe lengths.
    """
    queries = ["vldb", "sigmod", "nosuchstring"]
    for query in queries:
        top = client.top_k(query, 2)
        assert top == client.search(query)[:2], (query, top)
    batched = client.top_k_batch(queries, 2)
    assert batched == [client.top_k(query, 2) for query in queries], batched

    counters = client.metrics()["merged"]["counters"]
    before = counters.get("engine_windows_cache_hits", 0)
    second = ["wldb", "sigmoe"]  # fresh strings, already-probed lengths
    batched = client.top_k_batch(second, 2)
    assert batched == [client.top_k(query, 2) for query in second], batched
    counters = client.metrics()["merged"]["counters"]
    after = counters.get("engine_windows_cache_hits", 0)
    assert after > before, (before, after)

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as handle:
        handle.write("\n".join(queries) + "\n")
        path = handle.name
    try:
        code = cli_main(["query", "--file", path, "--top-k", "2",
                         "--host", host, "--port", str(port)])
        assert code == 0, f"query --file --top-k exited {code}"
    finally:
        Path(path).unlink()


def contract_smoke(client: ServiceClient) -> None:
    """A misspelled field is refused; batch duplicates count as coalesced."""
    try:
        client.request({"op": "search", "query": "vldb", "tua": 0})
    except ServiceError as error:
        assert "'tua'" in str(error), error
    else:
        raise AssertionError("a search with an undeclared field was answered")
    before = client.stats()["cache"]["coalesced"]
    client.search_batch(["icde"] * 3, tau=1)
    after = client.stats()["cache"]["coalesced"]
    assert after == before + 2, (before, after)


def cache_smoke(client: ServiceClient) -> None:
    """A write drops only the cached answers it can change.

    Run first on a fresh server, so the one cached answer is the only
    entry a write can drop.
    """
    def invalidations() -> int:
        counters = client.metrics()["merged"]["counters"]
        return counters.get("cache_invalidations", 0)

    search = {"op": "search", "query": "sigmod", "tau": 1}
    client.request(search)
    assert client.request(search)["cached"] is True
    before = invalidations()
    far = client.insert("zzzzzzzzzz")
    assert client.request(search)["cached"] is True, "a far insert dropped it"
    assert invalidations() == before
    near = client.insert("sigmodx")  # one edit from the cached query
    answer = client.request(search)
    assert answer["cached"] is False, answer
    assert near in [match["id"] for match in answer["matches"]], answer
    assert invalidations() == before + 1
    assert client.delete(far) is True and client.delete(near) is True
    assert invalidations() == before + 2  # the answer holding ``near``


def sharded_smoke() -> dict:
    """Start a 2-shard server; verify a cross-shard query and mutations.

    Pins the in-process thread backend: BackgroundServer hosts the service
    on a second thread, and forking shard workers from a multi-threaded
    process (what ``auto`` would do on a multi-core runner) is exactly the
    fork-with-live-threads pattern CPython warns about.
    """
    # "vldb" (id 0) and "pvldb" (id 1) must sit on different shards, or
    # the cross-shard search below would read one shard only.
    ring = HashRing(2)
    assert ring.place(0) != ring.place(1), "ids 0 and 1 share a shard"
    config = ServiceConfig(port=0, max_tau=2, shards=2,
                           shard_backend="thread", migration_batch=2)
    with BackgroundServer(STRINGS, config) as (host, port):
        with ServiceClient(host, port) as client:
            stats = client.stats()
            assert stats["shards"]["count"] == 2, stats
            assert sum(stats["shards"]["sizes"]) == len(STRINGS), stats
            assert len(stats["shards"]["memory"]) == 2, stats
            assert stats["index"]["records"] == sum(
                shard["records"] for shard in stats["shards"]["memory"]), stats
            cache_smoke(client)

            # Cross-shard scatter-gather: ids 0 and 1 live on different
            # shards; the merged answer must equal the unsharded one.
            matches = client.search("vldb", tau=1)
            assert [(m.id, m.distance, m.text) for m in matches] == [
                (0, 0, "vldb"), (1, 1, "pvldb")], matches
            assert client.search("vldb", tau=1) == matches  # cached round

            # A cross-shard batch merges to the same per-query answers.
            batched = client.search_batch(["vldb", "icde", "vldb"], tau=1)
            assert batched == [client.search(q, tau=1)
                               for q in ("vldb", "icde", "vldb")], batched

            # Mutations route to the owning shard; answers stay exact.
            new_id = client.insert("vldbx")
            widened = client.search("vldb", tau=1)
            assert (new_id, 1, "vldbx") in [
                (m.id, m.distance, m.text) for m in widened], widened
            assert client.delete(new_id) is True
            assert client.search("vldb", tau=1) == matches
            top = client.top_k("sigmod", 2)
            assert [(m.distance, m.id) for m in top] == [(0, 2), (1, 3)], top

            # Live resharding: grow the fleet, query while the server
            # streams records to the new shard in the background, shrink
            # back — answers must be identical the whole way through.
            grown = client.add_shard()
            assert grown["shards"] == 3, grown
            while client.rebalance_status()["active"]:
                assert client.search("vldb", tau=1) == matches
            stats = client.stats()
            assert stats["shards"]["count"] == 3, stats
            assert sum(stats["shards"]["sizes"]) == len(STRINGS), stats
            assert client.search("vldb", tau=1) == matches
            shrunk = client.remove_shard()
            assert shrunk["shards"] in (2, 3), shrunk  # may still be draining
            while client.rebalance_status()["active"]:
                assert client.search("vldb", tau=1) == matches
            stats = client.stats()
            assert stats["shards"]["count"] == 2, stats
            assert stats["shards"]["rows_migrated"] > 0, stats
            assert client.search("vldb", tau=1) == matches
            assert client.top_k("sigmod", 2) == top

            contract_smoke(client)

            # Cross-shard top-k-batch: the merged search cut to k must
            # equal per-query top-k.
            top_k_batch_smoke(client, host, port)

            # The fleet's funnel counters merge across both shards.
            return metrics_smoke(client, expect_shards=2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serving-stack smoke test")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the scraped metrics snapshots (unsharded "
                             "and 2-shard) to FILE as JSON")
    args = parser.parse_args(argv)

    config = ServiceConfig(port=0, max_tau=2)
    with BackgroundServer(STRINGS, config) as (host, port):
        with ServiceClient(host, port) as client:
            cache_smoke(client)
            # Query 1: threshold search finds the planted near-duplicates.
            matches = client.search("vldb", tau=1)
            assert [(m.id, m.distance, m.text) for m in matches] == [
                (0, 0, "vldb"), (1, 1, "pvldb")], matches

            # Query 2: the identical request must be served by the cache.
            again = client.search("vldb", tau=1)
            assert again == matches, again
            stats = client.stats()
            assert stats["cache"]["hits"] >= 1, stats

            # Query 3: top-k after a mutation (cache must not serve stale).
            new_id = client.insert("sigmoe")
            top = client.top_k("sigmod", 2)
            assert [(m.distance, m.id) for m in top] == [(0, 2), (1, 3)], top
            near = client.search("sigmoe", tau=0)
            assert [(m.id, m.text) for m in near] == [(new_id, "sigmoe")], near
            assert client.delete(new_id) is True
            # A delete frees its store row at once: the memory figures
            # match the live collection straight away.
            stats = client.stats()
            assert stats["index"]["records"] == len(STRINGS), stats
            assert stats["index"]["approximate_bytes"] > 0, stats

            # Query 4: a search-batch request and the CLI --file batch path
            # must agree with per-query searches.
            batch_smoke(client, host, port)

            # Query 5: top-k-batch must agree with per-query top-k, and
            # its second batch must hit the persistent window cache.
            top_k_batch_smoke(client, host, port)

            # Observability: the stats satellites, the merged metrics
            # snapshot, and the explain trace over everything above.
            stats = client.stats()
            assert stats["uptime_seconds"] >= 0, stats
            assert stats["requests_by_op"].get("search", 0) >= 2, stats
            assert stats["errors"] == 0, stats
            assert stats["cache"]["capacity"] > stats["cache"]["size"], stats
            contract_smoke(client)
            unsharded_metrics = metrics_smoke(client)
            code = cli_main(["admin", "metrics", "--prometheus",
                             "--host", host, "--port", str(port)])
            assert code == 0, f"admin metrics --prometheus exited {code}"
    sharded_metrics = sharded_smoke()
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"unsharded": unsharded_metrics,
                        "sharded": sharded_metrics},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"metrics snapshots written to {args.metrics_out}")
    print(f"OK: service smoke passed on {host}:{port} "
          f"({stats['queries_served']}+ queries, "
          f"cache hits={stats['cache']['hits']}, "
          f"index bytes={stats['index']['approximate_bytes']}), "
          f"2-shard cross-shard + batch queries + top-k-batch + live "
          f"add-shard/remove-shard + per-entry cache drops + "
          f"metrics/explain funnel verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
