"""The six workloads and their seeded input generators.

The seed reaches only this module: it picks the dataset, the edit
positions, the Zipf draws and the op mix.  The program under test receives
the generated strings and request lines, never the seed.

Every workload replays a fixed-length op list (not a fixed duration), so
two commits and every run at one seed see exactly the same requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from repro.datasets import (apply_random_edits, generate_author_dataset,
                            generate_title_dataset)

#: Seed whose input and answer digests are pinned in ``catalogue.json``.
DEFAULT_SEED = 2011
#: Never used while a change is written; later claims must also hold here.
HELD_OUT_SEED = 7919

@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs (for ``serve_*``, a traffic mix)."""

    name: str
    kind: str                 # "join" or "serve"
    dataset: str              # "author" or "title"
    size: int                 # strings joined / served
    tau: int
    smoke_size: int
    mix: str = ""             # serve: "distinct", "hot", "rw" or "batch"
    connections: int = 1      # serve: closed-loop connections (<= nproc)
    ops: int = 0              # serve: request lines per connection per pass
    smoke_ops: int = 0
    shards: int = 1
    batch: int = 1            # queries carried by one request line
    why: str = ""

    def scaled(self, smoke: bool) -> tuple[int, int]:
        """``(collection size, request lines per connection)`` of one pass."""
        return ((self.smoke_size, self.smoke_ops) if smoke
                else (self.size, self.ops))


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "join_author", "join", "author", size=4000, tau=3, smoke_size=300,
        why="short strings, dense candidates: verification dominates the "
            "self-join, so a verifier change shows here and a selection "
            "change does not"),
    Workload(
        "join_title", "join", "title", size=4000, tau=8, smoke_size=150,
        why="long strings, sparse candidates: substring selection, index "
            "lookups and the engine loop dominate the same pipeline, so a "
            "verifier change must read as no change here"),
    Workload(
        "serve_distinct", "serve", "author", size=50000, tau=2,
        smoke_size=2000, mix="distinct", connections=1, ops=400,
        smoke_ops=40,
        why="one closed-loop client, every query distinct: the cache "
            "cannot help, throughput and the tail are engine-bound while "
            "the median sits on the batcher window"),
    Workload(
        "serve_hot", "serve", "author", size=50000, tau=2, smoke_size=2000,
        mix="hot", connections=2, ops=900, smoke_ops=60,
        why="two clients drawing Zipf from a 200-query pool, about 90% "
            "cache hits: batcher wait, transport, JSON and the cache are "
            "all the work; engine changes must read as no change"),
    Workload(
        "serve_rw", "serve", "author", size=50000, tau=2, smoke_size=2000,
        mix="rw", connections=1, ops=1320, smoke_ops=80,
        why="90% reads from a 50-query pool beside 5% inserts and 5% "
            "deletes: every write invalidates the cache and deletes "
            "trigger compaction, so a read win bought with mutation cost "
            "shows here"),
    Workload(
        "serve_batch_sharded", "serve", "author", size=50000, tau=2,
        smoke_size=2000, mix="batch", connections=1, ops=70, smoke_ops=6,
        shards=2, batch=16,
        why="16-query search-batch lines against 2 forked shard workers: "
            "the only workload on probe_many, scatter/merge and the worker "
            "pipes, and the noisiest (4 processes on 2 CPUs)"),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Inputs:
    """What one pass feeds the program: the collection and the op streams."""

    strings: list[str]
    streams: list[list[dict]] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over the strings and request lines, for drift detection."""
        sha = hashlib.sha256()
        for text in self.strings:
            sha.update(text.encode("utf-8") + b"\n")
        sha.update(json.dumps(self.streams, sort_keys=True).encode("utf-8"))
        return sha.hexdigest()


def _thirds(text: str) -> tuple[str, str, str]:
    first = len(text) // 3
    second = first + (len(text) - first) // 2
    return text[:first], text[first:second], text[second:]


def _queries(strings: list[str], count: int, rng: random.Random) -> list[str]:
    """``count`` distinct queries: indexed strings with 0-2 random edits.

    A query's cost is heavy-tailed (a common name verifies thousands of
    candidates, most names a handful), so a plain random draw of 50 or 400
    makes the engine-bound metrics differ by 15-30% from seed to seed.  The
    draw is therefore stratified: many more candidates (at least 8000) are
    ranked by how many indexed strings share one of their thirds (0.96
    correlated with the verifications a search spends) and evenly spaced ones
    are taken, so each seed gets the same mix of cheap and dense queries, in
    random order.
    """
    shared = [Counter(), Counter(), Counter()]
    for text in strings:
        for counter, piece in zip(shared, _thirds(text)):
            counter[piece] += 1

    def density(query: str) -> int:
        return sum(counter[piece]
                   for counter, piece in zip(shared, _thirds(query)))

    oversample = max(20, 8000 // count)
    candidates: set[str] = set()
    while len(candidates) < oversample * count:
        candidates.add(apply_random_edits(rng.choice(strings),
                                          rng.randrange(3), rng))
    ranked = sorted(candidates, key=lambda query: (density(query), query))
    queries = ranked[oversample // 2::oversample][:count]
    rng.shuffle(queries)
    return queries


def _search(query: str, tau: int) -> dict:
    return {"op": "search", "query": query, "tau": tau}


def _rw_stream(strings: list[str], ops: int, tau: int,
               rng: random.Random) -> list[dict]:
    """Exactly 90% searches, 5% inserts and 5% deletes of live ids, shuffled.

    Exact shares, so every seed crosses the server's compaction threshold of
    64 tombstones at the same point of the stream; and every pool query is
    searched equally often, so a dense query is not drawn 19 times at one
    seed and 31 times at the next.
    """
    pool = _queries(strings, 50, rng)
    writes = ops // 20
    reads = ops - 2 * writes
    kinds = ["insert"] * writes + ["delete"] * writes + ["search"] * reads
    rng.shuffle(kinds)
    searched = (pool * (reads // len(pool) + 1))[:reads]
    rng.shuffle(searched)
    live = list(range(len(strings)))
    next_id = len(strings)
    stream: list[dict] = []
    for kind in kinds:
        if kind == "search":
            stream.append(_search(searched.pop(), tau))
        elif kind == "insert":
            text = apply_random_edits(rng.choice(strings), rng.randint(1, 2),
                                      rng)
            stream.append({"op": "insert", "text": text})
            live.append(next_id)
            next_id += 1
        else:
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            stream.append({"op": "delete", "id": live.pop()})
    return stream


def generate(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """The inputs of one pass of ``workload`` at ``seed``."""
    size, ops = workload.scaled(smoke)
    make = (generate_author_dataset if workload.dataset == "author"
            else generate_title_dataset)
    strings = make(size, seed=seed)
    if workload.kind == "join":
        return Inputs(strings)
    rng = random.Random(f"{seed}:{workload.name}:ops")
    tau = workload.tau
    if workload.mix == "distinct":
        streams = [[_search(query, tau)
                    for query in _queries(strings, ops, rng)]]
    elif workload.mix == "hot":
        pool = _queries(strings, 200, rng)
        cumulative = list(accumulate(1.0 / rank
                                     for rank in range(1, len(pool) + 1)))
        streams = [[_search(pool[bisect_left(cumulative,
                                             rng.random() * cumulative[-1])],
                            tau)
                    for _ in range(ops)]
                   for _ in range(workload.connections)]
    elif workload.mix == "rw":
        streams = [_rw_stream(strings, ops, tau, rng)]
    elif workload.mix == "batch":
        queries = _queries(strings, ops * workload.batch, rng)
        streams = [[{"op": "search-batch", "tau": tau,
                     "queries": queries[at:at + workload.batch]}
                    for at in range(0, len(queries), workload.batch)]]
    else:
        raise ValueError(f"unknown mix {workload.mix!r}")
    return Inputs(strings, streams)


def live_collection(strings: list[str], stream: list[dict],
                    upto: int) -> dict[int, str]:
    """The id -> text collection a server holds before op ``upto``."""
    live = dict(enumerate(strings))
    next_id = len(strings)
    for payload in stream[:upto]:
        if payload["op"] == "insert":
            live[next_id] = payload["text"]
            next_id += 1
        elif payload["op"] == "delete":
            live.pop(payload["id"], None)
    return live
