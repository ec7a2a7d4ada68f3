"""Brute-force answers the program's outputs are checked against.

Every run checks a sample: a 300-string sub-join through
``repro.baselines.naive_join`` for ``join_*``, 32 read ops against the full
collection for ``serve_*``.  ``--verify-oracle`` checks everything, slowly.

The serving oracle is independent of the program: its own banded edit
distance, and (sampled mode only) a pigeonhole pre-filter — a string within
``tau`` edits of the query must contain at least one of the query's
``tau + 1`` disjoint pieces intact, which ``in`` tests at C speed.
"""

from __future__ import annotations

import random

from benchmarks.e2e.workloads import Inputs, Workload, live_collection

JOIN_SAMPLE = 300
SERVE_SAMPLE = 32


def bounded_distance(left: str, right: str, limit: int) -> int:
    """Edit distance of the two strings, or ``limit + 1`` when it is larger."""
    if abs(len(left) - len(right)) > limit:
        return limit + 1
    if len(left) > len(right):
        left, right = right, left
    big = limit + 1
    previous = [column if column <= limit else big
                for column in range(len(right) + 1)]
    for row, char in enumerate(left, start=1):
        lo = max(1, row - limit)
        hi = min(len(right), row + limit)
        current = [big] * (len(right) + 1)
        if row <= limit:
            current[0] = row
        for column in range(lo, hi + 1):
            cost = previous[column - 1] + (char != right[column - 1])
            if previous[column] + 1 < cost:
                cost = previous[column] + 1
            if current[column - 1] + 1 < cost:
                cost = current[column - 1] + 1
            current[column] = cost if cost <= limit else big
        if min(current[lo - 1:hi + 1]) > limit:
            return big
        previous = current
    return previous[len(right)]


def _pieces(query: str, count: int) -> list[str]:
    base, extra = divmod(len(query), count)
    pieces, at = [], 0
    for index in range(count):
        size = base + (index < extra)
        pieces.append(query[at:at + size])
        at += size
    return pieces


def search_oracle(live: dict[int, str], query: str, tau: int,
                  prefilter: bool) -> list[list[int]]:
    """``[[id, distance], ...]`` of every live string within ``tau``."""
    pieces = _pieces(query, tau + 1) if prefilter else []
    found = []
    for record_id, text in live.items():
        if abs(len(text) - len(query)) > tau:
            continue
        if pieces and not any(piece in text for piece in pieces):
            continue
        distance = bounded_distance(query, text, tau)
        if distance <= tau:
            found.append([distance, record_id])
    return [[record_id, distance] for distance, record_id in sorted(found)]


def check_join(workload: Workload, inputs: Inputs, answers: list[list[int]],
               rng: random.Random, full: bool) -> tuple[int, int]:
    """``(checked, mismatched)`` pairs of a self-join answer.

    The sample is half random ids (catches missing pairs) and half ids that
    occur in reported pairs (catches wrong pairs and distances); the answer
    restricted to the sample must equal the brute-force join of the sample.
    """
    from repro.baselines import naive_join
    from repro.types import StringRecord

    count = len(inputs.strings)
    if full or count <= JOIN_SAMPLE:
        chosen = set(range(count))
    else:
        chosen = set(rng.sample(range(count), JOIN_SAMPLE // 2))
        paired = sorted({side for pair in answers for side in pair[:2]})
        rng.shuffle(paired)
        chosen.update(paired[:JOIN_SAMPLE - len(chosen)])
    expected = {(pair.left_id, pair.right_id, pair.distance)
                for pair in naive_join(
                    [StringRecord(id=record_id, text=inputs.strings[record_id])
                     for record_id in sorted(chosen)], workload.tau)}
    reported = {tuple(pair) for pair in answers
                if pair[0] in chosen and pair[1] in chosen}
    return len(expected | reported), len(expected ^ reported)


def check_serve(workload: Workload, inputs: Inputs, answers: list[list],
                rng: random.Random, full: bool) -> tuple[int, int]:
    """``(checked, mismatched)`` read queries of one pass's answers."""
    reads = [(stream_index, op_index)
             for stream_index, stream in enumerate(inputs.streams)
             for op_index, payload in enumerate(stream)
             if payload["op"] in ("search", "search-batch")]
    if not full and len(reads) > SERVE_SAMPLE:
        reads = rng.sample(reads, SERVE_SAMPLE)
    checked = mismatched = 0
    for stream_index, op_index in sorted(reads):
        stream = inputs.streams[stream_index]
        payload = stream[op_index]
        answer = answers[stream_index][op_index]
        live = live_collection(inputs.strings, stream, op_index)
        if payload["op"] == "search":
            queries, got = [payload["query"]], [answer]
        else:
            queries = payload["queries"]
            got = answer if answer is not None else [None] * len(queries)
            if not full:  # one query of the batch, so the sample stays 32
                at = rng.randrange(len(queries))
                queries, got = [queries[at]], [got[at]]
        for query, result in zip(queries, got):
            checked += 1
            if result != search_oracle(live, query, workload.tau,
                                       prefilter=not full):
                mismatched += 1
    return checked, mismatched
