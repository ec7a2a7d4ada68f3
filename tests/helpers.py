"""Plain-importable test helpers.

These used to live in ``conftest.py`` and were pulled in with relative
imports (``from .conftest import …``), which only works when ``tests`` is a
package — it is not, so the suite failed at collection.  Keeping the helpers
in a regular module lets test files do ``from helpers import …`` (pytest
puts each test file's directory on ``sys.path``) while ``conftest.py``
re-uses them for its fixtures.
"""

from __future__ import annotations

import itertools
import random

from repro.core.store import RecordStore
from repro.distance import edit_distance


def brute_force_pairs(strings, tau):
    """Ground-truth similar pairs {(i, j): distance} with i < j."""
    truth = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(strings), 2):
        if abs(len(a) - len(b)) > tau:
            continue
        distance = edit_distance(a, b)
        if distance <= tau:
            truth[(min(i, j), max(i, j))] = distance
    return truth


def brute_force_rs_pairs(left, right, tau):
    """Ground-truth R-S pairs {(i, j): distance} for i in R, j in S."""
    truth = {}
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if abs(len(a) - len(b)) > tau:
                continue
            distance = edit_distance(a, b)
            if distance <= tau:
                truth[(i, j)] = distance
    return truth


def random_strings(count, min_len, max_len, alphabet="abcd", seed=0):
    """Deterministic random strings over a small alphabet (collision-rich)."""
    rng = random.Random(seed)
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))
            for _ in range(count)]


def store_rows(records):
    """``(store, rows)``: the records added to a fresh ``RecordStore``
    and their row ordinals — the ``verify_rows`` arguments for a candidate
    list (``verifier.verify_rows(probe, *store_rows(records), context)``)."""
    store = RecordStore()
    return store, [store.add(record) for record in records]
