"""q-gram count filtering (Gravano et al., VLDB 2001).

A single edit operation destroys at most ``q`` of a string's positional
q-grams.  Hence two strings ``a`` and ``b`` with ``ed(a, b) ≤ τ`` must share
at least

    ``max(|a|, |b|) − q + 1 − q·τ``

q-grams (counting multiplicity).  When that bound is positive it gives a
cheap necessary condition used by the q-gram join baselines.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..config import validate_threshold


def minimum_shared_grams(length_a: int, length_b: int, q: int, tau: int) -> int:
    """Lower bound on the number of q-grams two similar strings must share.

    The bound can be zero or negative, in which case the count filter is
    vacuous (short strings or large thresholds).
    """
    validate_threshold(tau)
    if q <= 0:
        raise ValueError(f"gram length q must be positive, got {q}")
    return max(length_a, length_b) - q + 1 - q * tau


def shared_gram_count(grams_a: Iterable[str], grams_b: Iterable[str]) -> int:
    """Number of q-grams shared by two multisets (counting multiplicity)."""
    counts_a = Counter(grams_a)
    counts_b = Counter(grams_b)
    return sum(min(count, counts_b[gram]) for gram, count in counts_a.items())

