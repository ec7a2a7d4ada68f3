"""Top-k similarity join: the k closest pairs without a fixed threshold.

The related work (Xiao et al., ICDE 2009 [24]) studies joins that return the
k most-similar pairs directly instead of requiring the user to guess an
edit-distance threshold.  On top of Pass-Join this has a simple and exact
formulation: run the threshold join with a growing threshold τ = 0, 1, 2, …
and stop as soon as at least ``k`` pairs have been found — every pair not
yet reported has edit distance greater than the current τ, so the k smallest
distances are already in hand.

Each round rebuilds the join from scratch; because the result sets grow
quickly with τ (and small-τ rounds are cheap), the total cost is dominated
by the final round, which is the same work a user would have spent had they
known the right threshold in advance.
"""

from __future__ import annotations

from typing import Iterable

from .config import JoinConfig
from .core.join import PassJoin
from .types import JoinResult, JoinStatistics, SimilarPair, StringRecord, as_records


def top_k_join(strings: Iterable[str | StringRecord], k: int,
               max_tau: int | None = None,
               config: JoinConfig | None = None) -> JoinResult:
    """Return the ``k`` most-similar pairs of a collection.

    Parameters
    ----------
    strings:
        The collection to self-join.
    k:
        Number of pairs to return.  Fewer pairs are returned when the
        collection has fewer than ``k`` pairs within ``max_tau``.
    max_tau:
        Safety cap on the threshold growth.  Defaults to the length of the
        longest string (at which point every length-compatible pair has been
        considered).
    config:
        Optional :class:`~repro.config.JoinConfig` forwarded to each round.

    Ties at the k-th distance are broken by (left_id, right_id).

    Examples
    --------
    >>> result = top_k_join(["vldb", "pvldb", "vldbj", "sigmod"], k=2)
    >>> sorted((p.left, p.right) for p in result)
    [('vldb', 'pvldb'), ('vldb', 'vldbj')]
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    records = as_records(strings)
    if len(records) < 2:
        return JoinResult(pairs=[], statistics=JoinStatistics(num_strings=len(records)))
    if max_tau is None:
        max_tau = max(record.length for record in records)

    merged_stats = JoinStatistics()
    result = JoinResult(pairs=[])
    for tau in range(0, max_tau + 1):
        result = PassJoin(tau, config).self_join(records)
        # Each round drops its index before the next builds one.
        merged_stats = merged_stats.merge(result.statistics, coexisting=False)
        if len(result) >= k:
            break

    pairs = sorted(result.pairs,
                   key=lambda pair: (pair.distance, pair.left_id, pair.right_id))[:k]
    merged_stats.num_strings = len(records)
    merged_stats.num_results = len(pairs)
    return JoinResult(pairs=pairs, statistics=merged_stats)


def closest_pair(strings: Iterable[str | StringRecord],
                 max_tau: int | None = None,
                 config: JoinConfig | None = None) -> SimilarPair | None:
    """Return the single most-similar pair, or ``None`` for tiny/diverse inputs."""
    result = top_k_join(strings, k=1, max_tau=max_tau, config=config)
    return result.pairs[0] if result.pairs else None
