"""Record placement: which shard owns a record.

The sharded serving tier places records with one map, a consistent-hashing
ring (:class:`HashRing`): every shard owns :data:`VNODES` pseudo-random
points on a 64-bit ring and a record belongs to the shard owning the first
point at or after ``mix64(id)``.  Growing the fleet from ``N`` to ``N + 1``
shards only reassigns the records that fall into the new shard's arcs — an
expected ``1/(N+1)`` of the collection — and every moved record moves to
the new shard.  Live resharding diffs the old and new rings record by
record to build its migration plan.

Placement ignores string length, so the
:class:`~repro.service.sharding.ShardRouter` sends a query to every shard,
or to none when no live record's length lies within its length window.
"""

from __future__ import annotations

from bisect import bisect_left

from ..exceptions import ConfigurationError

#: Virtual ring points per shard.  More points smooth the per-shard load
#: (relative imbalance ~ 1/sqrt(VNODES)) at the cost of a larger ring; 64
#: keeps placement O(log(64·N)) and imbalance under ~15%.
VNODES = 64

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """SplitMix64 finaliser: scramble an integer into a 64-bit ring point.

    Python's builtin ``hash`` is identity on small ints (and salted on
    strings), so record ids — typically dense and sequential — need an
    explicit mixer to spread uniformly over the ring.  Deterministic
    across processes, which the fork-spawned shard workers rely on.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class HashRing:
    """Consistent-hashing ring over ``shards`` workers: a resize moves ~1/N.

    Each shard owns :data:`VNODES` points on a 64-bit ring (the mixed hash
    of ``(shard, vnode)``); a record belongs to the shard owning the
    first point at or after ``mix64(id)``, wrapping past the top.  Because
    resizing only adds or removes one shard's points, ownership changes
    are confined to the arcs adjacent to those points — the property the
    resharding migration plan (and its ``≤ ~2/N`` rows-moved acceptance
    test) is built on.

    >>> ring = HashRing(2)
    >>> ring.place(0) == HashRing(2).place(0)  # pure in the id
    True
    >>> 0 <= ring.place(12345) < 2
    True
    """

    def __init__(self, shards: int) -> None:
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise ConfigurationError(
                f"shards must be a positive integer, got {shards!r}")
        # Domain separation: ring-point inputs are odd, record-key inputs
        # even (mix64 is a bijection, so the two families can never
        # collide).  Without it, a record whose id equals a point's raw
        # input would sit exactly on that point and the dense sequential
        # ids real collections use would all pile onto shard 0.
        ring = sorted((mix64(((shard * VNODES + vnode) << 1) | 1), shard)
                      for shard in range(shards) for vnode in range(VNODES))
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    def place(self, record_id: int) -> int:
        """Owning shard of a record (pure in ``record_id``)."""
        position = bisect_left(self._points, mix64(record_id << 1))
        if position == len(self._points):  # wrap past the top of the ring
            position = 0
        return self._owners[position]
