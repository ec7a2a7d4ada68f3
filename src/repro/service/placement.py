"""Placement maps: which shard owns a record, which shards a query probes.

Before this module the placement logic lived as two ad-hoc policy classes
inside :mod:`repro.service.sharding`; pulling it out into a first-class
:class:`PlacementMap` abstraction is what makes the shard fleet *elastic*.
A placement map answers three questions, and nothing else:

* :meth:`~PlacementMap.place` — the shard that owns a record, a pure
  function of ``(record_id, length)``.
* :meth:`~PlacementMap.probe_shards` — the shards a query of a given
  length/threshold could find matches in (a superset of ``place`` over
  every length in ``[|q| − τ, |q| + τ]`` — the soundness contract the
  test suite checks for every map).
* :meth:`~PlacementMap.resized` — the *same kind* of map over a different
  fleet size.  Live resharding diffs the old and new maps record by record
  to build its migration plan, so the quality of a map is measured by how
  few records change owner on a resize.

Three maps implement the contract:

``hash``
    A consistent-hashing ring (:class:`ConsistentHashPlacementMap`): every
    shard owns :data:`VNODES` pseudo-random points on a 64-bit ring and a
    record belongs to the shard owning the first point at or after
    ``mix64(id)``.  Growing the fleet from ``N`` to ``N + 1`` shards only
    reassigns the records that fall into the new shard's arcs — an
    expected ``1/(N+1)`` of the collection, against the ``N/(N+1)`` a
    modulo map would move.  Queries scatter to every shard.
``length``
    Splittable length bands (:class:`LengthBandPlacementMap`): records are
    grouped into bands of ``max_tau + 1`` consecutive lengths (the widest
    spread two strings within ``max_tau`` can have) and bands are dealt
    round-robin.  A query only probes the shards whose bands intersect its
    length window, so small-τ queries touch 1–2 shards instead of all.  On
    a resize the bands are re-dealt over the new fleet — band membership
    never changes, only which shard serves a band.
``modulo``
    The legacy ``id % N`` map (:class:`ModuloPlacementMap`), kept for
    comparison and for workloads with dense, caller-controlled ids.  A
    resize reassigns almost every record — the benchmark's cautionary
    baseline.
"""

from __future__ import annotations

from bisect import bisect_left

from ..config import SHARD_POLICIES
from ..exceptions import ConfigurationError

#: Virtual ring points per shard for the ``hash`` map.  More points smooth
#: the per-shard load (relative imbalance ~ 1/sqrt(VNODES)) at the cost of
#: a larger ring; 64 keeps placement O(log(64·N)) and imbalance under ~15%.
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


class PlacementMap:
    """Base class: a pure mapping from records (and queries) to shards."""

    name: str = ""

    def __init__(self, shards: int, max_tau: int) -> None:
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise ConfigurationError(
                f"shards must be a positive integer, got {shards!r}")
        self.num_shards = shards
        self.max_tau = max_tau

    def place(self, record_id: int, length: int) -> int:
        """Owning shard of a record (pure in ``record_id`` and ``length``)."""
        raise NotImplementedError

    def probe_key_span(self, lo: int, hi: int) -> tuple[int, ...]:
        """Shards holding records whose length lies in ``[lo, hi]``.

        The router passes the inclusive length window a query can match
        (:func:`~repro.search.searcher.length_window`); the map answers
        which shards own any length in it — a superset of :meth:`place`
        over every length in the window (the soundness contract the test
        suite checks for every map).
        """
        raise NotImplementedError

    def probe_shards(self, query_length: int, tau: int) -> tuple[int, ...]:
        """Shards a query of ``query_length`` at ``tau`` may find matches in.

        Convenience wrapper over :meth:`probe_key_span` (the length window
        of a probe is ``[|q| − τ, |q| + τ]``).
        """
        return self.probe_key_span(max(0, query_length - tau),
                                   query_length + tau)

    def resized(self, shards: int) -> "PlacementMap":
        """The same kind of map over a fleet of ``shards`` workers."""
        return type(self)(shards, self.max_tau)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(shards={self.num_shards}, "
                f"max_tau={self.max_tau})")


class ConsistentHashPlacementMap(PlacementMap):
    """Consistent-hashing ring: a resize moves ~1/N of the records.

    Each shard owns :data:`VNODES` points on a 64-bit ring (the mixed hash
    of ``(shard, vnode)``); a record belongs to the shard owning the
    first point at or after ``mix64(id)``, wrapping past the top.  Because
    resizing only adds or removes one shard's points, ownership changes
    are confined to the arcs adjacent to those points — the property the
    resharding migration plan (and its ``≤ ~2/N`` rows-moved acceptance
    test) is built on.  Lengths are ignored, so every query scatters to
    all shards.
    """

    name = "hash"

    def __init__(self, shards: int, max_tau: int) -> None:
        super().__init__(shards, max_tau)
        # Domain separation: ring-point inputs are odd, record-key inputs
        # even (mix64 is a bijection, so the two families can never
        # collide).  Without it, a record whose id equals a point's raw
        # input would sit exactly on that point and the dense sequential
        # ids real collections use would all pile onto shard 0.
        ring = [(mix64(((shard * VNODES + vnode) << 1) | 1), shard)
                for shard in range(shards) for vnode in range(VNODES)]
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    def place(self, record_id: int, length: int) -> int:
        position = bisect_left(self._points, mix64(record_id << 1))
        if position == len(self._points):  # wrap past the top of the ring
            position = 0
        return self._owners[position]

    def probe_key_span(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(range(self.num_shards))


class LengthBandPlacementMap(PlacementMap):
    """Length-band placement: co-locate strings of similar length.

    Records are grouped into bands of ``max_tau + 1`` consecutive lengths
    and bands are dealt round-robin across the shards.  A query at
    threshold ``tau`` only probes the shards whose bands intersect
    ``[|q| − τ, |q| + τ]`` — at most 2 bands for ``tau ≤ max_tau``, so
    usually 1–2 shards instead of all of them.  Bands are the splittable/
    mergeable unit of elasticity: a resize re-deals the bands over the new
    fleet (band membership of a record never changes), so the migration
    plan moves whole bands between shards.
    """

    name = "length"

    def __init__(self, shards: int, max_tau: int) -> None:
        super().__init__(shards, max_tau)
        self.band_width = max_tau + 1

    def place(self, record_id: int, length: int) -> int:
        return (length // self.band_width) % self.num_shards

    def probe_key_span(self, lo: int, hi: int) -> tuple[int, ...]:
        first = max(0, lo) // self.band_width
        last = max(0, hi) // self.band_width
        if last - first + 1 >= self.num_shards:
            return tuple(range(self.num_shards))
        return tuple(sorted({band % self.num_shards
                             for band in range(first, last + 1)}))


class ModuloPlacementMap(PlacementMap):
    """The legacy ``id % N`` map: uniform, but a resize moves ~everything.

    Kept as an explicit policy (``"modulo"``) for workloads with dense
    caller-controlled ids and as the baseline the consistent-hash ring is
    measured against: changing ``N`` reassigns an expected ``N/(N+1)`` of
    the records, so elastic fleets should prefer ``"hash"``.
    """

    name = "modulo"

    def place(self, record_id: int, length: int) -> int:
        return record_id % self.num_shards

    def probe_key_span(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(range(self.num_shards))


_PLACEMENT_MAPS: dict[str, type[PlacementMap]] = {
    ConsistentHashPlacementMap.name: ConsistentHashPlacementMap,
    LengthBandPlacementMap.name: LengthBandPlacementMap,
    ModuloPlacementMap.name: ModuloPlacementMap,
}

assert set(_PLACEMENT_MAPS) == set(SHARD_POLICIES), \
    "placement maps and config.SHARD_POLICIES drifted apart"


def make_placement_map(name: str, shards: int, max_tau: int) -> PlacementMap:
    """Instantiate the placement map registered under ``name``."""
    try:
        map_type = _PLACEMENT_MAPS[name]
    except KeyError:
        raise ConfigurationError(
            f"shard_policy must be one of {SHARD_POLICIES}, "
            f"got {name!r}") from None
    return map_type(shards, max_tau)

