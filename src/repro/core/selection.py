"""Substring selection (Section 4 of the paper).

Given a probe string ``s`` and an indexed length ``l`` (with the segment
layout of strings of that length), a selector decides which substrings of
``s`` are looked up in each inverted index ``L_l^i``.  All four methods of
the paper are implemented; each one selects a subset of its predecessor:

================  ==========================================  ==============
method            window of start positions for ordinal ``i``  size per index
================  ==========================================  ==============
length-based      every position                               ``|s| − l_i + 1``
shift-based       ``[p_i − τ, p_i + τ]``                       ``2τ + 1``
position-aware    ``[p_i − ⌊(τ−Δ)/2⌋, p_i + ⌊(τ+Δ)/2⌋]``       ``τ + 1``
multi-match       ``[max(⊥_i^l, ⊥_i^r), min(⊤_i^l, ⊤_i^r)]``   see Lemma 2
================  ==========================================  ==============

with ``Δ = |s| − l`` and, for the multi-match-aware method,
``⊥_i^l = p_i − (i−1)``, ``⊤_i^l = p_i + (i−1)``,
``⊥_i^r = p_i + Δ − (τ+1−i)``, ``⊤_i^r = p_i + Δ + (τ+1−i)``.

Positions here are 0-based (the paper uses 1-based positions; the windows
are the same after shifting by one).  Every window is clamped to the valid
substring range ``[0, |s| − l_i]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, NamedTuple, Sequence

from ..config import SelectionMethod, validate_threshold
from ..exceptions import UnknownMethodError


class SelectedSubstring(NamedTuple):
    """One substring chosen for probing an inverted index ``L_l^i``."""

    ordinal: int      # segment ordinal i (1-based)
    start: int        # 0-based start position of the substring in the probe
    text: str         # the substring itself (length = segment length l_i)
    seg_start: int    # 0-based start position p_i of the segment in indexed strings
    seg_length: int   # segment length l_i


class Window(NamedTuple):
    """Inclusive range of start positions selected for one ordinal."""

    ordinal: int
    seg_start: int
    seg_length: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        """Number of start positions in the window (0 when empty)."""
        return max(0, self.hi - self.lo + 1)


class SubstringSelector(ABC):
    """Base class for the four substring-selection strategies."""

    method: SelectionMethod

    def __init__(self, tau: int) -> None:
        self.tau = validate_threshold(tau)

    @abstractmethod
    def _window(self, ordinal: int, seg_start: int, seg_length: int,
                probe_length: int, delta: int) -> tuple[int, int]:
        """Return the raw (lo, hi) start-position window before clamping."""

    def windows(self, probe_length: int, indexed_length: int,
                layout: Sequence[tuple[int, int]]) -> list[Window]:
        """Return the clamped selection window for every segment ordinal."""
        delta = probe_length - indexed_length
        result: list[Window] = []
        for ordinal, (seg_start, seg_length) in enumerate(layout, start=1):
            lo, hi = self._window(ordinal, seg_start, seg_length,
                                  probe_length, delta)
            lo = max(lo, 0)
            hi = min(hi, probe_length - seg_length)
            result.append(Window(ordinal, seg_start, seg_length, lo, hi))
        return result

    def select(self, probe: str, indexed_length: int,
               layout: Sequence[tuple[int, int]]) -> list[SelectedSubstring]:
        """Materialise the selected substrings of ``probe`` for one index length."""
        return [SelectedSubstring(window.ordinal, start,
                                  probe[start:start + window.seg_length],
                                  window.seg_start, window.seg_length)
                for window in self.windows(len(probe), indexed_length, layout)
                for start in range(window.lo, window.hi + 1)]

    def count(self, probe_length: int, indexed_length: int,
              layout: Sequence[tuple[int, int]]) -> int:
        """Number of substrings :meth:`select` would return, without slicing."""
        return sum(window.size
                   for window in self.windows(probe_length, indexed_length, layout))


class LengthBasedSelector(SubstringSelector):
    """Select every substring whose length matches the segment length."""

    method = SelectionMethod.LENGTH

    def _window(self, ordinal: int, seg_start: int, seg_length: int,
                probe_length: int, delta: int) -> tuple[int, int]:
        return 0, probe_length - seg_length


class ShiftBasedSelector(SubstringSelector):
    """Select substrings starting within ``±τ`` of the segment start."""

    method = SelectionMethod.SHIFT

    def _window(self, ordinal: int, seg_start: int, seg_length: int,
                probe_length: int, delta: int) -> tuple[int, int]:
        return seg_start - self.tau, seg_start + self.tau


class PositionAwareSelector(SubstringSelector):
    """Position-aware selection (Section 4.1): ``τ + 1`` substrings per index."""

    method = SelectionMethod.POSITION

    def _window(self, ordinal: int, seg_start: int, seg_length: int,
                probe_length: int, delta: int) -> tuple[int, int]:
        lo = seg_start - (self.tau - delta) // 2
        hi = seg_start + (self.tau + delta) // 2
        return lo, hi


class MultiMatchAwareSelector(SubstringSelector):
    """Multi-match-aware selection (Section 4.2) — the provably minimal scheme."""

    method = SelectionMethod.MULTI_MATCH

    def _window(self, ordinal: int, seg_start: int, seg_length: int,
                probe_length: int, delta: int) -> tuple[int, int]:
        tau = self.tau
        left_lo = seg_start - (ordinal - 1)
        left_hi = seg_start + (ordinal - 1)
        right_lo = seg_start + delta - (tau + 1 - ordinal)
        right_hi = seg_start + delta + (tau + 1 - ordinal)
        return max(left_lo, right_lo), min(left_hi, right_hi)


class WindowPlan(NamedTuple):
    """Selection windows of one ``(probe length, indexed length)``, planned.

    ``steps`` holds one ``(ordinal, slices)`` pair per *non-empty* window
    of :meth:`SubstringSelector.windows`, in ordinal order, whose ``slice``
    objects cut the window's substrings out of a probe of that length in
    start order; ``num_positions`` is the number of those substrings (each
    one index probe).  A plan holds segment geometry only, so it serves
    any probe of its length.
    """

    steps: tuple[tuple[int, tuple[slice, ...]], ...]
    num_positions: int


def plan_windows(windows: list[Window]) -> WindowPlan:
    """The :class:`WindowPlan` of one length pair's selection windows."""
    steps = tuple(
        (window.ordinal,
         tuple(slice(start, start + window.seg_length)
               for start in range(window.lo, window.hi + 1)))
        for window in windows if window.hi >= window.lo)
    return WindowPlan(steps, sum(len(slices) for _, slices in steps))


class WindowCache:
    """Bounded LRU cache of window plans, persistent across probes.

    Selection windows are a pure function of ``(probe length, indexed
    length)`` once the selector (whose ``tau`` is the *index partition
    threshold*, not the per-query one) and the partition layout rule are
    fixed — which they are for the lifetime of one index.  Each entry is
    the :class:`WindowPlan` of one length pair: the slice objects the
    match step cuts the probe with, so a cached length pair costs the
    engine no per-window arithmetic.  A plan carries segment geometry
    only, never row ordinals, so it can never point at a released store
    row: posting lookups always go through the live index.  Nothing
    invalidates a plan, not even a length group that disappears and comes
    back; the capacity bound only caps memory.

    Hits and misses are counted on the cache object; a searcher adds its
    probes' hits to ``num_windows_cache_hits`` (the
    ``engine_windows_cache_hits`` funnel counter).  A join's span-local
    cache is not counted, so the join's counters do not depend on how it
    is cut into spans.
    """

    __slots__ = ("selector", "capacity", "hits", "misses", "_entries")

    def __init__(self, selector: SubstringSelector,
                 capacity: int = 4096) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise TypeError("WindowCache capacity must be an int, "
                            f"not {type(capacity).__name__}")
        if capacity < 1:
            raise ValueError("WindowCache capacity must be >= 1")
        self.selector = selector
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[int, int], WindowPlan] = (
            OrderedDict())

    def plan(self, probe_length: int, indexed_length: int,
             layout_of: Callable[[int], Sequence[tuple[int, int]]],
             ) -> WindowPlan:
        """Return the cached plan for ``(probe_length, indexed_length)``.

        ``layout_of`` maps an indexed length to the index's segment layout
        (``SegmentIndex.layout``); it is called only on a miss.  The cache
        trusts it because the layout is itself a pure function of the
        indexed length under a fixed index.
        """
        key = (probe_length, indexed_length)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        plan = plan_windows(self.selector.windows(
            probe_length, indexed_length, layout_of(indexed_length)))
        self._entries[key] = plan
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return plan

    def __len__(self) -> int:
        return len(self._entries)


_SELECTORS: dict[SelectionMethod, type[SubstringSelector]] = {
    SelectionMethod.LENGTH: LengthBasedSelector,
    SelectionMethod.SHIFT: ShiftBasedSelector,
    SelectionMethod.POSITION: PositionAwareSelector,
    SelectionMethod.MULTI_MATCH: MultiMatchAwareSelector,
}


def make_selector(method: SelectionMethod | str, tau: int) -> SubstringSelector:
    """Instantiate the selector for ``method`` (accepts enum values or names)."""
    if isinstance(method, str):
        try:
            method = SelectionMethod(method)
        except ValueError as exc:
            raise UnknownMethodError(
                "selection method", method,
                tuple(m.value for m in SelectionMethod)) from exc
    return _SELECTORS[method](tau)


def theoretical_selection_count(method: SelectionMethod, probe_length: int,
                                indexed_length: int, tau: int) -> int:
    """Closed-form substring counts from Section 4.3 (used in tests).

    The formulas assume the probe is at least as long as every segment
    (otherwise windows are clamped and the actual count is smaller).  For
    the multi-match-aware method this is Lemma 2:
    ``⌊(τ² − Δ²)/2⌋ + τ + 1``.
    """
    delta = probe_length - indexed_length
    if method == SelectionMethod.LENGTH:
        return (tau + 1) * (probe_length + 1) - indexed_length
    if method == SelectionMethod.SHIFT:
        return (tau + 1) * (2 * tau + 1)
    if method == SelectionMethod.POSITION:
        return (tau + 1) ** 2
    if method == SelectionMethod.MULTI_MATCH:
        return (tau * tau - delta * delta) // 2 + tau + 1
    raise UnknownMethodError("selection method", str(method),
                             tuple(m.value for m in SelectionMethod))
