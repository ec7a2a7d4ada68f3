"""Unit tests for the four substring-selection methods (Section 4)."""

import pytest

from repro.config import SelectionMethod
from repro.core.partition import segment_layout
from repro.core.selection import (LengthBasedSelector, MultiMatchAwareSelector,
                                  WindowCache, WindowPlan, plan_windows,
                                  PositionAwareSelector, ShiftBasedSelector,
                                  make_selector, theoretical_selection_count)
from repro.exceptions import UnknownMethodError

# The paper's running example: r = "vankatesh" (indexed, length 9, tau = 3),
# probed with s = "avataresha" (length 10).
PROBE = "avataresha"
INDEXED_LENGTH = 9
TAU = 3
LAYOUT = segment_layout(INDEXED_LENGTH, TAU)


def selected_texts(selector, ordinal):
    return [s.text for s in selector.select(PROBE, INDEXED_LENGTH, LAYOUT)
            if s.ordinal == ordinal]


class TestMakeSelector:
    def test_factory_accepts_enum_and_string(self):
        assert isinstance(make_selector(SelectionMethod.LENGTH, 2), LengthBasedSelector)
        assert isinstance(make_selector("shift", 2), ShiftBasedSelector)
        assert isinstance(make_selector("position", 2), PositionAwareSelector)
        assert isinstance(make_selector("multi-match", 2), MultiMatchAwareSelector)

    def test_factory_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            make_selector("bogus", 2)


class TestLengthBasedSelector:
    def test_selects_every_substring_of_segment_length(self):
        selector = make_selector("length", TAU)
        # First three segments have length 2 -> 9 substrings each; the last
        # has length 3 -> 8 substrings.
        counts = [len(selected_texts(selector, ordinal)) for ordinal in (1, 2, 3, 4)]
        assert counts == [9, 9, 9, 8]

    def test_total_matches_formula(self):
        selector = make_selector("length", TAU)
        total = selector.count(len(PROBE), INDEXED_LENGTH, LAYOUT)
        assert total == theoretical_selection_count(
            SelectionMethod.LENGTH, len(PROBE), INDEXED_LENGTH, TAU)
        assert total == (TAU + 1) * (len(PROBE) + 1) - INDEXED_LENGTH


class TestShiftBasedSelector:
    def test_paper_shift_count(self):
        # Section 4 quotes (tau+1)(2tau+1) = 28 for this example; that formula
        # ignores string boundaries.  After clamping windows to valid start
        # positions the implementation selects 22 substrings — never more
        # than the formula.
        selector = make_selector("shift", TAU)
        count = selector.count(len(PROBE), INDEXED_LENGTH, LAYOUT)
        assert count == 22
        assert count <= theoretical_selection_count(
            SelectionMethod.SHIFT, len(PROBE), INDEXED_LENGTH, TAU) == 28

    def test_windows_are_centered_on_segment_start(self):
        selector = make_selector("shift", TAU)
        windows = selector.windows(len(PROBE), INDEXED_LENGTH, LAYOUT)
        second = windows[1]  # segment "nk" starts at offset 2
        assert (second.lo, second.hi) == (0, 5)


class TestPositionAwareSelector:
    def test_paper_position_count_is_14(self):
        # Section 4.1: position-aware selection reduces 28 to 14 substrings.
        selector = make_selector("position", TAU)
        assert selector.count(len(PROBE), INDEXED_LENGTH, LAYOUT) == 14

    def test_paper_position_substrings_per_segment(self):
        selector = make_selector("position", TAU)
        assert selected_texts(selector, 1) == ["av", "va", "at"]
        assert selected_texts(selector, 2) == ["va", "at", "ta", "ar"]
        assert selected_texts(selector, 3) == ["ta", "ar", "re", "es"]
        assert selected_texts(selector, 4) == ["res", "esh", "sha"]


class TestMultiMatchAwareSelector:
    def test_paper_multi_match_count_is_8(self):
        # Section 4.2: the multi-match-aware method selects only 8 substrings.
        selector = make_selector("multi-match", TAU)
        assert selector.count(len(PROBE), INDEXED_LENGTH, LAYOUT) == 8

    def test_paper_multi_match_substrings_per_segment(self):
        selector = make_selector("multi-match", TAU)
        assert selected_texts(selector, 1) == ["av"]
        assert selected_texts(selector, 2) == ["va", "at", "ta"]
        assert selected_texts(selector, 3) == ["ar", "re", "es"]
        assert selected_texts(selector, 4) == ["sha"]

    def test_count_matches_lemma_2(self):
        # |W_m(s, l)| = floor((tau^2 - delta^2) / 2) + tau + 1
        selector = make_selector("multi-match", TAU)
        delta = len(PROBE) - INDEXED_LENGTH
        expected = (TAU * TAU - delta * delta) // 2 + TAU + 1
        assert selector.count(len(PROBE), INDEXED_LENGTH, LAYOUT) == expected == 8

    def test_equal_lengths_counts(self):
        # delta = 0: tau^2 // 2 + tau + 1 substrings.
        for tau in range(0, 6):
            probe = "x" * (4 * (tau + 1))
            layout = segment_layout(len(probe), tau)
            selector = make_selector("multi-match", tau)
            assert selector.count(len(probe), len(probe), layout) == \
                tau * tau // 2 + tau + 1


class TestSelectionHierarchy:
    """Lemma 3: W_m ⊆ W_p ⊆ W_f ⊆ W_ℓ, hence the sizes are ordered."""

    @pytest.mark.parametrize("probe,indexed_length,tau", [
        (PROBE, INDEXED_LENGTH, TAU),
        ("kaushik chakrabar", 15, 3),
        ("abcdefghijklmnop", 14, 2),
        ("abcdefghijklmnop", 16, 4),
        ("short", 5, 1),
    ])
    def test_subset_chain(self, probe, indexed_length, tau):
        layout = segment_layout(indexed_length, tau)
        selections = {}
        for method in SelectionMethod:
            selector = make_selector(method, tau)
            selections[method] = {
                (s.ordinal, s.start)
                for s in selector.select(probe, indexed_length, layout)}
        assert selections[SelectionMethod.MULTI_MATCH] <= \
            selections[SelectionMethod.POSITION]
        assert selections[SelectionMethod.POSITION] <= \
            selections[SelectionMethod.SHIFT]
        assert selections[SelectionMethod.SHIFT] <= \
            selections[SelectionMethod.LENGTH]

    def test_counts_are_ordered(self):
        layout = segment_layout(INDEXED_LENGTH, TAU)
        counts = [make_selector(method, TAU).count(len(PROBE), INDEXED_LENGTH, layout)
                  for method in (SelectionMethod.MULTI_MATCH, SelectionMethod.POSITION,
                                 SelectionMethod.SHIFT, SelectionMethod.LENGTH)]
        assert counts == sorted(counts)


class TestEdgeCases:
    def test_probe_shorter_than_segment_yields_empty_windows(self):
        selector = make_selector("multi-match", 2)
        layout = segment_layout(12, 2)  # segments of length 4
        assert selector.select("abc", 12, layout) == []

    def test_count_never_negative(self):
        selector = make_selector("multi-match", 3)
        layout = segment_layout(20, 3)
        assert selector.count(5, 20, layout) >= 0

    def test_selected_substrings_have_segment_length(self):
        for method in SelectionMethod:
            selector = make_selector(method, TAU)
            for selected in selector.select(PROBE, INDEXED_LENGTH, LAYOUT):
                assert len(selected.text) == selected.seg_length

    def test_selected_substrings_match_probe_slices(self):
        selector = make_selector("multi-match", TAU)
        for selected in selector.select(PROBE, INDEXED_LENGTH, LAYOUT):
            assert PROBE[selected.start:selected.start + selected.seg_length] == \
                selected.text

    def test_theoretical_count_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            theoretical_selection_count("bogus", 10, 9, 2)


class TestWindowPlan:
    def test_plan_slices_cut_the_selected_substrings(self):
        for method in SelectionMethod:
            selector = make_selector(method, TAU)
            plan = plan_windows(
                selector.windows(len(PROBE), INDEXED_LENGTH, LAYOUT))
            planned = [(ordinal, PROBE[cut]) for ordinal, slices in plan.steps
                       for cut in slices]
            assert planned == [
                (selected.ordinal, selected.text) for selected in
                selector.select(PROBE, INDEXED_LENGTH, LAYOUT)]
            assert plan.num_positions == len(planned) == selector.count(
                len(PROBE), INDEXED_LENGTH, LAYOUT)

    def test_empty_windows_get_no_step(self):
        selector = make_selector("multi-match", 2)
        windows = selector.windows(3, 12, segment_layout(12, 2))
        assert windows and all(window.size == 0 for window in windows)
        plan = plan_windows(windows)
        assert plan == WindowPlan((), 0)


def _plan_values(value):
    """Every leaf of a plan: what a cached entry holds."""
    if isinstance(value, tuple):
        for item in value:
            yield from _plan_values(item)
    else:
        yield value


class TestWindowCachePlans:
    def layouts(self):
        calls = []

        def layout_of(length):
            calls.append(length)
            return segment_layout(length, TAU)
        return calls, layout_of

    def test_entries_are_plans_of_geometry_only(self):
        cache = WindowCache(make_selector("multi-match", TAU))
        _, layout_of = self.layouts()
        plan = cache.plan(len(PROBE), INDEXED_LENGTH, layout_of)
        assert isinstance(plan, WindowPlan)
        assert plan == plan_windows(cache.selector.windows(
            len(PROBE), INDEXED_LENGTH, LAYOUT))
        # Ordinals, slices of probe positions and counts: nothing that
        # names a store row.
        leaves = list(_plan_values(plan))
        assert all(type(leaf) in (slice, int) for leaf in leaves)
        assert all(0 <= cut.start < cut.stop <= len(PROBE)
                   for cut in leaves if type(cut) is slice)

    def test_layout_read_only_on_a_miss(self):
        cache = WindowCache(make_selector("multi-match", TAU))
        calls, layout_of = self.layouts()
        first = cache.plan(len(PROBE), INDEXED_LENGTH, layout_of)
        assert cache.plan(len(PROBE), INDEXED_LENGTH, layout_of) is first
        assert calls == [INDEXED_LENGTH]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_bounds_the_plans_lru(self):
        cache = WindowCache(make_selector("multi-match", TAU), capacity=2)
        calls, layout_of = self.layouts()
        for indexed_length in (9, 10, 9, 11):
            cache.plan(10, indexed_length, layout_of)
        assert len(cache) == 2
        # 9 was used after 10, so 10 was the one evicted.
        cache.plan(10, 9, layout_of)
        cache.plan(10, 10, layout_of)
        assert calls == [9, 10, 11, 10]

    def test_len_counts_keys_not_windows_or_slices(self):
        cache = WindowCache(make_selector("length", TAU))
        _, layout_of = self.layouts()
        for _ in range(3):
            for indexed_length in (8, 9, 10):
                cache.plan(len(PROBE), indexed_length, layout_of)
        assert len(cache) == 3
