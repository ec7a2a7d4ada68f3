"""Property-based tests (hypothesis) for the Pass-Join framework.

The headline property is completeness + correctness (Theorem 6): for any
collection of strings and any threshold, Pass-Join returns exactly the
brute-force result, whatever selection/verification strategy is configured.
"""

from hypothesis import given, settings, strategies as st

from repro import JoinConfig, SelectionMethod, VerificationMethod, pass_join
from repro.core.partition import segment_layout
from repro.core.selection import make_selector
from repro.distance import edit_distance

from helpers import brute_force_pairs

# Small alphabets maximise collisions, which is what stresses the filters.
texts = st.text(alphabet="abC ", min_size=0, max_size=14)
collections = st.lists(texts, min_size=0, max_size=25)
taus = st.integers(min_value=0, max_value=4)


@given(strings=collections, tau=taus)
@settings(max_examples=120, deadline=None)
def test_pass_join_equals_brute_force(strings, tau):
    truth = brute_force_pairs(strings, tau)
    result = pass_join(strings, tau)
    assert result.pair_ids() == set(truth)
    for pair in result:
        assert pair.distance == truth[pair.ids()]


@given(strings=collections, tau=st.integers(min_value=0, max_value=3),
       selection=st.sampled_from(list(SelectionMethod)),
       verification=st.sampled_from(list(VerificationMethod)))
@settings(max_examples=120, deadline=None)
def test_all_configurations_equal_brute_force(strings, tau, selection, verification):
    truth = set(brute_force_pairs(strings, tau))
    config = JoinConfig(selection=selection, verification=verification)
    assert pass_join(strings, tau, config).pair_ids() == truth


@given(strings=st.lists(texts, min_size=0, max_size=20), tau=taus)
@settings(max_examples=80, deadline=None)
def test_join_results_do_not_depend_on_input_order(strings, tau):
    forward = pass_join(strings, tau).pair_ids()
    reordered = list(reversed(strings))
    # Map ids of the reversed run back to the original positions.
    remap = {i: len(strings) - 1 - i for i in range(len(strings))}
    backward = {tuple(sorted((remap[a], remap[b])))
                for a, b in pass_join(reordered, tau).pair_ids()}
    assert forward == backward


@given(strings=collections, tau=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_results_grow_monotonically_with_tau(strings, tau):
    smaller = pass_join(strings, tau).pair_ids()
    larger = pass_join(strings, tau + 1).pair_ids()
    assert smaller <= larger


# ----------------------------------------------------------------------
# Selection completeness (Definition 2 / Theorems 1-2) as a direct property:
# whenever ed(r, s) <= tau, some selected substring of s equals a segment of
# r at the segment's ordinal.
# ----------------------------------------------------------------------
@given(r=st.text(alphabet="abC", min_size=1, max_size=14),
       s=st.text(alphabet="abC", min_size=1, max_size=14),
       tau=st.integers(min_value=0, max_value=4),
       method=st.sampled_from([SelectionMethod.POSITION, SelectionMethod.MULTI_MATCH,
                               SelectionMethod.SHIFT, SelectionMethod.LENGTH]))
@settings(max_examples=400, deadline=None)
def test_selection_completeness(r, s, tau, method):
    if len(r) < tau + 1 or len(r) > len(s) or len(s) - len(r) > tau:
        return  # outside the framework's indexed/probe length relationship
    if edit_distance(r, s) > tau:
        return
    layout = segment_layout(len(r), tau)
    segments = [r[start:start + seg_len] for start, seg_len in layout]
    selector = make_selector(method, tau)
    selected = selector.select(s, len(r), layout)
    hit = any(selection.text == segments[selection.ordinal - 1]
              for selection in selected)
    assert hit, (r, s, tau, method)


@given(s=st.text(alphabet="ab", min_size=2, max_size=16),
       length=st.integers(min_value=2, max_value=16),
       tau=st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_multi_match_selects_fewest_substrings(s, length, tau):
    if length < tau + 1 or length > len(s) or len(s) - length > tau:
        return
    layout = segment_layout(length, tau)
    counts = {method: make_selector(method, tau).count(len(s), length, layout)
              for method in SelectionMethod}
    assert counts[SelectionMethod.MULTI_MATCH] <= counts[SelectionMethod.POSITION]
    assert counts[SelectionMethod.POSITION] <= counts[SelectionMethod.SHIFT]
    assert counts[SelectionMethod.SHIFT] <= counts[SelectionMethod.LENGTH]
