"""Unbounded Levenshtein (edit) distance.

These are the reference kernels: simple, exact, and easy to audit.  The
threshold-bounded kernels in :mod:`repro.distance.banded` are validated
against :func:`edit_distance` in the test suite.
"""

from __future__ import annotations


def edit_distance(a: str, b: str) -> int:
    """Return the exact edit distance between ``a`` and ``b``.

    Uses the classic dynamic program with two rolling rows, so memory is
    ``O(min(|a|, |b|))`` and time is ``O(|a| · |b|)``.

    >>> edit_distance("kaushic chaduri", "kaushuk chadhui")
    4
    >>> edit_distance("vldb", "pvldb")
    1
    """
    if a == b:
        return 0
    # Keep the shorter string as the row to minimise memory.
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)

    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, char_a in enumerate(a, start=1):
        current[0] = i
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current[j] = min(
                previous[j] + 1,        # deletion from a
                current[j - 1] + 1,     # insertion into a
                previous[j - 1] + cost,  # substitution / match
            )
        previous, current = current, previous
    return previous[len(b)]


def longest_common_prefix(a: str, b: str) -> int:
    """Return the length of the longest common prefix of ``a`` and ``b``.

    Used by the shared-prefix verifier (Section 5.3) to decide how many
    dynamic-programming rows can be reused between consecutive strings of a
    sorted inverted list.
    """
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i
