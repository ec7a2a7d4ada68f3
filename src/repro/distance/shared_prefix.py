"""Shared-prefix incremental verification (Section 5.3 of the paper).

When Pass-Join verifies the strings of one inverted list ``L_l^i(w)``
against a probe string, consecutive strings may share a prefix.  The
dynamic-programming rows computed for the previous string's prefix are then
valid for the next string up to the length of their common prefix, and only
the rows after it need to be (re)computed.

Posting order only buys prefix sharing, never correctness: the verifier
reuses the longest common prefix of whatever strings come consecutively.
A join inserts strings in sorted (length, text) order, so its lists are
alphabetical and neighbours share the most; a serving index appends in
arrival order and shares less, with the same answers.

:class:`SharedPrefixVerifier` encapsulates that: it is bound to one probe
string (the matrix columns) and verifies a sequence of strings (the matrix
rows) one after another, caching rows keyed by the number of characters
consumed so far.
"""

from __future__ import annotations

from ..config import validate_threshold
from .levenshtein import longest_common_prefix

_INF = 1 << 30


class SharedPrefixVerifier:
    """Verify many strings against one fixed probe, reusing shared prefixes.

    Parameters
    ----------
    probe:
        The fixed string (the columns of the DP matrix).
    tau:
        The edit-distance threshold; :meth:`distance` returns values capped
        at ``tau + 1``.
    stats:
        Optional statistics sink exposing ``num_matrix_cells`` and
        ``num_early_terminations`` attributes (duck-typed).

    Notes
    -----
    The verifier uses the same length-aware band and expected-edit-distance
    early termination as
    :func:`repro.distance.banded.length_aware_edit_distance`, so results are
    identical — only the amount of recomputation differs.  Because the band
    placement depends on the length of the verified string, cached rows are
    only reused between consecutive strings of equal length (which is always
    the case inside one inverted list ``L_l^i(w)``: all its strings have
    length ``l``, hence equal-length left parts and equal-length right
    parts... the left parts all have length ``p_i − 1`` and the right parts
    ``l − p_i − l_i + 1``).  When a string of a different length arrives the
    cache is simply discarded.
    """

    def __init__(self, probe: str, tau: int, stats=None) -> None:
        self.probe = probe
        self.tau = validate_threshold(tau)
        self._stats = stats
        self._previous_text: str | None = None
        # _rows[i] is the DP row after consuming i characters of the
        # previous verified string; _rows[0] is the initial row.
        self._rows: list[list[int]] = []
        self.cache_hits = 0
        self.rows_reused = 0

    def _count_cells(self, cells: int) -> None:
        if self._stats is not None:
            self._stats.num_matrix_cells += cells

    def _count_early_termination(self) -> None:
        if self._stats is not None:
            self._stats.num_early_terminations += 1

    def _initial_row(self, right: int) -> list[int]:
        row = [_INF] * (len(self.probe) + 1)
        for j in range(min(right, len(self.probe)) + 1):
            row[j] = j
        return row

    def distance(self, text: str) -> int:
        """Return ``min(ed(text, probe), tau + 1)``.

        Consecutive calls with strings sharing a common prefix (and the same
        length) reuse the previously computed DP rows for that prefix.
        """
        probe = self.probe
        tau = self.tau
        len_r, len_s = len(text), len(probe)
        delta = len_s - len_r
        if abs(delta) > tau:
            # Different length class: drop the cache, band geometry changed.
            self._previous_text = None
            self._rows = []
            return tau + 1
        if text == probe:
            # Exact match; do not touch the cache (cheap fast path).
            return 0

        left = (tau - delta) // 2
        right = (tau + delta) // 2

        reuse = 0
        if (
            self._previous_text is not None
            and len(self._previous_text) == len_r
            and self._rows
        ):
            reuse = longest_common_prefix(self._previous_text, text)
            reuse = min(reuse, len(self._rows) - 1)
            if reuse:
                self.cache_hits += 1
                self.rows_reused += reuse
        else:
            self._rows = []

        if not self._rows:
            self._rows = [self._initial_row(right)]
        else:
            del self._rows[reuse + 1:]

        rows = self._rows
        previous = rows[reuse]
        for i in range(reuse + 1, len_r + 1):
            lo = max(0, i - left)
            hi = min(len_s, i + right)
            if lo > hi:
                self._previous_text = text
                return tau + 1
            current = [_INF] * (len_s + 1)
            char_r = text[i - 1]
            min_expected = _INF
            remaining_r = len_r - i
            cells = 0
            for j in range(lo, hi + 1):
                if j == 0:
                    value = i
                else:
                    cost = 0 if char_r == probe[j - 1] else 1
                    value = previous[j - 1] + cost
                    if previous[j] + 1 < value:
                        value = previous[j] + 1
                    if current[j - 1] + 1 < value:
                        value = current[j - 1] + 1
                current[j] = value
                cells += 1
                if value < _INF:
                    expected = value + abs((len_s - j) - remaining_r)
                    if expected < min_expected:
                        min_expected = expected
            self._count_cells(cells)
            rows.append(current)
            previous = current
            if min_expected > tau:
                self._count_early_termination()
                self._previous_text = text
                return tau + 1

        self._previous_text = text
        distance = previous[len_s]
        return distance if distance <= tau else tau + 1

    def reset(self) -> None:
        """Forget the cached rows (e.g. when moving to a new inverted list)."""
        self._previous_text = None
        self._rows = []
