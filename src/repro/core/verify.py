"""Candidate verification (Section 5 of the paper).

A verifier receives one probe string, the inverted list of indexed records
that share a selected substring with it, and a :class:`MatchContext`
describing where the match occurred (segment ordinal, segment position and
length, substring position in the probe).  It returns the records whose edit
distance to the probe is within ``τ``, together with the exact distance.

Six strategies are provided, matching the Figure 14 ablation plus two
extensions:

``BandedVerifier``
    Banded dynamic programming over the whole strings (``2τ+1`` cells per
    row, naive early termination).
``LengthAwareVerifier``
    The paper's length-aware band (``τ+1`` cells per row) with the
    expected-edit-distance early termination.
``ExtensionVerifier``
    Extension-based verification around the matching segment with the
    tightened thresholds ``τ_l = i − 1`` and ``τ_r = τ + 1 − i``
    (Section 5.2).
``SharePrefixExtensionVerifier``
    Extension-based verification that additionally reuses DP rows across
    consecutive inverted-list entries sharing a prefix (Section 5.3).
``MyersVerifier``
    Bit-parallel kernel over the whole strings (library extension).
``BatchMyersVerifier``
    The library default (:data:`~repro.config.DEFAULT_VERIFICATION`):
    candidates are rejected on the store's 64-bit histogram-signature
    column first, then the probe's character masks — built once per probe
    text — are swept across the survivors with Hyyrö's bounded cutoff (see
    :mod:`repro.distance.myers_batch`).

Verifiers have one entry point, :meth:`BaseVerifier.verify_rows`: it takes
a :class:`~repro.core.store.RecordStore` plus row ordinals, reads the text
column directly, and materialises a :class:`~repro.types.StringRecord` only
for the rows it accepts.

All strategies are *correct* (no false positives, exact distances reported)
and, in combination with any complete selection method, *complete*: a pair
rejected by the extension strategies at one matching substring is guaranteed
to be accepted at another one (Theorem 6), which the property-based tests
check by comparing against the brute-force join.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from ..config import VerificationMethod, validate_threshold
from ..distance.banded import banded_edit_distance, length_aware_edit_distance
from ..distance.myers import myers_edit_distance_within
from ..distance.myers_batch import BatchMyersKernel
from ..distance.shared_prefix import SharedPrefixVerifier
from ..exceptions import UnknownMethodError
from ..types import JoinStatistics, StringRecord
from .store import RecordStore, histogram_signature


@dataclass(frozen=True, slots=True)
class MatchContext:
    """Where a selected substring of the probe matched an indexed segment.

    Attributes
    ----------
    ordinal:
        Segment ordinal ``i`` (1-based).
    probe_start:
        0-based start position of the matching substring in the probe.
    seg_start:
        0-based start position ``p_i`` of the segment in the indexed strings.
    seg_length:
        Segment length ``l_i``.
    """

    ordinal: int
    probe_start: int
    seg_start: int
    seg_length: int


class BaseVerifier(ABC):
    """Common interface of all verification strategies."""

    method: VerificationMethod
    #: Whether the strategy decides definitively for a pair, independent of
    #: the particular matching substring.  The engine then collects each
    #: pair once, however many substrings find it, and verifies all of a
    #: probe's candidates in one :meth:`verify_rows` call.
    exact_per_pair: bool = True

    def __init__(self, tau: int, stats: JoinStatistics | None = None) -> None:
        self.tau = validate_threshold(tau)
        self.stats = stats if stats is not None else JoinStatistics()

    @abstractmethod
    def verify_rows(self, probe: str, store: RecordStore, rows: Sequence[int],
                    context: MatchContext | None,
                    ) -> list[tuple[StringRecord, int]]:
        """Return ``(record, distance)`` for the store ``rows`` within ``τ``.

        The probe engine filters candidate ordinals on the store's id
        column and hands the surviving rows here.  An
        :attr:`exact_per_pair` verifier gets every candidate of the probe
        in one call, found through many matches, so its ``context`` is
        ``None``; the others get one hit list and where it matched.
        """


class WholeStringVerifier(BaseVerifier):
    """Whole-string verification: one loop over a bounded distance function.

    Subclasses set :attr:`_distance`, called as ``_distance(text, probe,
    tau, stats)`` and returning the exact distance when it is within
    ``tau`` and any larger value otherwise.
    """

    _distance: Callable[[str, str, int, JoinStatistics], int]

    def verify_rows(self, probe: str, store: RecordStore, rows: Sequence[int],
                    context: MatchContext | None,
                    ) -> list[tuple[StringRecord, int]]:
        tau, stats, distance_of = self.tau, self.stats, self._distance
        texts = store.texts
        accepted: list[tuple[StringRecord, int]] = []
        for row in rows:
            stats.num_verifications += 1
            distance = distance_of(texts[row], probe, tau, stats)
            if distance <= tau:
                accepted.append((store.record_at(row), distance))
        return accepted


class BandedVerifier(WholeStringVerifier):
    """Whole-string verification with the classic ``2τ+1`` band."""

    method = VerificationMethod.BANDED
    _distance = staticmethod(banded_edit_distance)


class LengthAwareVerifier(WholeStringVerifier):
    """Whole-string verification with the paper's ``τ+1`` band (Section 5.1)."""

    method = VerificationMethod.LENGTH_AWARE
    _distance = staticmethod(length_aware_edit_distance)


class MyersVerifier(WholeStringVerifier):
    """Whole-string verification with the bit-parallel kernel (extension)."""

    method = VerificationMethod.MYERS

    @staticmethod
    def _distance(text: str, probe: str, tau: int, stats: object) -> int:
        return myers_edit_distance_within(text, probe, tau)  # counts nothing


class BatchMyersVerifier(BaseVerifier):
    """Signature reject, then batched bit-parallel verification.

    A row whose :func:`~repro.core.store.histogram_signature` has more than
    ``tau`` bucket counts in surplus over the probe's, or the probe's over
    its, is rejected by two popcounts (each surplus is a lower bound on the
    edit distance) and counted in ``num_signature_rejects``.  The survivors
    are swept by a :class:`~repro.distance.myers_batch.BatchMyersKernel`
    whose character masks are built once per call — the probe engine
    makes one call per query, with every candidate row of the probe — each
    sweep ending as soon as the score can no longer come back under
    ``tau`` (Hyyrö's bounded cutoff).  Results are element-identical to
    :class:`MyersVerifier` and :class:`LengthAwareVerifier`.
    """

    method = VerificationMethod.MYERS_BATCH

    def __init__(self, tau: int, stats: JoinStatistics | None = None) -> None:
        super().__init__(tau, stats)
        #: Number of calls that built the probe's signature (and, when a
        #: row survives it, its pattern masks): one per call with rows.
        self.masks_built = 0

    def verify_rows(self, probe: str, store: RecordStore, rows: Sequence[int],
                    context: MatchContext | None,
                    ) -> list[tuple[StringRecord, int]]:
        if not rows:
            return []
        signature = histogram_signature(probe)
        self.masks_built += 1
        tau, stats = self.tau, self.stats
        stats.num_verifications += len(rows)
        survivors = store.rows_near(rows, signature, tau)
        stats.num_signature_rejects += len(rows) - len(survivors)
        if not survivors:
            return []
        texts = store.texts
        distances = BatchMyersKernel(probe).distances_within(
            [texts[row] for row in survivors], tau, stats)
        record_at = store.record_at
        return [(record_at(row), distance)
                for row, distance in zip(survivors, distances)
                if distance <= tau]


class ExtensionVerifier(BaseVerifier):
    """Extension-based verification around the matching segment (Section 5.2).

    The pair is accepted when the left parts are within ``τ_l = i − 1`` and
    the right parts within ``τ_r = τ + 1 − i`` edit operations — in that
    case ``d_l + d_r ≤ τ``, so the pair is certainly similar.  The exact
    distance of accepted pairs is then computed once (bounded by ``τ``) so
    results report true distances.  A rejection here does not lose results:
    by the multi-match argument the pair, if similar, is re-discovered and
    accepted through another matching segment.
    """

    method = VerificationMethod.EXTENSION
    exact_per_pair = False

    def _part_distance(self, probe_part: str,
                       tau_part: int) -> Callable[[str], int]:
        """The bounded distance from an indexed part to ``probe_part``."""
        stats = self.stats
        return lambda part: length_aware_edit_distance(part, probe_part,
                                                       tau_part, stats)

    def verify_rows(self, probe: str, store: RecordStore, rows: Sequence[int],
                    context: MatchContext) -> list[tuple[StringRecord, int]]:
        tau = self.tau
        # When the index was partitioned for a larger threshold than this
        # verification threshold (the search use case), late segment ordinals
        # leave no error budget for the right part; any truly similar pair is
        # certified through an earlier matching segment instead.
        tau_left = min(context.ordinal - 1, tau)
        tau_right = tau + 1 - context.ordinal
        # Bail out before building the part distances: empty inverted lists
        # and out-of-range ordinals must do zero DP work.
        if tau_right < 0 or not rows:
            return []
        # The parts of the probe, and of each indexed string, to the left
        # and right of the matching substring / segment.
        seg_length = context.seg_length
        left_distance = self._part_distance(probe[:context.probe_start],
                                            tau_left)
        right_distance = self._part_distance(
            probe[context.probe_start + seg_length:], tau_right)
        seg_start, seg_end = context.seg_start, context.seg_start + seg_length
        stats, texts = self.stats, store.texts
        accepted: list[tuple[StringRecord, int]] = []
        for row in rows:
            stats.num_verifications += 1
            text = texts[row]
            if left_distance(text[:seg_start]) > tau_left:
                continue
            if right_distance(text[seg_end:]) > tau_right:
                continue
            accepted.append((store.record_at(row), length_aware_edit_distance(
                text, probe, tau, stats)))
        return accepted


class SharePrefixExtensionVerifier(ExtensionVerifier):
    """Extension verification sharing DP rows across common prefixes (5.3).

    Inverted lists are sorted by the indexed string, so consecutive left
    parts (prefixes of the indexed strings) often share long prefixes; the
    per-list :class:`~repro.distance.shared_prefix.SharedPrefixVerifier`
    instances reuse their dynamic-programming rows accordingly.
    """

    method = VerificationMethod.SHARE_PREFIX

    def _part_distance(self, probe_part: str,
                       tau_part: int) -> Callable[[str], int]:
        return SharedPrefixVerifier(probe_part, tau_part, self.stats).distance


_VERIFIERS: dict[VerificationMethod, type[BaseVerifier]] = {
    verifier.method: verifier
    for verifier in (BandedVerifier, LengthAwareVerifier, ExtensionVerifier,
                     SharePrefixExtensionVerifier, MyersVerifier,
                     BatchMyersVerifier)}


def make_verifier(method: VerificationMethod | str, tau: int,
                  stats: JoinStatistics | None = None) -> BaseVerifier:
    """Instantiate the verifier for ``method`` (accepts enum values or names)."""
    if isinstance(method, str):
        try:
            method = VerificationMethod(method)
        except ValueError as exc:
            raise UnknownMethodError(
                "verification method", method,
                tuple(m.value for m in VerificationMethod)) from exc
    return _VERIFIERS[method](tau, stats)
