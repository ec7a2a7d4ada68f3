"""Edit-distance kernels used by Pass-Join and by every baseline.

The package offers several kernels with different cost/feature trade-offs:

* :func:`repro.distance.levenshtein.edit_distance` — exact, unbounded,
  classic dynamic programming.
* :func:`repro.distance.banded.banded_edit_distance` — threshold-bounded DP
  computing ``2τ+1`` diagonals per row (the paper's baseline verifier).
* :func:`repro.distance.banded.length_aware_edit_distance` — the paper's
  length-aware verifier computing ``τ+1`` cells per row with the
  expected-edit-distance early termination (Section 5.1).
* :class:`repro.distance.shared_prefix.SharedPrefixVerifier` — incremental
  verification of one probe against many sorted strings, reusing DP rows
  across common prefixes (Section 5.3).
* :func:`repro.distance.myers.myers_edit_distance` — bit-parallel kernel
  (an extension beyond the paper, used by the verifier ablation).
* :class:`repro.distance.myers_batch.BatchMyersKernel` — the batched
  bit-parallel kernel: one probe's character masks built once and swept
  across a whole candidate list with Hyyrö's bounded cutoff.

Bounded kernels follow the paper's convention for ``VerifyStringPair``:
they return ``min(ed(a, b), τ + 1)``, i.e. any value larger than ``τ``
means "not similar" without telling you by how much.
"""

from .banded import banded_edit_distance, length_aware_edit_distance
from .levenshtein import edit_distance
from .myers import myers_edit_distance, myers_edit_distance_within
from .myers_batch import BatchMyersKernel
from .shared_prefix import SharedPrefixVerifier

__all__ = [
    "edit_distance",
    "banded_edit_distance",
    "length_aware_edit_distance",
    "myers_edit_distance",
    "myers_edit_distance_within",
    "BatchMyersKernel",
    "SharedPrefixVerifier",
]
