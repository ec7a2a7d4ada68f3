"""Filtering primitives of the q-gram baseline joins.

Pass-Join itself needs none of these (its length filter is the per-length
index layout).  The q-gram baselines of the evaluation use two:

* :mod:`repro.filters.count_filter` — the q-gram count bound
  (``minimum_shared_grams`` / ``shared_gram_count``), checked by ED-Join.
* :mod:`repro.filters.content_filter` — the content-based mismatch filter
  (character frequency L1 bound) used by ED-Join.
"""

from .content_filter import content_filter_passes, frequency_distance_lower_bound
from .count_filter import minimum_shared_grams

__all__ = [
    "minimum_shared_grams",
    "content_filter_passes",
    "frequency_distance_lower_bound",
]
