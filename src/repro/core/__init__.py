"""The paper's primary contribution: the Pass-Join partition-based framework.

Sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.partition` — the even-partition scheme (Section 3.1).
* :mod:`repro.core.index` — the segment inverted indices ``L_l^i``
  (Section 3.2).
* :mod:`repro.core.selection` — the four substring-selection methods
  (Section 4).
* :mod:`repro.core.verify` — the verification strategies (Section 5).
* :mod:`repro.core.join` — the :class:`PassJoin` driver gluing it all
  together (Algorithm 1).
* :mod:`repro.core.kernel` — the pluggable similarity-kernel interface:
  the Pass-Join pipeline packaged as the ``edit-distance`` kernel, plus a
  prefix-filter ``token-jaccard`` kernel behind the same serving stack.
"""

from .index import SegmentIndex
from .join import PassJoin, pass_join, pass_join_pairs
from .kernel import (SimilarityKernel, get_kernel, kernel_names,
                     resolve_kernel, token_jaccard_distance)
from .partition import partition, segment_layout
from .selection import make_selector
from .store import RecordStore

__all__ = [
    "PassJoin",
    "pass_join",
    "pass_join_pairs",
    "SegmentIndex",
    "RecordStore",
    "partition",
    "segment_layout",
    "make_selector",
    "SimilarityKernel",
    "get_kernel",
    "kernel_names",
    "resolve_kernel",
    "token_jaccard_distance",
]
