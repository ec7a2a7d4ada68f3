"""The paper's primary contribution: the Pass-Join partition-based framework.

Sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.partition` — the segment layout of a string length
  (Section 3.1).
* :mod:`repro.core.index` — the segment inverted indices ``L_l^i``
  (Section 3.2).
* :mod:`repro.core.selection` — the four substring-selection methods
  (Section 4).
* :mod:`repro.core.verify` — the verification strategies (Section 5).
* :mod:`repro.core.join` — the :class:`PassJoin` driver gluing it all
  together (Algorithm 1).

The searchers (:class:`repro.search.searcher.Searcher` and its two
subclasses) hold a segment index, a short pool and a window cache of
their own and probe them through the same engine.
"""

from .index import SegmentIndex
from .join import PassJoin, pass_join, pass_join_pairs
from .partition import segment_layout
from .selection import make_selector
from .store import RecordStore

__all__ = [
    "PassJoin",
    "pass_join",
    "pass_join_pairs",
    "SegmentIndex",
    "RecordStore",
    "segment_layout",
    "make_selector",
]
