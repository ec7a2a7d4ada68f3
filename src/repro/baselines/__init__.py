"""Baseline similarity-join algorithms used in the paper's evaluation.

The evaluation of Section 6 compares Pass-Join against ED-Join and
Trie-Join (Figure 15, Table 3) and mentions Part-Enum as a method those
two already dominate.  They are reimplemented here from their original
papers so that every comparison runs in the same runtime:

* :class:`repro.baselines.naive.NaiveJoin` — brute force with length
  filtering; the ground truth in tests.
* :class:`repro.baselines.ed_join.EdJoin` — location-based and
  content-based mismatch filtering (Xiao et al., PVLDB 2008).
* :class:`repro.baselines.trie_join.TrieJoin` — trie-based join with
  prefix pruning (Wang et al., PVLDB 2010).
* :class:`repro.baselines.part_enum.PartEnumJoin` — partition/enumeration
  signatures over q-gram sets (Arasu et al., VLDB 2006).

Every baseline exposes the same ``self_join(strings) -> JoinResult``
interface as :class:`repro.PassJoin`, which is what the Figure 15
benchmark drives; :class:`~repro.baselines.naive.NaiveJoin` also has the
R–S ``join(left, right)``.
"""

from .ed_join import EdJoin, ed_join
from .naive import NaiveJoin, naive_join
from .part_enum import PartEnumJoin, part_enum_join
from .qgram import gram_document_frequencies, order_grams, positional_qgrams, qgrams
from .trie_join import Trie, TrieJoin, trie_join

__all__ = [
    "NaiveJoin",
    "naive_join",
    "EdJoin",
    "ed_join",
    "TrieJoin",
    "Trie",
    "trie_join",
    "PartEnumJoin",
    "part_enum_join",
    "qgrams",
    "positional_qgrams",
    "order_grams",
    "gram_document_frequencies",
]
