"""Approximate string search on top of the Pass-Join segment index.

The paper's framework is symmetric: the same segment index that drives the
join also answers *search* queries ("find every indexed string within edit
distance τ of this query").  This package packages that as a reusable,
build-once / query-many index:

* :class:`PassJoinSearcher` — index a collection once, then run any number
  of :meth:`~PassJoinSearcher.search` / ``search_many`` /
  ``search_top_k`` queries, each with its own threshold up to the index's
  maximum.
* :class:`SearchMatch` — one answer: the matched record and its distance.

This is the "approximate string searching" problem the related-work section
distinguishes from joins (Section 7); supporting it from the same index is a
natural extension that downstream users of a similarity-join library almost
always need (e.g. online entity lookup after an offline deduplication).
"""

from .searcher import PassJoinSearcher, SearchMatch

__all__ = ["PassJoinSearcher", "SearchMatch"]
