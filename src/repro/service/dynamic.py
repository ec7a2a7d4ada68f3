"""A mutable build-once index: similarity search over a living collection.

:class:`DynamicSearcher` is the online counterpart of
:class:`~repro.search.searcher.PassJoinSearcher`: the same segment index
and filter-and-verify pipeline, but the collection may change between
queries.

* :meth:`~DynamicSearcher.insert` generates the new record's signatures and
  appends them to the inverted lists.  Results never depend on posting
  order: candidates are deduplicated by id and answers sorted by
  ``(distance, id)``.
* The :class:`~repro.core.kernel.EditDistanceBackend` is the one record
  table: it holds every indexed or pooled record and answers
  :attr:`~DynamicSearcher.records`, :meth:`~DynamicSearcher.get_many` and
  the duplicate-id check by id.  A record is live when the backend
  holds it.
* :meth:`~DynamicSearcher.delete` removes the record at once: its
  ``max_tau + 1`` postings leave the inverted lists and its store row is
  released (a pooled short record just leaves the pool), so the index
  always holds exactly what a fresh build over the live records would.

Every mutation bumps :attr:`~DynamicSearcher.epoch`, which the service
reports with each answer.  The query cache does not read it: the service
drops the cached answers a write can change
(:meth:`~repro.service.server.SimilarityService.insert` /
:meth:`~repro.service.server.SimilarityService.delete`).

Exactness: search and top-k results are identical — element for element —
to re-building a fresh ``PassJoinSearcher`` over the surviving records,
because both run the same backend over the same logical collection and the
result ordering is canonical; a top-k answer is the threshold search at
its limit cut to ``k``.  The property-based test suite asserts both
against a brute-force oracle on random interleavings.
"""

from __future__ import annotations

from typing import Iterable

from ..search.searcher import KernelSearcher
from ..types import StringRecord, as_records, check_id_range


def coerce_insert_record(text: str | StringRecord, id: int | None,
                         next_id: int) -> StringRecord:
    """Resolve an ``insert(text, id=...)`` call to the record to store.

    Shared by :class:`DynamicSearcher` and the sharded router so the two
    can never diverge on id semantics: a ready-made record keeps its id
    unless ``id=`` overrides it; plain text takes ``id=`` or the caller's
    next auto id (one above the largest ever seen).  A non-integer id
    (``bool`` included) raises ``TypeError``, and an id outside the record
    store's signed 64-bit id column (an auto id included) ``ValueError``,
    before the caller mutates anything.
    """
    if isinstance(text, StringRecord):
        record = text if id is None else StringRecord(id=id, text=text.text)
    else:
        record = StringRecord(id=next_id if id is None else id, text=str(text))
    if isinstance(record.id, bool) or not isinstance(record.id, int):
        raise TypeError(f"record id must be an integer, got {record.id!r}")
    check_id_range(record.id)
    return record


class DynamicSearcher(KernelSearcher):
    """Approximate similarity search over a mutable collection.

    This class owns mutation; the constructor and every query method
    (``search`` / ``search_many`` / ``search_top_k`` /
    ``search_top_k_many`` / ``explain``) are the shared
    :class:`~repro.search.searcher.KernelSearcher` surface.

    Parameters
    ----------
    strings:
        Initial collection (plain strings or
        :class:`~repro.types.StringRecord` objects with caller-chosen ids;
        ids must be unique — a duplicate raises ``ValueError``, as it
        would leave one record's postings behind as a searchable ghost).
    max_tau:
        Largest edit-distance threshold any query may use.

    Examples
    --------
    >>> searcher = DynamicSearcher(["vldb", "sigmod"], max_tau=1)
    >>> searcher.insert("pvldb")
    2
    >>> [m.text for m in searcher.search("vldb", tau=1)]
    ['vldb', 'pvldb']
    >>> searcher.delete(0)
    True
    >>> [m.text for m in searcher.search("vldb", tau=1)]
    ['pvldb']
    """

    def __init__(self, strings: Iterable[str | StringRecord] = (), *,
                 max_tau: int) -> None:
        records = as_records(strings)
        super().__init__(records, max_tau)
        self._epoch = 0
        # One above the largest id ever seen, never below 0.  A generator:
        # a list of every id would add to the server's peak memory.
        self._next_id = max(
            0, max((record.id for record in records), default=-1) + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._backend)

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped exactly once by every insert and every
        delete that changes the collection."""
        return self._epoch

    @property
    def tombstone_count(self) -> int:
        """Always 0: a delete leaves nothing behind.  Kept only because
        ``benchmarks/e2e/tracing.py`` reads it."""
        return 0

    @property
    def records(self) -> list[StringRecord]:
        """The live records, ordered by id (a snapshot, safe to mutate)."""
        held = self._backend.record
        return [held(record_id)
                for record_id in sorted(self._backend.record_ids())]

    @property
    def _short_pool(self) -> dict[int, StringRecord]:
        """Records too short to partition (never indexed)."""
        return self._backend.short_pool

    def index_memory(self) -> dict[str, int]:
        """Memory figures of the signature index (the ``stats`` op payload).

        ``records`` counts store rows, one per live indexed record;
        ``approximate_bytes`` covers the inverted lists plus the record
        columns (see the backend's ``memory_report``).
        """
        return self._backend.memory_report()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, text: str | StringRecord, *, id: int | None = None) -> int:
        """Add one string; return its id.

        Ids are auto-assigned (one above the largest ever seen) unless the
        caller provides one via ``id=`` or a ready-made
        :class:`~repro.types.StringRecord`.  Inserting a live id raises
        ``ValueError``, a non-integer id ``TypeError``; re-using a deleted
        id is allowed.
        """
        record = coerce_insert_record(text, id, self._next_id)
        if record.id in self._backend:
            raise ValueError(f"id {record.id} is already in the collection")
        self.statistics.num_indexed_segments += self._backend.add(record)
        self._next_id = max(self._next_id, record.id + 1)
        self.statistics.num_strings += 1
        self._bump()
        return record.id

    def get_many(self, record_ids: Iterable[int]) -> list[StringRecord]:
        """The live records among ``record_ids``, in the order given.

        Ids that are not live (never inserted, or deleted) are silently
        skipped — the shard-migration extract step uses this to
        tolerate records deleted between planning and copying.
        """
        held = self._backend.record
        return [held(record_id) for record_id in record_ids
                if record_id in self._backend]

    def insert_many(self, records: Iterable[str | StringRecord]) -> list[int]:
        """Insert several records (:meth:`insert` semantics); return the ids."""
        return [self.insert(record) for record in records]

    def delete_many(self, record_ids: Iterable[int]) -> int:
        """Delete several records by id; return how many were live."""
        return sum(self.delete(record_id) for record_id in record_ids)

    def delete(self, record_id: int) -> bool:
        """Remove one record by id; return False when it is not live.

        The record's postings leave the index and its store row is
        released before this returns.
        """
        record = self._backend.record(record_id)
        if record is None:
            return False
        if not self._backend.unpool(record_id):
            self._backend.remove_indexed(record)
        self.statistics.num_strings -= 1
        self._bump()
        return True

    def _bump(self) -> None:
        self._epoch += 1
        self.statistics.index_entries = self._backend.entry_count()
        self.statistics.index_bytes = self._backend.approximate_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynamicSearcher(live={len(self)}, epoch={self._epoch}, "
                f"max_tau={self.max_tau})")
