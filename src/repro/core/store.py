"""Columnar record storage shared by every segment index.

:class:`RecordStore` is an interned table of ``(id, length, text)`` rows
held as parallel columns — two ``array('q')`` columns for the integers and
one list of strings for the texts.  Inverted lists reference rows by
*ordinal* (the row number) instead of holding Python object references, so
the postings of a :class:`~repro.core.index.SegmentIndex` become compact
``array('q')`` buffers:

* **Memory** — a posting costs 8 bytes in a flat buffer, and a record costs
  four machine words plus its text, instead of one heap ``StringRecord``
  object per record plus list slots per posting.
* **Fork friendliness** — worker processes spawned with ``fork`` (the
  parallel join pool, the process shard backend) inherit flat arrays
  copy-on-write.  Iterating them never touches per-object reference
  counts, so probing in a worker no longer faults in the pages holding
  millions of record objects (a ROADMAP open item).
* **One representation** — the join drivers, the searchers, the dynamic
  serving index, and the shard workers all store records the same way; a
  :class:`StringRecord` is materialised lazily, and only for candidates
  that survive the id-level filters.

Rows are reference counted: :meth:`RecordStore.intern` of an already-stored
``(id, text)`` pair bumps the count and returns the existing row, and
:meth:`RecordStore.release` frees the row once the count reaches zero,
recycling it through a free list so long-lived mutable indices do not grow
without bound under insert/delete churn.

A fourth column holds each row's :func:`histogram_signature`, which the
default verifier rejects candidates on before any DP runs.  It is filled on
a row's *first use* (:meth:`RecordStore.rows_near`), not at ``intern``:
~2 µs per string would land in every index build, and most rows of a
served collection are never a candidate.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, Sequence

from ..types import StringRecord


def histogram_signature(text: str) -> int:
    """Capped character histogram of ``text``, packed as ``once | twice << 32``.

    Characters fall into 32 buckets by ``ord(c) & 31``; bit ``b`` of
    ``once`` is set iff bucket ``b`` holds a character of ``text``, bit
    ``b`` of ``twice`` iff it holds at least two.  ``(a & ~b).bit_count()``
    is then ``a``'s bucket-count surplus over ``b``, a lower bound on the
    edit distance: one edit lowers at most one bucket count by one and
    raises at most one by one, and the cap at two and bucket collisions are
    both 1-Lipschitz.  (ED-Join's content filter,
    :mod:`repro.filters.content_filter`, packed for two popcounts.)

    >>> hex(histogram_signature("abca"))  # a, b, c once; a twice
    '0x20000000e'
    """
    once = twice = 0
    for code in map(ord, text):
        bit = 1 << (code & 31)
        twice |= once & bit
        once |= bit
    return once | twice << 32


#: "Not computed yet" in the signature column: a ``twice`` bit without its
#: ``once`` bit, which :func:`histogram_signature` never produces.
_UNFILLED = 1 << 32


class RecordStore:
    """Interned columnar table of ``(id, length, text)`` rows.

    Examples
    --------
    >>> store = RecordStore()
    >>> row = store.intern(StringRecord(id=7, text="vldb"))
    >>> store.id_at(row), store.text_at(row), store.length_at(row)
    (7, 'vldb', 4)
    >>> store.record_at(row)
    StringRecord(id=7, text='vldb')
    """

    __slots__ = ("_ids", "_lengths", "_texts", "_signatures", "_refs",
                 "_rows", "_free", "_live", "_text_chars")

    def __init__(self) -> None:
        self._ids = array("q")
        self._lengths = array("q")
        self._texts: list[str] = []
        self._signatures = array("Q")
        self._refs = array("q")
        # (id, text) -> row; the interning map that keeps one row per record.
        self._rows: dict[tuple[int, str], int] = {}
        self._free: list[int] = []
        self._live = 0
        self._text_chars = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, record: StringRecord) -> int:
        """Store ``record`` (or find its existing row); return the row ordinal.

        Every ``intern`` must eventually be balanced by one
        :meth:`release`; an already-stored ``(id, text)`` pair only bumps
        the row's reference count.
        """
        key = (record.id, record.text)
        row = self._rows.get(key)
        if row is not None:
            self._refs[row] += 1
            return row
        if self._free:
            row = self._free.pop()
            self._ids[row] = record.id
            self._lengths[row] = record.length
            self._texts[row] = record.text
            self._refs[row] = 1
        else:
            row = len(self._texts)
            self._ids.append(record.id)
            self._lengths.append(record.length)
            self._texts.append(record.text)
            self._signatures.append(_UNFILLED)
            self._refs.append(1)
        self._rows[key] = row
        self._live += 1
        self._text_chars += len(record.text)
        return row

    def release(self, row: int) -> int:
        """Drop one reference to ``row``; return the remaining count.

        At zero the row is cleared and recycled through the free list —
        the caller guarantees no posting references it any more.
        """
        remaining = self._refs[row] - 1
        if remaining < 0:
            raise ValueError(f"row {row} released more often than interned")
        self._refs[row] = remaining
        if remaining == 0:
            text = self._texts[row]
            del self._rows[(self._ids[row], text)]
            self._text_chars -= len(text)
            self._texts[row] = ""
            self._signatures[row] = _UNFILLED
            self._ids[row] = -1
            self._lengths[row] = 0
            self._free.append(row)
            self._live -= 1
        return remaining

    def find(self, record_id: int, text: str) -> int | None:
        """Row ordinal of a stored ``(id, text)`` pair, or ``None``."""
        return self._rows.get((record_id, text))

    def is_live(self, row: int) -> bool:
        """True while ``row`` holds a record (not released/recycled)."""
        return self._refs[row] > 0

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def id_at(self, row: int) -> int:
        return self._ids[row]

    def text_at(self, row: int) -> str:
        return self._texts[row]

    def length_at(self, row: int) -> int:
        return self._lengths[row]

    def record_at(self, row: int) -> StringRecord:
        """Materialise the row as a :class:`StringRecord` (lazy, per call)."""
        return StringRecord(id=self._ids[row], text=self._texts[row])

    def sort_key(self, row: int) -> tuple[str, int]:
        """The ``(text, id)`` ordering key of a row (sorted-posting invariant)."""
        return (self._texts[row], self._ids[row])

    def rows_near(self, rows: Sequence[int], signature: int,
                  tau: int) -> list[int]:
        """The ``rows`` whose :func:`histogram_signature` is within ``tau``
        bucket counts of ``signature`` in both directions — a superset of
        the rows within edit distance ``tau`` of the text ``signature`` is of.

        A row's signature is computed the first time it is compared and
        kept until the row is released.  (Threads sharing a store may both
        fill a row; they store the same value.)
        """
        column, texts, absent = self._signatures, self._texts, ~signature
        near: list[int] = []
        for row in rows:
            candidate = column[row]
            if candidate == _UNFILLED:
                candidate = column[row] = histogram_signature(texts[row])
            if ((candidate & absent).bit_count() <= tau
                    and (signature & ~candidate).bit_count() <= tau):
                near.append(row)
        return near

    @property
    def ids(self) -> "array[int]":
        """The id column itself, for hot loops that index it directly.

        Treat as read-only: mutating it bypasses interning and refcounts.
        """
        return self._ids

    @property
    def lengths(self) -> "array[int]":
        """The length column itself (read-only; see :attr:`ids`)."""
        return self._lengths

    @property
    def texts(self) -> list[str]:
        """The text column itself (read-only; see :attr:`ids`)."""
        return self._texts

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    @property
    def live_count(self) -> int:
        """Number of rows currently holding a record."""
        return self._live

    @property
    def row_count(self) -> int:
        """Number of allocated rows (live + recyclable)."""
        return len(self._texts)

    def approximate_bytes(self) -> int:
        """Data-structure bytes of the columns: four machine words per
        allocated row (id, length, text pointer, signature) plus the live
        text payload.

        Python container overhead is deliberately excluded, mirroring
        :meth:`repro.core.index.SegmentIndex.approximate_bytes`.
        """
        return 32 * len(self._texts) + self._text_chars

    def deep_bytes(self) -> int:
        """Actual ``sys.getsizeof``-based footprint of the columns."""
        total = (sys.getsizeof(self._ids) + sys.getsizeof(self._lengths)
                 + sys.getsizeof(self._signatures)
                 + sys.getsizeof(self._refs) + sys.getsizeof(self._texts)
                 + sys.getsizeof(self._rows) + sys.getsizeof(self._free))
        for text in self._texts:
            total += sys.getsizeof(text)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecordStore(live={self._live}, rows={len(self._texts)}, "
                f"free={len(self._free)})")


class PostingList(Sequence[StringRecord]):
    """A lazy record view over one inverted list of store row ordinals.

    Iteration and indexing materialise :class:`StringRecord` objects on
    demand, so existing callers (and tests) keep seeing records; the probe
    hot path instead reads :attr:`ordinals` and the :attr:`store` columns
    directly and only materialises the candidates that survive the
    id-level filters.
    """

    __slots__ = ("store", "ordinals")

    def __init__(self, store: RecordStore, ordinals: array) -> None:
        self.store = store
        self.ordinals = ordinals

    def __len__(self) -> int:
        return len(self.ordinals)

    def __getitem__(self, position):  # type: ignore[override]
        if isinstance(position, slice):
            return [self.store.record_at(row)
                    for row in self.ordinals[position]]
        return self.store.record_at(self.ordinals[position])

    def __iter__(self) -> Iterator[StringRecord]:
        record_at = self.store.record_at
        for row in self.ordinals:
            yield record_at(row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, PostingList)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PostingList({list(self)!r})"
