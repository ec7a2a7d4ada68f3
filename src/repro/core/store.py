"""Columnar record storage owned by one segment index.

:class:`RecordStore` is a table of ``(id, length, text)`` rows held as
parallel columns — two ``array('q')`` columns for the integers and one list
of strings for the texts.  Inverted lists reference rows by *ordinal* (the
row number) instead of holding Python object references, so the postings of
a :class:`~repro.core.index.SegmentIndex` become compact ``array('q')``
buffers:

* **Memory** — a posting costs 8 bytes in a flat buffer, and a record costs
  four machine words plus its text, instead of one heap ``StringRecord``
  object per record plus list slots per posting.
* **Fork friendliness** — worker processes spawned with ``fork`` (the
  parallel join pool, the process shard backend) inherit flat arrays
  copy-on-write.  Iterating them never touches per-object reference
  counts, so probing in a worker does not fault in the pages holding
  millions of record objects.
* **One representation** — the join drivers, the searchers, the dynamic
  serving index, and the shard workers all store records the same way; a
  :class:`StringRecord` is materialised lazily, and only for candidates
  that survive the id-level filters.

Rows are owned, one per indexed record: :meth:`RecordStore.add` always
takes a fresh row (or one off the free list) and :meth:`RecordStore.release`
frees it, so long-lived mutable indices do not grow without bound under
insert/delete churn.  The store keeps no ``id → row`` map; whoever needs to
find a record's row again (the serving backend) keeps that map itself.

A fourth column holds each row's :func:`histogram_signature`, which the
default verifier rejects candidates on before any DP runs.  It is filled on
a row's *first use* (:meth:`RecordStore.rows_near`), not at ``add``:
~2 µs per string would land in every index build, and most rows of a
served collection are never a candidate.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

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
    """Columnar table of ``(id, length, text)`` rows.

    Examples
    --------
    >>> store = RecordStore()
    >>> row = store.add(StringRecord(id=7, text="vldb"))
    >>> store.id_at(row), store.text_at(row), store.length_at(row)
    (7, 'vldb', 4)
    >>> store.record_at(row)
    StringRecord(id=7, text='vldb')
    >>> store.release(row)
    >>> store.add(StringRecord(id=8, text="pvldb")) == row  # recycled
    True
    """

    __slots__ = ("_ids", "_lengths", "_texts", "_signatures", "_free",
                 "_text_chars")

    def __init__(self) -> None:
        self._ids = array("q")
        # A free row's length is -1, which no stored text has.
        self._lengths = array("q")
        self._texts: list[str] = []
        self._signatures = array("Q")
        self._free: list[int] = []
        self._text_chars = 0

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def add(self, record: StringRecord) -> int:
        """Store ``record`` in a fresh or recycled row; return the row ordinal."""
        if self._free:
            row = self._free.pop()
            self._ids[row] = record.id
            self._lengths[row] = record.length
            self._texts[row] = record.text
        else:
            row = len(self._texts)
            self._ids.append(record.id)
            self._lengths.append(record.length)
            self._texts.append(record.text)
            self._signatures.append(_UNFILLED)
        self._text_chars += len(record.text)
        return row

    def release(self, row: int) -> None:
        """Clear ``row`` and recycle it through the free list.

        The caller guarantees no posting references it any more.  Releasing
        a row that is already free raises ``ValueError``.
        """
        if self._lengths[row] < 0:
            raise ValueError(f"row {row} is already free")
        self._text_chars -= len(self._texts[row])
        self._texts[row] = ""
        self._signatures[row] = _UNFILLED
        self._ids[row] = -1
        self._lengths[row] = -1
        self._free.append(row)

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

        Treat as read-only: mutating it bypasses the free list.
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
        return self.live_count

    @property
    def live_count(self) -> int:
        """Number of rows currently holding a record."""
        return len(self._texts) - len(self._free)

    @property
    def row_count(self) -> int:
        """Number of allocated rows (live + recyclable)."""
        return len(self._texts)

    def approximate_bytes(self) -> int:
        """Data-structure bytes of the columns: four machine words per
        allocated row (id, length, text pointer, signature) plus the live
        text payload at one byte per character.

        Python container overhead is deliberately excluded, mirroring
        :meth:`repro.core.index.SegmentIndex.approximate_bytes`.
        """
        return 32 * len(self._texts) + self._text_chars

    def deep_bytes(self) -> int:
        """Actual ``sys.getsizeof``-based footprint of the columns."""
        total = (sys.getsizeof(self._ids) + sys.getsizeof(self._lengths)
                 + sys.getsizeof(self._signatures)
                 + sys.getsizeof(self._texts) + sys.getsizeof(self._free))
        for text in self._texts:
            total += sys.getsizeof(text)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecordStore(live={self.live_count}, rows={len(self._texts)}, "
                f"free={len(self._free)})")

