"""Reading and writing string collections as plain text files.

The file format is the one used by every string-join benchmark suite: one
string per line, UTF-8 encoded.  Empty lines are skipped on load (an empty
string can never satisfy the paper's ``|s| ≥ τ + 1`` partitioning
assumption and is never a useful join participant).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..exceptions import DatasetError


def load_strings(path: str | Path, limit: int | None = None) -> list[str]:
    """Load strings from ``path``, one per line.

    Parameters
    ----------
    path:
        File to read.
    limit:
        Optional maximum number of strings to return (the file is read
        lazily, so huge files with a small limit stay cheap); ``0`` returns
        no strings and a negative limit raises :class:`DatasetError`.
    """
    if limit is not None and limit < 0:
        raise DatasetError(f"limit must be non-negative, got {limit}")
    file_path = Path(path)
    if not file_path.exists():
        raise DatasetError(f"dataset file does not exist: {file_path}")
    strings: list[str] = []
    if limit == 0:
        return strings
    with file_path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            text = line.rstrip("\n")
            if not text:
                continue
            strings.append(text)
            if limit is not None and len(strings) >= limit:
                break
    return strings


def save_strings(path: str | Path, strings: Iterable[str]) -> int:
    """Write strings to ``path``, one per line; return the number written.

    Strings containing newline characters are rejected because they would
    not round-trip through :func:`load_strings`.
    """
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with file_path.open("w", encoding="utf-8") as handle:
        for text in strings:
            if "\n" in text:
                raise DatasetError(
                    "strings containing newlines cannot be saved to a line-oriented file")
            handle.write(text)
            handle.write("\n")
            count += 1
    return count
