"""Bulk text input and output: one C-level pass per file or chunk of rows.

Formatting each value with its own f-string costs about a microsecond of
interpreter time per value on top of the float conversion itself; a
template repeated over a chunk of rows and applied to one flat tuple does
the conversions in one C call.  The bytes are those of the per-value
f-strings: "%d", "%.17g" and "%r" give exactly what the format specs "d"
and ".17g" and repr give for Python ints and floats.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["CHUNK_ROWS", "format_rows", "read_lines", "field_counts"]

# rows per % format: no template or tuple ever spans the whole output, which
# for a dense graph export runs to millions of edges, and each chunk's
# temporaries (template copy, value list and tuple, text) stay near 300 KB
CHUNK_ROWS = 1 << 12


def format_rows(template: str, *columns) -> Iterator[str]:
    """Yield the text of template % row over the rows, one chunk at a time.

    Row i takes one value from each column in order, as a Python int, float
    or str (tolist), never a numpy scalar.  A column is an array, or a pair
    (table, index) that gives table[index[i]] while gathering only one
    chunk of the table at a time.
    """
    fields = len(columns)
    first = columns[0]
    rows = len(first[1] if isinstance(first, tuple) else first)
    for start in range(0, rows, CHUNK_ROWS):
        parts = [_chunk(col, start) for col in columns]
        k = len(parts[0])
        flat = [None] * (k * fields)
        for i, part in enumerate(parts):
            flat[i::fields] = part
        yield (template * k) % tuple(flat)


def _chunk(column, start: int) -> list:
    if isinstance(column, tuple):
        table, index = column
        return table[index[start:start + CHUNK_ROWS]].tolist()
    return column[start:start + CHUNK_ROWS].tolist()


def read_lines(path: str) -> Tuple[List[str], List[str]]:
    """The "#" comment lines and the data lines of a text file, in order;
    a reader converts all of its data tokens with one np.fromiter(map(...)).

    Lines end where open()'s universal newlines end them, never at "\\x0c",
    "\\x85" or the other breaks of str.splitlines(); each is stripped, and
    blank ones are dropped.
    """
    with open(path) as fh:
        lines = list(filter(None, map(str.strip, fh.read().split("\n"))))
    return [s for s in lines if s[0] == "#"], [s for s in lines if s[0] != "#"]


def field_counts(lines: List[str]) -> np.ndarray:
    """The number of comma-separated fields on each line."""
    return np.fromiter(map(methodcaller("count", ","), lines), np.int64, len(lines)) + 1
