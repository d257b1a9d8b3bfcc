"""Bulk text input and output: one C-level pass per file or chunk of rows.

Formatting each value with its own f-string costs about a microsecond of
interpreter time per value on top of the float conversion itself; a
template repeated over a chunk of rows and applied to one flat tuple does
the conversions in one C call.  The bytes are those of the per-value
f-strings: "%d", "%.17g" and "%r" give exactly what the format specs "d"
and ".17g" and repr give for Python ints and floats.

A float column is formatted once per distinct value, not once per row
(distinct_column): graph weights, transforms and probabilities repeat a few
thousand values over up to millions of rows, and one argsort of the column
costs far less than a microsecond per row.  Values are told apart by their
int64 bit patterns, not by float equality, so -0.0 and 0.0 keep their own
texts ("-0" and "0") and a NaN, which equals nothing, is formatted once per
pattern rather than once per row.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["CHUNK_ROWS", "format_rows", "distinct_column", "read_lines", "field_counts"]

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
        parts = [_chunk(col, start, start + CHUNK_ROWS) for col in columns]
        k = len(parts[0])
        flat = [None] * (k * fields)
        for i, part in enumerate(parts):
            flat[i::fields] = part
        yield (template * k) % tuple(flat)


def _chunk(column, start: int, stop: Optional[int]) -> list:
    if isinstance(column, tuple):
        table, index = column
        return table[index[start:stop]].tolist()
    return column[start:stop].tolist()


def distinct_column(spec: str, column: np.ndarray,
                    *derived: Callable) -> Tuple[np.ndarray, np.ndarray]:
    """A (table, index) column for format_rows giving spec % row for each
    value of a float64 column, with spec applied once per distinct value.

    The row of a value v is (v, *(f(v) for f in derived)): each derived
    function maps the array of distinct values to one more column, an array
    or a (table, index) pair, so a field computed from the value (a DOT pen
    width) is also computed and formatted once per distinct value.  Sorting
    the bit patterns takes no np.unique, whose first call imports numpy.ma.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.empty(ranked.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    index = np.empty(ranked.size, dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    values = ranked[first].view(np.float64)
    fields = [values, *(f(values) for f in derived)]
    rows = zip(*(_chunk(col, 0, None) for col in fields))
    return np.array(list(map(spec.__mod__, rows)), dtype=object), index


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
