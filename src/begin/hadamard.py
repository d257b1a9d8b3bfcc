"""Fast Walsh-Hadamard transform in Sylvester order and the prism operator.

The transform matrix is the p-fold Kronecker power of [[1,1],[1,-1]] with the
first factor owning the most significant index bit, so entry (i,j) equals
(-1)^popcount(i AND j).  The prism of a symbol vector y is the group-circulant
matrix entry(i,j) = y[i XOR j]; applied to a moment vector it produces the
second-moment matrix of the full interaction vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bitgroup import _admit

__all__ = [
    "fwht",
    "dense_hadamard",
    "PrismMatrix",
    "prism",
    "prism_recursion_check",
]


def _as_symbol(y: Sequence[float], stacked: bool = False) -> tuple[np.ndarray, int]:
    """y as float64 with a first axis of length 2^p, and p; stacked admits
    further axes after the first."""
    arr = np.asarray(y, dtype=np.float64)
    n = arr.shape[0] if arr.ndim else 0
    if (arr.ndim != 1 and not stacked) or n == 0 or n & (n - 1):
        raise ValueError(f"expected a vector of length 2^p, got shape {arr.shape}")
    return arr, n.bit_length() - 1


def fwht(y: Sequence[float]) -> np.ndarray:
    """Walsh-Hadamard transform, butterfly recursion, O(p 2^p) arithmetic.

    An array of more than one dimension is transformed along its first
    axis, which must have length 2^p: each trailing index is a separate
    vector.
    """
    arr, _ = _as_symbol(y, stacked=True)
    out = arr.copy()
    n = out.shape[0]
    h = 1
    while h < n:
        blocks = out.reshape(n // (2 * h), 2 * h, *out.shape[1:])
        top = blocks[:, :h].copy()
        bot = blocks[:, h:]
        blocks[:, :h] += bot
        np.subtract(top, bot, out=bot)
        h *= 2
    return out


@dataclass(frozen=True)
class PrismMatrix:
    """Group-circulant matrix entry(i,j) = symbol[i XOR j], held lazily."""

    symbol: np.ndarray
    p: int

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Materialize only the requested index block via the circulant rule."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        if r.size and (r.min() < 0 or r.max() >= self.symbol.size):
            raise ValueError("row index out of range")
        if c.size and (c.min() < 0 or c.max() >= self.symbol.size):
            raise ValueError("column index out of range")
        return self.symbol[np.bitwise_xor.outer(r, c)]

    def dense(self) -> np.ndarray:
        n = self.symbol.size
        _admit(f"the dense prism of order {self.p}", n, n)
        out = np.empty((n, n))
        out[0] = self.symbol
        # filled in place by doubling, with no index as large as the result:
        # entry (i + h, j) is symbol[i ^ j ^ h], row i with the adjacent
        # column blocks of width h swapped
        h = 1
        while h < n:
            top = out[:h].reshape(h, -1, 2, h)
            bot = out[h : 2 * h].reshape(h, -1, 2, h)
            bot[:, :, 0], bot[:, :, 1] = top[:, :, 1], top[:, :, 0]
            h *= 2
        return out

    def eigenvalues(self) -> np.ndarray:
        """Exactly fwht(symbol): the 2^p scaling of the conjugation cancels."""
        return fwht(self.symbol)


def prism(y: Sequence[float]) -> PrismMatrix:
    """Prism of y: (1/2^p) H diag(H y) H, stored by its circulant symbol."""
    arr, p = _as_symbol(y)
    arr = arr.copy()
    arr.flags.writeable = False
    return PrismMatrix(arr, p)


def dense_hadamard(p: int) -> np.ndarray:
    """Dense transform matrix, entry (i,j) = (-1)^popcount(i AND j)."""
    if p < 0:
        raise ValueError(f"transform order must be >= 0, got {p}")
    _admit(f"the dense transform of order {p}", 1 << p, 1 << p)
    out = np.empty((1 << p, 1 << p))
    out[0, 0] = 1.0
    # filled in place by doubling, [[H, H], [H, -H]], with no index; each
    # block is copied from one in other rows, whose memory cannot overlap
    # it, so numpy makes no temporary
    h = 1
    while h < 1 << p:
        out[h : 2 * h, :h] = out[:h, :h]
        out[:h, h : 2 * h] = out[h : 2 * h, :h]
        np.negative(out[:h, :h], out=out[h : 2 * h, h : 2 * h])
        h *= 2
    return out


def prism_recursion_check(
    y1: Sequence[float], y2: Sequence[float], tol: float = 1e-12
) -> bool:
    """True iff prism(concat(y1,y2)) matches the 2x2-block doubling rule.

    The doubled matrix is evaluated through the explicit conjugation formula
    H diag(H y) H / 2^p, the blocks through the circulant rule, so the check
    ties the two computation routes together rather than comparing a formula
    with itself.
    """
    a1, d = _as_symbol(y1)
    a2, _ = _as_symbol(y2)
    if a1.size != a2.size:
        raise ValueError(f"length mismatch: {a1.size} != {a2.size}")
    y = np.concatenate([a1, a2])
    h = dense_hadamard(d + 1)
    big = (h * fwht(y)) @ h / y.size
    small1 = prism(a1).dense()
    small2 = prism(a2).dense()
    n = a1.size
    err = max(
        np.abs(big[:n, :n] - small1).max(),
        np.abs(big[n:, n:] - small1).max(),
        np.abs(big[:n, n:] - small2).max(),
        np.abs(big[n:, :n] - small2).max(),
    )
    return bool(err <= tol)
