"""Rank-aware symmetric linear algebra for interaction covariances.

Pseudoinverses go through a symmetric eigendecomposition; the generalized
Schur complement and its block inverse keep exact structural symmetry so
downstream equality checks can be bit-for-bit.  Sigma's wings are held
only as one small block per center configuration (CenterBlocks): S+ and
rank(S) are read off the blocks and the Walsh transform, and only the
center block and the per-configuration blocks are decomposed.  The Schur
complement (SchurResult) also holds the block inverse Omega by these
blocks, and forms it as an n x n array only on request; B+ and the
row-space residual are formed only where Omega is, or where a rank_tol is
given or they are read.  Sigma's center rows (SigmaPartition) may be
formed on their first read too, and only B+, M, the residual and Omega
read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .bitgroup import IndexSets
from .hadamard import fwht

__all__ = [
    "pinv_sym",
    "CenterBlocks",
    "SigmaPartition",
    "SchurResult",
    "schur_complement",
    "sb_inverse",
]

_SYM_TOL = 1e-10
_PSD_TOL = -1e-10
_RESIDUAL_TOL = 1e-8
# rows of S+ per gather: each chunk's int64 index stays within 2 MiB, as
# assemble_sigma admits n_w < 4096
_GATHER_ROWS = 64


def _require_tolerance(name: str, value: float) -> None:
    """Refuse a negative or non-finite tolerance: -1 would make every pair an
    edge, and NaN or infinity none."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _require_rank_tol(rank_tol: Optional[float]) -> None:
    """Refuse a rank_tol that is given and is no tolerance: NaN would keep no
    eigenvalue, and -1 every one, round-off included."""
    if rank_tol is not None:
        _require_tolerance("rank_tol", rank_tol)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr itself when it is read-only and owns its memory, else a read-only
    copy, so that no caller can write the array kept."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite a square float64 array with (a + a.T) / 2 and return it."""
    return np.divide(a + a.T, 2.0, out=a)


def _max_abs(a: np.ndarray) -> float:
    """max |a| without an |a| temporary; 0.0 for an empty array.

    Equal to float(np.abs(a).max()) for every input: a nan propagates
    through a.max(), and adding 0.0 turns a -0.0 maximum into abs's 0.0.
    """
    if not a.size:
        return 0.0
    return max(float(a.max()), -float(a.min())) + 0.0


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix has a nan or infinite entry")


def _require_symmetric(a: np.ndarray, tol: float = _SYM_TOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
    if np.abs(a - a.T).max(initial=0.0) > tol:
        raise ValueError("matrix is not symmetric within tolerance")


def _pinv_eigh(
    arr: np.ndarray, rank_tol: Optional[float] = None, anchor: float = 0.0
) -> Tuple[np.ndarray, int]:
    """Pseudoinverse through one eigendecomposition, and how many eigenvalues
    it inverted.

    The cutoff is rank_tol * max|eigenvalue|, or by default dim * binary64
    epsilon times the larger of max|eigenvalue| and anchor; anchor raises
    the floor for matrices whose entries were formed by cancellation at a
    larger scale than their own spectrum.
    """
    n = arr.shape[0]
    if n == 0:
        return arr.copy().reshape(0, 0), 0
    vals, vecs = np.linalg.eigh(_symmetrize(arr.copy()))
    scale = float(np.abs(vals).max())
    if rank_tol is None:
        cutoff = n * np.finfo(np.float64).eps * max(scale, anchor)
    else:
        cutoff = rank_tol * scale
    keep = np.abs(vals) > cutoff
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    pinv = (vecs * inv_vals) @ vecs.T
    return _symmetrize(pinv), int(keep.sum())


def pinv_sym(
    a: np.ndarray, rank_tol: Optional[float] = None
) -> Tuple[np.ndarray, int]:
    """Moore-Penrose inverse of a symmetric matrix, with its numerical rank.

    Eigenvalues of magnitude <= rank_tol * max|eigenvalue| count as zero;
    rank_tol defaults to dim * binary64 epsilon.  The result is exactly
    symmetric (symmetrized term by term, which is bitwise safe).  A matrix
    with a nan or infinite entry is refused, as is a negative or non-finite
    rank_tol.
    """
    _require_rank_tol(rank_tol)
    arr = np.asarray(a, dtype=np.float64)
    _require_symmetric(arr)
    return _pinv_eigh(arr, rank_tol)


@dataclass(frozen=True, eq=False)
class CenterBlocks:
    """The wing Schur complement split by center configuration.

    With 2^s center configurations b and k complement characters alpha,
    every wing mask is alpha XOR beta with beta in the center span, and
    S[(beta, alpha), (beta', alpha')] = 2^-s fwht_b(stack)[beta XOR beta'][alpha, alpha'],
    where stack[b] = 2^s p_b Cov(complement characters | b).  S is an
    orthogonal conjugate of the block diagonal of the stack, so its
    spectrum is the union of the block spectra and its pseudoinverse has
    the same form with each block inverted.  This holds for overlapping
    wings too: a mask in both wings has one (beta, alpha) per wing, its
    character counted once among the left complement's and once among the
    right's.

    beta[i] and alpha[i] give wing position i's center member (member_bits
    order) and complement character; rank[b] is the rank of stack[b],
    counted from the support rather than from eigenvalues.  The stack must
    be exactly symmetric, so that S is too; its eigendecomposition (values
    ascending per block, vectors, both read-only) is run once, here, and
    checked for positivity.
    """

    stack: np.ndarray
    mass: np.ndarray
    rank: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    values: np.ndarray = field(init=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        configs, k, k2 = self.stack.shape
        if k != k2 or self.mass.shape != (configs,) or self.rank.shape != (configs,):
            raise ValueError("center blocks need a (2^s, k, k) stack and 2^s masses and ranks")
        if float(self.mass.min()) < 0.0:
            raise ValueError(f"center configuration mass {float(self.mass.min())} < 0")
        if not np.array_equal(self.stack, self.stack.transpose(0, 2, 1)):
            raise ValueError("center configuration blocks are not exactly symmetric")
        vals, vecs = np.linalg.eigh(self.stack)
        if vals.size and float(vals.min()) < _PSD_TOL:
            raise ValueError(
                f"center configuration block has eigenvalue {float(vals.min())}, not PSD"
            )
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    def pinv_table(self, rank_tol: Optional[float] = None) -> Tuple[np.ndarray, int]:
        """S+ as a flat read-only table that gather reads in wing order, and
        the rank of S.

        S is 2^-s fwht_b(stack) read at (beta_i ^ beta_j, alpha_i, alpha_j).
        For S+ the top rank[b] eigenvalues of each block are inverted and
        transformed back along the configurations the same way.  With
        rank_tol, only those of them above rank_tol * max|block eigenvalue|
        are kept: the spectrum of S is the union of the block spectra, so
        this is the cutoff rank_tol * max|eigenvalue of S|.
        """
        vals, vecs = self.values, self.vectors
        configs, k = vals.shape
        # eigh returns each block's eigenvalues in ascending order
        keep = np.arange(k) >= k - self.rank[:, None]
        if rank_tol is not None and vals.size:
            keep &= np.abs(vals) > rank_tol * float(np.abs(vals).max())
        inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
        pinv = (vecs * inv_vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        table = np.zeros(configs * self.k_pad * self.k_pad)
        # scaled by 2^-s in exact power-of-two products
        self.table_blocks(table)[:, :k, :k] = fwht(
            (pinv + pinv.transpose(0, 2, 1)) * (0.5 / configs))
        table.flags.writeable = False
        return table, int(keep.sum())

    @property
    def k_pad(self) -> int:
        """k padded to a power of two: the flat index (beta_i ^ beta_j) k_pad^2
        + alpha_i k_pad + alpha_j is u_i ^ v_j, its bit fields apart."""
        return 1 << (self.values.shape[1] - 1).bit_length()

    def table_blocks(self, table: np.ndarray) -> np.ndarray:
        """A pinv_table table as its 2^s blocks of k_pad x k_pad, a view."""
        return table.reshape(-1, self.k_pad, self.k_pad)

    def gather(self, table: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The n_w x n_w matrix in wing order that a pinv_table table holds,
        written into out when given."""
        k_pad = self.k_pad
        high = self.beta.astype(np.int64) * (k_pad * k_pad)
        u, v = high + self.alpha * k_pad, high + self.alpha
        if out is None:
            out = np.empty((u.size, u.size))
        # gathered a chunk of rows at a time into one contiguous buffer: no
        # n_w x n_w index is formed, and no chunk of a strided out (Omega's
        # corner) is copied in and back by np.take
        buf = np.empty((min(_GATHER_ROWS, u.size), u.size))
        for start in range(0, u.size, _GATHER_ROWS):
            rows = slice(start, start + _GATHER_ROWS)
            chunk = buf[: u[rows].size]
            # every index lies in the table, so "clip" only skips the
            # buffered bounds check of the default mode
            np.take(table, np.bitwise_xor.outer(u[rows], v), out=chunk, mode="clip")
            out[rows] = chunk
        return out


class SigmaPartition:
    """Interaction covariance over masks ordered center, left wing, right wing:
    its n_b x n center rows [B | F] as sigma, its max|entry| as scale.

    blocks, the wing Schur complement split by center configuration, must
    describe its wings.  It is then positive semidefinite exactly when the
    center masses are >= 0, the wing rows lie in the row space of B
    (checked where B+ is formed: SchurResult.require_row_space) and every
    block is PSD (checked by CenterBlocks).
    SigmaPartition(sigma, labels, blocks, scale) checks the rows it is given
    at once; deferred takes a function that forms them and the scale, runs
    it when sigma, scale or f_block is first read, checks its rows the same
    way, keeps both and drops the function.  A sigma with a nan or infinite
    entry is refused.  A read-only float64 sigma that owns its memory
    (assemble_sigma's) is kept; any other is copied, so no caller can write
    the stored sigma.  It is read-only, and compares and hashes by identity.
    """

    def __init__(
        self, sigma: np.ndarray, labels: IndexSets, blocks: CenterBlocks, scale: float
    ) -> None:
        self._hold(labels, blocks, lambda: (sigma, scale))
        self._center  # the given rows are checked now

    @classmethod
    def deferred(
        cls, labels: IndexSets, blocks: CenterBlocks, form: Callable[[], Tuple[np.ndarray, float]]
    ) -> "SigmaPartition":
        """A SigmaPartition whose center rows and scale form() gives on
        their first read."""
        out = cls.__new__(cls)
        out._hold(labels, blocks, form)
        return out

    def _hold(self, labels: IndexSets, blocks: CenterBlocks, form: Callable) -> None:
        if blocks.beta.shape != (labels.l_bits.size + labels.r_bits.size,):
            raise ValueError("center blocks do not index the wings of sigma")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_form", form)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SigmaPartition is read-only")

    @cached_property
    def _center(self) -> Tuple[np.ndarray, float]:
        sigma, scale = self._form()
        arr = np.asarray(sigma, dtype=np.float64)
        n_b, n = self.n_b, self.n_b + self.n_l + self.n_r
        if arr.shape != (n_b, n):
            raise ValueError(
                f"sigma shape {arr.shape} is not the {n_b} center rows of {n} labeled masks"
            )
        _require_finite(arr)
        _require_symmetric(arr[:, :n_b], tol=1e-12)
        # a held graph keeps the SigmaPartition, not what formed its rows
        object.__setattr__(self, "_form", None)
        return _frozen(arr), scale

    @property
    def sigma(self) -> np.ndarray:
        return self._center[0]

    @property
    def scale(self) -> float:
        return self._center[1]

    @property
    def n_b(self) -> int:
        return self.labels.b_bits.size

    @property
    def n_l(self) -> int:
        return self.labels.l_bits.size

    @property
    def n_r(self) -> int:
        return self.labels.r_bits.size

    @property
    def f_block(self) -> np.ndarray:
        """Coupling block: center rows against both wings."""
        return self.sigma[: self.n_b, self.n_b :]


@dataclass(frozen=True, eq=False)
class SchurResult:
    """Generalized Schur complement of the center block, plus row-space data,
    and the block inverse Omega it determines, held by these parts rather
    than as an n x n array.

    S+ is not held: s_table is its flat read-only table from the center
    blocks (CenterBlocks.pinv_table), kept as is when read-only and owning
    its memory, else copied; s_pinv gathers it in wing order when read.
    rank_s comes from the blocks too.  b_pinv (read-only), rank_b, the
    row-space coefficients m = F' B+ and residual come from sigma's center
    rows: all four are formed together, by one _schur_parts call, when the
    first of them is read, and then kept.  rank_tol is the cutoff they are
    formed with, if any.  dense() forms Omega, and offblock() reads
    Omega[L, R] off the table without forming it or B+.  It compares and
    hashes by identity.
    """

    sigma: SigmaPartition = field(repr=False)
    s_table: np.ndarray
    rank_s: int
    rank_tol: Optional[float] = None

    def __post_init__(self) -> None:
        table = _frozen(np.asarray(self.s_table, dtype=np.float64))
        blocks = self.sigma.blocks
        if table.shape != (blocks.values.shape[0] * blocks.k_pad**2,):
            raise ValueError("the S+ table does not match the center blocks")
        object.__setattr__(self, "s_table", table)

    @cached_property
    def _center_parts(self) -> Tuple[np.ndarray, int, np.ndarray, float]:
        rows = self.sigma.sigma
        b_pinv, rank_b, m = _schur_parts(rows, self.rank_tol, self.sigma.scale)
        b_pinv.flags.writeable = False
        return b_pinv, rank_b, m, _row_space_residual(rows, m)

    @property
    def b_pinv(self) -> np.ndarray:
        return self._center_parts[0]

    @property
    def rank_b(self) -> int:
        return self._center_parts[1]

    @property
    def m(self) -> np.ndarray:
        return self._center_parts[2]

    @property
    def residual(self) -> float:
        return self._center_parts[3]

    @property
    def blocks(self) -> CenterBlocks:
        return self.sigma.blocks

    @property
    def s_pinv(self) -> np.ndarray:
        """S+ in wing order, bit for bit Omega's wing corner."""
        return self.blocks.gather(self.s_table)

    def require_row_space(self) -> None:
        """Refuse a row-space residual past tolerance: the input is no
        interaction covariance, or rank_tol cut the center block's range."""
        if self.residual > _RESIDUAL_TOL:
            # center characters span the functions on positive-mass configurations
            cause = "the input is not an interaction covariance" if self.rank_tol is None else (
                f"rank_tol {self.rank_tol} gave rank(B) = {self.rank_b} where the center "
                f"support gives {int((self.blocks.mass > 0.0).sum()) - 1}")
            raise ValueError(f"row-space residual {self.residual} exceeds {_RESIDUAL_TOL}; {cause}")

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.sigma.n_b + self.sigma.n_l + self.sigma.n_r
        return n, n

    def dense(self) -> np.ndarray:
        """Omega as a read-only n x n array, formed anew on each call.

        A row-space residual past tolerance is refused first
        (require_row_space), before anything is allocated.  S+ is gathered
        once, straight into the wing corner (bit for bit s_pinv), and the
        center rows are formed from it; the whole matrix is symmetric by
        construction, not by post-hoc symmetrization.
        """
        self.require_row_space()
        sp = self.sigma
        n_b = sp.n_b
        n = self.shape[0]
        # every entry is written below
        omega = np.empty((n, n))
        s_pinv = sp.blocks.gather(self.s_table, out=omega[n_b:, n_b:])
        if n_b:
            k = self.b_pinv @ sp.f_block
            g = k @ s_pinv
            corner = g @ k.T
            np.add(self.b_pinv, _symmetrize(corner), out=omega[:n_b, :n_b])
            np.negative(g, out=omega[:n_b, n_b:])
            omega[n_b:, :n_b] = omega[:n_b, n_b:].T
        omega.flags.writeable = False
        return omega

    def offblock(self) -> np.ndarray:
        """The entries of Omega[L, R], as the (2^s, k_L, k_R) left-right
        corner of S+'s table, a read-only view.

        Omega[L, R] holds the table at (beta_i ^ beta_j, alpha_i, alpha_j),
        and every such triple occurs in it, so the corner's max, min and
        any(|entry| > tol) are those of Omega[L, R], bit for bit.
        """
        blocks = self.sigma.blocks
        configs, k = blocks.values.shape
        k_l = self.sigma.n_l // configs
        return blocks.table_blocks(self.s_table)[:, :k_l, k_l:k]


def _schur_parts(
    rows: np.ndarray, rank_tol: Optional[float], anchor: float
) -> Tuple[np.ndarray, int, np.ndarray]:
    """B+, rank(B) and M = F' B+ of a covariance given by its center rows [B | F].

    The default rank cutoff for B is anchored to the covariance's max|entry|.
    """
    n_b = rows.shape[0]
    b_pinv, rank_b = _pinv_eigh(rows[:, :n_b], rank_tol, anchor)
    return b_pinv, rank_b, rows[:, n_b:].T @ b_pinv


def _row_space_residual(rows: np.ndarray, m: np.ndarray) -> float:
    """max |F' - M B| over the center rows [B | F]."""
    n_b = rows.shape[0]
    gap = m @ rows[:, :n_b]
    np.subtract(rows[:, n_b:].T, gap, out=gap)
    return _max_abs(gap)


def schur_complement(
    sp: SigmaPartition, rank_tol: Optional[float] = None
) -> SchurResult:
    """S = D - F' B+ F over the wings, as the table of S+, with the row-space
    coefficients M.

    residual = max |sigma[wings, center] - M @ B|, which vanishes for any
    covariance because wing rows lie in the row space of the center block.

    S+ and rank(S) come from the center blocks (CenterBlocks.pinv_table):
    the structural rank of each block, and with rank_tol also the cutoff
    rank_tol * max|eigenvalue of S|.  No n_w x n_w array is formed, and no
    dense D - F' B+ F: it goes through B+, so its rounding grows with the
    condition number of B, and it cancels entries at the scale of sigma, so
    its small eigenvalues carry no usable scale information.  B+, rank(B)
    (an eigenvalue count of B, thresholded by rank_tol when given), M and
    the residual are not formed here: the SchurResult forms them from the
    center rows when one of them is first read.  A negative or non-finite
    rank_tol is refused.
    """
    _require_rank_tol(rank_tol)
    s_table, rank_s = sp.blocks.pinv_table(rank_tol)
    return SchurResult(sigma=sp, s_table=s_table, rank_s=rank_s, rank_tol=rank_tol)


def sb_inverse(sp: SigmaPartition, sr: SchurResult) -> SchurResult:
    """The block generalized inverse Omega over (center, left wing, right
    wing): sr itself, which holds Omega by its blocks (SchurResult.dense,
    SchurResult.offblock), once it is checked.  No n x n or n_w x n_w array
    is formed here.

    sp must be the SigmaPartition sr was formed from.  With a rank_tol, a
    row-space residual past tolerance is refused here, naming rank_tol, the
    rank of B it gave and the rank the center support gives; without one,
    the residual is neither formed nor checked here, and a broken row space
    ("the input is not an interaction covariance") is refused by dense(),
    before Omega is formed.
    """
    if sr.sigma is not sp:
        raise ValueError("the Schur complement was formed from another sigma")
    if sr.rank_tol is not None:
        sr.require_row_space()
    return sr
