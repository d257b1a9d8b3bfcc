"""Rank-aware symmetric linear algebra for interaction covariances.

Pseudoinverses go through a symmetric eigendecomposition; the generalized
Schur complement and its block inverse keep exact structural symmetry so
downstream equality checks can be bit-for-bit.  Sigma's wings are held
only as one small block per center configuration (CenterBlocks): S+ and
rank(S) are read off the blocks and the Walsh transform, and only the
center block and the per-configuration blocks are decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

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
    with a nan or infinite entry is refused.
    """
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

    def schur(self, rank_tol: Optional[float] = None) -> Tuple[np.ndarray, int]:
        """The pseudoinverse of S in wing order, and the rank of S.

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
        # scaled by 2^-s in exact power-of-two products
        pinv_walsh = fwht((pinv + pinv.transpose(0, 2, 1)) * (0.5 / configs)).reshape(-1)
        # flat index (beta_i ^ beta_j) k^2 + alpha_i k + alpha_j, built in place
        index = np.bitwise_xor.outer(self.beta, self.beta)
        index *= k * k
        index += (self.alpha * k)[:, None]
        index += self.alpha[None, :]
        return pinv_walsh[index], int(keep.sum())


@dataclass(frozen=True)
class SigmaPartition:
    """Interaction covariance over masks ordered center, left wing, right wing:
    its n_b x n center rows [B | F] as sigma, its max|entry| as scale.

    blocks, the wing Schur complement split by center configuration, must
    describe its wings.  It is then positive semidefinite exactly when the
    center masses are >= 0, the wing rows lie in the row space of B
    (checked by sb_inverse) and every block is PSD (checked by CenterBlocks).
    A sigma with a nan or infinite entry is refused.  A read-only float64
    sigma that owns its memory (assemble_sigma's) is kept; any other is
    copied, so no caller can write the stored sigma.
    """

    sigma: np.ndarray
    labels: IndexSets
    blocks: CenterBlocks = field(repr=False, compare=False)
    scale: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.sigma, dtype=np.float64)
        n_b, n = self.n_b, self.n_b + self.n_l + self.n_r
        if arr.shape != (n_b, n):
            raise ValueError(
                f"sigma shape {arr.shape} is not the {n_b} center rows of {n} labeled masks"
            )
        _require_finite(arr)
        _require_symmetric(arr[:, :n_b], tol=1e-12)
        if arr.flags.writeable or arr.base is not None:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "sigma", arr)
        if self.blocks.beta.shape != (n - n_b,):
            raise ValueError("center blocks do not index the wings of sigma")

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
    def b_block(self) -> np.ndarray:
        return self.sigma[: self.n_b, : self.n_b]

    @property
    def f_block(self) -> np.ndarray:
        """Coupling block: center rows against both wings."""
        return self.sigma[: self.n_b, self.n_b :]


@dataclass(frozen=True)
class SchurResult:
    """Generalized Schur complement of the center block, plus row-space data.

    s_pinv and rank_s come from the center blocks (CenterBlocks.schur);
    b_pinv, rank_b, the row-space coefficients m = F' B+ and residual come
    from the center rows.  rank_tol is the cutoff they were formed with, if any.
    """

    s_pinv: np.ndarray
    m: np.ndarray
    rank_b: int
    residual: float
    rank_s: int
    b_pinv: np.ndarray
    rank_tol: Optional[float] = None


def _schur_parts(
    rows: np.ndarray, rank_tol: Optional[float], anchor: float
) -> Tuple[np.ndarray, int, np.ndarray, float]:
    """B+, rank(B), M = F' B+ and the row-space residual max |F' - M B| of
    a covariance given by its center rows [B | F].

    The default rank cutoff for B is anchored to the covariance's max|entry|.
    """
    n_b = rows.shape[0]
    b = rows[:, :n_b]
    f = rows[:, n_b:]
    b_pinv, rank_b = _pinv_eigh(b, rank_tol, anchor)
    m = f.T @ b_pinv
    gap = m @ b
    np.subtract(f.T, gap, out=gap)
    return b_pinv, rank_b, m, _max_abs(gap)


def schur_complement(
    sp: SigmaPartition, rank_tol: Optional[float] = None
) -> SchurResult:
    """S+ for S = D - F' B+ F over the wings, with the row-space coefficients M.

    residual = max |sigma[wings, center] - M @ B|, which vanishes for any
    covariance because wing rows lie in the row space of the center block.

    S+ and rank(S) come from the center blocks (CenterBlocks.schur): the
    structural rank of each block, and with rank_tol also the cutoff
    rank_tol * max|eigenvalue of S|.  No dense D - F' B+ F is formed: it
    goes through B+, so its rounding grows with the condition number of B,
    and it cancels entries at the scale of sigma, so its small eigenvalues
    carry no usable scale information.  rank_tol also thresholds B.
    """
    b_pinv, rank_b, m, residual = _schur_parts(sp.sigma, rank_tol, sp.scale)
    s_pinv, rank_s = sp.blocks.schur(rank_tol)
    return SchurResult(
        s_pinv=s_pinv,
        m=m,
        rank_b=rank_b,
        residual=residual,
        rank_s=rank_s,
        b_pinv=b_pinv,
        rank_tol=rank_tol,
    )


def sb_inverse(sp: SigmaPartition, sr: SchurResult) -> np.ndarray:
    """The n x n block generalized inverse Omega over (center, left wing,
    right wing), assembled from the Schur complement.

    The wing corner is sr.s_pinv assigned directly (bit-for-bit); the whole
    matrix is symmetric by construction, not by post-hoc symmetrization.
    """
    if sr.residual > _RESIDUAL_TOL:
        # center characters span the functions on positive-mass configurations
        cause = "the input is not an interaction covariance" if sr.rank_tol is None else (
            f"rank_tol {sr.rank_tol} gave rank(B) = {sr.rank_b} where the center "
            f"support gives {int((sp.blocks.mass > 0.0).sum()) - 1}")
        raise ValueError(f"row-space residual {sr.residual} exceeds {_RESIDUAL_TOL}; {cause}")
    n_b = sp.n_b
    n_w = sp.n_l + sp.n_r
    omega = np.zeros((n_b + n_w, n_b + n_w))
    if n_b:
        k = sr.b_pinv @ sp.f_block
        g = k @ sr.s_pinv
        corner = g @ k.T
        np.add(sr.b_pinv, _symmetrize(corner), out=omega[:n_b, :n_b])
        np.negative(g, out=omega[:n_b, n_b:])
        omega[n_b:, :n_b] = omega[:n_b, n_b:].T
    omega[n_b:, n_b:] = sr.s_pinv
    return omega
