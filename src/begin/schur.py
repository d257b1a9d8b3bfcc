"""Rank-aware symmetric linear algebra for interaction covariances.

Pseudoinverses go through a symmetric eigendecomposition; the generalized
Schur complement and its block inverse keep exact structural symmetry so
downstream equality checks can be bit-for-bit.  When the wing Schur
complement comes split into one small block per center configuration
(CenterBlocks), its pseudoinverse and rank are read off the blocks and the
Walsh transform, and only the blocks are decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .bitgroup import IndexSets
from .hadamard import fwht

__all__ = [
    "pinv_sym",
    "CenterBlocks",
    "SigmaPartition",
    "SchurResult",
    "OmegaMatrix",
    "schur_complement",
    "sb_inverse",
]

_SYM_TOL = 1e-10
_PSD_TOL = -1e-10
_RESIDUAL_TOL = 1e-8


def _require_symmetric(a: np.ndarray, tol: float = _SYM_TOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and float(np.abs(a - a.T).max()) > tol:
        raise ValueError("matrix is not symmetric within tolerance")


def _kept(vals: np.ndarray, rank_tol: Optional[float], anchor: float) -> np.ndarray:
    """Which eigenvalues of a symmetric matrix count as nonzero.

    The cutoff is rank_tol * max|eigenvalue|, or by default dim * binary64
    epsilon times the larger of max|eigenvalue| and anchor; anchor raises
    the floor for matrices whose entries were formed by cancellation at a
    larger scale than their own spectrum.
    """
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    if rank_tol is None:
        cutoff = vals.size * np.finfo(np.float64).eps * max(scale, anchor)
    else:
        cutoff = rank_tol * scale
    return np.abs(vals) > cutoff


def _pinv_eigh(
    arr: np.ndarray,
    rank_tol: Optional[float] = None,
    anchor: float = 0.0,
    rank: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Pseudoinverse through one eigendecomposition, and how many eigenvalues
    it inverted: those above the _kept cutoff, or with rank given (known
    from structure rather than from a noise threshold) the top rank of them.
    """
    n = arr.shape[0]
    if n == 0:
        return arr.copy().reshape(0, 0), 0
    vals, vecs = np.linalg.eigh((arr + arr.T) / 2.0)
    if rank is None:
        keep = _kept(vals, rank_tol, anchor)
    else:
        # eigh returns the eigenvalues in ascending order
        keep = np.arange(n) >= n - rank
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    pinv = (vecs * inv_vals) @ vecs.T
    return (pinv + pinv.T) / 2.0, int(keep.sum())


def pinv_sym(
    a: np.ndarray, rank_tol: Optional[float] = None
) -> Tuple[np.ndarray, int]:
    """Moore-Penrose inverse of a symmetric matrix, with its numerical rank.

    Eigenvalues of magnitude <= rank_tol * max|eigenvalue| count as zero;
    rank_tol defaults to dim * binary64 epsilon.  The result is exactly
    symmetric (symmetrized term by term, which is bitwise safe).
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
    the same form with each block inverted.

    beta[i] and alpha[i] give wing position i's center member (member_bits
    order) and complement character; rank[b] is the rank of stack[b],
    counted from the support rather than from eigenvalues.  The stack's
    eigendecomposition (values ascending per block, vectors) is run once,
    here, and checked for positivity.
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
        vals, vecs = np.linalg.eigh(self.stack)
        if vals.size and float(vals.min()) < _PSD_TOL:
            raise ValueError(
                f"center configuration block has eigenvalue {float(vals.min())}, not PSD"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    def s_pinv(self) -> np.ndarray:
        """Pseudoinverse of S in wing order: the top rank[b] eigenvalues of
        each block inverted, transformed back along the configurations."""
        vals, vecs = self.values, self.vectors
        configs, k = vals.shape
        # eigh returns each block's eigenvalues in ascending order
        keep = np.arange(k) >= k - self.rank[:, None]
        inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
        pinv = (vecs * inv_vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        # symmetrized and scaled by 2^-s in one exact power-of-two product
        walsh = fwht((pinv + pinv.transpose(0, 2, 1)) * (0.5 / configs)).reshape(-1)
        # flat index (beta_i ^ beta_j) k^2 + alpha_i k + alpha_j, built in place
        index = np.bitwise_xor.outer(self.beta, self.beta)
        index *= k * k
        index += (self.alpha * k)[:, None]
        index += self.alpha[None, :]
        return walsh[index]


@dataclass(frozen=True)
class SigmaPartition:
    """Interaction covariance over masks ordered center, left wing, right wing.

    Without blocks the constructor checks that sigma is positive
    semidefinite with one eigvalsh of sigma and keeps that spectrum as
    eigenvalues.  With blocks (the wing Schur complement split by center
    configuration, which must describe this sigma) the check is made on the
    blocks instead: sigma is PSD exactly when the center masses are >= 0,
    the wing rows lie in the row space of the center block (checked by
    sb_inverse) and every block is PSD.  eigenvalues is then computed on
    first read.
    """

    sigma: np.ndarray
    labels: IndexSets
    blocks: Optional[CenterBlocks] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.sigma, dtype=np.float64)
        expected = len(self.labels.b_set) + len(self.labels.l_set) + len(
            self.labels.r_set
        )
        if arr.shape != (expected, expected):
            raise ValueError(
                f"sigma shape {arr.shape} does not match {expected} labeled masks"
            )
        _require_symmetric(arr, tol=1e-12)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "sigma", arr)
        if self.blocks is not None:
            if self.blocks.beta.shape != (expected - len(self.labels.b_set),):
                raise ValueError("center blocks do not index the wings of sigma")
            return
        vals = self.eigenvalues
        if vals.size and float(vals.min()) < _PSD_TOL:
            raise ValueError(f"sigma has eigenvalue {float(vals.min())}, not PSD")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of sigma, read-only."""
        arr = self.sigma
        vals = np.linalg.eigvalsh((arr + arr.T) / 2.0) if arr.size else np.zeros(0)
        vals.flags.writeable = False
        return vals

    @property
    def n_b(self) -> int:
        return len(self.labels.b_set)

    @property
    def n_l(self) -> int:
        return len(self.labels.l_set)

    @property
    def n_r(self) -> int:
        return len(self.labels.r_set)

    @property
    def b_block(self) -> np.ndarray:
        return self.sigma[: self.n_b, : self.n_b]

    @property
    def f_block(self) -> np.ndarray:
        """Coupling block: center rows against both wings."""
        return self.sigma[: self.n_b, self.n_b :]

    @property
    def wing_block(self) -> np.ndarray:
        return self.sigma[self.n_b :, self.n_b :]


@dataclass(frozen=True)
class SchurResult:
    """Generalized Schur complement of the center block, plus row-space data.

    path is "prism" when s_pinv and rank_s came from center blocks, else
    "dense"; rank_source says how (rank_b, rank_s) were found: "threshold"
    (eigenvalue cutoff), "additivity" (rank of sigma minus rank_b) or
    "structure" (support counts of the blocks).
    """

    s: np.ndarray
    s_pinv: np.ndarray
    m: np.ndarray
    rank_b: int
    residual: float
    rank_s: int
    b_pinv: np.ndarray
    path: str = field(default="dense", compare=False)
    rank_source: Tuple[str, str] = field(default=("threshold", "additivity"), compare=False)


@dataclass(frozen=True)
class OmegaMatrix:
    """Block generalized inverse over (center, left wing, right wing)."""

    omega: np.ndarray
    f: np.ndarray
    n_b: int
    sigma: np.ndarray = field(repr=False, compare=False)

    @property
    def wing_block(self) -> np.ndarray:
        return self.omega[self.n_b :, self.n_b :]

    @cached_property
    def sigma_residual(self) -> float:
        """max |sigma omega sigma - sigma|, computed on first read."""
        sigma = self.sigma
        if not sigma.size:
            return 0.0
        return float(np.abs(sigma @ self.omega @ sigma - sigma).max())


def schur_complement(
    sp: SigmaPartition, rank_tol: Optional[float] = None
) -> SchurResult:
    """S = D - F' B+ F over the wings, with the row-space coefficients M.

    residual = max |sigma[wings, center] - M @ B|, which vanishes for any
    covariance because wing rows lie in the row space of the center block.

    The default rank cutoff for the center block is anchored to max|sigma|.
    The rank of S is not thresholded at all: with center blocks it is their
    structural rank and S+ is assembled from the blocks' pseudoinverses;
    otherwise it comes from the additivity identity rank(S) = rank(sigma) -
    rank(B), which holds for any positive semidefinite partitioned matrix.
    The subtraction forming S cancels entries at the scale of sigma, so S's
    small eigenvalues carry no usable scale information and a threshold
    there is unreliable.  An explicit rank_tol thresholds both B and S.
    """
    b = sp.b_block
    f = sp.f_block
    d = sp.wing_block
    anchor = float(np.abs(sp.sigma).max()) if sp.sigma.size else 0.0
    b_pinv, rank_b = _pinv_eigh(b, rank_tol, anchor)
    m = f.T @ b_pinv
    s = d - m @ f if sp.n_b else d.copy()
    s = (s + s.T) / 2.0
    residual = float(np.abs(f.T - m @ b).max()) if f.size else 0.0
    path = "dense"
    if rank_tol is not None:
        s_pinv, rank_s = _pinv_eigh(s, rank_tol, anchor)
        source = "threshold"
    elif sp.blocks is not None:
        s_pinv, rank_s = sp.blocks.s_pinv(), int(sp.blocks.rank.sum())
        path, source = "prism", "structure"
    else:
        rank_sigma = int(_kept(sp.eigenvalues, None, 0.0).sum())
        rank_s = max(rank_sigma - rank_b, 0)
        s_pinv, _ = _pinv_eigh(s, rank=rank_s)
        source = "additivity"
    return SchurResult(
        s=s,
        s_pinv=s_pinv,
        m=m,
        rank_b=rank_b,
        residual=residual,
        rank_s=rank_s,
        b_pinv=b_pinv,
        path=path,
        rank_source=("threshold", source),
    )


def sb_inverse(sp: SigmaPartition, sr: SchurResult) -> OmegaMatrix:
    """Block generalized inverse assembled from the Schur complement.

    The wing corner is sr.s_pinv assigned directly (bit-for-bit); the whole
    matrix is symmetric by construction, not by post-hoc symmetrization.
    """
    if sr.residual > _RESIDUAL_TOL:
        raise ValueError(
            f"row-space residual {sr.residual} exceeds {_RESIDUAL_TOL}; "
            "the input is not an interaction covariance"
        )
    n_b = sp.n_b
    n_w = sp.n_l + sp.n_r
    omega = np.zeros((n_b + n_w, n_b + n_w))
    if n_b:
        k = sr.b_pinv @ sp.f_block
        g = k @ sr.s_pinv
        corner = g @ k.T
        omega[:n_b, :n_b] = sr.b_pinv + (corner + corner.T) / 2.0
        omega[:n_b, n_b:] = -g
        omega[n_b:, :n_b] = -g.T
    omega[n_b:, n_b:] = sr.s_pinv
    return OmegaMatrix(omega=omega, f=sp.f_block.copy(), n_b=n_b, sigma=sp.sigma)
