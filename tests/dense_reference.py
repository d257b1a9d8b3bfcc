"""The dense S+ routes schur_complement had before every partition got
center blocks, kept verbatim as references: the eigen helpers it used,
additivity (rank(S) = rank(sigma) - rank(B), with sigma's spectrum from one
eigvalsh) by default, and an eigenvalue threshold on S itself under an
explicit rank_tol.
"""

from dataclasses import dataclass

import numpy as np


def reference_pinv_eigh(arr, rank_tol, anchor):
    n = arr.shape[0]
    if n == 0:
        return arr.copy().reshape(0, 0), 0
    vals, vecs = np.linalg.eigh((arr + arr.T) / 2.0)
    scale = float(np.abs(vals).max())
    if rank_tol is None:
        cutoff = n * np.finfo(np.float64).eps * max(scale, anchor)
    else:
        cutoff = rank_tol * scale
    keep = np.abs(vals) > cutoff
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    pinv = (vecs * inv_vals) @ vecs.T
    return (pinv + pinv.T) / 2.0, int(keep.sum())


def reference_pinv_top(arr, rank):
    n = arr.shape[0]
    if n == 0:
        return arr.copy().reshape(0, 0)
    vals, vecs = np.linalg.eigh((arr + arr.T) / 2.0)
    inv_vals = np.zeros_like(vals)
    if rank > 0:
        top = np.argsort(vals)[-rank:]
        inv_vals[top] = 1.0 / vals[top]
    pinv = (vecs * inv_vals) @ vecs.T
    return (pinv + pinv.T) / 2.0


def reference_rank_eigh(vals, rank_tol):
    n = vals.shape[0]
    if n == 0:
        return 0
    scale = float(np.abs(vals).max())
    if rank_tol is None:
        rank_tol = n * np.finfo(np.float64).eps
    return int((np.abs(vals) > rank_tol * scale).sum())


@dataclass
class DenseSchur:
    s: np.ndarray
    s_pinv: np.ndarray
    b_pinv: np.ndarray
    rank_b: int
    rank_s: int


def reference_schur(sp, rank_tol):
    sigma = sp.sigma
    b, f, d = sp.b_block, sp.f_block, sp.wing_block
    anchor = float(np.abs(sigma).max()) if sigma.size else 0.0
    b_pinv, rank_b = reference_pinv_eigh(b, rank_tol, anchor)
    m = f.T @ b_pinv
    s = d - m @ f if sp.n_b else d.copy()
    s = (s + s.T) / 2.0
    if rank_tol is None:
        vals = np.linalg.eigvalsh((sigma + sigma.T) / 2.0) if sigma.size else np.zeros(0)
        rank_s = max(reference_rank_eigh(vals, None) - rank_b, 0)
        s_pinv = reference_pinv_top(s, rank_s)
    else:
        s_pinv, rank_s = reference_pinv_eigh(s, rank_tol, anchor)
    return DenseSchur(s=s, s_pinv=s_pinv, b_pinv=b_pinv, rank_b=rank_b, rank_s=rank_s)
