"""Dense routes the library replaced, kept verbatim as references.

The S+ routes schur_complement had before every partition got center
blocks: the eigen helpers it used, additivity (rank(S) = rank(sigma) -
rank(B), with sigma's spectrum from one eigvalsh) by default, and an
eigenvalue threshold on S itself under an explicit rank_tol.

The joint tables of the quantize sources before per-axis refinement: the
grid's dense depth maps contracted by one four-way einsum, and the smooth
source's loop over every (cell, atom) pair.
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


def reference_depth_map(d, atom_depth):
    """Mass-split matrix from atoms to depth-d cells.

    Entry (cell, atom) = conditional probability of the cell given the atom,
    with the coordinate uniform inside its atom; every entry is a power of
    two or zero.
    """
    n_cell, n_atom = 1 << d, 1 << atom_depth
    f = np.zeros((n_cell, n_atom))
    if d >= atom_depth:
        split = 1 << (d - atom_depth)
        f[np.arange(n_cell), np.arange(n_cell) >> (d - atom_depth)] = 1.0 / split
    else:
        merge = 1 << (atom_depth - d)
        f[np.arange(n_atom) >> (atom_depth - d), np.arange(n_atom)] = 1.0
    return f


def reference_grid_joint_table(source, d):
    table = source._atom_table()
    fu = reference_depth_map(d, source.u_depth)
    fv = reference_depth_map(d, source.v_depth)
    fw = reference_depth_map(d, source.w_depth)
    return np.einsum("ia,jb,kc,abc->ijk", fu, fv, fw, table)


def reference_smooth_joint_table(source, d):
    self = source
    nv_cell = 1 << d
    a0 = np.zeros(nv_cell)
    au = np.zeros(nv_cell)
    aw = np.zeros(nv_cell)
    ax = np.zeros(nv_cell)
    atom_width = 2.0 ** (1 - self.v_depth)
    rho = self.v_probs / atom_width
    cell_edges = -1.0 + 2.0 ** (1 - d) * np.arange(nv_cell + 1)
    atom_edges = -1.0 + atom_width * np.arange((1 << self.v_depth) + 1)
    for j in range(nv_cell):
        for a in range(1 << self.v_depth):
            lo = max(cell_edges[j], atom_edges[a])
            hi = min(cell_edges[j + 1], atom_edges[a + 1])
            if hi <= lo:
                continue
            j0 = hi - lo
            j1 = (hi * hi - lo * lo) / 2.0
            j2 = (hi**3 - lo**3) / 3.0
            c0u, c1u = self.u_mean[a]
            c0w, c1w = self.w_mean[a]
            a0[j] += rho[a] * j0
            au[j] += rho[a] * (c0u * j0 + c1u * j1)
            aw[j] += rho[a] * (c0w * j0 + c1w * j1)
            ax[j] += rho[a] * (
                c0u * c0w * j0 + (c0u * c1w + c1u * c0w) * j1 + c1u * c1w * j2
            )
    ubar = -1.0 + 2.0 ** (-d) + 2.0 ** (1 - d) * np.arange(1 << d)
    wbar = ubar
    table = (
        a0[None, :, None]
        + ubar[:, None, None] * au[None, :, None]
        + wbar[None, None, :] * aw[None, :, None]
        + ubar[:, None, None] * wbar[None, None, :] * ax[None, :, None]
    )
    return table / float(1 << (2 * d))
