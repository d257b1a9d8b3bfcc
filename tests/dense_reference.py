"""Dense routes the library replaced, kept verbatim as references.

The library holds sigma by its center rows; dense_sigma gives the whole
n x n interaction covariance the helpers below take.

The S and S+ routes schur_complement had before it read both off the
center blocks: S = D - F' B+ F formed densely, the eigen helpers it used,
additivity (rank(S) = rank(sigma) - rank(B), with sigma's spectrum from one
eigvalsh) by default, and an eigenvalue threshold on S itself under an
explicit rank_tol.  dense_schur_gap_bound says how far the dense S may lie
from the block one.  block_s is the S that CenterBlocks.schur gathered off
the blocks before test_ci read max|S[L, R]| off their Walsh-transformed
corners, and sigma_residual the sigma omega sigma check that sb_inverse's
former OmegaMatrix wrapper made.

The joint tables of the quantize sources before per-axis refinement: the
grid's dense depth maps contracted by one four-way einsum, and the smooth
source's loop over every (cell, atom) pair.

belief_coefficients as it was before it read the coefficients off one
Walsh transform of the center conditional means: a dense Gram system over
the center members, solved by pinv_sym, with fitted values checked per
cell through _ConfigTable.

The index sets as build_index_sets made them before it sorted each wing's
XOR table: Python set differences of span members, wrapped in Masks, with
the overlap as their set intersection and the wing split worked out again
by MaskSpan.split (Partition.wing_split), which had no other reader.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from begin.bitgroup import Mask, Partition, build_index_sets, span_generate
from begin.distribution import Pmf, interaction_cov, moments_from_pmf
from begin.engine import BeliefCoefficients
from begin.hadamard import fwht
from begin.schur import pinv_sym


def dense_sigma(pmf, part):
    """The n x n interaction covariance over the partition's masks, ordered
    center, left wing, right wing."""
    labels = build_index_sets(part)
    bits = np.concatenate([labels.b_bits, labels.l_bits, labels.r_bits])
    return interaction_cov(pmf, bits, bits)


def block_s(blocks):
    """S in wing order: 2^-s fwht_b(stack) read at (beta_i ^ beta_j,
    alpha_i, alpha_j)."""
    configs, k = blocks.values.shape
    s_walsh = fwht(blocks.stack * (1.0 / configs)).reshape(-1)
    # flat index (beta_i ^ beta_j) k^2 + alpha_i k + alpha_j, built in place
    index = np.bitwise_xor.outer(blocks.beta, blocks.beta)
    index *= k * k
    index += (blocks.alpha * k)[:, None]
    index += blocks.alpha[None, :]
    return s_walsh[index]


def sigma_residual(sigma, omega):
    """max |sigma omega sigma - sigma|."""
    if not sigma.size:
        return 0.0
    return float(np.abs(sigma @ omega @ sigma - sigma).max())


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


def reference_schur(sigma, n_b, rank_tol):
    b, f, d = sigma[:n_b, :n_b], sigma[:n_b, n_b:], sigma[n_b:, n_b:]
    anchor = float(np.abs(sigma).max()) if sigma.size else 0.0
    b_pinv, rank_b = reference_pinv_eigh(b, rank_tol, anchor)
    m = f.T @ b_pinv
    s = d - m @ f if n_b else d.copy()
    s = (s + s.T) / 2.0
    if rank_tol is None:
        vals = np.linalg.eigvalsh((sigma + sigma.T) / 2.0) if sigma.size else np.zeros(0)
        rank_s = max(reference_rank_eigh(vals, None) - rank_b, 0)
        s_pinv = reference_pinv_top(s, rank_s)
    else:
        s_pinv, rank_s = reference_pinv_eigh(s, rank_tol, anchor)
    return DenseSchur(s=s, s_pinv=s_pinv, b_pinv=b_pinv, rank_b=rank_b, rank_s=rank_s)


def dense_schur_gap_bound(sigma, n_b, rank_tol):
    """Bound on max |reference_schur(sigma, n_b, rank_tol).s - block_s|
    for an input whose wing rows lie in the kept row space of B.

    The block S is 2^-s times exact butterflies of the stack, and lies
    within about eps max|sigma| of the exact Schur complement.  The dense S
    subtracts F' B+ F, which is at most D in the PSD order and so at most
    max|sigma| in every entry, but it goes through B+ from an
    eigendecomposition, whose relative error grows with the condition
    number kappa(B) of B over the eigenvalues the cutoff keeps.  So the gap
    is c kappa(B) eps max|sigma|, and c = 16 leaves a 5x margin over the
    largest c measured: 2.8, over 6000 random coordinate splits and parity
    partitions at p <= 8 with zero fractions up to 0.6 and the 2856
    verdicts of the acceptance corpus, two seeds of the benchmark's
    corpus_small and dense_wide inputs and 120 overlapping-wing parity
    partitions, each at rank_tol None and 1e-10.  The gap itself reached
    439 eps max|sigma| at kappa(B) = 4744.  On 76 inputs of the same kind
    whose S was also computed in exact rationals (among them the 16 largest
    gaps of 3000), the block S was within 0.51 eps max|sigma| of the exact
    one, so the gap is the dense route's error.
    """
    eps = np.finfo(np.float64).eps
    scale = float(np.abs(sigma).max()) if sigma.size else 0.0
    vals = np.linalg.eigvalsh(sigma[:n_b, :n_b]) if n_b else np.zeros(0)
    top = float(np.abs(vals).max()) if vals.size else 0.0
    if rank_tol is None:
        cutoff = n_b * eps * max(top, scale)
    else:
        cutoff = rank_tol * top
    kept = np.abs(vals[np.abs(vals) > cutoff])
    kappa = top / float(kept.min()) if kept.size else 1.0
    return 16.0 * kappa * eps * scale


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


def _chi(cells: np.ndarray, bits: int) -> np.ndarray:
    """The +-1 interaction of a mask on each cell."""
    return 1.0 - 2.0 * (np.bitwise_count(cells & bits) & 1)


class _ConfigTable:
    """Probability mass of each parity configuration of a pmf's support.

    Every conditional-expectation table of the engine is read off one of
    these; only positive-mass configurations carry a conditional value.
    """

    def __init__(
        self, cells: np.ndarray, probs: np.ndarray, keys: np.ndarray, size: int
    ) -> None:
        self.cells, self.probs, self.keys = cells, probs, keys
        self.mass = np.bincount(keys, weights=probs, minlength=size)
        self.positive = self.mass > 0.0

    @classmethod
    def of(cls, pmf: Pmf, gens_bits: Sequence[int]) -> "_ConfigTable":
        """The table over the parities of gens_bits, the first generator's
        parity the most significant bit of a configuration's index."""
        cells = pmf.support
        keys = np.zeros(cells.shape, dtype=np.int64)
        for g in gens_bits:
            keys = (keys << 1) | (np.bitwise_count(cells & g) & 1)
        return cls(cells, pmf.probs[cells], keys, 1 << len(gens_bits))

    def cond_mean(self, values: np.ndarray) -> np.ndarray:
        """E[values | configuration], zero on zero-mass configurations."""
        num = np.bincount(
            self.keys, weights=self.probs * values, minlength=self.mass.size
        )
        pos = self.positive
        out = np.zeros(self.mass.size)
        out[pos] = num[pos] / self.mass[pos]
        return out


def belief_coefficients(
    pmf: Pmf,
    part: Partition,
    target: Mask,
    condition_on: str = "auto",
    rank_tol: Optional[float] = None,
) -> BeliefCoefficients:
    """Canonical coefficients of E[X_target | B] over the center group.

    The Gram system is the group-circulant of the center moment vector,
    solved by pseudoinverse; condition_on picks which far block joins the
    center when measuring the two-conditioning residual ("C" for left-wing
    targets, "A" for right-wing, "auto" to infer from the spans).
    """
    if target.width != pmf.p or part.p != pmf.p:
        raise ValueError("width mismatch")
    span_ab = span_generate(part.a_gens + part.b_gens, width=part.p)
    span_bc = span_generate(part.b_gens + part.c_gens, width=part.p)
    if condition_on == "auto":
        if target in span_ab:
            condition_on = "C"
        elif target in span_bc:
            condition_on = "A"
        else:
            raise ValueError(
                f"target {target} lies in neither wing span; pass condition_on"
            )
    if condition_on not in ("A", "C"):
        raise ValueError(f"condition_on must be 'A' or 'C', got {condition_on!r}")
    if condition_on == "C" and target not in span_ab:
        raise ValueError(f"target {target} outside the center-left span")
    if condition_on == "A" and target not in span_bc:
        raise ValueError(f"target {target} outside the center-right span")

    span_b = part.b_span
    lam = span_b.member_bits()
    m = moments_from_pmf(pmf)
    gram = m[np.bitwise_xor.outer(lam, lam)]
    cross = m[lam ^ target.bits]
    gram_pinv, _ = pinv_sym(gram, rank_tol)
    alpha = gram_pinv @ cross

    center = _ConfigTable.of(pmf, [mk.bits for mk in span_b.basis])
    chi_t = _chi(center.cells, target.bits)
    fitted_cells = np.zeros(center.cells.shape)
    for c, lam_c in enumerate(lam):
        fitted_cells += alpha[c] * _chi(center.cells, int(lam_c))

    other = part.c_span.basis if condition_on == "C" else part.a_span.basis
    fit_residual = _fitted_gap(center, chi_t, fitted_cells)
    joint = _ConfigTable.of(pmf, [mk.bits for mk in span_b.basis + other])
    residual = _fitted_gap(joint, chi_t, fitted_cells)
    members = tuple(Mask(int(v), part.p) for v in lam)
    return BeliefCoefficients(
        target=target,
        members=members,
        coefficients=alpha,
        residual=residual,
        fit_residual=fit_residual,
        condition_on=condition_on,
    )


def _fitted_gap(
    table: _ConfigTable, chi_t: np.ndarray, fitted_cells: np.ndarray
) -> float:
    """Max |E[X_t | config] - fitted| over positive-mass configurations.

    fitted is constant on each center configuration, so its conditional
    average equals its value there.
    """
    pos = table.positive
    gap = np.abs(table.cond_mean(chi_t)[pos] - table.cond_mean(fitted_cells)[pos])
    return float(gap.max())


@dataclass(frozen=True)
class ReferenceIndexSets:
    """Center and wing mask lists: B = <B>\\{1}, L = <A,B>\\<B>, R = <B,C>\\<B>."""

    b_set: tuple
    l_set: tuple
    r_set: tuple
    width: int
    part: Optional[Partition] = None

    @cached_property
    def overlap(self) -> tuple:
        """Masks present in both wings (derived-feature partitions only)."""
        shared = set(self.l_set) & set(self.r_set)
        return tuple(sorted(shared))

    def all_masks(self) -> tuple:
        return self.b_set + self.l_set + self.r_set


def reference_index_sets(partition: Partition) -> ReferenceIndexSets:
    """Index sets ordered (center, left wing, right wing), each ascending."""
    p = partition.p
    span_ab = span_generate(partition.a_gens + partition.b_gens, width=p)
    span_bc = span_generate(partition.b_gens + partition.c_gens, width=p)
    in_b = set(int(v) for v in partition.b_span.member_bits())
    b_set = sorted(v for v in in_b if v != 0)
    l_set = sorted(int(v) for v in span_ab.member_bits() if int(v) not in in_b)
    r_set = sorted(int(v) for v in span_bc.member_bits() if int(v) not in in_b)
    wrap = lambda vals: tuple(Mask(v, p) for v in vals)  # noqa: E731
    return ReferenceIndexSets(wrap(b_set), wrap(l_set), wrap(r_set), p, partition)


def reference_split(span, bits: Sequence[int]):
    """MaskSpan.split: write each mask as rest XOR member, member in the span.

    rest has the pivot bit of every basis mask cleared, so it is the same
    for all masks of one coset and 0 exactly on the span; member is
    member_bits()[key].  Returns (rest, key) as int64 arrays.
    """
    rest = np.array(bits, dtype=np.int64).reshape(-1)
    key = np.zeros_like(rest)
    for b in span.basis:
        # the basis is reduced, so no other basis mask touches this pivot
        bit = (rest >> (b.bits.bit_length() - 1)) & 1
        rest ^= bit * b.bits
        key = (key << 1) | bit
    return rest, key


def reference_wing_split(part: Partition):
    """(beta, alpha) per wing mask of build_index_sets, left wing then
    right.

    beta is the member_bits index of the mask's part in span(B); alpha
    indexes its rest among the complement characters: the nonzero
    members, in member_bits order, of the left complement and then of
    the right one (wing_complements).
    """
    labels = reference_index_sets(part)
    a_comp, c_comp = part.wing_complements
    rest_l, key_l = reference_split(part.b_span, [m.bits for m in labels.l_set])
    rest_r, key_r = reference_split(part.b_span, [m.bits for m in labels.r_set])
    beta = np.concatenate([key_l, key_r]).astype(np.int32)
    alpha = np.concatenate(
        [reference_split(a_comp, rest_l)[1] - 1,
         reference_split(c_comp, rest_r)[1] + (1 << a_comp.dim) - 2]
    ).astype(np.int32)
    beta.flags.writeable = False
    alpha.flags.writeable = False
    return beta, alpha
