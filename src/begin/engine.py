"""Conditional-independence engine over interaction covariances.

Assembles the covariance of the interaction features ordered (center, left
wing, right wing), then decides CI four ways: vanishing wing off-block of the
generalized Schur complement, block factorization of the cross-covariance,
conditional-expectation tables, and graph separation on the block inverse.
The four must agree; the Schur off-block is the primary verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bitgroup import IndexSets, Mask, Partition, build_index_sets, span_generate
from .distribution import _BYTE_LIMIT, Pmf, interaction_cov, moments_from_pmf
from .graph import _require_tolerance, build_graph, separates
from .hadamard import fwht
from .schur import (
    CenterBlocks,
    SigmaPartition,
    _max_abs,
    _schur_parts,
    _symmetrize,
    sb_inverse,
    schur_complement,
)

__all__ = [
    "Partition",
    "CiVerdict",
    "BeliefCoefficients",
    "FactorizationWitness",
    "SubsetFinding",
    "assemble_sigma",
    "test_ci",
    "belief_coefficients",
    "verify_block_factorization",
    "scan_markov_chain",
    "subset_offblock",
    "search_subset_counterexamples",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of one conditional-independence decision.

    criteria maps each route (belief, factorization, schur, separation) to
    its answer; the answers must coincide whenever all magnitudes are far
    from the tolerance.
    """

    is_ci: bool
    max_offblock_s: float
    max_offblock_omega: float
    belief_residual: float
    criteria: Dict[str, bool]
    rank_b: int
    support_b: int
    tol: float
    degenerate_wings: bool = False
    wing_overlap: int = 0

    def to_json_dict(self) -> dict:
        return {
            "is_ci": self.is_ci,
            "max_offblock_S": self.max_offblock_s,
            "max_offblock_Omega": self.max_offblock_omega,
            "belief_residual": self.belief_residual,
            "rank_B": self.rank_b,
            "support_B": self.support_b,
            "tol": self.tol,
            "criteria": dict(self.criteria),
        }


@dataclass(frozen=True)
class BeliefCoefficients:
    """Linear representation of E[X_target | center group].

    coefficients[c] weights the c-th group-ordered member of span(B gens):
    they are the Walsh transform of E[X_target | b] over the 2^s center
    configurations b, divided by 2^s (the paper's sparse linear
    representation), at a cost of O(s 2^s + support).  The fitted values,
    their transform back, reproduce the conditional expectation on every
    positive-mass center configuration.  Coefficients are canonical
    (minimum-norm) but not unique when the center support is thin, so only
    fitted values are contract.  members holds the bits of the center
    members in that order (span member_bits), as a read-only int64 array.
    """

    target: Mask
    members: np.ndarray
    coefficients: np.ndarray
    residual: float
    fit_residual: float
    condition_on: str


@dataclass(frozen=True)
class FactorizationWitness:
    """Cross-covariance factorization check with its witness matrices."""

    ok: bool
    m1: np.ndarray
    m2: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gap: float

    def __bool__(self) -> bool:
        return self.ok


def _config_mass(pmf: Pmf, gens: Sequence[Mask]) -> np.ndarray:
    """Probability mass of each parity configuration of gens on the pmf's
    support, the first generator's parity the most significant bit of a
    configuration's index."""
    cells = pmf.support
    keys = np.zeros(cells.shape, dtype=np.int64)
    for g in gens:
        keys = (keys << 1) | (np.bitwise_count(cells & g.bits) & 1)
    return np.bincount(keys, weights=pmf.probs[cells], minlength=1 << len(gens))


def assemble_sigma(
    pmf: Pmf, part: Partition, joint: Optional[np.ndarray] = None
) -> SigmaPartition:
    """Interaction covariance over the ordered index sets of the partition:
    its center rows, and the wing Schur complement split by center
    configuration (CenterBlocks).  joint, the pmf's (b, a, c) mass array
    (_wing_table), is built here unless the caller already has it.
    """
    if pmf.p != part.p:
        raise ValueError(f"pmf width {pmf.p} != partition width {part.p}")
    labels = build_index_sets(part)
    bits = np.concatenate([labels.b_bits, labels.l_bits, labels.r_bits])
    sigma_bytes = 8 * len(bits) ** 2
    if sigma_bytes > _BYTE_LIMIT:
        raise ValueError(
            f"sigma over n = {len(bits)} masks needs {sigma_bytes} bytes, "
            f"beyond the {_BYTE_LIMIT}-byte limit"
        )
    # B exactly symmetric: entry (i, j) is m[i ^ j] - m[i] m[j]
    rows = interaction_cov(pmf, labels.b_bits, bits)
    rows.flags.writeable = False  # private, so SigmaPartition keeps it uncopied
    # by Cauchy-Schwarz the largest |entry| of a covariance is a variance,
    # m[0] - m[k]^2 as interaction_cov forms it
    m = moments_from_pmf(pmf)
    scale = _max_abs(m[0] - m[bits] * m[bits])
    if joint is None:
        joint = _wing_table(pmf, part)
    return SigmaPartition(rows, labels, _center_blocks(joint, labels), scale)


def _wing_table(pmf: Pmf, part: Partition) -> np.ndarray:
    """The pmf's mass over (b, a, c): the configurations of the center basis,
    then of the bases of the left and the right complement (wing_complements).
    """
    a_comp, c_comp = part.wing_complements
    return _config_mass(pmf, part.b_span.basis + a_comp.basis + c_comp.basis)


def _center_blocks(joint: np.ndarray, labels: IndexSets) -> CenterBlocks:
    """Per center configuration b, 2^s p_b Cov(complement characters | b).

    Given b every center character is a constant sign, so a wing mask
    alpha XOR beta covaries as its complement character alpha times that
    sign.  The moments come from the (b, a, c) mass table by one Walsh
    transform along (a, c).
    """
    part = labels.part
    a_comp, c_comp = part.wing_complements
    ra, rc = a_comp.dim, c_comp.dim
    configs = 1 << part.b_span.dim
    table = fwht(joint.reshape(configs, -1).T).T
    # character (i of the left complement, j of the right) sits at i << rc | j
    chars = np.concatenate([np.arange(1, 1 << ra) << rc, np.arange(1, 1 << rc)])
    mass, moments = table[:, :1, None], table[:, chars]
    # a zero-mass configuration has all-zero moments, and its block stays 0
    centering = moments[:, :, None] * moments[:, None, :]
    np.divide(centering, mass, out=centering, where=mass > 0.0)
    stack = (table[:, chars[:, None] ^ chars[None, :]] - centering) * configs
    return CenterBlocks(
        stack=stack,
        mass=table[:, 0],
        rank=_block_ranks((joint > 0.0).reshape(configs, 1 << ra, 1 << rc)),
        beta=labels.beta,
        alpha=labels.alpha,
    )


def _block_ranks(support: np.ndarray) -> np.ndarray:
    """Rank of each center block, counted from the (b, a, c) support.

    At a positive-mass b the complement characters span the functions
    f(a) + g(c) restricted to the (a, c) pairs of positive mass; that space
    has dimension n_a + n_c - comps, with comps the connected components of
    the bipartite a-c support graph, and covariance drops the constants.
    """
    n_a = support.shape[1]
    # a nodes joined through a shared c node, closed under path doubling: a
    # component holds at most n_a a nodes, so n_a - 1 hops reach across it
    edges = support.astype(np.float64)
    reach = edges @ edges.transpose(0, 2, 1) > 0.0
    for _ in range(max(n_a - 2, 0).bit_length()):
        hops = reach.astype(np.float64)
        reach = hops @ hops > 0.0
    # an a node of positive mass reaches itself; each component is counted
    # once, at its first a node
    has_a = reach.diagonal(axis1=1, axis2=2)
    comps = (has_a & (reach.argmax(axis=2) == np.arange(n_a))).sum(axis=1)
    n_c = support.any(axis=1).sum(axis=1)
    return has_a.sum(axis=1) + n_c - comps - has_a.any(axis=1)


def _belief_residual(joint: np.ndarray, part: Partition) -> float:
    """Criterion over both wings: wing interactions forget the far block.

    A wing target alpha XOR beta, beta in the center span, has exactly the
    conditional means of its rest alpha up to a sign that is constant on
    each center configuration, so only the complement characters are
    evaluated.  Given b, the right complement's configuration c carries
    what C's own configuration does (with the center, both span <B,C>), so
    the left characters compare E[chi_alpha | b, c] with E[chi_alpha | b],
    both read off the (b, a, c) mass table, and the right ones mirror this.
    """
    a_comp, c_comp = part.wing_complements
    mass = joint.reshape(-1, 1 << a_comp.dim, 1 << c_comp.dim)
    return max(_forget_gap(mass), _forget_gap(mass.transpose(0, 2, 1)))


def _forget_gap(mass: np.ndarray) -> float:
    """Worst |E[chi_alpha | b, c] - E[chi_alpha | b]| over the nonzero
    characters alpha of the a axis of a (b, a, c) mass table and the
    positive-mass (b, c)."""
    # moments[alpha, b, c] = sum over a of chi_alpha(a) mass[b, a, c]
    moments = fwht(mass.transpose(1, 0, 2))
    b_moments = moments.sum(axis=2, keepdims=True)
    positive = moments[:1] > 0.0
    given_bc = np.divide(moments[1:], moments[:1], out=np.zeros_like(moments[1:]), where=positive)
    given_b = np.divide(
        b_moments[1:], b_moments[:1], out=np.zeros_like(b_moments[1:]), where=b_moments[:1] > 0.0
    )
    gap = np.where(positive, np.abs(given_bc - given_b), 0.0)
    return float(gap.max(initial=0.0))


def test_ci(
    pmf: Pmf,
    part: Partition,
    tol: float = DEFAULT_TOL,
    rank_tol: Optional[float] = None,
) -> CiVerdict:
    """Decide whether the A-group and C-group are independent given B.

    The primary verdict thresholds the wing off-block of the generalized
    Schur complement; the other three criteria are computed as cross-checks
    and reported in the criteria map.  A negative or non-finite tol or
    rank_tol is refused.
    """
    _require_tolerance("tol", tol)
    if rank_tol is not None:
        _require_tolerance("rank_tol", rank_tol)
    joint = _wing_table(pmf, part)
    sp = assemble_sigma(pmf, part, joint)
    sr = schur_complement(sp, rank_tol)
    omega = sb_inverse(sp, sr)

    n_b, n_l = sp.n_b, sp.n_l
    max_omega = _max_abs(omega[n_b : n_b + n_l, n_b + n_l :])
    belief_residual = _belief_residual(joint, part)
    # sigma[L, R] factors through the center exactly when every center
    # configuration's block has a zero (left, right complement) corner
    n_lc = (1 << part.wing_complements[0].dim) - 1
    corners = sp.blocks.stack[:, :n_lc, n_lc:]
    max_corner = _max_abs(corners)
    # S[L, R] holds 2^-s fwht_b(corners) at (beta_i ^ beta_j, alpha_i,
    # alpha_j), and every (beta, alpha) of a wing occurs in it
    max_s = _max_abs(fwht(corners * (1.0 / len(corners))))
    separated = separates(build_graph(omega, sp.labels, tol))
    criteria = {
        "belief": belief_residual <= tol,
        "factorization": max_corner <= tol,
        "schur": max_s <= tol,
        "separation": separated,
    }
    return CiVerdict(
        is_ci=criteria["schur"],
        max_offblock_s=max_s,
        max_offblock_omega=max_omega,
        belief_residual=belief_residual,
        criteria=criteria,
        rank_b=sr.rank_b,
        support_b=int((sp.blocks.mass > 0.0).sum()),
        tol=tol,
        degenerate_wings=not (sp.n_l and sp.n_r),
        wing_overlap=sp.labels.overlap_count,
    )


def belief_coefficients(
    pmf: Pmf,
    part: Partition,
    target: Mask,
    condition_on: str = "auto",
    rank_tol: Optional[float] = None,
) -> BeliefCoefficients:
    """Canonical coefficients of E[X_target | B] over the center group.

    The Gram system is the prism of the center moments: the Walsh transform
    diagonalises it with eigenvalues 2^s p_b, so its minimum-norm solution
    is fwht(E[X_target | b]) / 2^s, with E[X_target | b] set to 0 where
    2^s p_b is at most pinv_sym's cutoff (rank_tol times the largest, by
    default 2^s binary64 epsilon times it).  condition_on picks which far
    block joins the center when measuring the two-conditioning residual
    ("C" for left-wing targets, "A" for right-wing, "auto" to infer from
    the spans).
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
    configs = 1 << span_b.dim
    a_comp, c_comp = part.wing_complements
    # with the center, the far block's complement spans what the far block
    # does, so its configurations f split each b as the far block's own would
    far = c_comp if condition_on == "C" else a_comp
    # mass[b, f, x], x the target's parity: 0 where X_target = +1
    mass = _config_mass(pmf, span_b.basis + far.basis + (target,)).reshape(configs, -1, 2)
    joint = mass.sum(axis=2)
    signed = mass[:, :, 0] - mass[:, :, 1]
    p_b = joint.sum(axis=1)
    given_b = np.divide(signed.sum(axis=1), p_b, out=np.zeros(configs), where=p_b > 0.0)
    given_bf = np.divide(signed, joint, out=np.zeros_like(joint), where=joint > 0.0)
    eigen = configs * p_b
    cutoff = (configs * np.finfo(np.float64).eps if rank_tol is None else rank_tol) * eigen.max()
    # what fwht(coefficients) is, read without the round-off of a transform
    # back, so the residual matches test_ci's belief route bit for bit
    fitted = np.where(eigen > cutoff, given_b, 0.0)
    coefficients = fwht(fitted) / configs
    fit_residual = float(np.abs(given_b - fitted)[p_b > 0.0].max())
    residual = float(np.abs(given_bf - fitted[:, None])[joint > 0.0].max())
    members = span_b.member_bits()
    members.flags.writeable = False
    return BeliefCoefficients(
        target=target,
        members=members,
        coefficients=coefficients,
        residual=residual,
        fit_residual=fit_residual,
        condition_on=condition_on,
    )


def verify_block_factorization(
    pmf: Pmf,
    part: Partition,
    tol: float = DEFAULT_TOL,
    rank_tol: Optional[float] = None,
) -> FactorizationWitness:
    """Check sigma[L,R] = M1 sigma_B M2' with the row-space coefficients.

    Truthy iff the factorization holds within tol; with an empty center the
    check degenerates to plain uncorrelatedness of the wings.
    """
    sp = assemble_sigma(pmf, part)
    sr = schur_complement(sp, rank_tol)
    n_l = sp.n_l
    lhs = interaction_cov(pmf, sp.labels.l_bits, sp.labels.r_bits)
    m1, m2 = sr.m[:n_l], sr.m[n_l:]
    rhs = m1 @ sp.b_block @ m2.T if sp.n_b else np.zeros_like(lhs)
    gap = _max_abs(lhs - rhs)
    return FactorizationWitness(ok=gap <= tol, m1=m1, m2=m2, lhs=lhs, rhs=rhs, gap=gap)


def scan_markov_chain(
    pmf: Pmf, k: int, tol: float = DEFAULT_TOL
) -> List[CiVerdict]:
    """Past-future splits at every interior coordinate of a length-k chain."""
    if k < 3:
        raise ValueError(f"chain scan needs k >= 3 coordinates, got {k}")
    if pmf.p != k:
        raise ValueError(f"pmf width {pmf.p} != chain length {k}")
    verdicts = []
    for j in range(2, k):
        part = Partition.coordinate_split(j - 1, 1, k - j)
        verdicts.append(test_ci(pmf, part, tol))
    return verdicts


def subset_offblock(
    pmf: Pmf,
    part: Partition,
    subset: Sequence[Mask],
    rank_tol: Optional[float] = None,
) -> float:
    """Wing off-block magnitude when conditioning on a subset of the center.

    Replacing the full center index set by a proper subset breaks the CI
    equivalence in both directions; this is the probe used to exhibit that.
    """
    if part.p != pmf.p or any(mk.width != pmf.p for mk in subset):
        raise ValueError("width mismatch")
    labels = build_index_sets(part)
    center = np.array([mk.bits for mk in subset], dtype=np.int64)
    bits = np.concatenate([center, labels.l_bits, labels.r_bits])
    sigma = interaction_cov(pmf, bits, bits)
    n_b, n_l = len(subset), labels.l_bits.size
    # a subset of the center is not a group, so S has no center blocks
    m = _schur_parts(sigma[:n_b], rank_tol, _max_abs(sigma))[2]
    s = m @ sigma[:n_b, n_b:]
    np.subtract(sigma[n_b:, n_b:], s, out=s)
    _symmetrize(s)
    return _max_abs(s[:n_l, n_l:])


@dataclass(frozen=True)
class SubsetFinding:
    """One instance where a proper center subset breaks the equivalence.

    direction 1: subset off-block vanishes although CI fails;
    direction 2: CI holds although the subset off-block does not vanish.
    """

    index: int
    subset: Tuple[Mask, ...]
    direction: int
    offblock: float
    full_offblock: float


def search_subset_counterexamples(
    cases: Iterable[Tuple[Pmf, Partition]],
    tol: float = DEFAULT_TOL,
    magnitude: float = 1e-2,
) -> List[SubsetFinding]:
    """Scan (pmf, partition) pairs for proper-subset failures of both kinds.

    Every nonempty proper subset of the center index set is probed; findings
    require a clear margin (offblock either <= tol or >= magnitude) so the
    report never rests on borderline arithmetic.
    """
    findings: List[SubsetFinding] = []
    for index, (pmf, part) in enumerate(cases):
        labels = build_index_sets(part)
        center = labels.b_set
        if len(center) < 2:
            continue
        full = test_ci(pmf, part, tol)
        for pattern in range(1, (1 << len(center)) - 1):
            subset = tuple(
                mk for i, mk in enumerate(center) if (pattern >> i) & 1
            )
            off = subset_offblock(pmf, part, subset)
            if full.is_ci and off >= magnitude:
                findings.append(
                    SubsetFinding(index, subset, 2, off, full.max_offblock_s)
                )
            elif not full.is_ci and off <= tol:
                findings.append(
                    SubsetFinding(index, subset, 1, off, full.max_offblock_s)
                )
    return findings
