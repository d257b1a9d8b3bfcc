"""The block-prism Schur path against the dense reference and the oracle.

For every partition, overlapping wings included, and with or without an
explicit rank_tol, schur_complement reads S+ and rank(S) off one small
block per center configuration, and test_ci reads the factorization route
and max|S[L, R]| off the same blocks; the dense routes they replaced, and
the S gathered off the blocks, live on in tests/dense_reference.py.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from begin import (
    CenterBlocks,
    Mask,
    Partition,
    SigmaPartition,
    assemble_sigma,
    build_index_sets,
    make_ci_pmf,
    make_generic_pmf,
    oracle_ci,
    sb_inverse,
    schur_complement,
    verify_block_factorization,
)
from begin import test_ci as decide_ci

from dense_reference import (
    block_s,
    dense_schur_gap_bound,
    dense_sigma,
    reference_schur,
    sigma_residual,
)

RELATIVE_GAP = 1e-8
RANK_TOLS = (None, 1e-10)
OVERLAP = Partition(3, (Mask(0b110, 3),), (Mask(0b100, 3),), (Mask(0b010, 3),))


def pmf_for(p, draw):
    """A ci pmf over a random coordinate split of p, or a generic one."""
    pmf_seed = draw(st.integers(0, 2**31 - 1))
    zeros = draw(st.sampled_from([0.0, 0.3]))
    if draw(st.booleans()):
        r = draw(st.integers(0, p - 1))
        s = draw(st.integers(0, p - r - 1))
        return make_ci_pmf(r, s, p - r - s, seed=pmf_seed, zero_prob=zeros)
    return make_generic_pmf(p, seed=pmf_seed, zero_fraction=zeros)


@st.composite
def split_cases(draw):
    r = draw(st.integers(0, 3))
    t = draw(st.integers(0 if r else 1, 3))
    s = draw(st.integers(0, 7 - r - t))
    part = Partition.coordinate_split(r, s, t)
    return pmf_for(part.p, draw), part


@st.composite
def parity_cases(draw, widths=(3, 6)):
    p = draw(st.integers(*widths))
    nonzero = st.integers(1, (1 << p) - 1).map(lambda bits: Mask(bits, p))
    gens = [draw(st.lists(nonzero, min_size=lo, max_size=2)) for lo in (1, 0, 1)]
    try:
        part = Partition(p, *gens)
    except ValueError:
        assume(False)
    return pmf_for(p, draw), part


def complement_chars(part):
    a_comp, c_comp = part.wing_complements
    return (1 << a_comp.dim) + (1 << c_comp.dim) - 2


def check_prism_against_dense_and_oracle(pmf, part):
    sp = assemble_sigma(pmf, part)
    sigma = dense_sigma(pmf, part)
    s = block_s(sp.blocks)
    assert np.array_equal(s, s.T)
    expected = oracle_ci(pmf, part).is_ci
    for rank_tol in RANK_TOLS:
        prism = schur_complement(sp, rank_tol)
        dense = reference_schur(sigma, sp.n_b, rank_tol)
        gap = float(np.abs(s - dense.s).max(initial=0.0))
        assert gap <= dense_schur_gap_bound(sigma, sp.n_b, rank_tol)
        assert np.array_equal(prism.b_pinv, dense.b_pinv)
        assert prism.rank_b == dense.rank_b
        assert np.array_equal(prism.s_pinv, prism.s_pinv.T)
        if rank_tol is not None and not sp.blocks.rank.any():
            # S is 0: a threshold relative to S's own largest eigenvalue
            # keeps rounding noise, which the dense route inverted
            assert prism.rank_s == 0 and not prism.s_pinv.any()
            assert np.abs(dense.s).max(initial=0.0) <= 1e-12
        else:
            assert prism.rank_s == dense.rank_s
            scale = float(np.abs(dense.s_pinv).max()) if dense.s_pinv.size else 0.0
            gap = float(np.abs(prism.s_pinv - dense.s_pinv).max()) if scale else 0.0
            assert gap <= RELATIVE_GAP * scale
        assert sigma_residual(sigma, sb_inverse(sp, prism).dense()) <= 1e-8
        verdict = decide_ci(pmf, part, rank_tol=rank_tol)
        assert verdict.is_ci == expected
        assert set(verdict.criteria.values()) == {expected}


@seed(11)
@settings(max_examples=60, deadline=None)
@given(case=split_cases())
def test_prism_matches_dense_and_oracle_on_coordinate_splits(case):
    check_prism_against_dense_and_oracle(*case)


@seed(12)
@settings(max_examples=60, deadline=None)
@given(case=parity_cases())
def test_prism_matches_dense_and_oracle_on_parity_partitions(case):
    check_prism_against_dense_and_oracle(*case)


@st.composite
def wide_cases(draw):
    """Coordinate splits and parity partitions at p <= 8: overlapping wings,
    empty centers and wings inside the center span all occur."""
    if draw(st.booleans()):
        return draw(parity_cases(widths=(3, 8)))
    r = draw(st.integers(0, 4))
    t = draw(st.integers(0 if r else 1, 4))
    part = Partition.coordinate_split(r, draw(st.integers(0, 8 - r - t)), t)
    return pmf_for(part.p, draw), part


def outside_band(value, tol):
    return value <= tol or value >= 1e-2


@seed(15)
@settings(max_examples=80, deadline=None)
@given(case=wide_cases(), rank_tol=st.sampled_from(RANK_TOLS))
def test_block_schur_and_factorization_agree_with_the_dense_routes(case, rank_tol):
    pmf, part = case
    sp = assemble_sigma(pmf, part)
    sr = schur_complement(sp, rank_tol)
    assume(sr.residual <= 1e-8)
    s = block_s(sp.blocks)
    assert np.array_equal(s, s.T)
    sigma = dense_sigma(pmf, part)
    dense = reference_schur(sigma, sp.n_b, rank_tol)
    gap = float(np.abs(s - dense.s).max(initial=0.0))
    assert gap <= dense_schur_gap_bound(sigma, sp.n_b, rank_tol)
    verdict = decide_ci(pmf, part, rank_tol=rank_tol)
    witness = verify_block_factorization(pmf, part, rank_tol=rank_tol)
    n_lc = (1 << part.wing_complements[0].dim) - 1
    corner = float(np.abs(sp.blocks.stack[:, :n_lc, n_lc:]).max(initial=0.0))
    if outside_band(corner, verdict.tol) and outside_band(witness.gap, verdict.tol):
        expected = oracle_ci(pmf, part).is_ci
        assert verdict.criteria["factorization"] == bool(witness) == expected


DEGENERATE = Partition(3, (Mask(0b010, 3),), (Mask(0b010, 3),), (Mask(0b001, 3),))


@seed(16)
@settings(max_examples=80, deadline=None)
@given(case=wide_cases(), rank_tol=st.sampled_from(RANK_TOLS))
@example(case=(make_generic_pmf(3, seed=2), OVERLAP), rank_tol=None)
@example(case=(make_generic_pmf(3, seed=6), Partition.coordinate_split(1, 0, 2)), rank_tol=1e-10)
@example(case=(make_ci_pmf(1, 1, 1, seed=3, zero_prob=0.3), DEGENERATE), rank_tol=None)
def test_max_offblock_s_is_the_gathered_left_right_corner_bit_for_bit(case, rank_tol):
    pmf, part = case
    sp = assemble_sigma(pmf, part)
    verdict = decide_ci(pmf, part, rank_tol=rank_tol)
    s = block_s(sp.blocks)
    assert verdict.max_offblock_s == float(np.abs(s[: sp.n_l, sp.n_l :]).max(initial=0.0))


def test_prism_verdict_decomposes_no_matrix_larger_than_its_blocks(monkeypatch):
    sizes = []
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    parity = Partition(
        5, (Mask(0b11000, 5),), (Mask(0b01100, 5), Mask(0b00110, 5)), (Mask(0b00011, 5),)
    )
    overlap = Partition(
        5,
        (Mask(0b11000, 5), Mask(0b00110, 5)),
        (Mask(0b01100, 5),),
        (Mask(0b00110, 5), Mask(0b00011, 5)),
    )
    cases = [
        (make_ci_pmf(2, 3, 2, seed=5, zero_prob=0.3), Partition.coordinate_split(2, 3, 2)),
        (make_generic_pmf(7, seed=5), Partition.coordinate_split(1, 4, 2)),
        (make_generic_pmf(6, seed=8, zero_fraction=0.25), Partition.coordinate_split(3, 2, 1)),
        (make_generic_pmf(5, seed=9), parity),
        (make_generic_pmf(3, seed=2), OVERLAP),
        (make_generic_pmf(5, seed=10, zero_fraction=0.25), overlap),
    ]
    for pmf, part in cases:
        labels = build_index_sets(part)
        n = len(labels.all_masks())
        bound = max(len(labels.b_set), complement_chars(part))
        assert bound < n - len(labels.b_set)
        for rank_tol in RANK_TOLS:
            sizes.clear()
            decide_ci(pmf, part, rank_tol=rank_tol)
            assert sizes and max(sizes) <= bound
    assert all(build_index_sets(part).overlap for _, part in cases[-2:])


def test_one_schur_route_for_overlap_rank_tol_and_every_sigma_partition():
    assert build_index_sets(OVERLAP).overlap
    split = Partition.coordinate_split(2, 1, 2)
    for pmf, part in ((make_generic_pmf(3, seed=2), OVERLAP), (make_generic_pmf(5, seed=3), split)):
        sp = assemble_sigma(pmf, part)
        for rank_tol in RANK_TOLS:
            sr = schur_complement(sp, rank_tol)
            table, rank_s = sp.blocks.pinv_table(rank_tol)
            s_pinv = sp.blocks.gather(table)
            assert np.array_equal(sr.s_pinv, s_pinv)
            assert sr.rank_s == rank_s
    with pytest.raises(TypeError):
        SigmaPartition(sp.sigma, sp.labels)


def test_rank_tol_keeps_block_eigenvalues_above_the_cut_of_the_whole_spectrum():
    # two configurations of two characters, wing positions (beta, alpha) =
    # (0,0), (1,0), (0,1), (1,1); block 1 has structural rank 1, so its
    # eigenvalue 3e-10 is dropped at any rank_tol
    blocks = CenterBlocks(
        stack=np.stack([np.diag([4.0, 1e-11]), np.diag([2.0, 3e-10])]),
        mass=np.ones(2),
        rank=np.array([2, 1]),
        beta=np.array([0, 1, 0, 1]),
        alpha=np.array([0, 0, 1, 1]),
    )
    assert blocks.pinv_table()[1] == 3
    assert blocks.pinv_table(1e-12)[1] == 3
    table, rank = blocks.pinv_table(1e-10)
    s_pinv = blocks.gather(table)
    s = block_s(blocks)
    # S is the stack read back: 2^-1 fwht_b([4, 2]) = [3, 1] on character 0
    assert np.array_equal(s[:2, :2], [[3.0, 1.0], [1.0, 3.0]])
    # the cut is 1e-10 * 4, across both blocks: 1e-11 goes, so only 4 and 2
    # are inverted, and 2^-1 fwht_b([1/4, 1/2]) = [3/8, -1/8] on character 0
    assert rank == 2
    expected = np.zeros((4, 4))
    expected[:2, :2] = [[0.375, -0.125], [-0.125, 0.375]]
    assert np.array_equal(s_pinv, expected)


def test_center_blocks_refuse_negative_spectra_and_masses():
    index = np.zeros(2, dtype=np.int64)
    good = dict(
        stack=np.eye(2)[None], mass=np.ones(1), rank=np.array([2]), beta=index, alpha=index
    )
    CenterBlocks(**good)
    with pytest.raises(ValueError, match="center configuration block has eigenvalue"):
        CenterBlocks(**{**good, "stack": -np.eye(2)[None]})
    with pytest.raises(ValueError, match="center configuration mass"):
        CenterBlocks(**{**good, "mass": -np.ones(1)})
    with pytest.raises(ValueError, match="stack"):
        CenterBlocks(**{**good, "rank": np.array([2, 2])})
    with pytest.raises(ValueError, match="not exactly symmetric"):
        CenterBlocks(**{**good, "stack": np.array([[[1.0, 0.5], [0.5 + 2**-40, 1.0]]])})


def test_block_ranks_count_the_support_graph():
    # one center configuration, a in {0,1}, c in {0,1}: a path a0-c0-a1
    # (comps 1) gives 2 + 1 - 1 - 1 = 1; a perfect matching a0-c0, a1-c1
    # (comps 2) gives 2 + 2 - 2 - 1 = 1; the full square gives 2
    from begin.engine import _block_ranks

    support = np.array(
        [
            [[True, False], [True, False]],
            [[True, False], [False, True]],
            [[True, True], [True, True]],
            [[False, False], [False, False]],
        ]
    )
    assert _block_ranks(support).tolist() == [1, 1, 2, 0]


def test_rank_tol_inverts_no_rounding_noise_of_a_zero_schur_complement():
    # every block of this CI pmf's stack is 0, so S is 0 up to rounding; a
    # threshold on S relative to its own largest eigenvalue inverted that
    # noise into wing entries of Omega near 2e15, and separation said not CI
    part = Partition.coordinate_split(1, 1, 1)
    pmf = make_ci_pmf(1, 1, 1, seed=170, zero_prob=0.3)
    assert oracle_ci(pmf, part).is_ci
    verdict = decide_ci(pmf, part, rank_tol=1e-10)
    assert all(verdict.criteria.values())
    assert verdict.max_offblock_omega <= verdict.tol


def test_ci_pmfs_give_exact_wing_zeros_and_agreeing_routes():
    # (2,3,2) seed 34 is a pmf on which the dense pseudoinverse left
    # wing-to-wing noise of 4e-8 in Omega, above tol, so separation
    # disagreed with the other three routes
    cases = [(2, 3, 2, 34)] + [(r, s, t, k) for r, s, t in ((1, 1, 1), (2, 2, 2)) for k in range(10)]
    for r, s, t, k in cases:
        part = Partition.coordinate_split(r, s, t)
        verdict = decide_ci(make_ci_pmf(r, s, t, seed=k, zero_prob=0.3), part)
        assert all(verdict.criteria.values()), (r, s, t, k)
        assert verdict.max_offblock_omega <= verdict.tol


@st.composite
def support_rank_cases(draw):
    """(pmf, partition) at p <= 10: coordinate splits and parity partitions
    whose wings overlap, with generic and ci pmfs at zero fractions up to
    0.5."""
    p = draw(st.integers(3, 10))
    if draw(st.booleans()):
        r = draw(st.integers(1, p - 2))
        t = draw(st.integers(1, p - 1 - r))
        part = Partition.coordinate_split(r, p - r - t, t)
    else:
        nonzero = st.integers(1, (1 << p) - 1)
        a = draw(st.lists(nonzero, min_size=1, max_size=2))
        b = draw(st.lists(nonzero, min_size=1, max_size=3))
        # a0 XOR a center member joins C, so it lies in both wings unless
        # a0 is in span(B)
        shift = 0
        for g in b:
            shift ^= g * draw(st.booleans())
        c = [a[0] ^ shift] + draw(st.lists(nonzero, max_size=1))
        try:
            part = Partition(p, *([Mask(g, p) for g in gens] for gens in (a, b, c)))
        except ValueError:
            assume(False)
        assume(build_index_sets(part).overlap)
    pmf_seed = draw(st.integers(0, 2**31 - 1))
    zeros = draw(st.sampled_from([0.0, 0.25, 0.5]))
    if draw(st.booleans()):
        return make_generic_pmf(p, seed=pmf_seed, zero_fraction=zeros), part
    r = draw(st.integers(0, p - 1))
    s = draw(st.integers(0, p - r - 1))
    return make_ci_pmf(r, s, p - r - s, seed=pmf_seed, zero_prob=zeros), part


@seed(17)
@settings(max_examples=120, deadline=None)
@given(case=support_rank_cases())
@example(case=(make_generic_pmf(3, seed=2), OVERLAP))
@example(case=(make_ci_pmf(1, 8, 1, seed=3, zero_prob=0.5), Partition.coordinate_split(1, 8, 1)))
def test_a_verdicts_support_rank_and_fields_match_the_dense_reference_chain(case):
    """rank_B, read off the center support, is the eigenvalue count of the
    dense center block whenever no positive center mass lies below 1e-12 of
    the largest; every other field is what the dense routes give."""
    from dense_reference import (
        _ConfigTable,
        reference_center_schur,
        reference_index_sets,
        reference_pinv_eigh,
    )
    from dense_reference import belief_coefficients as dense_belief_coefficients

    pmf, part = case
    verdict = decide_ci(pmf, part)
    sigma = dense_sigma(pmf, part)
    sp = assemble_sigma(pmf, part)
    n_b, n_l = sp.n_b, sp.n_l
    mass = _ConfigTable.of(pmf, [m.bits for m in part.b_span.basis]).mass
    positive = mass[mass > 0.0]
    scale = float(np.abs(sigma).max())
    b_pinv, rank_b = reference_pinv_eigh(sigma[:n_b, :n_b], None, scale)
    if positive.min() > 1e-12 * positive.max():
        assert verdict.rank_b == rank_b
    assert verdict.rank_b == positive.size - 1 and verdict.support_b == positive.size
    # S[L, R] and Omega[L, R], the wing corner of S+, gathered densely
    s_lr = block_s(sp.blocks)[:n_l, n_l:]
    omega_lr = reference_center_schur(sp.blocks)[0][:n_l, n_l:]
    assert verdict.max_offblock_s == float(np.abs(s_lr).max(initial=0.0))
    assert verdict.max_offblock_omega == float(np.abs(omega_lr).max(initial=0.0))
    tol = verdict.tol
    assert verdict.is_ci == verdict.criteria["schur"] == (verdict.max_offblock_s <= tol)
    assert verdict.criteria["separation"] == (not (np.abs(omega_lr) > tol).any())
    # the factorization gap through B+, within the dense route's rounding
    f_l, f_r = sigma[:n_b, n_b : n_b + n_l], sigma[:n_b, n_b + n_l :]
    gap = float(np.abs(sigma[n_b : n_b + n_l, n_b + n_l :] - f_l.T @ b_pinv @ f_r).max(initial=0.0))
    if outside_band(gap, tol):
        assert verdict.criteria["factorization"] == (gap <= tol)
    # the belief route, one target per complement character (beta = 0)
    labels = reference_index_sets(part)
    at_zero = sp.labels.beta == 0
    targets = [(mk, "C") for mk, z in zip(labels.l_set, at_zero[:n_l]) if z]
    targets += [(mk, "A") for mk, z in zip(labels.r_set, at_zero[n_l:]) if z]
    belief = max(
        (dense_belief_coefficients(pmf, part, mk, side).residual for mk, side in targets),
        default=0.0,
    )
    slack = max(1e-12, 8 * mass.size * np.finfo(np.float64).eps * positive.max() / positive.min())
    assert abs(verdict.belief_residual - belief) <= slack
    if abs(belief - tol) > slack:
        assert verdict.criteria["belief"] == (belief <= tol)
    assert verdict.tol == 1e-8
    assert verdict.degenerate_wings == (not (labels.l_set and labels.r_set))
    assert verdict.wing_overlap == len(set(labels.l_set) & set(labels.r_set))
