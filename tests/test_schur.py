import numpy as np
import pytest

from begin import (
    CenterBlocks,
    Partition,
    SchurResult,
    SigmaPartition,
    assemble_sigma,
    build_index_sets,
    fwht,
    make_ci_pmf,
    make_generic_pmf,
    pinv_sym,
    sb_inverse,
    schur_complement,
)
from begin import engine
from begin.schur import _max_abs, _require_symmetric, _symmetrize

from dense_reference import (
    block_s,
    dense_schur_gap_bound,
    dense_sigma,
    reference_pinv_eigh,
    reference_schur,
    sigma_residual,
)

PENROSE_TOL = 1e-8


def random_psd(rng, dim, deficit):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = rng.uniform(0.5, 4.0, size=dim)
    vals[:deficit] = 0.0
    return (q * vals) @ q.T


def test_pinv_of_identity():
    inv, rank = pinv_sym(np.eye(4))
    assert np.array_equal(inv, np.eye(4))
    assert rank == 4


def test_pinv_of_rank_one_ones():
    inv, rank = pinv_sym(np.ones((2, 2)))
    np.testing.assert_allclose(inv, np.full((2, 2), 0.25), atol=1e-15)
    assert rank == 1


def test_pinv_of_zero():
    inv, rank = pinv_sym(np.zeros((3, 3)))
    assert np.array_equal(inv, np.zeros((3, 3)))
    assert rank == 0


def test_pinv_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        pinv_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        pinv_sym(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "where, bad", [((0, 0), np.nan), ((0, 2), np.nan), ((1, 1), np.inf), ((1, 1), -np.inf)]
)
def test_pinv_refuses_a_non_finite_entry(where, bad):
    # without the refusal: a zero "pseudoinverse" of rank 0 for a nan or inf
    # on the diagonal (with a RuntimeWarning for inf), and LAPACK's
    # "Eigenvalues did not converge" for the nan pair
    a = np.eye(3)
    a[where] = a[where[::-1]] = bad
    with pytest.raises(ValueError, match="nan or infinite entry"):
        pinv_sym(a)


@pytest.mark.parametrize("block", ["center", "wing"])
def test_sigma_partition_refuses_a_non_finite_entry(block):
    sp = assemble_sigma(make_generic_pmf(3, seed=4), Partition.coordinate_split(1, 1, 1))
    for bad in (np.nan, np.inf):
        sigma = sp.sigma.copy()
        sigma[0, 0 if block == "center" else sp.n_b] = bad
        with pytest.raises(ValueError, match="nan or infinite entry"):
            SigmaPartition(sigma, sp.labels, sp.blocks, sp.scale)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(17)
    for _ in range(500):
        dim = int(rng.integers(2, 41))
        deficit = int(rng.integers(0, min(4, dim)))
        a = random_psd(rng, dim, deficit)
        a = (a + a.T) / 2.0
        ap, rank = pinv_sym(a)
        assert rank == dim - deficit
        assert np.abs(a @ ap @ a - a).max() <= PENROSE_TOL
        assert np.abs(ap @ a @ ap - ap).max() <= PENROSE_TOL
        assert np.abs((a @ ap) - (a @ ap).T).max() <= PENROSE_TOL
        assert np.abs((ap @ a) - (ap @ a).T).max() <= PENROSE_TOL


def test_pinv_output_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 12, 2)
    a = (a + a.T) / 2.0
    ap, _ = pinv_sym(a)
    assert np.abs(ap - ap.T).max() == 0.0


def blocks_of(s, part):
    """Center blocks whose wing Schur complement is s, which must have the
    group form s[i, j] = table[beta_i ^ beta_j][alpha_i, alpha_j]."""
    labels = build_index_sets(part)
    beta, alpha = labels.beta, labels.alpha
    a_comp, c_comp = part.wing_complements
    k = (1 << a_comp.dim) + (1 << c_comp.dim) - 2
    table = np.zeros((1 << part.b_span.dim, k, k))
    table[np.bitwise_xor.outer(beta, beta), alpha[:, None], alpha[None, :]] = s
    stack = fwht(table)
    rank = np.array([np.linalg.matrix_rank(block) for block in stack])
    return CenterBlocks(stack=stack, mass=np.ones(len(stack)), rank=rank, beta=beta, alpha=alpha)


def test_sigma_partition_validation():
    # 3 center masks of 11: sigma is held as its 3 x 11 center rows
    part = Partition.coordinate_split(1, 2, 1)
    labels = build_index_sets(part)
    blocks = assemble_sigma(make_generic_pmf(4, seed=2), part).blocks
    rows = np.eye(3, 11)
    SigmaPartition(rows, labels, blocks, 1.0)
    for shape in ((11, 11), (3, 10), (4, 11)):
        with pytest.raises(ValueError, match="center rows"):
            SigmaPartition(np.zeros(shape), labels, blocks, 1.0)
    bad = rows.copy()
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        SigmaPartition(bad, labels, blocks, 1.0)
    other = assemble_sigma(make_generic_pmf(3, seed=1), Partition.coordinate_split(1, 1, 1))
    with pytest.raises(ValueError, match="do not index the wings"):
        SigmaPartition(rows, labels, other.blocks, 1.0)
    with pytest.raises(TypeError):
        SigmaPartition(rows, labels, blocks)


def test_schur_kills_conditional_halves_coupling(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    s = block_s(sp.blocks)
    # wings stack left block then right block; entry (A, C) sits at (0, 2)
    assert s[0, 2] == 0.0
    assert np.abs(s[: sp.n_l, sp.n_l :]).max() <= 1e-15
    assert engine.test_ci(halves_pmf, split111).max_offblock_s <= 1e-15


def test_schur_exposes_parity_coupling(xor_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    off = block_s(sp.blocks)[: sp.n_l, sp.n_l :]
    assert np.array_equal(off, [[0.0, 1.0], [1.0, 0.0]])
    assert engine.test_ci(xor_pmf, split111).max_offblock_s == 1.0


def test_schur_with_identity_center_and_zero_coupling(split111):
    labels = build_index_sets(split111)
    sigma = np.eye(5)
    sigma[1, 2] = sigma[2, 1] = 0.5  # inside the left wing
    sp = SigmaPartition(sigma[:1], labels, blocks_of(sigma[1:, 1:], split111), 1.0)
    sr = schur_complement(sp)
    np.testing.assert_array_equal(block_s(sp.blocks), sigma[1:, 1:])
    assert sr.rank_b == 1 and sr.residual == 0.0


def test_schur_with_empty_center():
    part = Partition.coordinate_split(1, 0, 1)
    pmf = make_generic_pmf(2, seed=4)
    sp = assemble_sigma(pmf, part)
    sr = schur_complement(sp)
    assert sp.sigma.shape == (0, 2)
    np.testing.assert_array_equal(block_s(sp.blocks), dense_sigma(pmf, part))
    assert sr.rank_b == 0


def test_block_inverse_matches_dense_inverse_when_nonsingular():
    rng = np.random.default_rng(29)
    for _ in range(20):
        r, s, t = (int(v) for v in rng.integers(1, 3, size=3))
        pmf = make_generic_pmf(r + s + t, seed=int(rng.integers(10_000)))
        assert pmf.probs.min() > 0.0
        part = Partition.coordinate_split(r, s, t)
        sp = assemble_sigma(pmf, part)
        sr = schur_complement(sp)
        om = sb_inverse(sp, sr)
        dense = np.linalg.inv(dense_sigma(pmf, part))
        assert np.abs(om - dense).max() <= 1e-8


def test_block_inverse_decouples_wings_under_ci(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    om = sb_inverse(sp, schur_complement(sp))
    off = om[sp.n_b : sp.n_b + sp.n_l, sp.n_b + sp.n_l :]
    assert np.abs(off).max() <= 1e-10


def test_block_inverse_couples_wings_for_parity(xor_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    om = sb_inverse(sp, schur_complement(sp))
    off = om[sp.n_b : sp.n_b + sp.n_l, sp.n_b + sp.n_l :]
    assert np.abs(off).max() > 0.1


def test_wing_corner_is_schur_pinv_bitwise(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    sr = schur_complement(sp)
    om = sb_inverse(sp, sr)
    assert np.array_equal(om[sp.n_b :, sp.n_b :], sr.s_pinv)
    assert np.abs(om - om.T).max() == 0.0


def test_block_inverse_rejects_broken_rowspace(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    sr = schur_complement(sp)
    broken = SchurResult(
        s_pinv=sr.s_pinv,
        m=sr.m,
        rank_b=sr.rank_b,
        residual=1.0,
        rank_s=sr.rank_s,
        b_pinv=sr.b_pinv,
    )
    with pytest.raises(ValueError, match="the input is not an interaction covariance"):
        sb_inverse(sp, broken)


def test_a_rank_tol_that_cuts_the_center_range_is_named_in_the_refusal():
    # rank_tol 0.1 drops eigenvalues of this covariance's center block, so
    # the wing rows leave the kept row space; the input itself is fine
    part = Partition.coordinate_split(2, 3, 2)
    pmf = make_ci_pmf(2, 3, 2, seed=11, zero_prob=0.3)
    sp = assemble_sigma(pmf, part)
    om = sb_inverse(sp, schur_complement(sp))
    assert sigma_residual(dense_sigma(pmf, part), om) <= 1e-8
    sr = schur_complement(sp, 0.1)
    assert sr.rank_tol == 0.1 and sr.residual > 1e-8
    cut = r"rank_tol 0.1 gave rank\(B\) = 4 where the center support gives 5"
    with pytest.raises(ValueError, match=cut):
        sb_inverse(sp, sr)
    with pytest.raises(ValueError, match=cut) as refused:
        engine.test_ci(pmf, part, rank_tol=0.1)
    assert "not an interaction covariance" not in str(refused.value)


@pytest.mark.parametrize("rank_tol", [0.0, 1e-300])
def test_a_rank_tol_that_keeps_round_off_of_the_center_block_is_named_in_the_refusal(
    rank_tol,
):
    # this ci pmf has zero-mass center configurations, so B is singular; a
    # cut at or near 0 inverts the round-off eigenvalues of its null space
    part = Partition.coordinate_split(2, 3, 2)
    pmf = make_ci_pmf(2, 3, 2, seed=11, zero_prob=0.3)
    verdict = engine.test_ci(pmf, part)
    assert (verdict.rank_b, verdict.support_b) == (5, 6)
    kept = rf"rank_tol {rank_tol} gave rank\(B\) = 7 where the center support gives 5"
    with pytest.raises(ValueError, match=kept):
        engine.test_ci(pmf, part, rank_tol=rank_tol)


def test_rowspace_and_sandwich_identities_across_pmf_mix():
    # 200 covariances, many singular, every one within tolerance
    rng = np.random.default_rng(31)
    count = 0
    while count < 200:
        r, s, t = (int(v) for v in rng.integers(0, 3, size=3))
        if r + s + t < 2 or (r == 0 and t == 0):
            continue
        seed = int(rng.integers(100_000))
        if count % 2:
            pmf = make_ci_pmf(r, s, t, seed=seed, zero_prob=0.3)
        else:
            pmf = make_generic_pmf(r + s + t, seed=seed, zero_fraction=0.25)
        part = Partition.coordinate_split(r, s, t)
        sp = assemble_sigma(pmf, part)
        sr = schur_complement(sp)
        om = sb_inverse(sp, sr)
        assert sr.residual <= 1e-8
        assert sigma_residual(dense_sigma(pmf, part), om) <= 1e-8
        count += 1


def reference_rank(arr):
    # a fresh decomposition of sigma
    vals = np.linalg.eigvalsh((arr + arr.T) / 2.0)
    scale = float(np.abs(vals).max())
    return int((np.abs(vals) > arr.shape[0] * np.finfo(np.float64).eps * scale).sum())


def corpus_mix(count, seed):
    """count (SigmaPartition, dense sigma) pairs of ci and generic pmfs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r, s, t = (int(v) for v in rng.integers(0, 3, size=3))
        if r + s + t < 2 or (r == 0 and t == 0):
            continue
        pmf_seed = int(rng.integers(100_000))
        if len(out) % 2:
            pmf = make_ci_pmf(r, s, t, seed=pmf_seed, zero_prob=0.3)
        else:
            pmf = make_generic_pmf(r + s + t, seed=pmf_seed, zero_fraction=0.25)
        part = Partition.coordinate_split(r, s, t)
        out.append((assemble_sigma(pmf, part), dense_sigma(pmf, part)))
    return out


def test_rank_from_stored_eigenvalues_matches_fresh_decomposition():
    for sp, sigma in corpus_mix(60, 41):
        fresh = np.linalg.eigh(sp.blocks.stack)[0]
        assert np.array_equal(sp.blocks.values, fresh)
        sr = schur_complement(sp)
        assert sr.rank_b + sr.rank_s == reference_rank(sigma)
        assert sr.rank_s == max(reference_rank(sigma) - sr.rank_b, 0)
    assert pinv_sym(np.zeros((0, 0)))[1] == 0


def test_stored_eigenvalues_are_read_only(halves_pmf, split111):
    blocks = assemble_sigma(halves_pmf, split111).blocks
    assert blocks.values.shape == (2, 2)
    with pytest.raises(ValueError):
        blocks.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        blocks.vectors[0, 0, 0] = 1.0


def assert_pinv_matches_reference(a, rank_tol):
    got, rank = pinv_sym(a, rank_tol)
    ref, ref_rank = reference_pinv_eigh(a, rank_tol, 0.0)
    assert np.array_equal(got, ref)
    assert rank == ref_rank


@pytest.mark.parametrize("rank_tol", [None, 1e-10, 1e-3])
def test_pinv_sym_is_bitwise_the_reference_helper(rank_tol):
    rng = np.random.default_rng(47)
    for _ in range(40):
        dim = int(rng.integers(1, 25))
        a = random_psd(rng, dim, int(rng.integers(0, min(4, dim))))
        assert_pinv_matches_reference((a + a.T) / 2.0, rank_tol)
    for sp, sigma in corpus_mix(40, 53):
        assert_pinv_matches_reference(sigma, rank_tol)
        assert_pinv_matches_reference(sigma[sp.n_b :, sp.n_b :], rank_tol)
    assert_pinv_matches_reference(np.zeros((0, 0)), rank_tol)
    assert_pinv_matches_reference(np.zeros((3, 3)), rank_tol)


@pytest.mark.parametrize("rank_tol", [None, 1e-10])
def test_schur_complement_matches_the_reference_helpers(rank_tol):
    cases = corpus_mix(80, 59)
    empty_center = Partition.coordinate_split(1, 0, 2)
    pmf = make_generic_pmf(3, seed=6)
    cases.append((assemble_sigma(pmf, empty_center), dense_sigma(pmf, empty_center)))
    assert cases[-1][0].n_b == 0
    for sp, sigma in cases:
        # B+ and rank(B) are the dense arithmetic; S and S+ come from the
        # center blocks, and tests/test_prism.py holds S+ to the dense one
        dense = reference_schur(sigma, sp.n_b, rank_tol)
        sr = schur_complement(sp, rank_tol)
        gap = np.abs(block_s(sp.blocks) - dense.s).max(initial=0.0)
        assert gap <= dense_schur_gap_bound(sigma, sp.n_b, rank_tol)
        assert sp.scale == float(np.abs(sigma).max())
        assert np.array_equal(sr.b_pinv, dense.b_pinv)
        assert sr.rank_b == dense.rank_b
        assert sr.rank_s == dense.rank_s


def test_center_cutoff_is_anchored_to_the_scale_of_sigma(split111):
    # 1e-17 is far above eps times the center block's own scale, but below
    # eps times max|sigma|, so it counts as zero
    sigma = np.diag([1e-17, 1.0, 1.0, 1.0, 1.0])
    blocks = blocks_of(sigma[1:, 1:], split111)
    sp = SigmaPartition(sigma[:1], build_index_sets(split111), blocks, 1.0)
    sr = schur_complement(sp)
    assert sr.rank_b == 0
    assert np.array_equal(sr.b_pinv, np.zeros((1, 1)))
    assert pinv_sym(sp.b_block)[1] == 1


# The symmetric passes against the plain expressions, at sizes up to and past
# 128 rows.

SIZES = [0, 1, 127, 128, 129, 259, 1536]


def square_inputs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.05] = -0.0
    return a, a + a.T


@pytest.mark.parametrize("n", SIZES)
def test_symmetrize_is_bitwise_the_plain_expression(n):
    for a in square_inputs(n, n):
        plain = (a + a.T) / 2.0
        done = a.copy()
        assert _symmetrize(done) is done
        assert done.shape == plain.shape and done.tobytes() == plain.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_asymmetry_and_max_abs_are_the_plain_reductions(n):
    a, symmetric = square_inputs(n, 100 + n)
    for b in (a, symmetric):
        assert _max_abs(b) == (float(np.abs(b).max()) if n else 0.0)
    # a + a.T passes at zero tolerance; a (past 1 x 1) fails at half its
    # gap and passes at its gap
    _require_symmetric(symmetric, 0.0)
    if n > 1:
        with pytest.raises(ValueError, match="not symmetric within tolerance"):
            _require_symmetric(a, float(np.abs(a - a.T).max()) / 2.0)
    _require_symmetric(a, float(np.abs(a - a.T).max(initial=0.0)))


def test_max_abs_keeps_the_sign_of_zero_and_nan_of_abs():
    for a in (np.array([-0.0, -0.0]), np.array([0.0, -0.0]), np.array([[-0.0]])):
        assert str(_max_abs(a)) == str(float(np.abs(a).max())) == "0.0"
    assert np.isnan(_max_abs(np.array([1.0, np.nan, -3.0])))
    assert _max_abs(np.array([1.0, -3.0])) == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetry_check_refuses_a_non_finite_entry(bad):
    # a nan anywhere, or an inf on the diagonal, makes abs(a - a.T).max()
    # nan, and nan > tol is False: the gap alone would pass them
    a = np.eye(259)
    a[1, 257] = bad
    with pytest.raises(ValueError, match="nan or infinite entry"):
        _require_symmetric(a)
    a[1, 257], a[5, 5] = 0.0, bad
    with pytest.raises(ValueError, match="nan or infinite entry"):
        _require_symmetric(a)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_symmetry_check_passes_at_the_tolerance_and_raises_above_it(tol):
    # the gap sits far from the diagonal, past 128 rows and columns
    n = 259
    i, j = 5, n - 2
    a = np.eye(n)
    a[i, j] = tol
    assert float(np.abs(a - a.T).max()) == tol
    _require_symmetric(a, tol)
    _require_symmetric(a.T.copy(), tol)
    a[i, j] = np.nextafter(tol, 1.0)
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        _require_symmetric(a, tol)
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        _require_symmetric(a.T.copy(), tol)


def test_pinv_sym_symmetry_check_keeps_its_tolerance_past_128_rows():
    n = 129
    a = np.eye(n)
    a[0, n - 1] = 1e-10
    assert pinv_sym(a)[1] == n
    a[0, n - 1] = np.nextafter(1e-10, 1.0)
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        pinv_sym(a)


def test_sigma_partition_check_keeps_its_tolerance_past_128_rows():
    part = Partition.coordinate_split(1, 8, 1)
    sp = assemble_sigma(make_generic_pmf(10, seed=3), part)
    n_b = sp.n_b
    assert n_b > 128
    sigma = sp.sigma.copy()
    sigma[3, n_b - 1], sigma[n_b - 1, 3] = 1e-12, 0.0
    assert SigmaPartition(sigma, sp.labels, sp.blocks, sp.scale).sigma[3, n_b - 1] == 1e-12
    sigma[3, n_b - 1] = np.nextafter(1e-12, 1.0)
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        SigmaPartition(sigma, sp.labels, sp.blocks, sp.scale)


def test_sigma_partition_keeps_a_private_sigma_and_copies_a_shared_one(monkeypatch):
    made, original = [], engine.interaction_cov

    def recording(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(engine, "interaction_cov", recording)
    part = Partition.coordinate_split(1, 1, 1)
    sp = assemble_sigma(make_generic_pmf(3, seed=4), part)
    # assemble_sigma's fresh sigma is handed over, not copied
    assert np.shares_memory(sp.sigma, made[0])
    assert not sp.sigma.flags.writeable and sp.sigma.base is None
    # read-only and owning its memory: taken as it is
    assert np.shares_memory(SigmaPartition(sp.sigma, sp.labels, sp.blocks, sp.scale).sigma, sp.sigma)
    # writable, or a read-only view of a writable array: copied and frozen
    writable = sp.sigma.copy()
    view = writable.view()
    view.flags.writeable = False
    for given in (writable, view):
        kept = SigmaPartition(given, sp.labels, sp.blocks, sp.scale).sigma
        assert not np.shares_memory(kept, writable)
        assert not kept.flags.writeable
        assert np.array_equal(kept, sp.sigma)
