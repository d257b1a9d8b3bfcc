import numpy as np
import pytest

from begin import (
    Partition,
    SchurResult,
    SigmaPartition,
    assemble_sigma,
    build_index_sets,
    make_ci_pmf,
    make_generic_pmf,
    pinv_sym,
    sb_inverse,
    schur_complement,
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


def test_sigma_partition_validation(split111):
    labels = build_index_sets(split111)
    with pytest.raises(ValueError):
        SigmaPartition(np.eye(4), labels)  # needs 5x5
    bad = np.eye(5)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        SigmaPartition(bad, labels)
    with pytest.raises(ValueError):
        SigmaPartition(-np.eye(5), labels)


def test_schur_kills_conditional_halves_coupling(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    sr = schur_complement(sp)
    # wings stack left block then right block; entry (A, C) sits at (0, 2)
    assert sr.s[0, 2] == 0.0
    assert np.abs(sr.s[: sp.n_l, sp.n_l :]).max() <= 1e-15


def test_schur_exposes_parity_coupling(xor_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    sr = schur_complement(sp)
    off = sr.s[: sp.n_l, sp.n_l :]
    assert np.array_equal(off, [[0.0, 1.0], [1.0, 0.0]])


def test_schur_with_identity_center_and_zero_coupling(split111):
    labels = build_index_sets(split111)
    sigma = np.eye(5)
    sigma[1, 2] = sigma[2, 1] = 0.5  # inside the left wing
    sp = SigmaPartition(sigma, labels)
    sr = schur_complement(sp)
    np.testing.assert_array_equal(sr.s, sigma[1:, 1:])
    assert sr.rank_b == 1 and sr.residual == 0.0


def test_schur_with_empty_center():
    part = Partition.coordinate_split(1, 0, 1)
    pmf = make_generic_pmf(2, seed=4)
    sp = assemble_sigma(pmf, part)
    sr = schur_complement(sp)
    np.testing.assert_array_equal(sr.s, sp.wing_block)
    assert sr.rank_b == 0


def test_block_inverse_matches_dense_inverse_when_nonsingular():
    rng = np.random.default_rng(29)
    for _ in range(20):
        r, s, t = (int(v) for v in rng.integers(1, 3, size=3))
        pmf = make_generic_pmf(r + s + t, seed=int(rng.integers(10_000)))
        assert pmf.probs.min() > 0.0
        sp = assemble_sigma(pmf, Partition.coordinate_split(r, s, t))
        sr = schur_complement(sp)
        om = sb_inverse(sp, sr)
        dense = np.linalg.inv(sp.sigma)
        assert np.abs(om.omega - dense).max() <= 1e-8


def test_block_inverse_decouples_wings_under_ci(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    om = sb_inverse(sp, schur_complement(sp))
    off = om.omega[sp.n_b : sp.n_b + sp.n_l, sp.n_b + sp.n_l :]
    assert np.abs(off).max() <= 1e-10


def test_block_inverse_couples_wings_for_parity(xor_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    om = sb_inverse(sp, schur_complement(sp))
    off = om.omega[sp.n_b : sp.n_b + sp.n_l, sp.n_b + sp.n_l :]
    assert np.abs(off).max() > 0.1


def test_wing_corner_is_schur_pinv_bitwise(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    sr = schur_complement(sp)
    om = sb_inverse(sp, sr)
    assert np.array_equal(om.wing_block, sr.s_pinv)
    assert np.abs(om.omega - om.omega.T).max() == 0.0


def test_block_inverse_rejects_broken_rowspace(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    sr = schur_complement(sp)
    broken = SchurResult(
        s=sr.s,
        s_pinv=sr.s_pinv,
        m=sr.m,
        rank_b=sr.rank_b,
        residual=1.0,
        rank_s=sr.rank_s,
        b_pinv=sr.b_pinv,
    )
    with pytest.raises(ValueError):
        sb_inverse(sp, broken)


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
        sp = assemble_sigma(pmf, Partition.coordinate_split(r, s, t))
        sr = schur_complement(sp)
        om = sb_inverse(sp, sr)
        assert sr.residual <= 1e-8
        assert om.sigma_residual <= 1e-8
        count += 1


def reference_rank(arr):
    # the fresh decomposition schur_complement ran before the PSD check's
    # eigenvalues were kept
    vals = np.linalg.eigvalsh((arr + arr.T) / 2.0)
    scale = float(np.abs(vals).max())
    return int((np.abs(vals) > arr.shape[0] * np.finfo(np.float64).eps * scale).sum())


def corpus_mix(count, seed):
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
        out.append(assemble_sigma(pmf, Partition.coordinate_split(r, s, t)))
    return out


def test_rank_from_stored_eigenvalues_matches_fresh_decomposition():
    for sp in corpus_mix(60, 41):
        fresh = np.linalg.eigvalsh((sp.sigma + sp.sigma.T) / 2.0)
        assert np.array_equal(sp.eigenvalues, fresh)
        sr = schur_complement(sp)
        assert sr.rank_b + sr.rank_s == reference_rank(sp.sigma)
        assert sr.rank_s == max(reference_rank(sp.sigma) - sr.rank_b, 0)
    assert pinv_sym(np.zeros((0, 0)))[1] == 0


def test_stored_eigenvalues_are_read_only(halves_pmf, split111):
    sp = assemble_sigma(halves_pmf, split111)
    assert sp.eigenvalues.shape == (5,)
    with pytest.raises(ValueError):
        sp.eigenvalues[0] = 1.0


def test_sigma_residual_is_lazy_and_equals_eager_formula():
    for sp in corpus_mix(30, 43):
        om = sb_inverse(sp, schur_complement(sp))
        assert "sigma_residual" not in vars(om)
        sigma = sp.sigma
        eager = float(np.abs(sigma @ om.omega @ sigma - sigma).max())
        assert om.sigma_residual == eager
        assert vars(om)["sigma_residual"] == eager


# The three eigen helpers schur.py had before they were folded into one,
# kept verbatim as references: the folded helper must reproduce them bit
# for bit.


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


def reference_schur(sp, rank_tol):
    # schur_complement's arithmetic with the reference helpers plugged in
    b, f, d = sp.b_block, sp.f_block, sp.wing_block
    anchor = float(np.abs(sp.sigma).max()) if sp.sigma.size else 0.0
    b_pinv, rank_b = reference_pinv_eigh(b, rank_tol, anchor)
    m = f.T @ b_pinv
    s = d - m @ f if sp.n_b else d.copy()
    s = (s + s.T) / 2.0
    if rank_tol is None:
        rank_s = max(reference_rank_eigh(sp.eigenvalues, None) - rank_b, 0)
        s_pinv = reference_pinv_top(s, rank_s)
    else:
        s_pinv, rank_s = reference_pinv_eigh(s, rank_tol, anchor)
    return s_pinv, b_pinv, rank_b, rank_s


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
    for sp in corpus_mix(40, 53):
        assert_pinv_matches_reference(sp.sigma, rank_tol)
        assert_pinv_matches_reference(sp.wing_block, rank_tol)
    assert_pinv_matches_reference(np.zeros((0, 0)), rank_tol)
    assert_pinv_matches_reference(np.zeros((3, 3)), rank_tol)


@pytest.mark.parametrize("rank_tol", [None, 1e-10])
def test_schur_complement_is_bitwise_the_reference_helpers(rank_tol):
    cases = corpus_mix(80, 59)
    empty_center = Partition.coordinate_split(1, 0, 2)
    cases.append(assemble_sigma(make_generic_pmf(3, seed=6), empty_center))
    assert cases[-1].n_b == 0
    for sp in cases:
        # the reference helpers are the dense path, which a SigmaPartition
        # without center blocks takes
        dense = schur_complement(SigmaPartition(sp.sigma, sp.labels), rank_tol)
        s_pinv, b_pinv, rank_b, rank_s = reference_schur(sp, rank_tol)
        assert np.array_equal(dense.s_pinv, s_pinv)
        assert np.array_equal(dense.b_pinv, b_pinv)
        assert dense.rank_b == rank_b
        assert dense.rank_s == rank_s
        sr = schur_complement(sp, rank_tol)
        assert np.array_equal(sr.b_pinv, b_pinv)
        assert sr.rank_b == rank_b
        assert sr.rank_s == rank_s


def test_center_cutoff_is_anchored_to_the_scale_of_sigma(split111):
    # 1e-17 is far above eps times the center block's own scale, but below
    # eps times max|sigma|, so it counts as zero
    sp = SigmaPartition(np.diag([1e-17, 1.0, 1.0, 1.0, 1.0]), build_index_sets(split111))
    sr = schur_complement(sp)
    assert sr.rank_b == 0
    assert np.array_equal(sr.b_pinv, np.zeros((1, 1)))
    assert pinv_sym(sp.b_block)[1] == 1
