import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from begin import (
    Mask,
    Partition,
    Pmf,
    SubsetFinding,
    assemble_sigma,
    belief_coefficients,
    build_index_sets,
    fwht,
    interaction_cov,
    make_ci_pmf,
    make_generic_pmf,
    scan_markov_chain,
    search_subset_counterexamples,
    subset_offblock,
    verify_block_factorization,
)
from begin import test_ci as decide_ci

from conftest import cell_index, random_chain_pmf
from dense_reference import dense_sigma
from test_bitgroup import OVERLAP, partitions


def direction_one_case():
    """Four coordinates (A, B1, B2, C) where only the {B1} probe vanishes.

    B1 is a fair coin independent of everything else; the remaining three
    coordinates carry a dependence that conditioning on the full center
    detects but conditioning on B1 alone cannot.
    """
    mom3 = {
        0b000: 1.0,
        0b100: 0.25,
        0b010: 0.0,
        0b001: 0.25,
        0b110: 0.25,
        0b011: 0.25,
        0b101: 1.0 / 16.0,
        0b111: 1.0 / 16.0,
    }
    m16 = np.zeros(16)
    for m3, v in mom3.items():
        a, b2, c = (m3 >> 2) & 1, (m3 >> 1) & 1, m3 & 1
        m16[(a << 3) | (b2 << 1) | c] = v
    pmf = Pmf(4, fwht(m16) / 16.0)
    part = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    return pmf, part


def test_sigma_assembly_order_and_entries(xor_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    assert [mk.bits for mk in sp.labels.all_masks()] == [0b010, 0b100, 0b110, 0b001, 0b011]
    # sigma is held as its center row; the whole one is the reference's
    sigma = dense_sigma(xor_pmf, split111)
    assert sp.sigma.shape == (1, 5)
    np.testing.assert_array_equal(sp.sigma, sigma[:1])
    assert sp.scale == float(np.abs(sigma).max()) == 1.0
    # X1*X2 and X3 multiply to the full parity, whose mean is 1 here
    assert sigma[2, 3] == 1.0
    np.testing.assert_array_equal(sigma, sigma.T)


def test_sigma_of_point_mass_is_zero(split111):
    pt = Pmf(3, np.eye(8)[0])
    sp = assemble_sigma(pt, split111)
    assert np.abs(sp.sigma).max() == 0.0 and sp.scale == 0.0


def test_sigma_width_mismatch_raises(split111):
    with pytest.raises(ValueError):
        assemble_sigma(Pmf(2, np.full(4, 0.25)), split111)


def test_ci_holds_on_halves(halves_pmf, split111):
    v = decide_ci(halves_pmf, split111)
    assert v.is_ci
    assert v.max_offblock_s <= 1e-12
    assert v.max_offblock_omega <= 1e-10
    assert v.belief_residual <= 1e-12
    assert v.criteria == {
        "belief": True,
        "factorization": True,
        "schur": True,
        "separation": True,
    }


def test_ci_fails_on_xor(xor_pmf, split111):
    v = decide_ci(xor_pmf, split111)
    assert not v.is_ci
    assert v.max_offblock_s == 1.0
    assert v.belief_residual == 1.0
    assert not any(v.criteria.values())


def test_verdict_json_payload(halves_pmf, split111):
    v = decide_ci(halves_pmf, split111)
    payload = v.to_json_dict()
    assert sorted(payload) == [
        "belief_residual",
        "criteria",
        "is_ci",
        "max_offblock_Omega",
        "max_offblock_S",
        "rank_B",
        "support_B",
        "tol",
    ]
    assert sorted(payload["criteria"]) == ["belief", "factorization", "schur", "separation"]
    assert payload["tol"] == 1e-8
    assert payload["rank_B"] == 1
    assert payload["support_B"] == 2


def test_degenerate_wing_is_trivially_ci():
    # left span collapses into the center, so there is nothing to separate
    part = Partition(
        3,
        a_gens=[Mask(0b010, 3)],
        b_gens=[Mask(0b010, 3), Mask(0b100, 3)],
        c_gens=[Mask(0b001, 3)],
    )
    v = decide_ci(make_generic_pmf(3, seed=5), part)
    assert v.degenerate_wings
    assert v.is_ci
    assert v.max_offblock_s == 0.0


def test_wing_overlap_is_counted():
    part = Partition(
        3,
        a_gens=[Mask(0b110, 3)],
        b_gens=[Mask(0b010, 3)],
        c_gens=[Mask(0b100, 3)],
    )
    v = decide_ci(make_generic_pmf(3, seed=2), part)
    assert v.wing_overlap == 2


def test_verdict_invariant_under_generator_change():
    """Equivalent generating sets span the same groups, so every reported
    number must match exactly, not merely within tolerance."""
    pmf = make_generic_pmf(4, seed=9)
    base = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    recombined = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0110, 4), Mask(0b0100, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    va, vb = decide_ci(pmf, base), decide_ci(pmf, recombined)
    assert va.is_ci == vb.is_ci
    assert va.max_offblock_s == vb.max_offblock_s
    assert va.max_offblock_omega == vb.max_offblock_omega
    assert va.belief_residual == vb.belief_residual
    assert va.rank_b == vb.rank_b


def test_belief_indicator_for_center_member(halves_pmf, split111):
    bc = belief_coefficients(halves_pmf, split111, Mask(0b010, 3), condition_on="C")
    assert bc.members.tolist() == [0b000, 0b010]
    assert bc.members.dtype == np.int64 and not bc.members.flags.writeable
    np.testing.assert_allclose(bc.coefficients, [0.0, 1.0], atol=1e-12)
    assert bc.residual <= 1e-12
    assert bc.fit_residual <= 1e-12


def test_belief_halves_coefficient(halves_pmf, split111):
    bc = belief_coefficients(halves_pmf, split111, Mask(0b100, 3))
    assert bc.condition_on == "C"
    np.testing.assert_allclose(bc.coefficients, [0.0, 0.5], atol=1e-12)
    assert bc.residual <= 1e-12


def test_belief_two_conditioning_gap_on_xor(xor_pmf, split111):
    # the single-conditioning fit is exact, the double-conditioning one is not
    bc = belief_coefficients(xor_pmf, split111, Mask(0b100, 3))
    assert bc.fit_residual <= 1e-12
    assert bc.residual == 1.0


def test_belief_target_outside_spans_raises(halves_pmf):
    part = Partition(3, [Mask(0b100, 3)], [Mask(0b010, 3)], [Mask(0b001, 3)])
    with pytest.raises(ValueError):
        belief_coefficients(halves_pmf, part, Mask(0b101, 3))
    with pytest.raises(ValueError):
        belief_coefficients(halves_pmf, part, Mask(0b100, 3), condition_on="B")
    with pytest.raises(ValueError):
        belief_coefficients(halves_pmf, part, Mask(0b001, 3), condition_on="C")


def test_belief_fitted_values_survive_thin_center():
    """A duplicated center coordinate makes the Gram system singular; the
    minimum-norm coefficients still reproduce the conditional expectation."""
    probs = np.zeros(16)
    for a in (1, -1):
        for b in (1, -1):
            for c in (1, -1):
                pa = (1 + a * b * 0.5) / 2
                pc = (1 + c * b * 0.5) / 2
                probs[cell_index((a, b, b, c))] = 0.5 * pa * pc
    pmf = Pmf(4, probs)
    part = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    bc = belief_coefficients(pmf, part, Mask(0b1000, 4))
    assert len(bc.members) == 4
    assert bc.fit_residual <= 1e-12
    assert bc.residual <= 1e-12


def duplicate_bit(pmf, k):
    """The pmf with a copy of cell-index bit k inserted beside it: one
    coordinate more, equal to the original one."""
    cells = np.arange(pmf.probs.size, dtype=np.int64)
    low = cells & ((1 << k) - 1)
    wide = ((cells >> k) << (k + 1)) | (((cells >> k) & 1) << k) | low
    probs = np.zeros(2 * pmf.probs.size)
    probs[wide] = pmf.probs
    return Pmf(pmf.p + 1, probs)


@st.composite
def belief_case(draw):
    """(pmf, partition) at p <= 8: CI and generic pmfs on coordinate splits,
    thin centers (a center coordinate duplicated) and random parity
    partitions, overlapping wings included."""
    kind = draw(st.sampled_from(["ci", "generic", "thin", "parity"]))
    seed_ = draw(st.integers(0, 10_000))
    if kind == "parity":
        p = draw(st.integers(3, 8))
        gen = st.builds(Mask, st.integers(1, (1 << p) - 1), st.just(p))
        a, b, c = (draw(st.lists(gen, min_size=lo, max_size=3)) for lo in (1, 0, 1))
        return make_generic_pmf(p, seed=seed_, zero_fraction=0.3), Partition(p, a, b, c)
    r, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = draw(st.integers(0 if kind != "thin" else 1, 8 - r - t - (kind == "thin")))
    if kind == "ci":
        return make_ci_pmf(r, s, t, seed=seed_, zero_prob=0.3), Partition.coordinate_split(r, s, t)
    pmf = make_generic_pmf(r + s + t, seed=seed_, zero_fraction=0.3)
    if kind == "generic":
        return pmf, Partition.coordinate_split(r, s, t)
    # the copy of the center's last coordinate joins the center
    return duplicate_bit(pmf, t), Partition.coordinate_split(r, s + 1, t)


def outcome(call):
    try:
        return call()
    except ValueError as err:
        return type(err), str(err)


@seed(13)
@settings(max_examples=80, deadline=None)
@given(case=belief_case(), rank_tol=st.sampled_from([None, 1e-12, 0.3]))
def test_belief_coefficients_match_the_dense_gram_solve(case, rank_tol):
    from dense_reference import _ConfigTable
    from dense_reference import belief_coefficients as dense_belief_coefficients

    pmf, part = case
    labels = build_index_sets(part)
    # the dense solve is exact up to eigh noise, which grows with the Gram
    # condition number: its eigenvalues are 2^s p_b
    mass = _ConfigTable.of(pmf, [m.bits for m in part.b_span.basis]).mass
    spread = mass.max() / mass[mass > 0.0].min()
    tol = max(1e-12, 8 * mass.size * np.finfo(np.float64).eps * spread)
    for target in labels.l_set + labels.r_set:
        for side in ("C", "A"):
            args = (pmf, part, target, side, rank_tol)
            new = outcome(lambda: belief_coefficients(*args))
            old = outcome(lambda: dense_belief_coefficients(*args))
            if isinstance(old, tuple):
                assert new == old
                continue
            assert new.members.tolist() == [m.bits for m in old.members]
            assert new.condition_on == old.condition_on
            assert np.abs(new.coefficients - old.coefficients).max() <= tol
            assert abs(new.residual - old.residual) <= tol
            assert abs(new.fit_residual - old.fit_residual) <= tol


def test_belief_residual_is_exactly_zero_on_ci_splits():
    for r, s, t in ((1, 1, 1), (2, 2, 2), (2, 3, 1), (1, 0, 2), (3, 2, 2), (1, 4, 1)):
        part = Partition.coordinate_split(r, s, t)
        labels = build_index_sets(part)
        for seed_ in range(3):
            for zero_prob in (0.0, 0.3):
                pmf = make_ci_pmf(r, s, t, seed=seed_, zero_prob=zero_prob)
                for side, targets in (("C", labels.l_set), ("A", labels.r_set)):
                    for target in targets:
                        bc = belief_coefficients(pmf, part, target, side)
                        assert bc.residual == 0.0


@seed(14)
@settings(max_examples=60, deadline=None)
@given(case=belief_case())
@example(
    case=(
        make_generic_pmf(3, seed=5, zero_fraction=0.3),
        Partition(3, (Mask(0b110, 3),), (Mask(0b010, 3),), (Mask(0b100, 3),)),
    )
)
def test_belief_route_of_test_ci_is_the_worst_wing_target(case):
    """test_ci's belief residual is the largest two-conditioning residual of
    belief_coefficients over the left-wing targets given C and the
    right-wing ones given A."""
    pmf, part = case
    labels = build_index_sets(part)
    residuals = [
        belief_coefficients(pmf, part, target, side).residual
        for side, targets in (("C", labels.l_set), ("A", labels.r_set))
        for target in targets
    ]
    worst = max(residuals, default=0.0)
    verdict = decide_ci(pmf, part).belief_residual
    coordinates = all(
        g.bits & (g.bits - 1) == 0 for g in part.a_gens + part.b_gens + part.c_gens
    )
    if coordinates:
        assert verdict == worst
    else:
        assert abs(verdict - worst) <= 1e-12


def test_belief_coefficients_at_an_18_bit_center():
    """E[X_A | b] = 1/8 - 3/8 X_{B1...B18}: two nonzero coefficients out of
    2^18, where a dense Gram matrix would hold 2^36 entries."""
    s = 18
    cells = np.arange(1 << (s + 2), dtype=np.int64)
    center = (cells >> 1) & ((1 << s) - 1)
    x_a = 1.0 - 2.0 * (cells >> (s + 1))
    x_c = 1.0 - 2.0 * (cells & 1)
    x_b1 = 1.0 - 2.0 * ((cells >> s) & 1)
    x_center = 1.0 - 2.0 * (np.bitwise_count(center) & 1)
    given_a = 0.125 - 0.375 * x_center
    # p(b) uniform, p(a | b) from given_a, p(c | b) through B1 only
    probs = (1.0 + x_a * given_a) * (1.0 + x_c * x_b1 / 2.0) / (1 << (s + 2))
    pmf = Pmf(s + 2, probs)
    bc = belief_coefficients(pmf, Partition.coordinate_split(1, s, 1), Mask(1 << (s + 1), s + 2))
    full = (1 << s) - 1
    assert bc.condition_on == "C"
    assert bc.members[0] == 0 and bc.members[full] == full << 1
    assert bc.coefficients[0] == 0.125
    assert bc.coefficients[full] == -0.375
    assert np.count_nonzero(bc.coefficients) == 2
    assert bc.residual == 0.0
    assert bc.fit_residual == 0.0


def test_factorization_witness_on_halves(halves_pmf, split111):
    fw = verify_block_factorization(halves_pmf, split111)
    assert bool(fw)
    assert fw.lhs[0, 0] == 0.25
    np.testing.assert_allclose(fw.m1[:, 0], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(fw.m2[:, 0], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(fw.rhs, fw.lhs, atol=1e-12)
    assert fw.gap <= 1e-12


def test_factorization_fails_on_xor(xor_pmf, split111):
    fw = verify_block_factorization(xor_pmf, split111)
    assert not fw
    assert fw.gap == 1.0


def test_factorization_with_empty_center():
    part = Partition(2, [Mask(0b10, 2)], [], [Mask(0b01, 2)])
    prod = Pmf(2, np.outer([0.3, 0.7], [0.6, 0.4]).reshape(-1))
    fw = verify_block_factorization(prod, part)
    assert bool(fw)
    assert np.abs(fw.rhs).max() == 0.0
    copy = Pmf(2, np.array([0.5, 0.0, 0.0, 0.5]))
    fc = verify_block_factorization(copy, part)
    assert not fc
    assert fc.gap == 1.0


def test_chain_scans_pass_on_random_chains():
    for seed in (11, 12, 13):
        pmf = random_chain_pmf(4, seed)
        verdicts = scan_markov_chain(pmf, 4)
        assert len(verdicts) == 2
        assert all(v.is_ci for v in verdicts)
        assert max(v.max_offblock_s for v in verdicts) <= 1e-12


def test_chain_scan_on_iid():
    verdicts = scan_markov_chain(Pmf(3, np.full(8, 0.125)), 3)
    assert [v.is_ci for v in verdicts] == [True]


def test_chain_scan_flags_skip_link():
    # X3 copies X1 past the middle coordinate, so the split at 2 fails
    probs = np.zeros(8)
    for a in (1, -1):
        for b in (1, -1):
            probs[cell_index((a, b, a))] = 0.25
    verdicts = scan_markov_chain(Pmf(3, probs), 3)
    assert [v.is_ci for v in verdicts] == [False]
    assert verdicts[0].max_offblock_s == 1.0


def test_chain_scan_validation():
    iid = Pmf(3, np.full(8, 0.125))
    with pytest.raises(ValueError):
        scan_markov_chain(Pmf(2, np.full(4, 0.25)), 2)
    with pytest.raises(ValueError):
        scan_markov_chain(iid, 4)


def test_center_subset_hides_a_dependence():
    """Conditioning on the independent B1 alone reports a vanishing
    off-block even though the full-center verdict is negative."""
    pmf, part = direction_one_case()
    full = decide_ci(pmf, part)
    assert not full.is_ci
    assert full.max_offblock_s == 0.0625
    assert subset_offblock(pmf, part, [Mask(0b0100, 4)]) == 0.0
    # a subset or partition of another width is refused, not read as bits
    for subset, other in (([Mask(0b010, 3)], part), ([], Partition.coordinate_split(1, 1, 1))):
        with pytest.raises(ValueError, match="width mismatch"):
            subset_offblock(pmf, other, subset)
    findings = search_subset_counterexamples([(pmf, part)])
    ones = [f for f in findings if f.direction == 1]
    assert {mk.bits for f in ones for mk in f.subset} == {0b0100, 0b0110}
    assert all(f.offblock == 0.0 for f in ones)
    assert all(f.full_offblock == 0.0625 for f in ones)


def test_center_subset_fakes_a_dependence():
    # direction 2: the pmf is conditionally independent given the full
    # center, yet every probed proper subset leaves a visible off-block
    part = Partition.coordinate_split(1, 2, 1)
    for seed in (1, 2, 3):
        pmf = make_ci_pmf(1, 2, 1, seed=seed)
        assert decide_ci(pmf, part).is_ci
        twos = [
            f
            for f in search_subset_counterexamples([(pmf, part)])
            if f.direction == 2
        ]
        assert twos
        assert all(f.offblock >= 1e-2 for f in twos)
        assert all(f.full_offblock <= 1e-8 for f in twos)


def test_subset_search_skips_single_mask_centers(halves_pmf, split111):
    assert search_subset_counterexamples([(halves_pmf, split111)]) == []


def test_a_subset_mask_that_is_no_distinct_center_mask_is_refused_naming_it(monkeypatch):
    import begin.engine as engine_module

    def build(*args):
        raise AssertionError("admitted or index sets built")

    monkeypatch.setattr(engine_module, "_admit_sigma", build)
    monkeypatch.setattr(engine_module, "build_index_sets", build)
    pmf, part = make_generic_pmf(4, seed=1), Partition.coordinate_split(1, 2, 1)
    # A's coordinate and the zero mask once read as 0.3534 and 0.3545
    for subset, named in (([Mask(0b1000, 4)], "1000"), ([Mask(0, 4)], "0000"),
                          ([Mask(0b0100, 4), Mask(0b0110, 4), Mask(0b0100, 4)], "0100")):
        with pytest.raises(ValueError, match=rf"^subset mask {named} is not a distinct nonzero "):
            subset_offblock(pmf, part, subset)


def test_a_width_mismatch_is_refused_before_the_size_rule():
    # a 24-bit partition's sigma is also past the byte limit, which was the
    # refusal test_ci gave
    pmf, part = make_generic_pmf(4, seed=1), Partition.coordinate_split(2, 20, 2)
    calls = (lambda: decide_ci(pmf, part), lambda: assemble_sigma(pmf, part),
             lambda: verify_block_factorization(pmf, part),
             lambda: subset_offblock(pmf, part, part.b_gens[:1]),
             lambda: belief_coefficients(pmf, part, Mask(0b1000, 4)))
    message = r"^width mismatch: pmf width 4 != partition width 24$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_belief_coefficients_name_the_target_width_of_a_mismatch():
    # once a bare "width mismatch"
    pmf, part = ci_121()
    with pytest.raises(ValueError, match=r"^width mismatch: target width 3 != pmf width 4$"):
        belief_coefficients(pmf, part, Mask(0b100, 3))


# A subset probe is the factorization gap over the subset's center masks, read
# off sigma's center rows and its L x R corner, with no n x n sigma.

OVERLAP7 = Partition(
    7,
    (Mask(0b1100000, 7), Mask(0b0011000, 7)),
    (Mask(0b0110000, 7), Mask(0b0000100, 7)),
    (Mask(0b0011000, 7), Mask(0b0000011, 7)),
)


@seed(24)
@settings(max_examples=80, deadline=None)
@given(case=belief_case(), pattern=st.integers(0, (1 << 20) - 1),
       rank_tol=st.sampled_from([None, 1e-10]))
@example(case=(make_generic_pmf(7, seed=4, zero_fraction=0.3), OVERLAP7), pattern=0b10110,
         rank_tol=None)
@example(case=(make_ci_pmf(1, 5, 1, seed=4, zero_prob=0.3), OVERLAP7), pattern=0b1011,
         rank_tol=1e-10)
def test_a_subset_probe_matches_the_dense_schur_corner(case, pattern, rank_tol):
    from dense_reference import dense_schur_gap_bound, reference_subset_offblock

    pmf, part = case
    labels = build_index_sets(part)
    subset = [mk for i, mk in enumerate(labels.b_set) if pattern >> i & 1]
    center = np.array([mk.bits for mk in subset], dtype=np.int64)
    bits = np.concatenate([center, labels.l_bits, labels.r_bits])
    bound = dense_schur_gap_bound(interaction_cov(pmf, bits, bits), len(subset), rank_tol)
    old = reference_subset_offblock(pmf, part, subset, rank_tol)
    assert abs(subset_offblock(pmf, part, subset, rank_tol) - old) <= bound


@seed(25)
@settings(max_examples=80, deadline=None)
@given(case=belief_case(), rank_tol=st.sampled_from([None, 1e-10]))
@example(case=(make_generic_pmf(7, seed=4, zero_fraction=0.3), OVERLAP7), rank_tol=None)
def test_the_whole_center_probe_is_the_verdicts_schur_offblock(case, rank_tol):
    from dense_reference import dense_schur_gap_bound

    pmf, part = case
    center = build_index_sets(part).b_set
    bound = dense_schur_gap_bound(dense_sigma(pmf, part), len(center), rank_tol)
    verdict = decide_ci(pmf, part, rank_tol=rank_tol)
    assert abs(subset_offblock(pmf, part, center, rank_tol) - verdict.max_offblock_s) <= bound


@st.composite
def search_case(draw):
    """A belief_case whose center has 2 to 7 masks, so at most 126 subsets."""
    pmf, part = draw(belief_case())
    assume(2 <= build_index_sets(part).b_bits.size <= 7)
    return pmf, part


@seed(26)
@settings(max_examples=60, deadline=None)
@given(case=search_case())
@example(case=direction_one_case())
@example(case=(make_ci_pmf(1, 2, 1, seed=1), Partition.coordinate_split(1, 2, 1)))
@example(case=(make_generic_pmf(7, seed=4, zero_fraction=0.3), OVERLAP7))
@example(case=(make_ci_pmf(1, 5, 1, seed=4, zero_prob=0.3), OVERLAP7))
def test_search_findings_are_the_subset_probe_loop(case):
    """Every finding, floats included, is what subset_offblock gives over the
    same subset under the same rule, in subset order."""
    pmf, part = case
    full = decide_ci(pmf, part)
    center = build_index_sets(part).b_set
    expected = []
    for pattern in range(1, (1 << len(center)) - 1):
        subset = tuple(mk for i, mk in enumerate(center) if pattern >> i & 1)
        off = subset_offblock(pmf, part, subset)
        if full.is_ci and off >= 1e-2:
            expected.append(SubsetFinding(0, subset, 2, off, full.max_offblock_s))
        elif not full.is_ci and off <= 1e-8:
            expected.append(SubsetFinding(0, subset, 1, off, full.max_offblock_s))
    assert search_subset_counterexamples([case]) == expected


def test_the_search_reads_each_case_once_whatever_its_subset_count(monkeypatch):
    import begin.engine as engine_module

    calls = []
    for name in ("interaction_cov", "moments_from_pmf"):
        def counted(*args, _name=name, _real=getattr(engine_module, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(engine_module, name, counted)
    counts = []
    # 6, 126, 6 and 6 proper center subsets; the third has overlapping wings
    for case in ((make_generic_pmf(4, seed=2), Partition.coordinate_split(1, 2, 1)),
                 (make_ci_pmf(1, 3, 1, seed=2), Partition.coordinate_split(1, 3, 1)),
                 (make_generic_pmf(7, seed=4, zero_fraction=0.3), OVERLAP7),
                 direction_one_case()):
        calls.clear()
        search_subset_counterexamples([case])
        counts.append((calls.count("interaction_cov"), calls.count("moments_from_pmf")))
    # the probe's rows, corner and moments: the verdict reads no center row
    assert counts == [(2, 1)] * 4


@pytest.mark.parametrize("shape", [(2, 7, 2), (2, 8, 2)])
def test_a_subset_probe_holds_little_beyond_the_wing_corner(shape):
    """Its traced peak stays within 4 times the L x R corner (8 n_l n_r
    bytes): sigma[L, R], M1 B M2' and their difference."""
    part = Partition.coordinate_split(*shape)
    pmf = make_generic_pmf(sum(shape), seed=7, zero_fraction=0.3)
    labels = build_index_sets(part)
    subset = labels.b_set[:3]
    subset_offblock(pmf, part, subset)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        subset_offblock(pmf, part, subset)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * labels.l_bits.size * labels.r_bits.size


def test_support_b_counts_positive_mass_center_configurations():
    part = Partition.coordinate_split(1, 3, 1)
    thinned = 0
    for seed in range(20):
        pmf = make_ci_pmf(1, 3, 1, seed=seed, zero_prob=0.3)
        v = decide_ci(pmf, part)
        # the center is coordinates 2..4 of 5, bits 3..1 of the cell index
        expected = len(set(((pmf.support >> 1) & 0b111).tolist()))
        assert v.support_b == expected
        assert v.rank_b == expected - 1
        thinned += expected < 8
    assert thinned > 0


def reference_belief_residual(pmf, part, labels):
    # the belief route before it evaluated only complement representatives
    # and read them off the (b, a, c) table: one pair of conditional-mean
    # tables per wing mask, given the center and the far block's own basis
    from dense_reference import _chi, _ConfigTable

    b_basis = [m.bits for m in part.b_span.basis]
    center = _ConfigTable.of(pmf, b_basis)

    def cond_table_residual(targets_bits, other_basis):
        joint = _ConfigTable.of(pmf, b_basis + other_basis)
        pos = joint.positive
        parent = (np.arange(joint.mass.size) >> len(other_basis))[pos]
        worst = 0.0
        for t in targets_bits:
            chi = _chi(center.cells, t)
            gap = np.abs(joint.cond_mean(chi)[pos] - center.cond_mean(chi)[parent])
            worst = max(worst, float(gap.max()))
        return worst

    c_basis = [m.bits for m in part.c_span.basis]
    a_basis = [m.bits for m in part.a_span.basis]
    left = cond_table_residual([m.bits for m in labels.l_set], c_basis)
    right = cond_table_residual([m.bits for m in labels.r_set], a_basis)
    return max(left, right)


def belief_cases():
    rng = np.random.default_rng(61)
    cases = []
    for r, s, t in ((1, 1, 1), (2, 2, 2), (2, 3, 1), (1, 0, 2), (3, 2, 2)):
        part = Partition.coordinate_split(r, s, t)
        for k in range(4):
            cases.append((make_ci_pmf(r, s, t, seed=k, zero_prob=0.3), part))
            cases.append((make_generic_pmf(r + s + t, seed=k, zero_fraction=0.25), part))
    while len(cases) < 100:
        p = int(rng.integers(3, 7))
        gens = [
            tuple(Mask(int(rng.integers(1, 1 << p)), p) for _ in range(int(rng.integers(lo, 3))))
            for lo in (1, 0, 1)
        ]
        try:
            part = Partition(p, *gens)
        except ValueError:
            continue
        cases.append((make_generic_pmf(p, seed=len(cases), zero_fraction=0.3), part))
    # a wide split: 3 complement characters per wing, 192 wing masks
    cases.append((make_generic_pmf(10, seed=3), Partition.coordinate_split(2, 6, 2)))
    return cases


def test_belief_on_complement_representatives_is_bitwise_the_all_targets_loop():
    from begin.engine import _belief_residual, _wing_table

    overlapping = 0
    for pmf, part in belief_cases():
        labels = build_index_sets(part)
        overlapping += bool(labels.overlap)
        expected = reference_belief_residual(pmf, part, labels)
        assert _belief_residual(_wing_table(pmf, part), part) == expected
        assert decide_ci(pmf, part).belief_residual == expected
    assert overlapping


def test_belief_route_evaluates_few_targets_at_a_wide_split(monkeypatch):
    import begin.engine as engine

    tables = []
    real_gap = engine._forget_gap
    monkeypatch.setattr(
        engine, "_forget_gap", lambda mass: tables.append(mass.shape) or real_gap(mass)
    )
    # 2 + 6 + 2 coordinates: one (b, a, c) table read once per wing, 3
    # complement characters per wing, not 192 masks nor a pass per target
    decide_ci(make_generic_pmf(10, seed=3), Partition.coordinate_split(2, 6, 2))
    assert tables == [(64, 4, 4), (64, 4, 4)]


# Byte admission: a partition whose n x n float64 sigma would pass the
# 128 MiB limit is refused before interaction_cov allocates it.


class Allocated(Exception):
    pass


def refuse_to_allocate(monkeypatch):
    import begin.engine as engine_module

    def allocate(*args):
        raise Allocated

    monkeypatch.setattr(engine_module, "interaction_cov", allocate)


def test_sigma_past_the_byte_limit_is_refused_before_allocation(monkeypatch):
    from begin.bitgroup import _BYTE_LIMIT

    refuse_to_allocate(monkeypatch)
    part = Partition.coordinate_split(2, 10, 2)
    pmf = make_generic_pmf(14, seed=1)
    n = 7167
    assert len(build_index_sets(part).all_masks()) == n and 8 * n * n > _BYTE_LIMIT == 1 << 27
    message = rf"n = {n} masks needs {8 * n * n} bytes, beyond the {_BYTE_LIMIT}-byte limit"
    with pytest.raises(ValueError, match=message):
        assemble_sigma(pmf, part)
    with pytest.raises(ValueError, match=message):
        decide_ci(pmf, part)


def test_subset_sigma_past_the_byte_limit_is_refused_before_allocation(monkeypatch):
    from begin.bitgroup import _BYTE_LIMIT

    refuse_to_allocate(monkeypatch)
    part = Partition.coordinate_split(1, 11, 1)
    labels = build_index_sets(part)
    # one center mask and both wings: n = 4097, the first n past the limit
    n = 1 + labels.l_bits.size + labels.r_bits.size
    assert n == 4097 and 8 * n * n > _BYTE_LIMIT >= 8 * (n - 1) ** 2
    message = rf"n = {n} masks needs {8 * n * n} bytes, beyond the {_BYTE_LIMIT}-byte limit"
    with pytest.raises(ValueError, match=message):
        subset_offblock(make_generic_pmf(13, seed=1), part, [labels.b_set[0]])


@pytest.mark.parametrize("shape", [(3, 5, 3), (2, 7, 2), (2, 8, 2), (2, 9, 2)])
def test_benchmark_and_roadmap_shapes_are_admitted(monkeypatch, shape):
    refuse_to_allocate(monkeypatch)
    part = Partition.coordinate_split(*shape)
    sp = assemble_sigma(make_generic_pmf(sum(shape), seed=2), part)
    # the center rows are formed when first read
    with pytest.raises(Allocated):
        sp.sigma


def test_a_refused_sigma_builds_no_index_sets(monkeypatch):
    import begin.engine as engine_module

    def build(*args):
        raise AssertionError("index sets or mass table built")

    monkeypatch.setattr(engine_module, "build_index_sets", build)
    monkeypatch.setattr(engine_module, "_wing_table", build)
    part = Partition.coordinate_split(2, 10, 2)
    pmf = make_generic_pmf(14, seed=1)
    # a verdict's sigma holds 1023 + (3 + 3) 1024 masks, a one-mask probe's 1 + 6144
    for n, call in ((7167, lambda: decide_ci(pmf, part)),
                    (6145, lambda: subset_offblock(pmf, part, part.b_gens[:1]))):
        with pytest.raises(ValueError, match=rf"^sigma over n = {n} masks needs {8 * n * n} "):
            call()


@seed(23)
@settings(max_examples=300, deadline=None)
@given(part=partitions(), n_b=st.integers(0, 3))
@example(part=OVERLAP, n_b=1)  # overlapping wings
@example(part=Partition.coordinate_split(2, 0, 3), n_b=0)  # empty center
def test_the_admitted_sigma_size_is_the_index_set_size(part, n_b):
    import begin.engine as engine_module

    labels = build_index_sets(part)
    pmf = Pmf(part.p, np.full(1 << part.p, 0.5**part.p))
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "_admit", lambda what, *shape: shapes.append(shape))
        engine_module._admit_sigma(pmf, part, labels.b_bits.size)
        engine_module._admit_sigma(pmf, part, n_b)
    wings = labels.l_bits.size + labels.r_bits.size
    assert shapes == [(labels.b_bits.size + wings,) * 2, (n_b + wings,) * 2]


# Sigma enters a verdict and a graph export only through its center rows:
# no call forms the n x n sigma or its wing block.


def test_verdicts_and_graphs_ask_interaction_cov_for_the_center_rows_only(
    monkeypatch, tmp_path, capsys
):
    import begin.engine as engine_module
    from begin import partition_to_json, write_pmf_csv
    from begin.cli import main

    shapes, real = [], engine_module.interaction_cov

    def recording(pmf, rows, cols):
        shapes.append((len(rows), len(cols)))
        return real(pmf, rows, cols)

    monkeypatch.setattr(engine_module, "interaction_cov", recording)
    overlap = Partition(3, (Mask(0b110, 3),), (Mask(0b100, 3),), (Mask(0b010, 3),))
    cases = [
        (make_ci_pmf(2, 3, 2, seed=11, zero_prob=0.3), Partition.coordinate_split(2, 3, 2)),
        (make_generic_pmf(3, seed=6), Partition.coordinate_split(1, 0, 2)),
        (make_generic_pmf(3, seed=2), overlap),
    ]
    for k, (pmf, part) in enumerate(cases):
        labels = build_index_sets(part)
        n_b, n = len(labels.b_set), len(labels.all_masks())
        assert assemble_sigma(pmf, part).sigma.shape == (n_b, n)
        pmf_file, part_file = tmp_path / f"{k}.csv", tmp_path / f"{k}.json"
        write_pmf_csv(pmf, str(pmf_file))
        part_file.write_text(partition_to_json(part))
        # with no rank_tol a verdict reads no center row
        runs = (
            (lambda: decide_ci(pmf, part), []),
            (lambda: decide_ci(pmf, part, rank_tol=1e-10), [(n_b, n)]),
            (lambda: main(["graph", str(pmf_file), "--partition", str(part_file)]), [(n_b, n)]),
        )
        for run, asked in runs:
            shapes.clear()
            run()
            assert shapes == asked
    assert capsys.readouterr().err == ""


# A verdict holds its index sets as mask-bit arrays: the only Masks it makes
# are the bases of the spans it forms.


def test_a_verdict_makes_no_mask_per_index_set_member(monkeypatch):
    part = Partition.coordinate_split(2, 8, 2)
    pmf = make_generic_pmf(12, seed=5, zero_fraction=0.3)
    # the partition's own spans are formed on its first verdict and kept
    first = decide_ci(pmf, part)
    made, real = [], Mask.__post_init__

    def counting(self):
        made.append(self.bits)
        real(self)

    monkeypatch.setattr(Mask, "__post_init__", counting)
    assert decide_ci(pmf, part) == first
    # the bases of span(A,B), span(B,C) and their intersection, of 1791 masks
    assert len(made) <= 3 * part.p


BAD_TOLERANCES = [float("nan"), float("inf"), -1.0]


def bad_tolerance(name, value):
    return f"{name} must be finite and non-negative, got {value!r}"


def ci_121():
    return make_ci_pmf(1, 2, 1, seed=3), Partition.coordinate_split(1, 2, 1)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_block_factorization_refuses_a_bad_tol_or_rank_tol(bad):
    # rank_tol nan once reported "does not factorize" on this CI pmf, and -1 a nan gap
    pmf, part = ci_121()
    assert verify_block_factorization(pmf, part)
    with pytest.raises(ValueError, match=bad_tolerance("rank_tol", bad)):
        verify_block_factorization(pmf, part, rank_tol=bad)
    with pytest.raises(ValueError, match=bad_tolerance("tol", bad)):
        verify_block_factorization(pmf, part, tol=bad)


def test_block_factorization_forms_no_schur_pseudoinverse(monkeypatch):
    from begin.schur import CenterBlocks

    cases = [ci_121(), (make_generic_pmf(5, seed=3), Partition.coordinate_split(1, 3, 1))]
    expected = [verify_block_factorization(pmf, part, rank_tol=rank_tol)
                for pmf, part in cases for rank_tol in (None, 1e-10)]

    def refuse(self, rank_tol=None):
        raise AssertionError("S+ formed")

    monkeypatch.setattr(CenterBlocks, "pinv_table", refuse)
    found = [verify_block_factorization(pmf, part, rank_tol=rank_tol)
             for pmf, part in cases for rank_tol in (None, 1e-10)]
    for old, new in zip(expected, found):
        assert (new.ok, new.gap) == (old.ok, old.gap)
        for name in ("m1", "m2", "lhs", "rhs"):
            assert np.array_equal(getattr(new, name), getattr(old, name))


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_belief_coefficients_refuse_a_bad_rank_tol(bad):
    # rank_tol nan once gave all-zero coefficients with residual 1.0
    pmf, part = ci_121()
    with pytest.raises(ValueError, match=bad_tolerance("rank_tol", bad)):
        belief_coefficients(pmf, part, Mask(0b1000, 4), rank_tol=bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_subset_offblock_refuses_a_bad_rank_tol(bad):
    pmf, part = ci_121()
    with pytest.raises(ValueError, match=bad_tolerance("rank_tol", bad)):
        subset_offblock(pmf, part, [Mask(0b0100, 4)], rank_tol=bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_subset_search_refuses_a_bad_magnitude_before_reading_a_case(bad):
    def cases():
        raise AssertionError("a case was read")
        yield

    with pytest.raises(ValueError, match=bad_tolerance("magnitude", bad)):
        search_subset_counterexamples(cases(), magnitude=bad)
    with pytest.raises(ValueError, match=bad_tolerance("tol", bad)):
        search_subset_counterexamples(cases(), tol=bad)


@pytest.mark.parametrize("kind", ["ci", "generic"])
@pytest.mark.parametrize("shape", [(3, 5, 3), (2, 7, 2), (2, 8, 2)])
def test_a_verdict_forms_no_n_by_n_array(shape, kind):
    """A verdict's traced peak stays within half of what an n x n Omega
    would take (8 n^2 bytes): Omega is held by its blocks, its L x R block
    and separation are read off S+'s table, and no Omega, S+, edge array or
    n x n mask is formed.  Where the center is wide, the peak also stays
    below sigma's n_b x n center rows (8 n_b n bytes), which a verdict
    without rank_tol does not form."""
    part = Partition.coordinate_split(*shape)
    if kind == "ci":
        pmf = make_ci_pmf(*shape, seed=7, zero_prob=0.3)
    else:
        pmf = make_generic_pmf(sum(shape), seed=7, zero_fraction=0.3)
    labels = build_index_sets(part)
    n, n_b = len(labels.all_masks()), labels.b_bits.size
    decide_ci(pmf, part)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        decide_ci(pmf, part)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n
    if shape != (3, 5, 3):
        assert peak < 8 * n_b * n


def test_probes_form_no_row_space_residual(monkeypatch):
    import begin.schur as schur_module

    def refuse(*args):
        raise AssertionError("row-space residual formed")

    pmf, part = ci_121()
    subset = build_index_sets(part).b_set[:1]
    expected = (verify_block_factorization(pmf, part).gap, subset_offblock(pmf, part, subset))
    monkeypatch.setattr(schur_module, "_row_space_residual", refuse)
    assert (verify_block_factorization(pmf, part).gap, subset_offblock(pmf, part, subset)) == expected
    # a verdict checks the row space only under a rank_tol
    with pytest.raises(AssertionError, match="row-space residual formed"):
        decide_ci(pmf, part, rank_tol=1e-10)


def test_a_verdict_without_rank_tol_forms_no_dense_center_work(monkeypatch):
    """Without rank_tol a verdict reads rank_B off the center support: it
    runs no _schur_parts (B's eigendecomposition, B+ and M) and forms no
    row-space residual, and every field is what it was; with rank_tol it
    still forms both."""
    import begin.schur as schur_module

    cases = [
        ci_121(),
        (make_generic_pmf(7, seed=5, zero_fraction=0.3), Partition.coordinate_split(2, 3, 2)),
        (make_ci_pmf(2, 3, 2, seed=11, zero_prob=0.3), Partition.coordinate_split(2, 3, 2)),
        (make_generic_pmf(2, seed=4), Partition.coordinate_split(1, 0, 1)),
        (make_generic_pmf(3, seed=2), OVERLAP),
    ]
    expected = [decide_ci(pmf, part) for pmf, part in cases]
    calls = []
    for name in ("_schur_parts", "_row_space_residual"):
        def refuse(*args, _name=name):
            calls.append(_name)
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(schur_module, name, refuse)
    got = [decide_ci(pmf, part) for pmf, part in cases]
    assert [repr(v) for v in got] == [repr(v) for v in expected]
    assert all(v.rank_b == v.support_b - 1 for v in got)
    assert not calls
    monkeypatch.undo()
    for name in ("_schur_parts", "_row_space_residual"):
        def counted(*args, _name=name, _real=getattr(schur_module, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(schur_module, name, counted)
    for pmf, part in cases:
        calls.clear()
        decide_ci(pmf, part, rank_tol=1e-10)
        assert calls == ["_schur_parts", "_row_space_residual"]
