"""End-to-end checks of every advertised guarantee, one test per claim.

The corpus fixture freezes the generator seeds, so reruns always exercise
the identical 400 distributions: 200 conditionally independent (half with
zeroed cells) and 200 generic (half with zeroed cells), over all block
shapes with one or two coordinates per block.
"""

import json
import time

import numpy as np
import pytest

from begin import (
    GridSource,
    Mask,
    Partition,
    Pmf,
    SchurResult,
    SmoothSource,
    assemble_sigma,
    build_graph,
    delta_curve,
    fwht,
    interaction_cov,
    make_ci_pmf,
    make_generic_pmf,
    make_ising_cycle_pmf,
    moments_from_pmf,
    oracle_ci,
    oracle_second_moment,
    partition_to_json,
    pinv_sym,
    prism,
    prism_recursion_check,
    quantized_ci_scan,
    read_pmf_csv,
    sb_inverse,
    scan_markov_chain,
    schur_complement,
    separates,
    write_pmf_csv,
)
from begin.cli import main as cli_main
from begin.distribution import _dyadic_probs
from begin.engine import test_ci as decide_ci

from conftest import naive_wht, random_chain_pmf
from dense_reference import (
    block_s,
    dense_sigma,
    reference_edges,
    reference_separates,
    sigma_residual,
)
from test_graph import overlapping_parity_cases

TOL = 1e-8
SHAPES = [
    (1, 0, 1),
    (1, 1, 1),
    (2, 1, 1),
    (1, 1, 2),
    (2, 2, 1),
    (1, 2, 1),
    (2, 1, 2),
    (1, 2, 2),
    (2, 2, 2),
    (2, 0, 2),
]


@pytest.fixture(scope="module")
def corpus():
    records = []
    for r, s, t in SHAPES:
        part = Partition.coordinate_split(r, s, t)
        tagged = []
        for k in range(10):
            tagged.append(("ci", make_ci_pmf(r, s, t, seed=1000 + 7 * k)))
            tagged.append(
                ("ci", make_ci_pmf(r, s, t, seed=2000 + 7 * k, zero_prob=0.3))
            )
        for k in range(20):
            tagged.append(
                (
                    "generic",
                    make_generic_pmf(
                        r + s + t,
                        seed=6000 + 11 * k,
                        zero_fraction=0.25 if k % 2 else 0.0,
                    ),
                )
            )
        for kind, pmf in tagged:
            sp = assemble_sigma(pmf, part)
            sr = schur_complement(sp)
            inverse = sb_inverse(sp, sr)
            verdict = decide_ci(pmf, part, tol=TOL)
            report = oracle_ci(pmf, part)
            records.append(
                {
                    "kind": kind,
                    "pmf": pmf,
                    "part": part,
                    "sp": sp,
                    "sr": sr,
                    "inverse": inverse,
                    "om": inverse.dense(),
                    "verdict": verdict,
                    "oracle": report,
                }
            )
    return records


def test_three_criteria_and_graph_agree_with_oracle(corpus):
    """Every decision route returns the same answer as brute-force
    conditioning, and failures are loud, never borderline."""
    assert sum(rec["kind"] == "ci" for rec in corpus) == 200
    assert sum(rec["kind"] == "generic" for rec in corpus) == 200
    disagreements = 0
    weakest_failure = np.inf
    for rec in corpus:
        v = rec["verdict"]
        flags = [
            v.criteria["belief"],
            v.criteria["factorization"],
            v.criteria["schur"],
            v.criteria["separation"],
            v.max_offblock_omega <= v.tol,
        ]
        if len(set(flags)) != 1 or flags[0] != rec["oracle"].is_ci:
            disagreements += 1
            continue
        if rec["kind"] == "ci":
            assert rec["oracle"].is_ci
        if not rec["oracle"].is_ci:
            weakest_failure = min(weakest_failure, v.max_offblock_s)
    assert disagreements == 0
    assert weakest_failure >= 1e-2


def test_interaction_rank_matches_support_size():
    # rank of the full nonconstant interaction covariance = |support| - 1
    seeds_per = {1: 25, 2: 15, 3: 13, 4: 19}
    checked = 0
    for p in range(1, 5):
        n = 1 << p
        masks = np.arange(1, n)
        for size in range(1, n + 1):
            for k in range(seeds_per[p]):
                rng = np.random.default_rng(90_000 + 97 * p + 13 * size + k)
                cells = rng.choice(n, size=size, replace=False)
                probs = np.zeros(n)
                probs[cells] = _dyadic_probs(rng.random(size) + 1e-2)
                pmf = Pmf(p, probs)
                cov = interaction_cov(pmf, masks, masks)
                _, rank = pinv_sym((cov + cov.T) / 2.0)
                assert rank == pmf.support_size - 1
                checked += 1
    assert checked >= 500


def test_block_inverse_identities_on_corpus(corpus):
    saw_singular = False
    for rec in corpus:
        om, sr, sp = rec["om"], rec["sr"], rec["sp"]
        assert np.abs(om - om.T).max() <= 1e-12
        assert sigma_residual(dense_sigma(rec["pmf"], rec["part"]), om) <= TOL
        n_b = sp.n_b
        assert np.array_equal(om[n_b:, n_b:], sr.s_pinv)
        if sr.rank_b < sp.n_b or sr.rank_s < sp.n_l + sp.n_r:
            saw_singular = True
    assert saw_singular


def test_separation_reads_the_same_off_omega_as_off_its_edges(corpus):
    for rec in corpus:
        g = build_graph(rec["inverse"], rec["sp"].labels, TOL)
        from_omega = separates(g)
        ref = reference_edges(rec["om"], TOL)
        assert tuple(g.edges) == ref
        assert separates(g) == from_omega == reference_separates(g.nodes, ref)
        assert from_omega == rec["verdict"].criteria["separation"]


def inverse_cases(corpus, rank_tol):
    """(sigma partition, block inverse) over the corpus and the seeded
    overlapping-wing parity partitions, at rank_tol; a case the cut refuses
    is skipped."""
    cases = [(rec["pmf"], rec["part"]) for rec in corpus]
    cases += [(pmf, part) for part, pmf in overlapping_parity_cases()]
    for pmf, part in cases:
        sp = assemble_sigma(pmf, part)
        try:
            yield sp, sb_inverse(sp, schur_complement(sp, rank_tol))
        except ValueError:
            continue


@pytest.mark.parametrize("rank_tol", [None, 1e-10])
def test_separation_is_the_same_from_the_inverse_its_dense_form_and_its_edges(
    corpus, rank_tol
):
    answers = set()
    for sp, inverse in inverse_cases(corpus, rank_tol):
        held = build_graph(inverse, sp.labels, TOL)
        from_corner = separates(held)
        omega = inverse.dense()
        from_dense = separates(build_graph(omega, sp.labels, TOL))
        ref = reference_edges(omega, TOL)
        assert tuple(held.edges) == ref
        # the graph dropped the inverse, so this reads the edges
        assert separates(held) == from_corner == from_dense
        assert from_corner == reference_separates(held.nodes, ref)
        answers.add(from_corner)
    assert answers == {True, False}


def test_verdicts_never_form_omega(corpus, monkeypatch):
    cases = [(rec["pmf"], rec["part"]) for rec in corpus]
    cases += [(pmf, part) for part, pmf in overlapping_parity_cases()]
    expected = [decide_ci(pmf, part, tol=TOL) for pmf, part in cases]

    def refuse(self):
        raise AssertionError("Omega formed")

    monkeypatch.setattr(SchurResult, "dense", refuse)
    assert [decide_ci(pmf, part, tol=TOL) for pmf, part in cases] == expected
    assert [rec["verdict"] for rec in corpus] == expected[: len(corpus)]
    # the patch holds: a graph's edges form Omega
    rec = corpus[-1]
    g = build_graph(sb_inverse(rec["sp"], rec["sr"]), rec["sp"].labels, TOL)
    with pytest.raises(AssertionError, match="Omega formed"):
        g.edges


def test_wing_rows_lie_in_center_row_space(corpus):
    for rec in corpus:
        assert rec["sr"].residual <= TOL


def test_prism_and_transform_match_naive():
    # the moment circulant equals the brute-force second-moment table
    count = 0
    for p in range(1, 6):
        for k in range(20):
            pmf = make_generic_pmf(
                p, seed=42_000 + 31 * p + k, zero_fraction=0.3 if k % 2 else 0.0
            )
            dense = prism(moments_from_pmf(pmf)).dense()
            assert np.abs(dense - oracle_second_moment(pmf)).max() <= 1e-12
            count += 1
    assert count == 100

    rng = np.random.default_rng(7)
    for d in range(1, 7):
        y1 = rng.standard_normal(1 << d)
        y2 = rng.standard_normal(1 << d)
        assert prism_recursion_check(y1, y2, tol=1e-12)

    y = rng.standard_normal(1 << 12)
    ref = naive_wht(y)
    assert np.abs(fwht(y) - ref).max() <= 1e-10 * np.abs(ref).max()

    big = rng.standard_normal(1 << 20)
    start = time.perf_counter()
    fwht(big)
    assert time.perf_counter() - start < 1.0


def test_hand_worked_covariance_values(xor_pmf, halves_pmf, split111):
    sp = assemble_sigma(xor_pmf, split111)
    off = block_s(sp.blocks)[: sp.n_l, sp.n_l :]
    assert np.abs(off - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-12
    assert not decide_ci(xor_pmf, split111).is_ci

    sp = assemble_sigma(halves_pmf, split111)
    sigma = dense_sigma(halves_pmf, split111)
    # mask order: B, A, A*B, C, B*C
    assert abs(sigma[1, 3] - 0.25) <= 1e-12
    assert abs(sigma[1, 0] - 0.5) <= 1e-12
    assert abs(sigma[3, 0] - 0.5) <= 1e-12
    assert np.array_equal(sp.sigma, sigma[:1])
    assert abs(block_s(sp.blocks)[0, 2]) <= 1e-12
    assert decide_ci(halves_pmf, split111).is_ci


def test_chain_parity_and_cycle_families(parity_feature_case):
    for seed in (11, 12, 13, 14, 15):
        verdicts = scan_markov_chain(random_chain_pmf(4, seed), 4)
        assert all(v.is_ci for v in verdicts)

    pmf, part = parity_feature_case
    assert decide_ci(pmf, part).is_ci

    thetas = (0.4, 0.3, 0.2, 0.5)
    across = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0001, 4)],
        c_gens=[Mask(0b0010, 4)],
    )
    down = Partition(
        4,
        a_gens=[Mask(0b0100, 4)],
        b_gens=[Mask(0b1000, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    ring = make_ising_cycle_pmf(thetas)
    assert decide_ci(ring, across).is_ci
    assert decide_ci(ring, down).is_ci
    chorded = make_ising_cycle_pmf(thetas, chord=0.6)
    broken = decide_ci(chorded, across)
    assert not broken.is_ci
    assert broken.max_offblock_s >= 1e-2
    assert decide_ci(chorded, down).is_ci


def test_quantization_rates_and_bound():
    grid = GridSource(
        v_depth=2,
        v_probs=[0.125, 0.375, 0.25, 0.25],
        u_depth=1,
        w_depth=1,
        u_given_v=[[0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]],
        w_given_v=[[0.5, 0.5], [0.25, 0.75], [0.125, 0.875], [0.75, 0.25]],
    )
    verdicts = quantized_ci_scan(grid, [2, 3, 4])
    assert all(v.is_ci for v in verdicts)
    for pt in delta_curve(grid, [2, 3, 4]).points:
        assert pt.delta_rect == 0.0
        assert pt.delta_upper == 0.0

    smooth = SmoothSource(
        v_depth=0, v_probs=[1.0], u_mean=[[0.0, 1.0]], w_mean=[[0.0, 1.0]]
    )
    depths = [1, 2, 3, 4, 5]
    report = delta_curve(smooth, depths)
    alpha, l_u, l_w = report.alpha, report.l_u, report.l_w
    for pt in report.points:
        rhs = l_u * l_w * 2.0 ** (2 * alpha * (1 - pt.d) - 2)
        assert pt.bound_rhs == rhs
        assert pt.delta_upper <= rhs
        assert pt.delta_rect <= pt.delta_upper + 1e-15
        if pt.delta_exact is not None:
            assert pt.delta_rect <= pt.delta_exact + 1e-15
            assert pt.delta_exact <= pt.delta_upper + 1e-15
    slope = np.polyfit(depths, np.log2([pt.delta_upper for pt in report.points]), 1)[0]
    assert -2.5 <= slope <= -1.5


def test_cli_exit_codes_and_determinism(tmp_path, capsys, xor_pmf, halves_pmf):
    part_path = tmp_path / "part.json"
    part_path.write_text(partition_to_json(Partition.coordinate_split(1, 1, 1)))
    ok_csv = tmp_path / "halves.csv"
    write_pmf_csv(halves_pmf, str(ok_csv))
    bad_csv = tmp_path / "xor.csv"
    write_pmf_csv(xor_pmf, str(bad_csv))
    broken_csv = tmp_path / "broken.csv"
    broken_csv.write_text("bits,prob\n++x,0.5\n")

    assert cli_main(["test", str(ok_csv), "--partition", str(part_path)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["test", str(bad_csv), "--partition", str(part_path)]) == 1
    capsys.readouterr()
    assert cli_main(["test", str(broken_csv), "--partition", str(part_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")

    # identical invocations produce identical bytes, here and through files
    assert cli_main(["test", str(ok_csv), "--partition", str(part_path)]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first) == decide_ci(
        halves_pmf, Partition.coordinate_split(1, 1, 1)
    ).to_json_dict()
    gen_a = tmp_path / "gen_a.csv"
    gen_b = tmp_path / "gen_b.csv"
    for target in (gen_a, gen_b):
        assert (
            cli_main(
                [
                    "random",
                    "--mode",
                    "ci",
                    "--dims",
                    "2,1,1",
                    "--seed",
                    "33",
                    "--zero-prob",
                    "0.3",
                    "--out",
                    str(target),
                ]
            )
            == 0
        )
    assert gen_a.read_bytes() == gen_b.read_bytes()
    round_trip = read_pmf_csv(str(gen_a))
    direct = make_ci_pmf(2, 1, 1, seed=33, zero_prob=0.3)
    np.testing.assert_array_equal(round_trip.probs, direct.probs)
