import numpy as np
import pytest

from begin import (
    Mask,
    Partition,
    Pmf,
    draw_samples,
    fwht,
    interaction_cov,
    make_ci_pmf,
    make_generic_pmf,
    make_ising_cycle_pmf,
    moments_from_pmf,
    oracle_ci,
    pinv_sym,
    pmf_from_samples,
    read_pmf_csv,
    read_samples_csv,
    write_pmf_csv,
    write_samples_csv,
)
from begin.distribution import _dyadic_bits
from conftest import cell_index


def test_moments_of_uniform():
    m = moments_from_pmf(Pmf(2, np.full(4, 0.25)))
    assert np.array_equal(m, [1.0, 0.0, 0.0, 0.0])


def test_moments_of_point_mass():
    probs = np.zeros(8)
    probs[0] = 1.0  # the all-plus-one cell
    assert np.array_equal(moments_from_pmf(Pmf(3, probs)), np.ones(8))


def test_moments_single_coordinate():
    m = moments_from_pmf(Pmf(1, np.array([0.75, 0.25])))
    assert np.array_equal(m, [1.0, 0.5])


def test_moments_invert_back_to_probabilities():
    for s in range(8):
        pmf = make_generic_pmf(4, seed=s, zero_fraction=0.2 if s % 2 else 0.0)
        back = fwht(moments_from_pmf(pmf)) / 16.0
        np.testing.assert_allclose(back, pmf.probs, atol=1e-12)


def test_cov_of_fair_coin_is_unit():
    pmf = Pmf(1, np.array([0.5, 0.5]))
    cov = interaction_cov(pmf, [1], [1])
    assert np.array_equal(cov, [[1.0]])


def test_cov_refuses_bits_outside_the_width(xor_pmf):
    for bad in (8, -1):
        with pytest.raises(ValueError, match=f"^mask bits {bad} out of range for width 3$"):
            interaction_cov(xor_pmf, [1, 2], [3, bad])
        with pytest.raises(ValueError, match=f"^mask bits {bad} out of range for width 3$"):
            interaction_cov(xor_pmf, np.array([bad]), [])
    # the features are given by their bits only
    with pytest.raises(TypeError):
        interaction_cov(xor_pmf, [Mask(1, 3)], [Mask(1, 3)])


def test_cov_entries_of_parity_pmf(xor_pmf):
    a, c = 0b100, 0b001
    ab, bc = 0b110, 0b011
    assert interaction_cov(xor_pmf, [a], [bc])[0, 0] == 1.0
    assert interaction_cov(xor_pmf, [a], [c])[0, 0] == 0.0
    assert interaction_cov(xor_pmf, [ab], [c])[0, 0] == 1.0


def test_cov_entries_of_conditional_halves(halves_pmf):
    a, b, c = 0b100, 0b010, 0b001
    assert interaction_cov(halves_pmf, [a], [c])[0, 0] == 0.25
    assert interaction_cov(halves_pmf, [a], [b])[0, 0] == 0.5
    assert interaction_cov(halves_pmf, [c], [b])[0, 0] == 0.5


def test_cov_is_symmetric_psd_on_self_pairing():
    rng = np.random.default_rng(3)
    for s in range(10):
        p = int(rng.integers(2, 6))
        pmf = make_generic_pmf(p, seed=100 + s)
        masks = np.arange(1, 1 << p)
        cov = interaction_cov(pmf, masks, masks)
        assert np.abs(cov - cov.T).max() == 0.0
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_full_cov_rank_counts_support():
    for s in range(6):
        pmf = make_generic_pmf(3, seed=s, zero_fraction=0.4)
        masks = np.arange(1, 8)
        _, rank = pinv_sym(interaction_cov(pmf, masks, masks))
        assert rank == pmf.support_size - 1


def test_pmf_from_samples_examples():
    point = pmf_from_samples(np.ones((4, 2)))
    assert point.probs[0] == 1.0

    rows = np.array([[1, 1], [-1, -1], [1, 1], [-1, -1]])
    pmf = pmf_from_samples(rows)
    assert np.array_equal(pmf.probs, [0.5, 0.0, 0.0, 0.5])

    with pytest.raises(ValueError):
        pmf_from_samples(np.array([[1, 0], [1, 1]]))


def test_sampling_round_trip_stays_close():
    pmf = make_generic_pmf(3, seed=9)
    data = draw_samples(pmf, 1000, seed=4)
    estimate = pmf_from_samples(data)
    assert np.abs(estimate.probs - pmf.probs).max() < 0.05


def test_draw_samples_is_seeded():
    pmf = make_generic_pmf(2, seed=0)
    a = draw_samples(pmf, 50, seed=7)
    b = draw_samples(pmf, 50, seed=7)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1, 1}


def test_ci_constructor_passes_definitional_check():
    for s in range(5):
        pmf = make_ci_pmf(2, 1, 1, seed=s)
        part = Partition.coordinate_split(2, 1, 1)
        report = oracle_ci(pmf, part)
        assert report.is_ci and report.deviation == 0.0


def test_ci_constructor_with_zero_cells():
    pmf = make_ci_pmf(1, 2, 1, seed=3, zero_prob=0.4)
    assert pmf.support_size < 16
    report = oracle_ci(pmf, Partition.coordinate_split(1, 2, 1))
    assert report.is_ci and report.deviation == 0.0


def test_ci_constructor_empty_center_is_product():
    pmf = make_ci_pmf(1, 0, 2, seed=5)
    probs = pmf.probs.reshape(2, 4)
    pa, pc = probs.sum(axis=1), probs.sum(axis=0)
    np.testing.assert_allclose(probs, np.outer(pa, pc), atol=1e-15)


def test_ci_constructor_is_deterministic():
    a = make_ci_pmf(1, 1, 1, seed=42, zero_prob=0.2)
    b = make_ci_pmf(1, 1, 1, seed=42, zero_prob=0.2)
    assert np.array_equal(a.probs, b.probs)
    assert a.meta["seed"] == 42 and a.meta["generator"] == "ci"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"zero_prob": float("nan")}, r"zero_prob must be in \[0,1\), got nan"),
        ({"zero_prob": -0.1}, r"zero_prob must be in \[0,1\), got -0.1"),
        ({"zero_prob": 1.0}, r"zero_prob must be in \[0,1\), got 1.0"),
        ({"alpha": 0.0}, "alpha must be finite and positive, got 0.0"),
        ({"alpha": -1.0}, "alpha must be finite and positive, got -1.0"),
        ({"alpha": float("nan")}, "alpha must be finite and positive, got nan"),
        ({"alpha": float("inf")}, "alpha must be finite and positive, got inf"),
    ],
)
def test_ci_constructor_refuses_bad_zero_prob_and_alpha(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_ci_pmf(1, 1, 1, seed=0, **kwargs)


def test_ci_constructor_survives_a_small_alpha():
    # alpha 0.01 draws exact zeros; at zero_prob 0.5 every kept weight of a
    # table is one of them for 130 of these seeds, and the largest draw is
    # kept instead
    part = Partition.coordinate_split(2, 2, 2)
    for seed in range(200):
        pmf = make_ci_pmf(2, 2, 2, seed=seed, zero_prob=0.5, alpha=0.01)
        assert oracle_ci(pmf, part).is_ci


def test_generic_constructor_properties():
    pmf = make_generic_pmf(3, seed=1)
    assert pmf.support_size == 8

    sparse = make_generic_pmf(3, seed=1, zero_fraction=0.5)
    assert 2 <= sparse.support_size <= 6

    again = make_generic_pmf(3, seed=1, zero_fraction=0.5)
    assert np.array_equal(sparse.probs, again.probs)

    with pytest.raises(ValueError):
        make_generic_pmf(3, seed=1, zero_fraction=1.0)


def test_dyadic_bits_grow_only_past_2_to_the_14_positive_cells():
    assert [_dyadic_bits(n) for n in (1, 2, 1 << 14)] == [14, 14, 14]
    # ceil(log2(positive cells)) + 8 above that
    assert _dyadic_bits((1 << 14) + 1) == 23
    assert _dyadic_bits(1 << 15) == 23
    assert _dyadic_bits(1 << 20) == 28
    pmf = make_generic_pmf(14, seed=1)
    assert pmf.meta["denom_bits"] == 14
    scaled = pmf.probs * (1 << 14)
    assert np.array_equal(scaled, np.round(scaled))


@pytest.mark.parametrize("p", [15, 16, 20])
def test_generic_pmfs_past_2_to_the_14_cells_sum_to_one(p):
    for zero_fraction in (0.0, 0.3):
        pmf = make_generic_pmf(p, seed=1, zero_fraction=zero_fraction)
        assert pmf.probs.sum() == 1.0
        bits = pmf.meta["denom_bits"]
        assert bits == (pmf.support_size - 1).bit_length() + 8
        scaled = pmf.probs * 2.0**bits
        assert np.array_equal(scaled, np.round(scaled))


@pytest.mark.parametrize("dims, bits", [((15, 1, 0), 23), ((18, 1, 1), 26)])
def test_ci_pmfs_with_tables_past_2_to_the_14_cells_sum_to_one(dims, bits):
    r, s, t = dims
    pmf = make_ci_pmf(r, s, t, seed=1)
    assert pmf.probs.sum() == 1.0
    assert pmf.meta["denom_bits"] == bits
    # p(a, b, c) = p(b) p(a|b) p(c|b), read off the table itself
    table = pmf.probs.reshape(1 << r, 1 << s, 1 << t)
    p_b = table.sum(axis=(0, 2))
    for b in range(1 << s):
        joint = table[:, b, :]
        np.testing.assert_allclose(
            joint * p_b[b], np.outer(joint.sum(axis=1), joint.sum(axis=0)),
            rtol=0, atol=1e-18,
        )


def test_cycle_model_examples():
    uniform = make_ising_cycle_pmf([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(uniform.probs, np.full(16, 1 / 16), atol=1e-15)

    pmf = make_ising_cycle_pmf([1.0, 0.5, -0.25, 0.75])
    assert pmf.probs.min() > 0.0

    coupled = make_ising_cycle_pmf([1.0, 1.0, 1.0, 1.0])
    first = Partition(
        4,
        a_gens=[Mask(0b1000, 4)],
        b_gens=[Mask(0b0100, 4), Mask(0b0001, 4)],
        c_gens=[Mask(0b0010, 4)],
    )
    second = Partition(
        4,
        a_gens=[Mask(0b0100, 4)],
        b_gens=[Mask(0b1000, 4), Mask(0b0010, 4)],
        c_gens=[Mask(0b0001, 4)],
    )
    assert oracle_ci(coupled, first).is_ci
    assert oracle_ci(coupled, second).is_ci

    broken = make_ising_cycle_pmf([1.0, 1.0, 1.0, 1.0], chord=0.6)
    assert not oracle_ci(broken, first).is_ci
    assert oracle_ci(broken, second).is_ci


def test_pmf_csv_round_trip(tmp_path):
    pmf = make_ci_pmf(1, 1, 1, seed=8, zero_prob=0.3)
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, str(path))
    back = read_pmf_csv(str(path))
    assert back.p == pmf.p
    assert np.array_equal(back.probs, pmf.probs)
    assert back.meta.get("seed") == "8"


def test_pmf_csv_accepts_binary_patterns(tmp_path):
    path = tmp_path / "alt.csv"
    path.write_text("bits,prob\n00,0.25\n01,0.25\n10,0.25\n11,0.25\n")
    pmf = read_pmf_csv(str(path))
    assert np.array_equal(pmf.probs, np.full(4, 0.25))


def test_pmf_csv_rejects_bad_files(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("bits,prob\n++,0.5\n++,0.5\n")
    with pytest.raises(ValueError):
        read_pmf_csv(str(dup))

    short = tmp_path / "short.csv"
    short.write_text("bits,prob\n++,0.5\n")
    with pytest.raises(ValueError):
        read_pmf_csv(str(short))


def test_missing_cells_mean_zero(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("bits,prob\n++,0.5\n--,0.5\n")
    pmf = read_pmf_csv(str(path))
    assert np.array_equal(pmf.probs, [0.5, 0.0, 0.0, 0.5])


def test_samples_csv_round_trip(tmp_path):
    data = draw_samples(make_generic_pmf(3, seed=2), 40, seed=3)
    path = tmp_path / "samples.csv"
    write_samples_csv(data, str(path))
    assert np.array_equal(read_samples_csv(str(path)), data)

    bad = tmp_path / "bad.csv"
    bad.write_text("1,0,1\n")
    with pytest.raises(ValueError):
        read_samples_csv(str(bad))


def test_ragged_sample_file_names_the_first_short_or_long_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,1\n1\n")
    message = r"^sample row 2 '1' has 1 fields, expected 2 as in the first row$"
    with pytest.raises(ValueError, match=message):
        read_samples_csv(str(path))
    path.write_text("# header\n-1,1\n\n1,-1\n1,1,1\n1\n")
    with pytest.raises(ValueError, match=r"^sample row 3 '1,1,1' has 3 fields, expected 2"):
        read_samples_csv(str(path))
    # a malformed entry anywhere is named before the shape
    path.write_text("1,1\n1\n1,x\n")
    with pytest.raises(ValueError, match="invalid literal for int"):
        read_samples_csv(str(path))


def test_sample_entries_past_int64_are_refused_as_not_plus_minus_one(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1,-1\n1,99999999999999999999\n")
    with pytest.raises(ValueError, match=r"^sample entries must be \+1 or -1$"):
        read_samples_csv(str(path))
    path.write_text("1,99999999999999999999\n1,y\n")
    with pytest.raises(ValueError, match="invalid literal for int.*'y'"):
        read_samples_csv(str(path))


def test_sample_tokens_other_than_one_and_minus_one_are_read_by_int(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("1,-1,+1\n 01 ,-0001,\u0661\n")
    assert read_samples_csv(str(path)).tolist() == [[1, -1, 1], [1, -1, 1]]
    path.write_text("1,-1\n1,1_1\n")
    with pytest.raises(ValueError, match=r"^sample entries must be \+1 or -1$"):
        read_samples_csv(str(path))
    path.write_text("1,-1\n-1,1.0\n1,--1\n")
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: '1.0'$"):
        read_samples_csv(str(path))


def test_samples_csv_skips_comments_blank_lines_and_crlf(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"# n: 2\r\n\r\n 1, -1 \r\n\t\r\n-1,+1\r")
    assert read_samples_csv(str(path)).tolist() == [[1, -1], [-1, 1]]


def test_sample_writer_bytes(tmp_path):
    path = tmp_path / "samples.csv"
    write_samples_csv(np.array([[1, -1, 1], [-1, -1, 1]]), str(path))
    assert path.read_bytes() == b"1,-1,1\n-1,-1,1\n"


def test_pmf_csv_reports_errors_in_file_order(tmp_path):
    path = tmp_path / "pmf.csv"
    cases = [
        ("bits,prob\n-+,0.25\n++,0.25\n-+,0.5\n++,0\n", r"^duplicate cell 10$"),
        ("bits,prob\n--,0.25\n+-,0.25\n+-,0\n--,0.25\n+-,0.25\n", r"^duplicate cell 01$"),
        ("bits,prob\n+,x\n++,0.5\n", r"could not convert string to float: 'x'"),
        ("bits,prob\n++,0.5\n+,y\n", r"^inconsistent bits width in \['\+', 'y'\]$"),
        ("bits,prob\n0b1,1\n", r"^bad bits string '0b1'$"),
        ("bits,prob\n1_0,1\n", r"^bad bits string '1_0'$"),
        ("bits,prob\n+ -,1\n", r"^bad bits string '\+ -'$"),
        ("bits,prob\n+x,1\n", r"^bad bits string '\+x'$"),
        ("bits,prob\n  ,1\n", r"^empty bits string$"),
        ("bits,prob\n++,0.5,1\n", r"^malformed pmf row: \['\+\+', '0.5', '1'\]$"),
        (f"bits,prob\n{'+' * 25},1\n", r"^25-bit cells exceed the 24-bit cap$"),
        ("# only: comments\nbits,prob\n", r"^pmf file has no data rows$"),
        # no csv quoting: a quote is part of the field
        ('bits,prob\n"++",1\n', r"^bad bits string '\"\+\+\"'$"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_pmf_csv(str(path))


def test_pmf_csv_reads_crlf_comments_blank_lines_and_binary_bits(tmp_path):
    path = tmp_path / "pmf.csv"
    path.write_bytes(b"# seed: 7\r\n\r\n #note\r\n bits , prob\r\n 01 , 0.25\r\n\t\r\n10,0.75 ")
    pmf = read_pmf_csv(str(path))
    assert pmf.probs.tolist() == [0.0, 0.25, 0.75, 0.0]
    assert pmf.meta == {"seed": "7"}


def test_sum_errors_print_a_plain_float(tmp_path):
    path = tmp_path / "half.csv"
    path.write_text("bits,prob\n+,0.25\n-,0.25\n")
    with pytest.raises(ValueError, match=r"^pmf file sums to 0\.5$"):
        read_pmf_csv(str(path))
    with pytest.raises(ValueError, match=r"^probabilities sum to 0\.9, not 1$"):
        Pmf(1, np.array([0.5, 0.4]))


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(2, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        Pmf(1, np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        Pmf(1, np.array([0.6, 0.6]))


def test_support_reporting():
    pmf = Pmf(2, np.array([0.5, 0.0, 0.5, 0.0]))
    assert pmf.support_size == 2
    assert sorted(pmf.support) == [0, 2]


def test_pmf_rejects_non_finite_probabilities():
    with pytest.raises(ValueError, match=r"non-finite probabilities \[nan, nan\] at cells \[0, 1\]"):
        Pmf(1, np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match=r"non-finite probabilities \[inf\] at cells \[2\]"):
        Pmf(2, np.array([0.5, 0.5, np.inf, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Pmf(1, np.array([-np.inf, np.nan]))


def test_sample_width_is_capped_before_cells_are_indexed():
    # 64 columns would also overflow the int64 cell index
    with pytest.raises(ValueError, match="64 sample columns exceed the 24-bit cap"):
        pmf_from_samples(np.ones((3, 64), dtype=np.int64))
