import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from begin import (
    DeltaPoint,
    GridSource,
    QuantConfig,
    SmoothSource,
    delta_curve,
    quantize_index,
    quantize_value,
    quantized_ci_scan,
    quantized_partition,
    quantized_pmf,
    source_from_json,
)
from begin.distribution import _dyadic_probs
from dense_reference import (
    reference_grid_joint_table,
    reference_smooth_joint_table,
)


def linear_source():
    # both conditional means are x/1 on a single V atom: constants (1, 1/4, 1/4)
    return SmoothSource(
        v_depth=0, v_probs=[1.0], u_mean=[[0.0, 1.0]], w_mean=[[0.0, 1.0]]
    )


def staircase_grid():
    return GridSource(
        v_depth=2,
        v_probs=[0.125, 0.375, 0.25, 0.25],
        u_depth=1,
        w_depth=1,
        u_given_v=[[0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]],
        w_given_v=[[0.5, 0.5], [0.25, 0.75], [0.125, 0.875], [0.75, 0.25]],
    )


def test_quantizer_worked_examples():
    assert quantize_index(0.3, 1) == 1
    assert quantize_value(0.3, 1) == 0.5
    assert quantize_index(-1.0, 3) == 0
    assert quantize_value(-1.0, 3) == -0.875
    assert quantize_index(-0.1, 2) == 1
    assert quantize_value(-0.1, 2) == -0.25


def test_quantizer_error_image_and_refinement():
    xs = np.linspace(-1.0, 1.0, 257)
    for d in (1, 2, 3, 4):
        vals = quantize_value(xs, d)
        assert np.abs(xs - vals).max() <= 2.0**-d + 1e-15
        assert len(set(vals.tolist())) == 1 << d
    # coarse cells are prefixes of fine cells
    assert np.array_equal(quantize_index(xs, 3) >> 1, quantize_index(xs, 2))
    idx = quantize_index(xs, 2)
    assert np.all(np.diff(idx) >= 0)


def test_quantizer_rejects_out_of_range():
    with pytest.raises(ValueError):
        quantize_index(1.5, 2)
    with pytest.raises(ValueError):
        quantize_index(np.array([0.0, -1.01]), 1)
    with pytest.raises(ValueError):
        quantize_index(0.0, 0)


def test_nan_values_and_sources_are_refused():
    nan = float("nan")
    # refused before the cast that turned a nan into -2^63
    with np.errstate(invalid="raise"):
        for values in (nan, np.array([0.5, nan])):
            with pytest.raises(ValueError, match=r"values must lie in \[-1, 1\]"):
                quantize_index(values, 2)
        # a sample row holding a nan is refused, not binned into a real cell
        rows = np.array([[0.5, 0.5, 0.5], [0.1, nan, -0.2]])
        with pytest.raises(ValueError, match=r"values must lie in \[-1, 1\]"):
            quantized_pmf(rows, QuantConfig(d=2, r=1, s=1, t=1))
    half = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError, match="^v_probs must be a probability vector$"):
        GridSource(v_depth=1, v_probs=[nan, 0.5], u_depth=1, w_depth=1,
                   u_given_v=half, w_given_v=half)
    with pytest.raises(ValueError, match="^u_given_v row must be a probability vector$"):
        GridSource(v_depth=1, v_probs=[0.5, 0.5], u_depth=1, w_depth=1,
                   u_given_v=[[0.5, 0.5], [nan, 1.0]], w_given_v=half)
    with pytest.raises(ValueError, match="^v_probs must be a probability vector$"):
        SmoothSource(v_depth=0, v_probs=[nan], u_mean=[[0.0, 0.5]], w_mean=[[0.0, 0.5]])
    for name in ("u_mean", "w_mean"):
        means = {"u_mean": [[0.0, 0.5]], "w_mean": [[0.0, 0.5]], name: [[nan, 0.5]]}
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite coefficient$"):
            SmoothSource(v_depth=0, v_probs=[1.0], **means)


def test_declared_holder_constants_must_be_finite_and_positive():
    half = [[0.5, 0.5], [0.5, 0.5]]
    grid = dict(v_depth=1, v_probs=[0.5, 0.5], u_depth=1, w_depth=1,
                u_given_v=half, w_given_v=half)
    smooth = dict(v_depth=0, v_probs=[1.0], u_mean=[[0.0, 0.5]], w_mean=[[0.0, 0.5]])
    for make, kwargs in ((GridSource, grid), (SmoothSource, smooth)):
        for name in ("alpha", "l_u", "l_w"):
            for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -0.5):
                with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                    make(**kwargs, **{name: bad})
        # an undeclared constant stays None; declared ones are kept as given
        assert make(**kwargs).alpha is None
        source = make(**kwargs, alpha=0.5, l_u=2.0, l_w=1e-300)
        assert source.measured_constants() == (0.5, 2.0, 1e-300)


def test_config_validation_and_partition():
    cfg = QuantConfig(d=2, r=1, s=1, t=1)
    assert cfg.total_bits == 6
    assert cfg.dims == (1, 1, 1)
    part = quantized_partition(cfg)
    assert [m.bits for m in part.a_gens] == [0b100000, 0b010000]
    assert [m.bits for m in part.c_gens] == [0b000010, 0b000001]
    with pytest.raises(ValueError):
        QuantConfig(d=0, r=1, s=1, t=1)
    with pytest.raises(ValueError):
        QuantConfig(d=1, r=-1, s=1, t=1)
    with pytest.raises(ValueError):
        QuantConfig(d=1, r=0, s=0, t=0)
    with pytest.raises(ValueError):
        QuantConfig(d=9, r=1, s=1, t=1)


def test_sample_quantization_bit_encoding():
    # +1 samples land in the top cell, which encodes as all-zero bits
    cfg = QuantConfig(d=2, r=1, s=1, t=1)
    pmf = quantized_pmf(np.ones((50, 3)), cfg)
    assert pmf.p == 6
    assert list(np.flatnonzero(pmf.probs)) == [0]
    neg = quantized_pmf(-np.ones((10, 3)), cfg)
    assert list(np.flatnonzero(neg.probs)) == [63]


def test_sample_quantization_of_uniform_draws():
    rng = np.random.default_rng(0)
    cfg = QuantConfig(d=1, r=1, s=0, t=0)
    pmf = quantized_pmf(rng.uniform(-1.0, 1.0, size=(4000, 1)), cfg)
    np.testing.assert_allclose(pmf.probs, [0.5, 0.5], atol=0.05)
    assert pmf.meta["generator"] == "quantized-samples"


def test_quantized_pmf_input_validation():
    cfg = QuantConfig(d=2, r=1, s=1, t=1)
    with pytest.raises(ValueError):
        quantized_pmf(np.ones((5, 2)), cfg)
    with pytest.raises(ValueError):
        quantized_pmf(staircase_grid(), QuantConfig(d=1, r=2, s=1, t=1))


def test_empty_samples_are_refused_at_the_boundary():
    # they once divided by zero, then failed on nan probabilities
    for cols in (1, 3):
        cfg = QuantConfig(d=2, r=1, s=cols - 1, t=0)
        with pytest.raises(ValueError, match=rf"^expected n x {cols} samples, got shape \(0, {cols}\)$"):
            quantized_pmf(np.empty((0, cols)), cfg)


def tilted_source():
    rng = np.random.default_rng(5)
    return SmoothSource(
        v_depth=2,
        v_probs=[0.125, 0.375, 0.25, 0.25],
        u_mean=rng.uniform(-0.5, 0.5, size=(4, 2)),
        w_mean=rng.uniform(-0.5, 0.5, size=(4, 2)),
    )


@pytest.mark.parametrize("source", [staircase_grid(), tilted_source()], ids=["grid", "smooth"])
def test_source_pmf_cells_decode_to_their_joint_table_cells(source):
    """Each coordinate's d sign bits, the first most significant and a 1 bit
    meaning -1, expand to its cell center sum_j s_j 2^-j; the pmf's cell
    holds the joint table's mass at the three centers' cells."""
    for d in range(1, 6):
        pmf = quantized_pmf(source, QuantConfig(d=d, r=1, s=1, t=1))
        cells = np.arange(1 << (3 * d))
        places = 2.0 ** -np.arange(1, d + 1)
        index = []
        for shift in (2 * d, d, 0):
            bits = (cells[:, None] >> (shift + np.arange(d - 1, -1, -1))) & 1
            index.append(quantize_index((1 - 2 * bits) @ places, d))
        assert pmf.probs.tobytes() == source.joint_table(d)[tuple(index)].tobytes()


def test_grid_source_pmf_is_exactly_dyadic():
    pmf = quantized_pmf(staircase_grid(), QuantConfig(d=1, r=1, s=1, t=1))
    scaled = pmf.probs * 256
    assert np.array_equal(scaled, np.round(scaled))
    assert pmf.probs.sum() == 1.0


def _pmf_rows(rng, rows, size, dyadic):
    weights = rng.random((rows, size)) * (rng.random((rows, size)) >= 0.3)
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    if dyadic:
        return np.array([_dyadic_probs(row) for row in weights])
    return weights / weights.sum(axis=1, keepdims=True)


@st.composite
def grid_cases(draw):
    u, v, w = (draw(st.integers(0, 4)) for _ in range(3))
    d = draw(st.integers(0, 6))
    # the reference einsum runs 8^d * 2^(u+v+w) products; 2^27 is ~0.1 s
    assume(3 * d + u + v + w <= 27)
    dyadic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nu, nv, nw = 1 << u, 1 << v, 1 << w
    spec = dict(v_depth=v, v_probs=_pmf_rows(rng, 1, nv, dyadic)[0],
                u_depth=u, w_depth=w)
    if draw(st.booleans()):
        spec["u_given_v"] = _pmf_rows(rng, nv, nu, dyadic)
        spec["w_given_v"] = _pmf_rows(rng, nv, nw, dyadic)
    else:
        spec["uw_given_v"] = _pmf_rows(rng, nv, nu * nw, dyadic)
    return GridSource(**spec), d, dyadic


@settings(max_examples=80, deadline=None)
@given(case=grid_cases())
def test_grid_joint_table_matches_the_dense_depth_maps(case):
    source, d, dyadic = case
    got = source.joint_table(d)
    want = reference_grid_joint_table(source, d)
    assert got.shape == want.shape == (1 << d,) * 3
    if dyadic or d >= source.max_depth:
        # refining only scales by powers of two; dyadic sums are exact in
        # any order
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_grid_joint_table_needs_no_four_way_einsum(monkeypatch):
    # the dense depth maps cost 8^d * 2^(u+v+w) products: about 8 s here
    einsum = np.einsum

    def at_most_three(subscripts, *operands, **kwargs):
        if len(operands) > 3:
            raise AssertionError(f"{len(operands)}-operand einsum {subscripts!r}")
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", at_most_three)
    rng = np.random.default_rng(5)
    source = GridSource(
        v_depth=5,
        v_probs=_pmf_rows(rng, 1, 32, True)[0],
        u_depth=5,
        w_depth=5,
        u_given_v=_pmf_rows(rng, 32, 32, True),
        w_given_v=_pmf_rows(rng, 32, 32, True),
    )
    table = source.joint_table(5)
    assert table.tobytes() == source._atom_table().tobytes()


def test_grid_joint_table_merges_before_it_refines(monkeypatch):
    # U's 2^12 atoms become 2^6 cells before V and W are split, so no
    # intermediate outgrows the 2^18-cell result; splitting first would
    # pass through 2^24 cells
    sizes = []
    repeat = np.repeat

    def recording(a, repeats, axis=None):
        out = repeat(a, repeats, axis=axis)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "repeat", recording)
    source = GridSource(
        v_depth=0,
        v_probs=[1.0],
        u_depth=12,
        w_depth=0,
        uw_given_v=np.full((1, 4096, 1), 1.0 / 4096),
    )
    table = source.joint_table(6)
    assert table.shape == (64, 64, 64)
    assert max(sizes) == 1 << 18
    assert np.all(table == 2.0**-18)


def test_grid_atom_tables_past_the_byte_limit_are_refused(monkeypatch):
    def refuse(self):
        raise AssertionError("atom table built")

    monkeypatch.setattr(GridSource, "_atom_table", refuse)
    tiny = dict(v_probs=[1.0], u_given_v=[[1.0]], w_given_v=[[1.0]])
    with pytest.raises(
        ValueError,
        match="the atom table of grid depths u=10, v=10, w=10 needs 8589934592 bytes, "
        "beyond the 134217728-byte limit",
    ):
        GridSource(v_depth=10, u_depth=10, w_depth=10, **tiny)
    with pytest.raises(
        ValueError, match="atom table of grid depths u=8, v=9, w=8 needs 268435456 bytes"
    ):
        GridSource(v_depth=9, u_depth=8, w_depth=8, **tiny)
    # 2^24 atoms is exactly the limit: admitted, then the tiny arrays fail
    # to reshape
    with pytest.raises(ValueError) as exc:
        GridSource(v_depth=8, u_depth=8, w_depth=8, **tiny)
    assert "atom table" not in str(exc.value)


# at v_depth 7 every depth d < 7 sums a run of 2^(7 - d) atoms per cell
@pytest.mark.parametrize("v_depth", [0, 1, 2, 3, 4, 7])
def test_smooth_joint_table_matches_the_all_pairs_loop(v_depth):
    rng = np.random.default_rng(v_depth)
    nv = 1 << v_depth
    source = SmoothSource(
        v_depth=v_depth,
        v_probs=_pmf_rows(rng, 1, nv, False)[0],
        u_mean=rng.uniform(-0.5, 0.5, size=(nv, 2)),
        w_mean=rng.uniform(-0.5, 0.5, size=(nv, 2)),
    )
    for d in range(7):
        got = source.joint_table(d)
        assert got.tobytes() == reference_smooth_joint_table(source, d).tobytes()


def test_grid_scan_turns_exact_at_grid_depth():
    verdicts = quantized_ci_scan(staircase_grid(), [1, 2, 3, 4])
    assert [v.is_ci for v in verdicts] == [False, True, True, True]
    assert verdicts[0].max_offblock_s >= 1e-2
    assert all(v.max_offblock_s <= 1e-12 for v in verdicts[1:])


def test_grid_deltas_vanish_at_grid_depth():
    rep = delta_curve(staircase_grid(), [1, 2, 3])
    assert rep.points[0].delta_rect > 1e-2
    for pt in rep.points[1:]:
        assert pt.delta_rect == 0.0
        assert pt.delta_exact == 0.0
        assert pt.delta_upper == 0.0


def test_copied_atom_source_never_separates():
    copy = GridSource(
        v_depth=0,
        v_probs=[1.0],
        u_depth=1,
        w_depth=1,
        uw_given_v=[[[0.5, 0.0], [0.0, 0.5]]],
    )
    verdicts = quantized_ci_scan(copy, [1, 2])
    assert all(not v.is_ci for v in verdicts)
    assert all(v.max_offblock_s == 1.0 for v in verdicts)


def test_smooth_scan_decreases_but_never_separates():
    verdicts = quantized_ci_scan(linear_source(), [1, 2, 3, 4])
    mags = [v.max_offblock_s for v in verdicts]
    assert all(not v.is_ci for v in verdicts)
    assert all(a > b for a, b in zip(mags, mags[1:]))
    np.testing.assert_allclose(mags[0], 1.0 / 48.0, rtol=1e-12)


def test_smooth_delta_closed_forms():
    """The linear source has delta_upper = 4^(1-d)/96 exactly, the exact
    tier half of that, and the rate bound 4^(1-d)/64."""
    rep = delta_curve(linear_source(), [1, 2, 3, 4, 5])
    assert (rep.alpha, rep.l_u, rep.l_w) == (1.0, 0.25, 0.25)
    for pt in rep.points:
        base = 2.0 ** (2 * (1 - pt.d))
        np.testing.assert_allclose(pt.delta_upper, base / 96.0, rtol=1e-10)
        assert pt.bound_rhs == base / 64.0
        assert pt.delta_upper <= pt.bound_rhs
        if pt.d <= 3:
            np.testing.assert_allclose(pt.delta_exact, base / 192.0, rtol=1e-9)
            assert pt.delta_rect <= pt.delta_exact + 1e-15
        else:
            # 2^d atoms per side outgrow the enumeration cap
            assert pt.delta_exact is None
    ups = np.log2([pt.delta_upper for pt in rep.points])
    np.testing.assert_allclose(np.diff(ups), -2.0, atol=1e-10)


def test_delta_modes_and_caps():
    src = linear_source()
    rect_only = delta_curve(src, [1, 2], mode="rect")
    assert all(pt.delta_exact is None for pt in rect_only.points)
    assert rect_only.mode == "rect"
    # rect and upper both skip the exact tier and report the same table
    assert delta_curve(src, [1, 2], mode="upper").to_csv() == rect_only.to_csv()
    with pytest.raises(ValueError):
        delta_curve(src, [5], mode="exact")
    with pytest.raises(ValueError):
        delta_curve(src, [1], mode="fancy")
    override = delta_curve(src, [1], constants=(1.0, 1.0, 1.0))
    assert override.points[0].bound_rhs == 0.25


def test_delta_depth_cap_is_checked_before_the_joint_table(monkeypatch):
    def refuse(self, d):
        raise AssertionError(f"joint table built at depth {d}")

    monkeypatch.setattr(SmoothSource, "joint_table", refuse)
    for mode in ("rect", "upper", "auto", "exact"):
        with pytest.raises(
            ValueError,
            match="the depth 13 joint table needs 4398046511104 bytes, "
            "beyond the 134217728-byte limit",
        ):
            delta_curve(linear_source(), [13], mode=mode)


def test_delta_admits_joint_tables_up_to_the_byte_limit(monkeypatch):
    # depth 7 is a 16 MiB table and runs; 9 (1 GiB) and 12 (512 GiB) are
    # refused before any table is built
    assert len(delta_curve(linear_source(), [7], mode="upper").points) == 1

    def refuse(self, d):
        raise AssertionError(f"joint table built at depth {d}")

    monkeypatch.setattr(SmoothSource, "joint_table", refuse)
    for d, size in ((9, 1 << 30), (12, 1 << 39)):
        with pytest.raises(ValueError, match=f"depth {d} joint table needs {size} bytes"):
            delta_curve(linear_source(), [1, d], mode="rect")


def test_delta_refuses_a_negative_depth_before_any_table(monkeypatch):
    # depth 0, one atom per side, is a valid curve point
    assert delta_curve(linear_source(), [0]).points[0].delta_upper == 0.0

    def refuse(self, d):
        raise AssertionError(f"joint table built at depth {d}")

    monkeypatch.setattr(SmoothSource, "joint_table", refuse)
    for depths in ([-1], [2, -1]):
        with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
            delta_curve(linear_source(), depths)


def test_delta_point_tier_ordering_enforced():
    with pytest.raises(ValueError):
        DeltaPoint(d=1, delta_rect=0.5, delta_exact=0.2, delta_upper=1.0, bound_rhs=None)
    with pytest.raises(ValueError):
        DeltaPoint(d=1, delta_rect=0.5, delta_exact=None, delta_upper=0.1, bound_rhs=None)


def test_delta_report_csv_shape():
    text = delta_curve(linear_source(), [1, 4]).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "d,delta_rect,delta_exact,delta_upper,bound_rhs"
    assert lines[1].startswith("1,")
    # the exact tier is unavailable at depth 4, leaving its field empty
    assert ",," in lines[2]


def test_grid_source_validation():
    with pytest.raises(ValueError):
        GridSource(v_depth=1, v_probs=[0.5, 0.5], u_depth=1, w_depth=1)
    with pytest.raises(ValueError):
        GridSource(
            v_depth=1,
            v_probs=[0.5, 0.5],
            u_depth=1,
            w_depth=1,
            u_given_v=[[0.5, 0.5], [0.5, 0.5]],
            w_given_v=[[0.5, 0.5], [0.5, 0.5]],
            uw_given_v=[[[1.0, 0.0], [0.0, 0.0]]] * 2,
        )
    with pytest.raises(ValueError):
        GridSource(
            v_depth=0,
            v_probs=[1.0],
            u_depth=1,
            w_depth=1,
            u_given_v=[[0.5, 0.6]],
            w_given_v=[[0.5, 0.5]],
        )
    with pytest.raises(ValueError):
        GridSource(
            v_depth=-1,
            v_probs=[1.0],
            u_depth=1,
            w_depth=1,
            u_given_v=[[1.0, 0.0]],
            w_given_v=[[1.0, 0.0]],
        )


def test_smooth_source_validation_and_constants():
    with pytest.raises(ValueError):
        SmoothSource(
            v_depth=0, v_probs=[1.0], u_mean=[[0.5, 1.0]], w_mean=[[0.0, 1.0]]
        )
    declared = SmoothSource(
        v_depth=1,
        v_probs=[0.5, 0.5],
        u_mean=[[0.5, 0.0], [-0.5, 0.0]],
        w_mean=[[0.0, 0.5], [0.0, 0.5]],
        alpha=1.0,
        l_u=0.5,
        l_w=0.5,
    )
    assert declared.measured_constants() == (1.0, 0.5, 0.5)
    # a jump between atoms voids the slope-derived constants
    jumpy = SmoothSource(
        v_depth=1,
        v_probs=[0.5, 0.5],
        u_mean=[[0.5, 0.0], [-0.5, 0.0]],
        w_mean=[[0.0, 0.5], [0.0, 0.5]],
    )
    assert jumpy.measured_constants() is None


def test_source_json_round_trip():
    smooth = source_from_json(
        '{"kind":"smooth","v_depth":0,"v_probs":[1.0],'
        '"u_mean":[[0.0,1.0]],"w_mean":[[0.0,1.0]]}'
    )
    assert isinstance(smooth, SmoothSource)
    assert smooth.measured_constants() == (1.0, 0.25, 0.25)
    grid = source_from_json(
        '{"kind":"grid","v_depth":0,"v_probs":[1.0],"u_depth":1,"w_depth":1,'
        '"u_given_v":[[0.5,0.5]],"w_given_v":[[0.25,0.75]],'
        '"alpha":1.0,"l_u":0.5,"l_w":0.5}'
    )
    assert isinstance(grid, GridSource)
    assert grid.measured_constants() == (1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        source_from_json('{"kind":"fancy"}')


# GridSource checks all conditional rows in one pass; the per-row loop it
# ran before, with a nan row refused, is the reference for which row, and
# so which message, fails.


def reference_check_pmf_vector(name, vec):
    if not (vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= 1e-12):
        raise ValueError(f"{name} must be a probability vector")


def reference_row_checks(nv, nu, nw, u_given_v=None, w_given_v=None, uw_given_v=None):
    if uw_given_v is None:
        ug = np.asarray(u_given_v, dtype=np.float64).reshape(nv, nu)
        wg = np.asarray(w_given_v, dtype=np.float64).reshape(nv, nw)
        for j in range(nv):
            reference_check_pmf_vector("u_given_v row", ug[j])
            reference_check_pmf_vector("w_given_v row", wg[j])
    else:
        uw = np.asarray(uw_given_v, dtype=np.float64).reshape(nv, nu, nw)
        for j in range(nv):
            reference_check_pmf_vector("uw_given_v slice", uw[j].reshape(-1))


def message_of(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def damaged_rows(rng, rows, cols):
    table = rng.random((rows, cols))
    table /= table.sum(axis=1, keepdims=True)
    for j in rng.choice(rows, size=int(rng.integers(0, min(rows, 3) + 1)), replace=False):
        kind = int(rng.integers(5))
        if kind == 0:  # a negative entry, the row still summing to 1
            table[j, 0] -= 0.5
            table[j, -1] += 0.5
        elif kind == 1:  # sum off by about 2e-12: refused
            table[j, 0] += 2e-12
        elif kind == 2:  # sum off by about 4e-13: admitted
            table[j, 0] += 4e-13
        elif kind == 3:  # a nan fails both comparisons: refused
            table[j, 0] = np.nan
        else:
            table[j] = 0.0
    return table


@pytest.mark.parametrize("seed", range(40))
def test_grid_row_checks_refuse_the_row_the_loop_refused(seed):
    rng = np.random.default_rng(seed)
    v_depth, u_depth, w_depth = (int(d) for d in rng.integers(0, 4, size=3))
    nv, nu, nw = 1 << v_depth, 1 << u_depth, 1 << w_depth
    common = dict(v_depth=v_depth, v_probs=np.full(nv, 1.0 / nv), u_depth=u_depth, w_depth=w_depth)
    product = dict(u_given_v=damaged_rows(rng, nv, nu), w_given_v=damaged_rows(rng, nv, nw))
    full = dict(uw_given_v=damaged_rows(rng, nv, nu * nw))
    for tables in (product, full):
        expected = message_of(lambda: reference_row_checks(nv, nu, nw, **tables))
        assert message_of(lambda: GridSource(**common, **tables)) == expected


def test_grid_row_checks_take_u_row_before_w_row():
    half = [[0.5, 0.5]] * 4
    bad_u, bad_w = [row[:] for row in half], [row[:] for row in half]
    bad_u[2] = [0.5, 0.6]
    bad_w[1] = [-0.5, 1.5]
    kwargs = dict(v_depth=2, v_probs=[0.25] * 4, u_depth=1, w_depth=1)
    with pytest.raises(ValueError, match="^w_given_v row must be a probability vector$"):
        GridSource(**kwargs, u_given_v=bad_u, w_given_v=bad_w)
    bad_u[1] = [0.5, 0.6]
    with pytest.raises(ValueError, match="^u_given_v row must be a probability vector$"):
        GridSource(**kwargs, u_given_v=bad_u, w_given_v=bad_w)


def test_grid_rows_are_checked_in_one_pass(monkeypatch):
    import begin.quantize as quantize_module

    calls = []
    real = quantize_module._check_pmf_rows
    monkeypatch.setattr(
        quantize_module, "_check_pmf_rows", lambda tables: calls.append(len(tables)) or real(tables)
    )
    nv = 1 << 16
    source = GridSource(
        v_depth=16, v_probs=np.full(nv, 1.0 / nv), u_depth=1, w_depth=1,
        u_given_v=np.full((nv, 2), 0.5), w_given_v=np.full((nv, 2), 0.5),
    )
    assert source.u_given_v.shape == (nv, 2)
    # v_probs, then both conditional tables together
    assert calls == [1, 2]
