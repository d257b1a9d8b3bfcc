import json

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from begin import (
    IndexSets,
    Mask,
    MaskSpan,
    Partition,
    build_index_sets,
    mask_product,
    partition_from_json,
    partition_to_json,
    span_generate,
    span_intersect,
)
from begin.bitgroup import _admit, _echelon_basis
from dense_reference import (
    reference_echelon_basis,
    reference_index_sets,
    reference_span_intersect,
    reference_split,
    reference_wing_split,
)

WIDTH = 8
mask_bits = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


def test_mask_product_examples():
    assert mask_product(Mask(0b101, 3), Mask(0b011, 3)) == Mask(0b110, 3)
    a = Mask(0b1101, 4)
    assert mask_product(a, a) == Mask(0, 4)
    assert mask_product(a, Mask(0, 4)) == a


def test_mask_product_width_mismatch():
    with pytest.raises(ValueError):
        mask_product(Mask(0b1, 2), Mask(0b1, 3))


@seed(1)
@given(a=mask_bits, b=mask_bits, c=mask_bits)
def test_mask_product_group_laws(a, b, c):
    ma, mb, mc = Mask(a, WIDTH), Mask(b, WIDTH), Mask(c, WIDTH)
    assert mask_product(ma, mb) == mask_product(mb, ma)
    assert mask_product(mask_product(ma, mb), mc) == mask_product(
        ma, mask_product(mb, mc)
    )
    assert mask_product(ma, ma).is_identity


def test_mask_string_round_trip():
    m = Mask.from_string("1011")
    assert m.bits == 0b1011 and m.width == 4
    assert m.to_string() == "1011"
    assert m.coords() == (1, 3, 4)
    assert Mask(0, 4).is_identity
    assert not m.is_identity


def test_mask_validation():
    with pytest.raises(ValueError):
        Mask(0b100, 2)
    with pytest.raises(ValueError):
        Mask(-1, 3)
    with pytest.raises(ValueError):
        Mask.from_string("10x")


def test_span_generate_examples():
    sp = span_generate([Mask(0b100, 3), Mask(0b010, 3)])
    assert len(sp) == 4
    assert sorted(sp.member_bits().tolist()) == [0b000, 0b010, 0b100, 0b110]

    dependent = span_generate([Mask(0b110, 3), Mask(0b011, 3), Mask(0b101, 3)])
    assert dependent.dim == 2 and len(dependent) == 4

    empty = span_generate([], width=3)
    assert len(empty) == 1 and Mask(0, 3) in empty


@seed(5)
@settings(max_examples=300)
@given(
    vectors=st.lists(st.integers(0, 63), max_size=12),
    u=st.lists(mask_bits, max_size=6),
    v=st.lists(mask_bits, max_size=6),
)
def test_one_pass_elimination_matches_the_two_pass_reference(vectors, u, v):
    # the reduced echelon basis of a span is unique, so the two agree exactly
    assert _echelon_basis(vectors) == reference_echelon_basis(vectors)
    spans = [span_generate([Mask(b, WIDTH) for b in gens], width=WIDTH) for gens in (u, v)]
    assert span_intersect(*spans) == reference_span_intersect(*spans)


def test_span_membership():
    sp = span_generate([Mask(0b110, 3), Mask(0b011, 3)])
    assert Mask(0b101, 3) in sp
    assert Mask(0b100, 3) not in sp
    assert Mask(0, 3) in sp


def test_span_intersect_examples():
    a, b, c = Mask(0b100, 3), Mask(0b010, 3), Mask(0b001, 3)
    left = span_generate([a, b])
    right = span_generate([b, c])
    inter = span_intersect(left, right)
    assert sorted(inter.member_bits().tolist()) == [0b000, 0b010]

    inter2 = span_intersect(
        span_generate([Mask(0b110, 3), Mask(0b011, 3)]),
        span_generate([Mask(0b101, 3)]),
    )
    assert sorted(inter2.member_bits().tolist()) == [0b000, 0b101]

    assert span_intersect(left, left).basis == left.basis


def test_span_intersect_dimension_formula():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.integers(2, 9))
        gu = [Mask(int(b), p) for b in rng.integers(1, 1 << p, size=3)]
        gv = [Mask(int(b), p) for b in rng.integers(1, 1 << p, size=3)]
        u, v = span_generate(gu), span_generate(gv)
        joined = span_generate(list(u.basis) + list(v.basis), width=p)
        inter = span_intersect(u, v)
        assert u.dim + v.dim == joined.dim + inter.dim


def test_build_index_sets_single_coordinates():
    part = Partition.coordinate_split(1, 1, 1)
    sets = build_index_sets(part)
    assert [m.bits for m in sets.b_set] == [0b010]
    assert [m.bits for m in sets.l_set] == [0b100, 0b110]
    assert [m.bits for m in sets.r_set] == [0b001, 0b011]
    assert sets.overlap == ()


def test_build_index_sets_empty_center():
    part = Partition.coordinate_split(2, 0, 1)
    sets = build_index_sets(part)
    assert sets.b_set == ()
    assert len(sets.l_set) == 3 and len(sets.r_set) == 1


def test_index_set_sizes_match_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r, s, t = (int(v) for v in rng.integers(0, 3, size=3))
        if r + s + t == 0:
            continue
        part = Partition.coordinate_split(r, s, t)
        sets = build_index_sets(part)
        assert len(sets.b_set) == (1 << s) - 1
        assert len(sets.l_set) == (1 << (r + s)) - (1 << s)
        assert len(sets.r_set) == (1 << (s + t)) - (1 << s)


def test_intersection_always_contains_center_span():
    rng = np.random.default_rng(23)
    for _ in range(60):
        p = int(rng.integers(3, 7))
        gens = [Mask(int(b), p) for b in rng.integers(1, 1 << p, size=6)]
        a_g, b_g, c_g = gens[:2], gens[2:4], gens[4:]
        inter = span_intersect(
            span_generate(a_g + b_g), span_generate(b_g + c_g)
        )
        for bits in span_generate(b_g).member_bits().tolist():
            assert Mask(bits, p) in inter


def test_parity_feature_index_sets(parity_feature_case):
    _, part = parity_feature_case
    sets = build_index_sets(part)
    assert [m.bits for m in sets.b_set] == [0b0110, 0b1010, 0b1100]
    assert [m.bits for m in sets.l_set] == [0b0001, 0b0111, 0b1011, 0b1101]
    assert [m.bits for m in sets.r_set] == [0b0010, 0b0100, 0b1000, 0b1110]
    assert sets.overlap == ()


def test_overlapping_wings_are_flagged():
    # span(A u B) and span(B u C) share masks beyond span(B)
    part = Partition(
        3,
        a_gens=[Mask(0b110, 3)],
        b_gens=[Mask(0b010, 3)],
        c_gens=[Mask(0b100, 3)],
    )
    sets = build_index_sets(part)
    shared = {m.bits for m in sets.overlap}
    assert shared == {0b100, 0b110}
    assert {m.bits for m in sets.l_set} == shared
    assert {m.bits for m in sets.r_set} == shared


@st.composite
def partitions(draw):
    """A coordinate split or a parity partition at p <= 10."""
    p = draw(st.integers(1, 10))
    if draw(st.booleans()):
        r = draw(st.integers(0, p))
        s = draw(st.integers(0, p - r))
        return Partition.coordinate_split(r, s, p - r - s)
    nonzero = st.integers(1, (1 << p) - 1).map(lambda bits: Mask(bits, p))
    gens = [draw(st.lists(nonzero, min_size=lo, max_size=3)) for lo in (1, 0, 1)]
    try:
        return Partition(p, *gens)
    except ValueError:
        assume(False)


OVERLAP = Partition(3, (Mask(0b110, 3),), (Mask(0b010, 3),), (Mask(0b100, 3),))


@seed(17)
@settings(max_examples=300, deadline=None)
@given(part=partitions())
@example(part=OVERLAP)  # overlapping wings
@example(part=Partition(5, (Mask(0b11000, 5),), (), (Mask(0b01000, 5), Mask(0b00011, 5))))
@example(part=Partition.coordinate_split(2, 0, 3))  # empty center
@example(part=Partition.coordinate_split(0, 3, 2))  # degenerate wings
@example(part=Partition.coordinate_split(3, 4, 0))
def test_index_sets_match_the_set_difference_reference(part):
    labels, ref = build_index_sets(part), reference_index_sets(part)
    arrays = (labels.b_bits, labels.l_bits, labels.r_bits)
    for bits, masks in zip(arrays, (ref.b_set, ref.l_set, ref.r_set)):
        assert bits.dtype == np.int64 and not bits.flags.writeable
        assert bits.tolist() == [mk.bits for mk in masks]
    assert (labels.b_set, labels.l_set, labels.r_set) == (ref.b_set, ref.l_set, ref.r_set)
    assert labels.all_masks() == ref.all_masks()
    assert labels.overlap == ref.overlap
    assert labels.overlap_count == len(ref.overlap)
    beta, alpha = reference_wing_split(part)
    for got, want in ((labels.beta, beta), (labels.alpha, alpha)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("r, s, t", [(1, 18, 1), (2, 16, 2)])
def test_wide_center_index_sets_follow_the_closed_forms(r, s, t):
    labels = build_index_sets(Partition.coordinate_split(r, s, t))
    assert labels.b_bits.size == (1 << s) - 1
    assert labels.l_bits.size == (1 << s) * ((1 << r) - 1)
    assert labels.r_bits.size == (1 << s) * ((1 << t) - 1)
    assert labels.overlap_count == 0 and labels.overlap == ()
    for bits in (labels.b_bits, labels.l_bits, labels.r_bits):
        assert (np.diff(bits) > 0).all()


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, a_gens=[Mask(0, 3)], b_gens=[], c_gens=[Mask(0b001, 3)])
    with pytest.raises(ValueError):
        Partition(3, a_gens=[Mask(0b1, 2)], b_gens=[], c_gens=[])
    with pytest.raises(ValueError):
        Partition(3, a_gens=[], b_gens=[], c_gens=[])
    with pytest.raises(ValueError):
        Partition.coordinate_split(13, 6, 6)  # 25 coordinates


def test_partition_json_round_trip():
    part = Partition(
        4,
        a_gens=[Mask(0b0001, 4)],
        b_gens=[Mask(0b1100, 4), Mask(0b0110, 4)],
        c_gens=[Mask(0b1000, 4)],
    )
    text = partition_to_json(part)
    payload = json.loads(text)
    assert set(payload) == {"p", "A", "B", "C"}
    assert partition_from_json(text) == part


def test_index_sets_all_masks_order(split111):
    sets = build_index_sets(split111)
    assert [m.bits for m in sets.all_masks()] == [0b010, 0b100, 0b110, 0b001, 0b011]
    assert isinstance(sets, IndexSets)


def test_span_basis_is_echelon():
    sp = span_generate([Mask(0b111, 3), Mask(0b011, 3)])
    assert isinstance(sp, MaskSpan)
    # echelon: strictly decreasing leading bits, reduced above pivots
    assert [m.bits for m in sp.basis] == [0b100, 0b011]


def test_partition_json_rejects_non_integer_width():
    for p in ("3.7", "3.0", "true", '"3"', "null"):
        with pytest.raises(ValueError, match="must be an integer"):
            partition_from_json(f'{{"p": {p}, "A": ["100"], "B": ["010"], "C": ["001"]}}')
    part = partition_from_json('{"p": 3, "A": ["100"], "B": ["010"], "C": ["001"]}')
    assert part == Partition.coordinate_split(1, 1, 1)


def test_repeated_verdicts_keep_the_generator_spans(monkeypatch):
    import begin.bitgroup as bitgroup
    from begin import make_generic_pmf, test_ci

    part = Partition(
        5, (Mask(0b10001, 5),), (Mask(0b01100, 5), Mask(0b00110, 5)), (Mask(0b00011, 5),)
    )
    pmf = make_generic_pmf(5, seed=2)
    calls = []
    real = bitgroup.span_generate
    monkeypatch.setattr(
        bitgroup, "span_generate", lambda gens, **k: calls.append(tuple(gens)) or real(gens, **k)
    )
    test_ci(pmf, part)
    assert {part.a_gens, part.b_gens, part.c_gens} <= set(calls)
    calls.clear()
    for _ in range(3):
        test_ci(pmf, part)
    # only the union spans of the index sets are formed per verdict
    assert calls == [part.a_gens + part.b_gens, part.b_gens + part.c_gens] * 3


def test_cached_spans_leave_equality_and_hashing_unchanged():
    gens = ((Mask(0b1000, 4),), (Mask(0b0110, 4),), (Mask(0b0001, 4),))
    read, fresh = Partition(4, *gens), Partition(4, *gens)
    assert read.a_span == span_generate(gens[0])
    assert read.c_span == span_generate(gens[2])
    build_index_sets(read)
    assert read.b_span is read.b_span
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert {read: 1}[fresh] == 1
    assert read != Partition(4, gens[0], gens[1], (Mask(0b0011, 4),))


@seed(3)
@given(
    basis=st.lists(mask_bits.filter(bool), max_size=4),
    masks=st.lists(mask_bits, max_size=12),
)
def test_split_writes_each_mask_as_rest_xor_member(basis, masks):
    span = span_generate([Mask(b, WIDTH) for b in basis], width=WIDTH)
    rest, key = reference_split(span, masks)
    members = span.member_bits()
    pivots = sum(1 << (b.bits.bit_length() - 1) for b in span.basis)
    for m, r, k in zip(masks, rest.tolist(), key.tolist()):
        assert r ^ int(members[k]) == m
        assert r & pivots == 0
        assert (r == 0) == (Mask(m, WIDTH) in span)
    other = span_generate([Mask(m, WIDTH) for m in masks if m], width=WIDTH)
    comp = span.complement_in(other)
    for mk in comp.basis:
        assert mk.bits & pivots == 0
    joined = span_generate(list(span.basis) + list(comp.basis), width=WIDTH)
    assert joined.dim == span.dim + comp.dim
    assert all(mk in joined for mk in other.basis)


def test_wing_split_indexes_the_block_layout(parity_feature_case):
    _, part = parity_feature_case
    overlap = Partition(3, (Mask(0b110, 3),), (Mask(0b010, 3),), (Mask(0b100, 3),))
    assert build_index_sets(overlap).overlap
    for p in (part, Partition.coordinate_split(2, 3, 1), overlap):
        labels = build_index_sets(p)
        a_comp, c_comp = p.wing_complements
        chars = [int(v) for v in a_comp.member_bits()[1:]] + [
            int(v) for v in c_comp.member_bits()[1:]
        ]
        center = p.b_span.member_bits()
        beta, alpha = labels.beta, labels.alpha
        wing = labels.l_set + labels.r_set
        assert [center[b] ^ chars[a] for b, a in zip(beta, alpha)] == [m.bits for m in wing]
        with pytest.raises(ValueError):
            beta[0] = 0


def test_the_byte_rule_admits_dense_arrays_up_to_128_mib():
    # 8 bytes an entry: 4096 x 4096 is exactly 2^27 bytes
    _admit("sigma over n = 4095 masks", 4095, 4095)
    _admit("sigma over n = 4096 masks", 4096, 4096)
    with pytest.raises(
        ValueError,
        match=r"^sigma over n = 8191 masks needs 536739848 bytes, "
        r"beyond the 134217728-byte limit$",
    ):
        _admit("sigma over n = 8191 masks", 8191, 8191)
