import tracemalloc

import numpy as np
import pytest

from begin import (
    PrismMatrix,
    dense_hadamard,
    fwht,
    make_generic_pmf,
    moments_from_pmf,
    prism,
    prism_recursion_check,
)
from conftest import naive_wht

RNG = np.random.default_rng(2024)


def test_transform_of_a_pair():
    out = fwht(np.array([3.0, 1.0]))
    assert np.array_equal(out, [4.0, 2.0])


def test_transform_is_involution_up_to_scale():
    for p in (1, 3, 5):
        y = RNG.standard_normal(1 << p)
        back = fwht(fwht(y)) / (1 << p)
        np.testing.assert_allclose(back, y, rtol=0, atol=1e-12)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht(np.arange(3, dtype=np.float64))
    with pytest.raises(ValueError):
        fwht(np.zeros(0))


def test_transform_parseval():
    y = RNG.standard_normal(64)
    assert np.isclose(np.sum(fwht(y) ** 2), 64 * np.sum(y**2), rtol=1e-12)


def test_transform_linearity():
    y, z = RNG.standard_normal(32), RNG.standard_normal(32)
    np.testing.assert_allclose(
        fwht(2.5 * y - z), 2.5 * fwht(y) - fwht(z), atol=1e-12
    )


def test_transform_matches_naive_reference():
    y = RNG.standard_normal(1 << 12)
    fast = fwht(y)
    slow = naive_wht(y)
    rel = np.abs(fast - slow).max() / np.abs(slow).max()
    assert rel <= 1e-10


def test_prism_two_by_two():
    mat = prism(np.array([1.0, 0.5])).dense()
    assert np.array_equal(mat, [[1.0, 0.5], [0.5, 1.0]])


def test_prism_unit_symbol_is_identity():
    mat = prism(np.array([1.0, 0.0, 0.0, 0.0])).dense()
    assert np.array_equal(mat, np.eye(4))


def test_prism_entries_follow_xor_rule():
    y = RNG.standard_normal(16)
    mat = prism(y).dense()
    for i in range(16):
        for j in range(16):
            assert mat[i, j] == y[i ^ j]


def test_prism_block_matches_dense():
    y = RNG.standard_normal(32)
    pm = prism(y)
    rows, cols = [3, 7, 30], [0, 1, 2, 9]
    np.testing.assert_array_equal(
        pm.block(rows, cols), pm.dense()[np.ix_(rows, cols)]
    )


def test_prism_eigenvalue_examples():
    assert np.array_equal(prism(np.array([1.0, 0.0])).eigenvalues(), [1.0, 1.0])
    vals = prism(np.array([1.0, 0.5])).eigenvalues()
    assert np.array_equal(vals, [1.5, 0.5])


def test_prism_eigenvalues_match_dense_solver():
    y = RNG.standard_normal(16)
    claimed = np.sort(prism(y).eigenvalues())
    numeric = np.sort(np.linalg.eigvalsh(prism(y).dense()))
    np.testing.assert_allclose(claimed, numeric, atol=1e-10)


def test_prism_recursion_identity():
    for d in range(1, 7):
        y1 = RNG.standard_normal(1 << d)
        y2 = RNG.standard_normal(1 << d)
        assert prism_recursion_check(y1, y2)


def test_prism_recursion_degenerate_halves():
    y1 = RNG.standard_normal(8)
    assert prism_recursion_check(y1, np.zeros(8))
    assert prism_recursion_check(y1, y1)
    stacked = prism(np.concatenate([y1, y1])).dense()
    block = prism(y1).dense()
    for quadrant in (stacked[:8, :8], stacked[:8, 8:], stacked[8:, :8]):
        np.testing.assert_allclose(quadrant, block, atol=1e-15)


def test_prism_product_is_group_convolution():
    # eta(y) @ eta(z) = eta(y * z) where * convolves over bitwise XOR
    for p in (2, 4, 5):
        n = 1 << p
        y, z = RNG.standard_normal(n), RNG.standard_normal(n)
        conv = np.zeros(n)
        for i in range(n):
            for j in range(n):
                conv[i ^ j] += y[i] * z[j]
        lhs = prism(y).dense() @ prism(z).dense()
        np.testing.assert_allclose(lhs, prism(conv).dense(), atol=1e-9)


def test_dense_sign_matrix():
    h = dense_hadamard(3)
    for i in range(8):
        for j in range(8):
            parity = bin(i & j).count("1") & 1
            assert h[i, j] == (-1.0 if parity else 1.0)


def test_prism_of_moments_is_psd():
    for s in range(10):
        pmf = make_generic_pmf(4, seed=s)
        m = moments_from_pmf(pmf)
        low = np.linalg.eigvalsh(prism(m).dense()).min()
        assert low >= -1e-10


def test_prism_symbol_is_locked():
    pm = prism(np.array([1.0, 0.0]))
    assert isinstance(pm, PrismMatrix)
    with pytest.raises(ValueError):
        pm.symbol[0] = 2.0


def test_dense_forms_past_the_byte_limit_are_refused_before_allocation():
    pm = prism(np.ones(1 << 13))
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match=r"^the dense prism of order 13 needs 536870912 bytes, "
            r"beyond the 134217728-byte limit$",
        ):
            pm.dense()
        with pytest.raises(
            ValueError,
            match=r"^the dense transform of order 13 needs 536870912 bytes, "
            r"beyond the 134217728-byte limit$",
        ):
            dense_hadamard(13)
        with pytest.raises(ValueError, match=r"^transform order must be >= 0, got -1$"):
            dense_hadamard(-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


class Built(Exception):
    pass


def test_dense_forms_at_the_byte_limit_are_admitted(monkeypatch):
    # order 12 is 2^27 bytes exactly: admitted, so it reaches its allocation
    pm = prism(np.ones(1 << 12))

    def empty(*args, **kwargs):
        raise Built

    monkeypatch.setattr(np, "empty", empty)
    for build in (pm.dense, lambda: dense_hadamard(12)):
        with pytest.raises(Built):
            build()


# The dense forms are filled in place by doubling; the index formulas they
# replaced are the references, bit for bit, at every order up to 9.


@pytest.mark.parametrize("p", range(10))
def test_dense_forms_equal_their_index_formulas(p):
    idx = np.arange(1 << p, dtype=np.int64)
    y = RNG.standard_normal(1 << p)
    y[-1] = -0.0
    assert prism(y).dense().tobytes() == y[np.bitwise_xor.outer(idx, idx)].tobytes()
    parity = np.bitwise_count(np.bitwise_and.outer(idx, idx)) & 1
    assert dense_hadamard(p).tobytes() == (1.0 - 2.0 * parity).tobytes()


def test_dense_forms_hold_little_beyond_their_result():
    # an index as large as the result once doubled the peak
    pm = prism(RNG.standard_normal(1 << 10))
    result = 8 << 20
    for build in (pm.dense, lambda: dense_hadamard(10)):
        tracemalloc.start()
        try:
            out = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == result and peak <= 1.25 * result
