import numpy as np
import pytest

from cyclid import _kernels as K
from cyclid import gf2

needs_numba = pytest.mark.skipif(
    not K.HAVE_NUMBA, reason="numba backend disabled; nothing to compare"
)

rng = np.random.default_rng(42)


def random_basis(dim, deg_f):
    return rng.integers(0, 1 << deg_f, size=dim, dtype=np.uint64)


@needs_numba
def test_residue_counts_backends_agree():
    for dim, deg_f in [(0, 3), (5, 3), (10, 8), (14, 6)]:
        basis = random_basis(dim, deg_f)
        a = K.residue_counts_dense_nb(basis, deg_f)
        b = K.residue_counts_dense_np(basis, deg_f)
        assert np.array_equal(a, b)
        assert a.sum() == 1 << dim


def test_residue_counts_dense_np_against_naive():
    for dim in (0, 1, 5, 12):
        for deg_f in (1, 8, 16):
            basis = random_basis(dim, deg_f)
            if dim >= 3:
                basis[1] = 0  # a zero vector
                basis[2] = basis[0]  # a repeated vector
            naive = np.zeros(1 << deg_f, dtype=np.int64)
            for coeffs in range(1 << dim):
                r = 0
                for j in range(dim):
                    if coeffs >> j & 1:
                        r ^= int(basis[j])
                naive[r] += 1
            got = K.residue_counts_dense_np(basis, deg_f)
            assert got.dtype == np.int64
            assert np.array_equal(got, naive)
            assert got.sum() == 1 << dim


@needs_numba
def test_weight_counts_backends_agree():
    for n, g in [(7, 0b1011), (15, 0b10011), (10, 0b111)]:
        k = n - g.bit_length() + 1
        a = K.weight_counts_nb(g, k, n)
        b = K.weight_counts_np(g, k, n)
        assert np.array_equal(a, b)
        assert a[0] == 1 and a.sum() == 1 << k


@needs_numba
def test_ortho_zero_count_backends_agree():
    for _ in range(20):
        basis = rng.integers(0, 1 << 12, size=8, dtype=np.uint64)
        h = int(rng.integers(0, 1 << 12))
        assert K.ortho_zero_count_nb(basis, h) == K.ortho_zero_count_np(basis, h)


@needs_numba
def test_rem_many_matches_scalar():
    vals = rng.integers(0, 1 << 40, size=200, dtype=np.uint64)
    for f in (0b1011, 0b11, 0b1000011):
        a = K.rem_many_nb(vals, f)
        b = K.rem_many_np(vals, f)
        assert np.array_equal(a, b)
        for v, r in zip(vals.tolist(), a.tolist()):
            assert r == gf2.rem(v, f)


def test_rem_many_matches_gf2_rem():
    vals = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
    vals[:3] = (0, 1, (1 << 63) - 1)
    for f in (0b1, 0b11, 0b1011, 0b1000011, (1 << 40) | 0b1001):
        got = K.rem_many(vals, f)
        assert got.dtype == np.uint64
        assert got.tolist() == [gf2.rem(v, f) for v in vals.tolist()]
    assert K.rem_many(np.empty(0, dtype=np.uint64), 0b1011).size == 0
    assert K.rem_many(np.zeros(4, dtype=np.uint64), 0b1011).tolist() == [0] * 4


@needs_numba
def test_bsc_dp_backends_agree():
    f = 0b1011
    masks = np.empty(9, dtype=np.int64)
    r = 1
    for i in range(9):
        masks[i] = r
        r = gf2.rem(r << 1, f)
    for p in (0.0, 0.05, 0.5):
        a = K.bsc_residue_dp_nb(masks, p, 3)
        b = K.bsc_residue_dp_np(masks, p, 3)
        assert np.allclose(a, b, atol=1e-15)
        assert abs(a.sum() - 1.0) < 1e-12


@needs_numba
def test_xor_convolve_against_naive():
    for deg in (2, 4, 6):
        size = 1 << deg
        a = rng.random(size)
        a /= a.sum()
        b = rng.random(size)
        b /= b.sum()
        naive = np.zeros(size)
        for i in range(size):
            for j in range(size):
                naive[i ^ j] += a[i] * b[j]
        fast_nb = K.xor_convolve_nb(a.copy(), b.copy())
        fast_np = K.xor_convolve_np(a.copy(), b.copy())
        assert np.allclose(fast_nb, naive, atol=1e-12)
        assert np.allclose(fast_np, naive, atol=1e-12)


def test_xor_convolve_uniform_fixed_point():
    # convolving the uniform vector leaves it elementwise identical
    size = 1 << 10
    u = np.full(size, 1.0 / size)
    e = rng.random(size)
    e /= e.sum()
    out = K.xor_convolve(u.copy(), e)
    assert float(out.max()) == float(out.min())


def test_subspace_elements():
    basis = np.array([0b01, 0b10], dtype=np.uint64)
    assert sorted(K.subspace_elements(basis).tolist()) == [0, 1, 2, 3]
