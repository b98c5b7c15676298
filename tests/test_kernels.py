import numpy as np

from cyclid import _kernels as K
from cyclid import gf2

rng = np.random.default_rng(42)


def random_basis(dim, deg_f):
    return rng.integers(0, 1 << deg_f, size=dim, dtype=np.uint64)


def parity(v):
    return int.bit_count(v) & 1


def test_subspace_elements():
    basis = np.array([0b01, 0b10], dtype=np.uint64)
    assert K.subspace_elements(basis).tolist() == [0, 1, 2, 3]
    basis = random_basis(9, 62)
    basis[3] |= np.uint64(1 << 62)
    span = K.subspace_elements(basis)
    assert span.size == 1 << 9
    for i, v in enumerate(span.tolist()):
        expect = 0
        for j in range(9):
            if i >> j & 1:
                expect ^= int(basis[j])
        assert v == expect
    assert K.subspace_elements([]).tolist() == [0]


def test_residue_counts_dense_against_naive():
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
            got = K.residue_counts_dense(basis, deg_f)
            assert got.dtype == np.int64
            assert np.array_equal(got, naive)
            assert got.sum() == 1 << dim


def test_weight_counts_against_codewords():
    for n, g in [(7, 0b1011), (15, 0b10011), (9, 0b111)]:
        k = n - g.bit_length() + 1
        naive = np.zeros(n + 1, dtype=np.int64)
        for u in range(1 << k):
            naive[int.bit_count(gf2.mul(u, g))] += 1
        got = K.weight_counts(g, k, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, naive)


def test_ortho_zero_count_against_parity_loop():
    for dim in (0, 1, 4, 7, 10):
        for _ in range(4):
            basis = random_basis(dim, 12)
            span = [0]
            for b in basis.tolist():
                span += [v ^ b for v in span]
            dual = [h for h in range(1, 1 << 12) if not any(parity(b & h) for b in basis.tolist())]
            for h in [0, dual[0], int(rng.integers(0, 1 << 12))]:
                naive = sum(1 for v in span if not parity(v & h))
                assert K.ortho_zero_count(basis, h) == naive
            assert K.ortho_zero_count(basis, 0) == 1 << dim
            assert K.ortho_zero_count(basis, dual[0]) == 1 << dim


def test_rem_many_matches_gf2_rem():
    vals = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
    vals[:3] = (0, 1, (1 << 63) - 1)
    for f in (0b1, 0b11, 0b1011, 0b1000011, (1 << 40) | 0b1001):
        got = K.rem_many(vals, f)
        assert got.dtype == np.uint64
        assert got.tolist() == [gf2.rem(v, f) for v in vals.tolist()]
    assert K.rem_many(np.empty(0, dtype=np.uint64), 0b1011).size == 0
    assert K.rem_many(np.zeros(4, dtype=np.uint64), 0b1011).tolist() == [0] * 4


def test_bsc_residue_dp_against_error_patterns():
    f, n = 0b1011, 9
    masks = np.array([gf2.rem(1 << i, f) for i in range(n)], dtype=np.int64)
    for p in (0.0, 0.05, 0.5):
        naive = np.zeros(8)
        for e in range(1 << n):
            w = int.bit_count(e)
            naive[gf2.rem(e, f)] += p**w * (1.0 - p) ** (n - w)
        got = K.bsc_residue_dp(masks, p, 3)
        assert np.allclose(got, naive, rtol=0, atol=1e-13)  # 2^9 float64 terms summed
        assert abs(got.sum() - 1.0) < 1e-12


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
        assert np.allclose(K.xor_convolve(a.copy(), b.copy()), naive, atol=1e-12)


def test_xor_convolve_uniform_fixed_point():
    # convolving the uniform vector leaves it elementwise identical
    size = 1 << 10
    u = np.full(size, 1.0 / size)
    e = rng.random(size)
    e /= e.sum()
    out = K.xor_convolve(u.copy(), e)
    assert float(out.max()) == float(out.min())
