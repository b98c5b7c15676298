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


def test_subspace_elements_rows_match_single_spans():
    for dim in (0, 1, 6):
        bases = rng.integers(0, 1 << 20, size=(5, dim), dtype=np.int64)
        spans = K.subspace_elements(bases)
        assert spans.shape == (5, 1 << dim)
        for basis, span in zip(bases, spans):
            assert span.tolist() == K.subspace_elements(basis).tolist()


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


def test_ortho_zero_count_array_matches_scalar_calls():
    for dim in (0, 1, 5, 9):
        basis = random_basis(dim, 12)
        hs = [0, 1, *rng.integers(0, 1 << 12, size=6).tolist()]
        got = K.ortho_zero_count(basis, np.array(hs, dtype=np.uint64))
        assert got.tolist() == [K.ortho_zero_count(basis, h) for h in hs]
        assert got[0] == 1 << dim  # h = 0: every element
    assert K.ortho_zero_count(random_basis(0, 12), [5, 0]).tolist() == [1, 1]
    assert K.ortho_zero_count(random_basis(3, 12), []).tolist() == []


def test_rem_many_matches_gf2_rem():
    vals = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
    vals[:3] = (0, 1, (1 << 63) - 1)
    vals[3:5] = ((1 << 64) - 1, (1 << 63) + 5)  # bit 63 set: a negative intp
    for f in (0b1, 0b11, 0b1011, 0b1000011, (1 << 40) | 0b1001):
        got = K.rem_many(vals, f)
        assert got.dtype == np.uint64
        assert got.tolist() == [gf2.rem(v, f) for v in vals.tolist()]
    assert K.rem_many(np.zeros(4, dtype=np.uint64), 0b1011).tolist() == [0] * 4
    assert K.rem_many([(1 << 64) - 1, (1 << 63) + 5], 0b1011).tolist() == [1, 4]


def test_rem_many_sizes():
    f = 0b1100111
    vals = rng.integers(0, 1 << 24, size=70_000, dtype=np.uint64)
    expect = [gf2.rem(v, f) for v in vals.tolist()]
    for size in (0, 1, 32_768, 32_769, 70_000):
        got = K.rem_many(vals[:size], f)
        assert got.dtype == np.uint64 and got.shape == (size,)
        assert got.tolist() == expect[:size]


def test_rem_many_six_lookups_per_word():
    # bit 62 set: 63 bits of columns take six 11-bit lookups
    vals = rng.integers(0, 1 << 63, size=500, dtype=np.uint64) | np.uint64(1 << 62)
    for f in (0b11, 0b111, 0b1000011, (1 << 55) | 0b101):
        assert K.rem_many(vals, f).tolist() == [gf2.rem(v, f) for v in vals.tolist()]


def test_rem_many_trivial_and_wide_divisors():
    vals = rng.integers(0, 1 << 30, size=200, dtype=np.uint64)
    assert K.rem_many(vals, 1).tolist() == [0] * 200
    for f in ((1 << 30) | 1, (1 << 40) | 0b1011, (1 << 63) | 1):  # deg f >= word width
        got = K.rem_many(vals, f)
        assert got.tolist() == [gf2.rem(v, f) for v in vals.tolist()] == vals.tolist()


def test_rem_many_keeps_shape():
    vals = rng.integers(0, 1 << 40, size=(37, 11), dtype=np.uint64)
    for v2 in (vals, vals.T, vals[::2, 1:]):  # C order, Fortran order, strided
        got = K.rem_many(v2, 0b10011)
        assert got.shape == v2.shape
        assert [gf2.rem(v, 0b10011) for v in v2.ravel().tolist()] == got.ravel().tolist()


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


def test_xor_convolve_rows_match_single_vectors():
    # one law against a batch of laws, as the eq-23 masses use it, at every
    # eq-23 support size: a one-row product may take another BLAS kernel, so
    # the last bits can differ, except at 64 points
    for size in (1 << j for j in range(1, 9)):
        a = rng.random(size)
        a /= a.sum()
        rows = rng.random((5, size))
        rows /= rows.sum(axis=1, keepdims=True)
        out = K.xor_convolve(a, rows)
        assert out.shape == (5, size)
        for row, got in zip(rows, out):
            alone = K.xor_convolve(a, row)
            assert np.max(np.abs(got - alone)) <= 1e-15
            if size == 64:
                assert np.array_equal(got, alone)
