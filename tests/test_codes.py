import numpy as np
import pytest

from cyclid import gf2
from cyclid._kernels import bsc_residue_dp, weight_counts
from cyclid.codes import (
    CyclicCode,
    GuardError,
    InvalidGeneratorError,
    in_span,
    span_basis,
    syndrome_basis,
)


def P(text):
    return gf2.parse_poly(text)


def example1_code():
    g0 = gf2.mul(gf2.mul(P("x^4+x^3+1"), P("x^4+x^3+x^2+x+1")), P("x+1"))
    return CyclicCode(15, g0)


def test_cyclic_code():
    code = CyclicCode(7, P("x^3+x+1"))
    assert code.k == 4
    assert example1_code().k == 6
    assert CyclicCode(7, 1).k == 7
    assert CyclicCode(7, 1).is_trivial


def test_cyclic_code_rejects_nondivisor():
    with pytest.raises(InvalidGeneratorError):
        CyclicCode(7, P("x^2+x+1"))
    with pytest.raises(InvalidGeneratorError):
        CyclicCode(7, 0)


def test_dual_generator():
    assert example1_code().dual_generator() == gf2.mul(P("x^2+x+1"), P("x^4+x^3+1"))
    code = CyclicCode(7, P("x^3+x^2+1"))
    assert code.dual_generator() == gf2.mul(P("x+1"), P("x^3+x^2+1"))
    # applying the construction to the dual recovers the generator
    for g in gf2.divisors_xn1(15):
        code = CyclicCode(15, g)
        assert CyclicCode(15, code.g_dual).g_dual == g


def test_is_degenerate():
    assert CyclicCode(4, P("x^2+1")).is_degenerate()
    assert not CyclicCode(7, P("x^3+x+1")).is_degenerate()
    assert not example1_code().is_degenerate()
    with pytest.raises(ValueError):
        CyclicCode(7, 1).is_degenerate()


def test_degenerate_matches_repeated_codeword_structure():
    code = CyclicCode(4, P("x^2+1"))
    words = sorted(gf2.poly_to_bits(v, 4) for v in code.codewords())
    assert words == [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]]


def test_codewords():
    code = CyclicCode(4, P("x^2+1"))
    words = set(code.codewords())
    assert words == {0b0000, 0b0101, 0b1010, 0b1111}
    assert len(list(CyclicCode(7, P("x^3+x+1")).codewords())) == 16
    assert 0 in words
    big = CyclicCode(31, P("x+1"))
    with pytest.raises(GuardError):
        next(big.codewords())


def test_weight_distribution():
    wd = CyclicCode(7, P("x^3+x+1")).weight_distribution()
    assert wd.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
    for g in gf2.divisors_xn1(15):
        code = CyclicCode(15, g)
        wd = code.weight_distribution()
        assert wd[0] == 1
        assert wd.sum() == 1 << code.k


def test_p_zero_syndrome():
    code = CyclicCode(7, P("x^3+x+1"))
    assert code.p_zero_syndrome(0.0) == 1.0
    assert abs(code.p_zero_syndrome(0.5) - 2.0 ** (code.k - code.n)) < 1e-15
    assert abs(code.p_zero_syndrome(0.01) - 0.93207) < 1e-5
    with pytest.raises(ValueError):
        code.p_zero_syndrome(0.7)


def test_p_zero_syndrome_kept_per_p(monkeypatch):
    enumerations = []
    monkeypatch.setattr(
        "cyclid.codes.weight_counts", lambda *a: enumerations.append(a) or weight_counts(*a)
    )
    code = CyclicCode(15, P("x^4+x+1"))
    first = code.p_zero_syndrome(0.01)
    assert code.p_zero_syndrome(0.01) is first
    assert len(enumerations) == 1
    assert code.p_zero_syndrome(0.05) != first and len(enumerations) == 2
    # p is checked on every call, also after a good one
    for bad in (-0.1, 0.7, float("nan")):
        with pytest.raises(ValueError):
            code.p_zero_syndrome(bad)
    assert CyclicCode(15, P("x^4+x+1")).p_zero_syndrome(0.01) == first


def test_p_zero_syndrome_dual_route_matches_weight_sum():
    # k > n - k takes the MacWilliams route through the dual code's weights
    for n in range(1, 21):
        for g in gf2.divisors_xn1(n):
            code = CyclicCode(n, g)
            a = weight_counts(g, code.k, n).astype(np.float64)
            i = np.arange(n + 1)
            for p in (0.0, 0.01, 0.1, 0.5):
                direct = float(np.sum(a * p**i * (1.0 - p) ** (n - i)))
                assert abs(code.p_zero_syndrome(p) - direct) <= 1e-12, (n, g, p)


def test_p_zero_syndrome_even_weight_code():
    # k = 30 is past the enumeration guard; the dual is the repetition code
    code = CyclicCode(31, P("x+1"))
    for p in (0.0, 0.01, 0.1, 0.3, 0.5):
        assert code.p_zero_syndrome(p) == (1.0 + (1.0 - 2.0 * p) ** 31) / 2.0


def test_p_zero_syndrome_large_code_via_dual():
    # an irreducible degree-21 factor of X^49+1: k = 28, dual dimension 21
    f = P("x^21+x^7+1")
    code = CyclicCode(49, f)
    assert code.k == 28
    assert code.p_zero_syndrome(0.0) == 1.0
    assert code.p_zero_syndrome(0.5) == 2.0**-21
    # independent route: channel DP over residues mod f, mass at zero
    masks = np.array([gf2.rem(1 << i, f) for i in range(49)], dtype=np.int64)
    assert abs(code.p_zero_syndrome(0.01) - bsc_residue_dp(masks, 0.01, 21)[0]) < 1e-12


def test_p_zero_syndrome_guard():
    # degrees 1+2+3+3+6+6+6: k = 36 and n - k = 27 both exceed the guard
    g = 1
    for f, _ in gf2.factor_xn1(63)[:7]:
        g = gf2.mul(g, f)
    code = CyclicCode(63, g)
    assert (code.k, code.n - code.k) == (36, 27)
    # a refusal is never kept: every call raises again
    for _ in range(2):
        with pytest.raises(GuardError, match="n-k=27"):
            code.p_zero_syndrome(0.01)


def test_p_zero_syndrome_folds_even_length_past_guard():
    # X^58+1 = (x+1)^2 f28^2: k = 30 and n - k = 28 are both past the guard,
    # but f28 divides X^29+1, so C(58, f28) folds to the dimension-1 code
    # C(29, f28) = {0, 1...1} at crossover q = 2p(1-p)
    f28 = gf2.factor_xn1(58)[1][0]
    code = CyclicCode(58, f28)
    assert (code.k, code.n - code.k) == (30, 28)
    q = 2 * 0.02 * 0.98
    assert code.p_zero_syndrome(0.02) == pytest.approx((1 - q) ** 29 + q**29, rel=1e-15)
    assert code.p_zero_syndrome(0.02) == pytest.approx(0.3135861242067398, rel=1e-15)
    assert code.p_zero_syndrome(0.5) == 2.0**-28


def test_even_length_fold_identity():
    # the identity behind the fold, where both sides are enumerated directly
    for n in (6, 10, 12, 14, 18, 20, 28, 30):
        m = n // (n & -n)
        for g in gf2.divisors_xn1(m)[1:]:
            for p in (0.01, 0.1, 0.3):
                p_fold = (1 - (1 - 2 * p) ** (n // m)) / 2
                folded = CyclicCode(m, g).p_zero_syndrome(p_fold)
                assert abs(CyclicCode(n, g).p_zero_syndrome(p) - folded) <= 1e-12, (n, g, p)


def test_syndrome_basis_paper_values():
    # n=7, f=x^3+x^2+1: rows of the residue map, ascending coordinates
    hs = syndrome_basis(7, P("x^3+x^2+1"))
    as_bits = ["".join(str((h >> i) & 1) for i in range(7)) for h in hs]
    assert as_bits == ["1001110", "0100111", "0011101"]


def test_syndrome_basis_structure():
    f = P("x^3+x+1")
    hs = syndrome_basis(7, f)
    for i in range(3):  # identity block below deg f
        for l in range(3):
            assert (hs[l] >> i) & 1 == (1 if i == l else 0)
    assert syndrome_basis(3, P("x+1")) == [0b111]
    # each row is a multiple of the dual generator of C(n, f)
    code = CyclicCode(7, f)
    assert all(gf2.rem(h, code.g_dual) == 0 for h in hs)
    with pytest.raises(ValueError):
        syndrome_basis(7, 1)
    with pytest.raises(ValueError):
        syndrome_basis(7, gf2.xn1(7))


def test_span_helpers():
    basis = span_basis([0b110, 0b011, 0b101])
    assert len(basis) == 2
    assert in_span(basis, 0b101)
    assert not in_span(basis, 0b100)
    assert span_basis([0, 0]) == []


def _brute_force_rref(vectors) -> list[int]:
    # the span by enumeration; its reduced basis row at pivot p is the one
    # element with leading bit p and no bit at any other pivot
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    pivots = {v.bit_length() - 1 for v in span if v}
    mask = sum(1 << p for p in pivots)
    rows = []
    for p in sorted(pivots, reverse=True):
        (row,) = [v for v in span if v.bit_length() - 1 == p and not v & mask & ~(1 << p)]
        rows.append(row)
    return rows


def test_span_basis_is_reduced_echelon_form():
    rng = np.random.default_rng(24)
    for _ in range(400):
        bits = int(rng.integers(1, 25))
        vectors = rng.integers(0, 1 << bits, size=int(rng.integers(0, 11))).tolist()
        if vectors and rng.random() < 0.3:
            vectors.append(vectors[0] ^ vectors[-1])  # a dependent vector
        assert span_basis(vectors) == _brute_force_rref(vectors), vectors


def test_inner_product_counting_identity():
    # count of codewords orthogonal to h is 2^k iff h is in the dual
    rng = np.random.default_rng(0)
    code = CyclicCode(7, P("x^3+x+1"))
    words = list(code.codewords())
    for h in rng.integers(0, 1 << 7, size=100):
        h = int(h)
        zeros = sum(1 for v in words if int.bit_count(v & h) % 2 == 0)
        if gf2.rem(h, code.g_dual) == 0:
            assert zeros == 1 << code.k
        else:
            assert zeros == 1 << (code.k - 1)
