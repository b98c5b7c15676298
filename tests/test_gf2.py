import random

import pytest

from cyclid import gf2


def P(text):
    return gf2.parse_poly(text)


# --- reference oracles -------------------------------------------------------


def schoolbook_divmod(a, m):
    # long division over coefficient lists
    assert m != 0
    a_bits = [(a >> i) & 1 for i in range(max(a.bit_length(), 1))]
    dm = m.bit_length() - 1
    q = 0
    for i in range(len(a_bits) - 1, dm - 1, -1):
        if a_bits[i]:
            q |= 1 << (i - dm)
            for j in range(dm + 1):
                a_bits[i - dm + j] ^= (m >> j) & 1
    r = 0
    for i, b in enumerate(a_bits):
        r |= b << i
    return q, r


def euclid_gcd(a, b):
    while b:
        a, b = b, schoolbook_divmod(a, b)[1]
    return a


def order_by_trial(f):
    l = 1
    while True:
        if schoolbook_divmod(gf2.xn1(l), f)[1] == 0:
            return l
        l += 1


# --- arithmetic ---------------------------------------------------------------


def test_add_examples():
    assert gf2.add(P("x+1"), P("x+1")) == 0
    assert gf2.add(P("x+1"), P("x^2+x")) == P("x^2+1")
    a = 0b100101
    assert gf2.add(a, 0) == a


def test_mul_examples():
    assert gf2.mul(P("x+1"), P("x+1")) == P("x^2+1")
    assert gf2.mul(P("x+1"), P("x^2+x+1")) == P("x^3+1")
    assert gf2.mul(0b110101, 1) == 0b110101


def test_mul_degree_adds():
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(1, 1 << 20)
        b = rng.randrange(1, 1 << 20)
        assert gf2.degree(gf2.mul(a, b)) == gf2.degree(a) + gf2.degree(b)


def test_rem_examples():
    assert gf2.rem(gf2.xn1(7), P("x^3+x+1")) == 0
    assert gf2.rem(1 << 3, P("x^3+x+1")) == P("x+1")
    assert gf2.rem(0b1011101, 1) == 0


def test_rem_against_schoolbook():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.randrange(0, 1 << 30)
        m = rng.randrange(1, 1 << 15)
        q, r = gf2.divmod_(a, m)
        assert (q, r) == schoolbook_divmod(a, m)
        assert gf2.add(gf2.mul(q, m), r) == a
        assert r == 0 or gf2.degree(r) < gf2.degree(m)


def test_rem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf2.rem(0b101, 0)


def test_gcd():
    assert gf2.gcd(P("x^2+1"), P("x^3+1")) == P("x+1")
    assert gf2.gcd(0b10011, 0) == 0b10011
    assert gf2.gcd(0b111, 0b111) == 0b111
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randrange(0, 1 << 24)
        b = rng.randrange(1, 1 << 24)
        assert gf2.gcd(a, b) == euclid_gcd(a, b)
    with pytest.raises(ValueError):
        gf2.gcd(0, 0)


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = (rng.randrange(0, 1 << 16) for _ in range(3))
        assert gf2.add(a, b) == gf2.add(b, a)
        assert gf2.add(a, a) == 0
        assert gf2.mul(gf2.mul(a, b), c) == gf2.mul(a, gf2.mul(b, c))
        assert gf2.mul(a, gf2.add(b, c)) == gf2.add(gf2.mul(a, b), gf2.mul(a, c))


# --- reciprocal, order, irreducibility ----------------------------------------


def test_reciprocal():
    assert gf2.reciprocal(P("x^3+x+1")) == P("x^3+x^2+1")
    assert gf2.reciprocal(P("x+1")) == P("x+1")
    rng = random.Random(4)
    for _ in range(200):
        f = rng.randrange(1, 1 << 20) | 1
        assert gf2.reciprocal(gf2.reciprocal(f)) == f
        assert gf2.degree(gf2.reciprocal(f)) == gf2.degree(f)
    with pytest.raises(ValueError):
        gf2.reciprocal(0)


def test_reciprocal_multiplicative():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randrange(1, 1 << 12) | 1
        b = rng.randrange(1, 1 << 12) | 1
        assert gf2.reciprocal(gf2.mul(a, b)) == gf2.mul(
            gf2.reciprocal(a), gf2.reciprocal(b)
        )


def test_order():
    assert gf2.order(P("x+1")) == 1
    assert gf2.order(P("x^2+x+1")) == 3
    assert gf2.order(P("x^3+x+1")) == 7
    for f in (P("x^3+x+1"), P("x^4+x+1"), P("x^2+1"), P("x^6+x^3+1")):
        assert gf2.order(f) == order_by_trial(f)
    with pytest.raises(ValueError):
        gf2.order(P("x^2+x"))  # f(0) = 0
    with pytest.raises(ValueError):
        gf2.order(1)


def test_order_matches_rem_loop():
    # the oracle steps X^l mod f with a full remainder
    def order_by_rem(f):
        cur, l = gf2.rem(2, f), 1
        while cur != 1:
            cur, l = gf2.rem(cur << 1, f), l + 1
        return l

    checked = 0
    for n in range(1, 22):
        for f in gf2.divisors_xn1(n):
            if f > 1:
                assert gf2.order(f) == order_by_rem(f), (n, f)
                checked += 1
    assert checked == 277


def test_is_irreducible():
    assert gf2.is_irreducible(P("x^3+x+1"))
    assert not gf2.is_irreducible(P("x^2+1"))
    assert gf2.is_irreducible(P("x+1"))
    # cross-check against explicit factor search
    for f in range(2, 1 << 10):
        d = gf2.degree(f)
        if d < 1:
            continue
        has_factor = any(
            gf2.rem(f, g) == 0
            for g in range(2, 1 << d)
            if 1 <= gf2.degree(g) <= d - 1
        )
        assert gf2.is_irreducible(f) == (not has_factor)
    with pytest.raises(ValueError):
        gf2.is_irreducible(1)


# --- factorization of X^n + 1 --------------------------------------------------


def test_factor_xn1_examples():
    assert gf2.factor_xn1(7) == (
        (P("x+1"), 1),
        (P("x^3+x+1"), 1),
        (P("x^3+x^2+1"), 1),
    )
    fifteen = dict(gf2.factor_xn1(15))
    assert fifteen == {
        P("x+1"): 1,
        P("x^2+x+1"): 1,
        P("x^4+x+1"): 1,
        P("x^4+x^3+1"): 1,
        P("x^4+x^3+x^2+x+1"): 1,
    }
    assert gf2.factor_xn1(4) == ((P("x+1"), 4),)
    assert gf2.factor_xn1(1) == ((P("x+1"), 1),)


def cyclotomic_coset_sizes(m):
    # sizes of the cosets {j, 2j, 4j, ...} of 2 mod m, for odd m
    seen, sizes = set(), []
    for j in range(m):
        size = 0
        while j not in seen:
            seen.add(j)
            j = 2 * j % m
            size += 1
        if size:
            sizes.append(size)
    return sorted(sizes)


def test_factor_xn1_reconstructs_product():
    # the product is X^n+1 and the degrees are the coset sizes of 2 mod the
    # odd part, which together prove every factor irreducible; trial
    # division confirms it independently up to degree 24
    for n in range(1, 65):
        odd = n
        while odd % 2 == 0:
            odd //= 2
        factors = gf2.factor_xn1(n)
        assert len({f for f, _ in factors}) == len(factors)
        assert sorted(f.bit_length() - 1 for f, _ in factors) == cyclotomic_coset_sizes(odd)
        prod = 1
        for f, mult in factors:
            assert mult == n // odd
            assert n % gf2.order(f) == 0
            if f.bit_length() - 1 <= 24:
                assert gf2.is_irreducible(f)
            for _ in range(mult):
                prod = gf2.mul(prod, f)
        assert prod == gf2.xn1(n)


def test_divisors_xn1():
    assert len(gf2.divisors_xn1(7)) == 8
    assert gf2.divisors_xn1(2) == (1, P("x+1"), P("x^2+1"))
    for n in (1, 6, 9, 15, 16):
        divs = gf2.divisors_xn1(n)
        assert 1 in divs and gf2.xn1(n) in divs
        assert len(set(divs)) == len(divs)
        assert list(divs) == sorted(divs)
        assert all(gf2.rem(gf2.xn1(n), d) == 0 for d in divs)


def test_divisors_of():
    g = gf2.mul(P("x+1"), P("x^3+x+1"))
    divs = gf2.divisors_of(g, 7)
    assert set(divs) == {1, P("x+1"), P("x^3+x+1"), g}
    with pytest.raises(ValueError):
        gf2.divisors_of(P("x^2+x+1"), 7)


# --- sequences ------------------------------------------------------------------


def test_least_period():
    assert gf2.least_period([1, 0, 1, 1, 0, 1]) == 3
    assert gf2.least_period([1] * 9) == 1
    assert gf2.least_period([1, 0, 1, 1]) == 4
    with pytest.raises(ValueError):
        gf2.least_period([])


def test_is_degenerate_pattern():
    assert gf2.is_degenerate_pattern([1, 0, 1, 1, 0, 1]) == (True, (1, 0, 1))
    assert gf2.is_degenerate_pattern([1, 0, 1, 1]) == (False, None)
    assert gf2.is_degenerate_pattern([1] * 7) == (True, (1,))


def test_lrs_minimal_polynomial():
    assert gf2.lrs_minimal_polynomial([1] * 8) == P("x+1")
    assert gf2.lrs_minimal_polynomial([1, 0, 1, 1, 0, 1]) == P("x^2+x+1")
    assert gf2.lrs_minimal_polynomial([1, 1, 0, 1, 1, 0]) == P("x^2+x+1")
    with pytest.warns(UserWarning):
        assert gf2.lrs_minimal_polynomial([0, 0, 0, 0]) == 1


def test_lrs_recurrence_holds_on_all_windows():
    rng = random.Random(6)
    for _ in range(100):
        d = rng.randrange(1, 9)
        pattern = [rng.randrange(2) for _ in range(d)]
        if not any(pattern):
            continue
        seq = pattern * 4
        h = gf2.lrs_minimal_polynomial(seq)
        L = gf2.degree(h)
        # h is monic of degree L: seq[r+L] = sum of taps (low coefficients)
        for r in range(len(seq) - L):
            acc = 0
            for i in range(L + 1):
                if (h >> i) & 1:
                    acc ^= seq[r + i]
            assert acc == 0


def test_lrs_order_equals_period():
    for d in range(1, 11):
        for w in range(1, 1 << d):
            bits = gf2.poly_to_bits(w, d)
            if gf2.least_period(bits) != d:
                continue
            h = gf2.lrs_minimal_polynomial(bits * 2)
            assert gf2.order(h) == d


def test_minimal_generating_polynomial():
    assert gf2.minimal_generating_polynomial([1, 1, 0]) == P("x+1")
    assert gf2.minimal_generating_polynomial([1]) == 1
    # every single-period polynomial is a multiple of the result
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randrange(1, 10)
        w = [rng.randrange(2) for _ in range(d)]
        if not any(w):
            continue
        m = gf2.minimal_generating_polynomial(w)
        assert gf2.rem(gf2.poly_from_bits(w), m) == 0
    with pytest.raises(ValueError):
        gf2.minimal_generating_polynomial([0, 0])


# --- text formats ----------------------------------------------------------------


def test_parse_and_format():
    assert gf2.parse_poly("1101") == P("x^3+x+1")
    assert gf2.parse_poly("x^3+x+1") == 0b1011
    assert gf2.parse_poly("X^3+X+1") == 0b1011
    assert gf2.parse_poly("x3+x+1") == 0b1011
    assert gf2.format_poly_bits(0b1011) == "1101"
    assert gf2.format_poly_bits(0) == "0"
    assert gf2.format_poly(0b1011) == "x^3+x+1"
    assert gf2.format_poly(1) == "1"
    with pytest.raises(ValueError):
        gf2.parse_poly("x^2+y")
    with pytest.raises(ValueError):
        gf2.parse_poly("")


def test_format_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        a = rng.randrange(0, 1 << 24)
        assert gf2.parse_poly(gf2.format_poly_bits(a)) == a
        if a:
            assert gf2.parse_poly(gf2.format_poly(a)) == a


def test_degree_of_zero_is_marker():
    assert gf2.degree(0) is None
    assert gf2.degree(1) == 0
    assert gf2.degree(0b1000) == 3
