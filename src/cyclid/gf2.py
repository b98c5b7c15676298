"""Polynomial arithmetic over GF(2).

Polynomials are represented as nonnegative Python integers: bit i of the
integer is the coefficient of X^i, so the polynomial
b_n X^n + ... + b_1 X + b_0 corresponds to the integer
b_n 2^n + ... + b_1 2 + b_0.  The representation is automatically
canonical (no stored leading zeros) and equality of polynomials is
integer equality.  The zero polynomial is the integer 0; its degree is
the distinguished value None, never an integer.

Two text forms are supported at the boundary:

* bit-string form, ascending coefficients: ``"1101"`` is 1 + X + X^3.
  This is the canonical output form.
* human form: ``"x^3+x+1"`` (case-insensitive, '+'-separated monomials,
  ``"1"`` for the constant term).

Factorization of X^n + 1 enumerates irreducibles by trial division.
That is fast while every factor of X^n + 1 has small degree, but slow
when one factor is large: X^47 + 1 has two factors of degree 23, and
factor_xn1(47) takes seconds (9-18 s measured on a 2-vCPU machine).
"""

from __future__ import annotations

import functools
import warnings
from typing import Iterable, Sequence

X = 0b10  # the polynomial X

MAX_XN1_N = 64  # desk-scale cap for X^n+1 analysis


def degree(a: int) -> int | None:
    """Degree of a, or None for the zero polynomial."""
    if a == 0:
        return None
    return a.bit_length() - 1


def add(a: int, b: int) -> int:
    """Coefficientwise sum; in characteristic 2, add(a, a) == 0."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Ring product of a and b."""
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def divmod_(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of a divided by m, m != 0."""
    if m == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dm and a:
        shift = a.bit_length() - 1 - dm
        q |= 1 << shift
        a ^= m << shift
    return q, a


def rem(a: int, m: int) -> int:
    """Remainder of a modulo m; deg(rem) < deg(m)."""
    return divmod_(a, m)[1]


def div(a: int, m: int) -> int:
    """Exact quotient a // m; raises if m does not divide a."""
    q, r = divmod_(a, m)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; undefined when both inputs are zero."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, rem(a, b)
    return a


def reciprocal(f: int) -> int:
    """Coefficients of f reversed across its degree: X^deg(f) * f(1/X)."""
    if f == 0:
        raise ValueError("reciprocal of the zero polynomial is undefined")
    d = f.bit_length() - 1
    out = 0
    for i in range(d + 1):
        if (f >> i) & 1:
            out |= 1 << (d - i)
    return out


def order(f: int, cap: int = 1 << 26) -> int:
    """Least l >= 1 such that f divides X^l + 1.

    Requires f(0) = 1 and deg(f) >= 1.  The order is the multiplicative
    order of X modulo f, found by iteration; `cap` bounds the search as
    a safety net (the true order never exceeds 2^deg(f) - 1).
    """
    if f & 1 == 0 or f.bit_length() <= 1:
        raise ValueError("order requires f(0) = 1 and deg(f) >= 1")
    cur = rem(X, f)
    l = 1
    while cur != 1:
        cur = rem(cur << 1, f)
        l += 1
        if l > cap:
            raise RuntimeError("order search exceeded cap")
    return l


def is_irreducible(f: int) -> bool:
    """Trial-division irreducibility test for deg(f) >= 1."""
    d = degree(f)
    if d is None or d == 0:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    if f & 1 == 0:  # X divides f
        return False
    g = 0b11
    while (g.bit_length() - 1) * 2 <= d:
        if rem(f, g) == 0:
            return False
        g += 2  # only candidates with nonzero constant term
    return True


def xn1(n: int) -> int:
    """The polynomial X^n + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << n) | 1


@functools.lru_cache(maxsize=None)
def factor_xn1(n: int) -> tuple[tuple[int, int], ...]:
    """Irreducible factorization of X^n + 1 as ((factor, multiplicity), ...).

    Factors are sorted canonically (degree, then coefficient bits as an
    integer, which is plain integer order).  For n = 2^a * m with m odd,
    X^n + 1 = (X^m + 1)^(2^a), so only the odd part is factored.
    """
    if not 1 <= n <= MAX_XN1_N:
        raise ValueError(f"n must be in [1, {MAX_XN1_N}]")
    m = n
    a = 0
    while m % 2 == 0:
        m //= 2
        a += 1
    poly = xn1(m)
    factors = []
    cand = 0b11
    while (cand.bit_length() - 1) * 2 <= poly.bit_length() - 1:
        mult = 0
        while rem(poly, cand) == 0:
            poly = div(poly, cand)
            mult += 1
        if mult:
            factors.append((cand, mult))
        cand += 2
    if poly != 1:
        factors.append((poly, 1))
    return tuple((f, mult * (1 << a)) for f, mult in sorted(factors))


@functools.lru_cache(maxsize=None)
def divisors_xn1(n: int) -> tuple[int, ...]:
    """All monic divisors of X^n + 1, including 1 and X^n + 1, sorted."""
    divs = [1]
    for f, mult in factor_xn1(n):
        powers = [1]
        for _ in range(mult):
            powers.append(mul(powers[-1], f))
        divs = [mul(d, p) for d in divs for p in powers]
    return tuple(sorted(divs))


def divisors_of(f: int, n: int) -> tuple[int, ...]:
    """Monic divisors of f, for f itself a divisor of X^n + 1."""
    if rem(xn1(n), f):
        raise ValueError("f does not divide X^n + 1")
    divs = [1]
    for p, mult in factor_xn1(n):
        e = 0
        g = f
        while e < mult:
            q, r = divmod_(g, p)
            if r:
                break
            g = q
            e += 1
        powers = [1]
        for _ in range(e):
            powers.append(mul(powers[-1], p))
        divs = [mul(d, q) for d in divs for q in powers]
    return tuple(sorted(divs))


def least_period(v: Sequence[int]) -> int:
    """Smallest divisor d of len(v) such that v tiles as len(v)/d copies of v[:d]."""
    if len(v) == 0:
        raise ValueError("empty sequence has no period")
    L = len(v)
    for d in range(1, L + 1):
        if L % d:
            continue
        if all(v[i] == v[i % d] for i in range(L)):
            return d
    return L


def is_degenerate_pattern(v: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    """True with the shortest tile w iff v is w repeated more than once."""
    d = least_period(v)
    if d < len(v):
        return True, tuple(v[:d])
    return False, None


def lrs_minimal_polynomial(seq: Sequence[int]) -> int:
    """Minimal (characteristic) polynomial of a binary linear recurring sequence.

    Runs Berlekamp-Massey over GF(2) and returns the unique monic
    polynomial h of lowest degree L whose recurrence generates `seq`
    (the coefficient of X^(L-j) is the j-th connection tap).  The caller
    must supply at least two full periods of a periodic sequence for the
    answer to be the true minimal polynomial.  An all-zero sequence has
    an empty recurrence; it yields 1 and a warning.
    """
    n = len(seq)
    if n == 0:
        raise ValueError("empty sequence")
    if not any(seq):
        warnings.warn("all-zero sequence: minimal polynomial defaults to 1")
        return 1
    c, b = 1, 1  # connection polynomials, constant term = tap 0
    L, m = 0, 1
    for i in range(n):
        d = 0
        for j in range(L + 1):
            if (c >> j) & 1:
                d ^= seq[i - j]
        if d:
            t = c
            c ^= b << m
            if 2 * L <= i:
                L = i + 1 - L
                b = t
                m = 1
            else:
                m += 1
        else:
            m += 1
    # characteristic polynomial: reverse the connection taps across degree L
    h = 0
    for j in range(L + 1):
        if (c >> j) & 1:
            h |= 1 << (L - j)
    return h


def minimal_generating_polynomial(w: Sequence[int]) -> int:
    """(X^n' + 1) / reciprocal(h) for a period-n' pattern with minimal polynomial h.

    Every polynomial whose coefficient vector is one period of the
    sequence is a multiple of the result.
    """
    if len(w) == 0 or not any(w):
        raise ValueError("pattern must be nonempty and not all zero")
    np_ = least_period(w)
    h = lrs_minimal_polynomial(list(w[:np_]) * 2)  # two periods pin the recurrence
    return div(xn1(np_), reciprocal(h))


# --- text formats ----------------------------------------------------------


def poly_from_bits(bits: Iterable[int]) -> int:
    """Pack an ascending coefficient sequence into a polynomial."""
    a = 0
    for i, b in enumerate(bits):
        if b:
            a |= 1 << i
    return a


def poly_to_bits(a: int, n: int) -> list[int]:
    """Unpack the low n coefficients of a into a list."""
    return [(a >> i) & 1 for i in range(n)]


def parse_poly(text: str) -> int:
    """Parse either text form (ascending bit string, or 'x^3+x+1')."""
    s = text.strip().lower()
    if not s:
        raise ValueError("empty polynomial text")
    if set(s) <= {"0", "1"} :
        return poly_from_bits(int(ch) for ch in s)
    a = 0
    for term in s.split("+"):
        term = term.strip()
        if term == "1":
            a ^= 1
        elif term == "x":
            a ^= X
        elif term.startswith("x^") and term[2:].isdigit():
            a ^= 1 << int(term[2:])
        elif term.startswith("x") and term[1:].isdigit():
            a ^= 1 << int(term[1:])  # caret-free form, e.g. "x3"
        else:
            raise ValueError(f"cannot parse polynomial term {term!r}")
    return a


def format_poly_bits(a: int) -> str:
    """Canonical ascending bit-string form ('0' for the zero polynomial)."""
    if a == 0:
        return "0"
    return "".join(str((a >> i) & 1) for i in range(a.bit_length()))


def format_poly(a: int) -> str:
    """Human form, highest power first, e.g. 'x^3+x+1'."""
    if a == 0:
        return "0"
    terms = []
    for i in range(a.bit_length() - 1, -1, -1):
        if (a >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)
