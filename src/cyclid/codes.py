"""Binary cyclic codes C(n, g) and their exact enumeration-level quantities.

A code is defined by a length n and a generator polynomial g dividing
X^n + 1; codewords are the polynomial multiples u*g for messages u of
degree < k = n - deg(g).  Codeword enumeration and the weight
distribution are exact brute force, guarded at k <= 24 (about 16M
codewords) so oversized requests fail loudly instead of silently
sampling.  The zero-syndrome probability enumerates whichever of the
code and its dual is smaller, so its guard is min(k, n - k) <= 24; an
even length past it folds to its odd part where the generator allows.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import gf2
from ._kernels import rem_many, weight_counts

ENUM_GUARD_K = 24
WORD_GUARD_N = 63  # bit-packed kernels use uint64 words


class GuardError(RuntimeError):
    """A desk-scale resource guard was exceeded."""


class InvalidGeneratorError(ValueError):
    """The generator polynomial does not divide X^n + 1."""


def span_basis(vectors) -> list[int]:
    """Reduced row-echelon basis (bit-packed) of the span of the inputs.

    Fully reduced, so equal spans give identical bases.
    """
    rows: dict[int, int] = {}  # pivot (leading bit) -> row
    for v in vectors:
        v = int(v)
        while v:
            p = v.bit_length() - 1
            if p in rows:
                v ^= rows[p]
            else:
                rows[p] = v
                break
    # from the lowest pivot up, clear each row's bits at the lower pivots:
    # those rows are already reduced, so each touches its own pivot bit only
    pivots = sorted(rows)
    below = 0
    for p in pivots:
        v = rows[p]
        hits = v & below
        while hits:
            q = hits.bit_length() - 1
            v ^= rows[q]
            hits ^= 1 << q
        rows[p] = v
        below |= 1 << p
    return [rows[p] for p in reversed(pivots)]


class CyclicCode:
    """The cyclic code C(n, g).

    Immutable after construction, apart from the memo of
    ``p_zero_syndrome`` values per crossover probability.
    """

    def __init__(self, n: int, g: int):
        if n < 1:
            raise ValueError("code length must be >= 1")
        if g == 0:
            raise InvalidGeneratorError("generator must be nonzero")
        if gf2.rem(gf2.xn1(n), g):
            raise InvalidGeneratorError(
                f"{gf2.format_poly(g)} does not divide X^{n}+1"
            )
        self.n = n
        self.g = g
        self.k = n - (g.bit_length() - 1)
        self.h = gf2.div(gf2.xn1(n), g)  # parity polynomial
        self.g_dual = gf2.reciprocal(self.h)
        self._p0: dict[float, float] = {}

    def __repr__(self):
        return f"CyclicCode(n={self.n}, g={gf2.format_poly(self.g)})"

    def __eq__(self, other):
        return isinstance(other, CyclicCode) and (self.n, self.g) == (other.n, other.g)

    def __hash__(self):
        return hash((self.n, self.g))

    @property
    def is_trivial(self) -> bool:
        return self.k == 0 or self.k == self.n

    def is_degenerate(self) -> bool:
        """True iff the dual generator's order is below n: the generator
        matrix repeats a shorter code's.  Undefined for trivial codes.
        """
        if self.is_trivial:
            raise ValueError("degeneracy is undefined for trivial codes")
        return gf2.order(self.g_dual) < self.n

    def codewords(self) -> Iterator[int]:
        """All 2^k codewords u*g in message order; guarded at k <= 24."""
        if self.k > ENUM_GUARD_K:
            raise GuardError(f"codeword enumeration needs k <= {ENUM_GUARD_K}, got {self.k}")
        for u in range(1 << self.k):
            yield gf2.mul(u, self.g)

    def weight_distribution(self) -> np.ndarray:
        """Exact counts A_0..A_n of codewords by Hamming weight."""
        if self.k > ENUM_GUARD_K:
            raise GuardError(f"weight enumeration needs k <= {ENUM_GUARD_K}, got {self.k}")
        if self.n > WORD_GUARD_N:
            raise GuardError(f"weight enumeration needs n <= {WORD_GUARD_N}, got {self.n}")
        return weight_counts(self.g, self.k, self.n)

    def p_zero_syndrome(self, p: float) -> float:
        """Probability that a BSC(p) error pattern is itself a codeword.

        With k <= n - k this is the weight sum A_i p^i (1-p)^(n-i) over
        the code; otherwise the MacWilliams identity gives it from the
        weights B_j of the (n - k)-dimensional dual code as
        2^-(n-k) * sum B_j (1-2p)^j (MacWilliams & Sloane 1977), so at
        most 2^min(k, n-k) words are enumerated.  Past that guard, an even
        n = 2^a * m (m odd) with g dividing X^m + 1 folds to C(m, g):
        X^m = 1 mod g, so e mod g is the residue of the XOR of the n/m
        slices of e, a BSC word of crossover (1 - (1-2p)^(n/m)) / 2.
        p = 1/2 is allowed for the analytic limit 2^(k-n).  The value is
        kept per p on the code; p and the guard are checked on every
        call, so refusals are never cached.
        """
        check_crossover(p)
        n, k = self.n, self.k
        big = min(k, n - k) > ENUM_GUARD_K
        m = n // (n & -n)  # odd part of n
        fold = big and m < n and gf2.rem(gf2.xn1(m), self.g) == 0
        if (big and not fold) or n > WORD_GUARD_N:
            raise GuardError(
                f"zero-syndrome probability needs min(k, n-k) <= {ENUM_GUARD_K} and "
                f"n <= {WORD_GUARD_N}, got n={n}, k={k}, n-k={n - k}"
            )
        if p not in self._p0:
            i = np.arange(n + 1, dtype=np.float64)
            if fold:
                p_fold = (1.0 - (1.0 - 2.0 * p) ** (n // m)) / 2.0
                self._p0[p] = CyclicCode(m, self.g).p_zero_syndrome(p_fold)
            elif k <= n - k:
                a = weight_counts(self.g, k, n).astype(np.float64)
                self._p0[p] = float(np.sum(a * p**i * (1.0 - p) ** (n - i)))
            else:
                b = weight_counts(self.g_dual, n - k, n).astype(np.float64)
                self._p0[p] = math.ldexp(float(np.sum(b * (1.0 - 2.0 * p) ** i)), k - n)
        return self._p0[p]


def check_divisor(n: int, f: int) -> int:
    """deg f, once f is checked to be a nontrivial proper divisor of X^n + 1."""
    deg_f = f.bit_length() - 1
    if f <= 1 or deg_f >= n:
        raise ValueError("f must be a nontrivial proper divisor of X^n+1")
    if gf2.rem(gf2.xn1(n), f):
        raise ValueError(f"{gf2.format_poly(f)} does not divide X^{n}+1")
    return deg_f


def check_crossover(p: float) -> None:
    """Refuse a BSC crossover probability outside [0, 1/2], NaN included."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("crossover probability must be in [0, 1/2]")


def parity_check_rows(code: CyclicCode) -> list[int]:
    """Rows X^l * g_dual of the standard parity-check matrix of a code.

    Like the syndrome coefficient vectors these span the dual code, but
    coefficient l of the checked word is the inner product with the
    shifted dual generator itself.  The factor-entropy statistic is
    defined through this matrix; its always-1/2 property under short
    assumed lengths holds for these rows and not for the coefficient
    basis.
    """
    if code.is_trivial:
        raise ValueError("parity checks need a nontrivial code")
    return [code.g_dual << l for l in range(code.n - code.k)]


def syndrome_basis(n: int, f: int) -> list[int]:
    """Bit-packed vectors h_0..h_{deg f - 1} with h_l[i] = coeff of X^l in X^i mod f.

    The l-th coefficient of w(X) mod f(X) equals the inner product
    w . h_l; the h_l are linearly independent and span the dual code of
    C(n, f).  Requires f to be a proper nontrivial divisor of X^n + 1, and
    n <= 63 so that each vector is one word.
    """
    deg_f = check_divisor(n, f)
    if n > WORD_GUARD_N:
        raise GuardError(f"syndrome basis needs n <= {WORD_GUARD_N}, got n={n}")
    units = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    # bits[i, l] is the coefficient of X^l in X^i mod f
    bits = (rem_many(units, f)[:, None] >> np.arange(deg_f, dtype=np.uint64)) & np.uint64(1)
    return (units @ bits).tolist()
