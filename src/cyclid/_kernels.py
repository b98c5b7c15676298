"""Hot numeric kernels in numpy.

Every span enumeration goes through ``subspace_elements``, one span or a
batch of equal-rank spans in one pass: the residue tally and the weight
distribution are one ``bincount`` over its output, the orthogonal counts
are one parity count per h over one enumeration, the noisy sweep's
batches of residue images are its sorted rows, and block residues are lookups in
spans of columns.  One routine, ``_xor_lookup``, builds those lookup
tables and maps words to the XOR of their columns: ``rem_many`` applies
it to the residues X^i mod f, 11 columns per table, and ``recon`` to the
residues modulo all factors of a length packed side by side in one word.

All polynomial arguments are bit-packed into 64-bit words (coefficient
of X^i in bit i).  Callers keep words below 2^63 (``WORD_GUARD_N`` in
``codes``), so spans fit int64 and index arrays without a cast.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "subspace_elements",
    "residue_counts_dense",
    "weight_counts",
    "ortho_zero_count",
    "rem_many",
    "bsc_residue_dp",
    "xor_convolve",
]

# perfbench/one_pass.py reads cyclid.BACKEND into its environment stamp
BACKEND = "numpy"

_CHUNK = 11  # columns per lookup table of `rem_many`: 2048 words (16 KB)


def subspace_elements(basis, dtype=np.intp) -> np.ndarray:
    """All 2^dim XOR combinations of the basis words, combination i at index i.

    A basis of shape (rows, dim) gives one span per row, of shape (rows, 2^dim).
    """
    # doubled in place in one buffer: element h + i is element i ^ basis[j];
    # several spans are built down the first axis, so one slice serves both
    basis = np.asarray(basis)
    span = np.zeros((1 << basis.shape[-1], *basis.shape[:-1]), dtype=dtype)
    words = basis.tolist() if basis.ndim == 1 else basis.T.astype(dtype)
    h = 1
    for r in words:
        np.bitwise_xor(span[:h], r, out=span[h : 2 * h])
        h *= 2
    return span if basis.ndim == 1 else np.ascontiguousarray(span.T)


def residue_counts_dense(res_basis: np.ndarray, deg_f: int) -> np.ndarray:
    """Counts of every residue below 2^deg_f over the span of `res_basis`."""
    return np.bincount(subspace_elements(res_basis), minlength=1 << deg_f)


def weight_counts(g: int, k: int, n: int) -> np.ndarray:
    """Weight distribution A_0..A_n of the code spanned by g, Xg, .., X^(k-1) g."""
    span = subspace_elements([g << i for i in range(k)])
    return np.bincount(np.bitwise_count(span), minlength=n + 1)


def ortho_zero_count(basis: np.ndarray, h):
    """Number of span elements v with v.h = 0 over GF(2), for one h or each of an array.

    The span is enumerated once, whatever the number of h.
    """
    span = subspace_elements(basis)
    odd = np.empty_like(span)

    def count(h: int) -> int:
        np.bitwise_and(span, h, out=odd)
        return span.size - int(np.count_nonzero(np.bitwise_count(odd) & 1))

    if np.ndim(h) == 0:
        return count(int(h))
    return np.array([count(int(x)) for x in np.ravel(h)], dtype=np.int64)


def _xor_lookup(cols, w: int, dtype):
    """A map from words to the XOR of the columns at their set bits.

    Each run of w columns gets one lookup table, the span of its columns
    in combination order, so a word costs one gather per run, indexed by
    its bits in that run (Sarwate's CRC tables, CACM 1988).  The words
    must be 64-bit and below 2^len(cols); the tables have `dtype`.
    """
    tables = [subspace_elements(cols[b : b + w], dtype) for b in range(0, len(cols) or 1, w)]

    def xor_of(words: np.ndarray) -> np.ndarray:
        # each run is masked to its own table, so a set bit 63 (a negative
        # intp) still indexes inside it
        v = words.view(np.intp)
        out = np.take(tables[0], v if len(tables) == 1 else v & (tables[0].size - 1))
        for c in range(1, len(tables)):
            out ^= np.take(tables[c], (v >> (c * w)) & (tables[c].size - 1))
        return out

    return xor_of


def rem_many(vals: np.ndarray, f: int) -> np.ndarray:
    """Each word of `vals` reduced modulo f, as uint64 of the same shape.

    w mod f is GF(2)-linear in the bits of w: it is the XOR of the
    residues X^i mod f of its set bits, summed by ``_xor_lookup`` 11
    columns at a time: at most six lookups per 64-bit word.
    """
    vals = np.asarray(vals, dtype=np.uint64)
    deg_f = f.bit_length() - 1
    top = int(vals.max()).bit_length() if vals.size else 0
    cols, r = [], 1  # X^i mod f for i below the top bit of the words
    for _ in range(top):
        if r >> deg_f & 1:
            r ^= f
        cols.append(r)
        r <<= 1
    return _xor_lookup(cols, _CHUNK, np.uint64)(vals)


def bsc_residue_dp(masks: np.ndarray, p: float, deg_f: int) -> np.ndarray:
    """Law of the XOR of the masks each kept with probability p, over 2^deg_f states."""
    size = 1 << deg_f
    probs = np.zeros(size, dtype=np.float64)
    probs[0] = 1.0
    idx = np.arange(size, dtype=np.int64)
    for m in masks:
        probs = (1.0 - p) * probs + p * probs[idx ^ int(m)]
    return probs


# Sylvester's H_16, entry (i, j) = (-1)^popcount(i & j); H_2^t is its top-left corner
_H16 = 1.0 - 2.0 * (np.bitwise_count(np.arange(16)[:, None] & np.arange(16)) & 1)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis.

    H_n is the Kronecker product of blocks of H_16 over groups of at most
    four index bits, so each group is one matmul over every row at once.
    """
    shape, n = a.shape, a.shape[-1]
    low = 1  # 2^(index bits below the group)
    while True:
        size = min(16, n // low)
        h = _H16[:size, :size]
        a = a.reshape(-1, size) @ h if low == 1 else h @ a.reshape(-1, size, low)
        low *= size
        if low >= n:
            return a.reshape(shape)


def xor_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR convolution along the last axis (a power-of-two length); leading axes broadcast."""
    n = a.shape[-1]
    out = _fwht(_fwht(a) * _fwht(b))
    out /= n
    return out
