"""Hot numeric kernels in numpy.

Every span enumeration goes through ``subspace_elements``: the residue
tally and the weight distribution are one ``bincount`` over its output,
the orthogonal counts are one parity count per h over one enumeration,
and block residues are lookups in spans of residues X^i mod f: at most
six 11-bit lookups per 63-bit word in ``rem_many``, over slices of
32 768 words through two reused scratch buffers, and in ``recon`` the
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

_CHUNK = 11  # bits per residue lookup: a 2048-word table (16 KB)
_SLICE = 1 << 15  # words per pass of `rem_many` through its scratch buffers


def subspace_elements(basis, dtype=np.intp) -> np.ndarray:
    """All 2^dim XOR combinations of the basis words, combination i at index i."""
    # doubled in place in one buffer: element h + i is element i ^ basis[j]
    span = np.zeros(1 << len(basis), dtype=dtype)
    h = 1
    for r in np.asarray(basis).tolist():
        np.bitwise_xor(span[:h], r, out=span[h : 2 * h])
        h *= 2
    return span


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


def rem_many(vals: np.ndarray, f: int) -> np.ndarray:
    """Each word of `vals` reduced modulo f, as uint64 of the same shape.

    w mod f is GF(2)-linear in the bits of w: it is the low deg f bits of
    w XOR the residues X^i mod f of its higher set bits.  Those residues
    are summed 11 bits at a time by lookup in the span of 11 columns
    (Sarwate's CRC tables, CACM 1988): at most 6 lookups per 63-bit word.
    """
    vals = np.asarray(vals, dtype=np.uint64)
    deg_f = f.bit_length() - 1
    out = np.empty(vals.shape, dtype=np.uint64)  # C order: its flat view below is no copy
    np.bitwise_and(vals, np.uint64((1 << deg_f) - 1), out=out)
    top = int(vals.max()).bit_length() if vals.size else 0
    if top <= deg_f:  # words already reduced
        return out
    cols = []  # X^i mod f for i = deg f .. top bit of the words
    r = f ^ (1 << deg_f)
    for _ in range(deg_f, top):
        cols.append(r)
        r <<= 1
        if r >> deg_f & 1:
            r ^= f
    tables = [
        subspace_elements(cols[c : c + _CHUNK]).view(np.uint64) for c in range(0, len(cols), _CHUNK)
    ]
    # two scratch buffers of one slice each: no temporary as large as the input
    idx = np.empty(min(vals.size, _SLICE), dtype=np.uint64)
    hit = np.empty_like(idx)
    words, res = vals.ravel(), out.reshape(-1)
    for lo in range(0, words.size, _SLICE):
        w, o = words[lo : lo + _SLICE], res[lo : lo + _SLICE]
        i, h = idx[: w.size], hit[: w.size]
        for c, table in enumerate(tables):
            np.right_shift(w, np.uint64(deg_f + c * _CHUNK), out=i)
            np.bitwise_and(i, np.uint64((1 << _CHUNK) - 1), out=i)
            np.take(table, i.view(np.intp), out=h, mode="clip")
            np.bitwise_xor(o, h, out=o)
    return out


def bsc_residue_dp(masks: np.ndarray, p: float, deg_f: int) -> np.ndarray:
    """Law of the XOR of the masks each kept with probability p, over 2^deg_f states."""
    size = 1 << deg_f
    probs = np.zeros(size, dtype=np.float64)
    probs[0] = 1.0
    idx = np.arange(size, dtype=np.int64)
    for m in masks:
        probs = (1.0 - p) * probs + p * probs[idx ^ int(m)]
    return probs


def _fwht(a: np.ndarray) -> np.ndarray:
    h = 1
    n = a.size
    a = a.copy()
    while h < n:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        a[:, 0, :] = x + a[:, 1, :]
        a[:, 1, :] = x - a[:, 1, :]
        a = a.reshape(n)
        h *= 2
    return a


def xor_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR convolution of two dense vectors of equal power-of-two length."""
    n = a.size
    out = _fwht(_fwht(a) * _fwht(b))
    out /= n
    return out
