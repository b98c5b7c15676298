"""Hot numeric kernels in numpy.

Every span enumeration goes through ``subspace_elements``: the residue
tally, the weight distribution and the orthogonal count are one
``bincount`` or one parity count over its output.

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


def subspace_elements(basis) -> np.ndarray:
    """All 2^dim XOR combinations of the basis words, combination i at index i."""
    # doubled in place in one buffer: element h + i is element i ^ basis[j]
    span = np.zeros(1 << len(basis), dtype=np.intp)
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


def ortho_zero_count(basis: np.ndarray, h: int) -> int:
    """Number of span elements v with v.h = 0 over GF(2)."""
    span = subspace_elements(basis)
    return span.size - int(np.count_nonzero(np.bitwise_count(span & int(h)) & 1))


def rem_many(vals: np.ndarray, f: int) -> np.ndarray:
    """Each word of `vals` reduced modulo f, as uint64."""
    out = np.array(vals, dtype=np.uint64)
    deg_f = f.bit_length() - 1
    top = int(out.max()).bit_length() - 1 if out.size else -1
    hit = np.empty_like(out)  # one scratch buffer, reused at every bit step
    for bit in range(top, deg_f - 1, -1):
        np.right_shift(out, np.uint64(bit), out=hit)
        np.bitwise_and(hit, np.uint64(1), out=hit)
        np.multiply(hit, np.uint64(f << (bit - deg_f)), out=hit)
        np.bitwise_xor(out, hit, out=out)
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
