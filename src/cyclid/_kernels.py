"""Hot numeric kernels: numba JIT fast path with a pure-numpy fallback.

The numba path is used by default.  Setting the environment variable
``CYCLID_DISABLE_NUMBA`` (to any non-empty value) before import selects
the numpy implementations instead; the same happens automatically when
numba is not importable.  Both implementations are always importable
under ``_np`` / ``_nb`` suffixes so they can be cross-checked and
benchmarked against each other.

All polynomial arguments are bit-packed into uint64 words (coefficient
of X^i in bit i), which caps vector lengths at 63 bits.  Callers enforce
that guard.
"""

from __future__ import annotations

import os

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


# --- pure numpy implementations ---------------------------------------------


def subspace_elements(basis: np.ndarray) -> np.ndarray:
    """All 2^dim XOR combinations of the basis words, combination i at index i."""
    arr = np.zeros(1, dtype=np.uint64)
    for r in basis:
        arr = np.concatenate([arr, arr ^ np.uint64(r)])
    return arr


def residue_counts_dense_np(res_basis: np.ndarray, deg_f: int) -> np.ndarray:
    # span doubled in place in one index buffer: no concatenation, no casts
    span = np.zeros(1 << len(res_basis), dtype=np.intp)
    h = 1
    for r in res_basis.tolist():
        np.bitwise_xor(span[:h], r, out=span[h : 2 * h])
        h *= 2
    return np.bincount(span, minlength=1 << deg_f)


def weight_counts_np(g: int, k: int, n: int) -> np.ndarray:
    basis = np.array([g << i for i in range(k)], dtype=np.uint64)
    words = subspace_elements(basis)
    return np.bincount(np.bitwise_count(words).astype(np.int64), minlength=n + 1).astype(np.int64)


def ortho_zero_count_np(basis: np.ndarray, h: int) -> int:
    words = subspace_elements(basis)
    parities = np.bitwise_count(words & np.uint64(h)) & np.uint64(1)
    return int(np.count_nonzero(parities == 0))


def rem_many_np(vals: np.ndarray, f: int) -> np.ndarray:
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


def bsc_residue_dp_np(masks: np.ndarray, p: float, deg_f: int) -> np.ndarray:
    size = 1 << deg_f
    probs = np.zeros(size, dtype=np.float64)
    probs[0] = 1.0
    idx = np.arange(size, dtype=np.int64)
    for m in masks:
        probs = (1.0 - p) * probs + p * probs[idx ^ int(m)]
    return probs


def _fwht_np(a: np.ndarray) -> np.ndarray:
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


def xor_convolve_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.size
    out = _fwht_np(_fwht_np(a) * _fwht_np(b))
    out /= n
    return out


# --- numba implementations ---------------------------------------------------

_env_disabled = bool(os.environ.get("CYCLID_DISABLE_NUMBA"))
try:
    if _env_disabled:
        raise ImportError("numba disabled by CYCLID_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _popcount(x):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)

    @njit(cache=True, nogil=True)
    def residue_counts_dense_nb(res_basis, deg_f):
        counts = np.zeros(1 << deg_f, dtype=np.int64)
        acc = np.uint64(0)
        counts[0] = 1
        total = 1 << res_basis.shape[0]
        for i in range(1, total):
            j = 0
            while not (i >> j) & 1:
                j += 1
            acc ^= res_basis[j]
            counts[acc] += 1
        return counts

    @njit(cache=True, nogil=True)
    def weight_counts_nb(g, k, n):
        counts = np.zeros(n + 1, dtype=np.int64)
        acc = np.uint64(0)
        counts[0] = 1
        total = 1 << k
        gg = np.uint64(g)
        for i in range(1, total):
            j = 0
            while not (i >> j) & 1:
                j += 1
            acc ^= gg << np.uint64(j)
            counts[_popcount(acc)] += 1
        return counts

    @njit(cache=True, nogil=True)
    def ortho_zero_count_nb(basis, h):
        acc = np.uint64(0)
        hh = np.uint64(h)
        zeros = 1  # the zero vector
        total = 1 << basis.shape[0]
        for i in range(1, total):
            j = 0
            while not (i >> j) & 1:
                j += 1
            acc ^= basis[j]
            if _popcount(acc & hh) & np.uint64(1) == np.uint64(0):
                zeros += 1
        return zeros

    @njit(cache=True, nogil=True)
    def rem_many_nb(vals, f):
        out = vals.copy()
        ff = np.uint64(f)
        deg_f = 0
        t = f >> 1
        while t:
            deg_f += 1
            t >>= 1
        for i in range(out.size):
            a = out[i]
            bl = 64 - deg_f
            while bl > 0:
                bit = np.uint64(deg_f + bl - 1)
                if (a >> bit) & np.uint64(1):
                    a ^= ff << np.uint64(bl - 1)
                bl -= 1
            out[i] = a
        return out

    @njit(cache=True, nogil=True)
    def bsc_residue_dp_nb(masks, p, deg_f):
        size = 1 << deg_f
        probs = np.zeros(size, dtype=np.float64)
        probs[0] = 1.0
        nxt = np.empty(size, dtype=np.float64)
        for m in masks:
            mm = np.int64(m)
            q = 1.0 - p
            for j in range(size):
                nxt[j] = q * probs[j] + p * probs[j ^ mm]
            probs, nxt = nxt, probs
        return probs.copy()

    @njit(cache=True, nogil=True)
    def _fwht_inplace_nb(a):
        h = 1
        n = a.size
        while h < n:
            for i in range(0, n, 2 * h):
                for j in range(i, i + h):
                    x = a[j]
                    y = a[j + h]
                    a[j] = x + y
                    a[j + h] = x - y
            h *= 2

    @njit(cache=True, nogil=True)
    def xor_convolve_nb(a, b):
        n = a.size
        fa = a.copy()
        fb = b.copy()
        _fwht_inplace_nb(fa)
        _fwht_inplace_nb(fb)
        for i in range(n):
            fa[i] *= fb[i]
        _fwht_inplace_nb(fa)
        for i in range(n):
            fa[i] /= n
        return fa


if HAVE_NUMBA:
    BACKEND = "numba"
    residue_counts_dense = residue_counts_dense_nb
    weight_counts = weight_counts_nb
    ortho_zero_count = ortho_zero_count_nb
    rem_many = rem_many_nb
    bsc_residue_dp = bsc_residue_dp_nb
    xor_convolve = xor_convolve_nb
else:
    BACKEND = "numpy"
    residue_counts_dense = residue_counts_dense_np
    weight_counts = weight_counts_np
    ortho_zero_count = ortho_zero_count_np
    rem_many = rem_many_np
    bsc_residue_dp = bsc_residue_dp_np
    xor_convolve = xor_convolve_np
