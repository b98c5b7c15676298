"""Transmitter and channel model: codeword streams over a BSC, segmentation.

A stream is built from independent uniform messages encoded with the
true code C(n0, g0), every bit flipped independently with crossover
probability p.  The synchronization offset s0 is realized as a codeword
suffix: one extra codeword is drawn and the last s0 bits of its
noise-affected form open the stream (a mid-capture model), after which
the configured number of whole codewords follows.

Randomness comes from a counter-based Philox generator with two
documented substreams, one for messages and one for noise, so message
draws do not depend on p.  Identical configurations produce identical
streams byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf2
from .codes import WORD_GUARD_N, CyclicCode, GuardError, check_crossover


@dataclass(frozen=True)
class StreamConfig:
    code: CyclicCode
    s0: int
    p: float
    blocks: int
    seed: int

    def __post_init__(self):
        if self.code.is_trivial:
            raise ValueError("transmitter code must be nontrivial")
        if self.code.is_degenerate():
            raise ValueError("transmitter code must be non-degenerate")
        if not 0 <= self.s0 < self.code.n:
            raise ValueError("need 0 <= s0 < n0")
        check_crossover(self.p)
        if self.blocks < 1:
            raise ValueError("need at least one transmitted codeword")

    @property
    def length(self) -> int:
        return self.s0 + self.blocks * self.code.n


def generate_stream(cfg: StreamConfig) -> np.ndarray:
    """Noise-affected bitstream of length s0 + blocks*n0, deterministic in the seed."""
    code, n0 = cfg.code, cfg.code.n
    msg_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    msg_rng = np.random.Generator(np.random.Philox(msg_ss))
    noise_rng = np.random.Generator(np.random.Philox(noise_ss))

    m = cfg.blocks + 1  # one extra codeword supplies the s0-bit head
    msgs = msg_rng.integers(0, 2, size=(m, code.k), dtype=np.uint8)
    # codeword u*g: the XOR of the message bits shifted by each exponent of g
    words = np.zeros((m, n0), dtype=np.uint8)
    for j in range(code.g.bit_length()):
        if code.g >> j & 1:
            words[:, j : j + code.k] ^= msgs
    flips = (noise_rng.random(size=(m, n0)) < cfg.p).astype(np.uint8)
    words ^= flips

    head = words[0, n0 - cfg.s0 :] if cfg.s0 else words[0, :0]
    return np.concatenate([head, words[1:].reshape(-1)])


def segment(bits: np.ndarray, n: int, s: int) -> np.ndarray:
    """Split a bitstream into M = floor((N-s)/n) rows of n bits.

    Row j-1 is the j-th block, covering stream positions
    s+(j-1)n .. s+jn-1; trailing remainder bits are discarded.
    """
    if not 0 <= s < n:
        raise ValueError("need 0 <= s < n")
    bits = np.asarray(bits, dtype=np.uint8)
    m = (bits.size - s) // n
    if m <= 0:
        return np.empty((0, n), dtype=np.uint8)
    return bits[s : s + m * n].reshape(m, n)


def blocks_to_polys(blocks: np.ndarray) -> np.ndarray:
    """Bit-pack each block row into a uint64 polynomial word, bit i from column i."""
    if blocks.shape[1] > WORD_GUARD_N:
        raise GuardError(f"bit-packed blocks need n <= {WORD_GUARD_N}, got n={blocks.shape[1]}")
    out = np.zeros(blocks.shape[0], dtype=np.uint64)
    for i in range(blocks.shape[1]):
        out |= blocks[:, i].astype(np.uint64) << np.uint64(i)
    return out


def offset_words(aligned: np.ndarray, n: int, s: int, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the first out.size bit-packed blocks at offset s; return it.

    `aligned` is blocks_to_polys(segment(bits + n zero bits, n, 0)).  Block
    j at offset s is the top n-s bits of aligned word j followed by the low
    s bits of word j+1, so `out` holds at most aligned.size - 1 words.
    """
    m = out.size
    np.left_shift(aligned[1 : m + 1], np.uint64(n - s), out=out)
    np.bitwise_and(out, np.uint64((1 << n) - 1), out=out)
    np.bitwise_or(out, aligned[:m] >> np.uint64(s), out=out)
    return out


# --- stream files ------------------------------------------------------------


def save_stream(path: str | Path, bits: np.ndarray) -> None:
    """Single line of ASCII '0'/'1' characters plus a trailing newline."""
    Path(path).write_bytes((np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes() + b"\n")


def load_stream(path: str | Path) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"{path}: stream files hold a single line of 0/1 characters")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def save_stream_metadata(path: str | Path, cfg: StreamConfig) -> None:
    """Sidecar record of the generating configuration, for reproducibility."""
    meta = {
        "n0": cfg.code.n,
        "g0": gf2.format_poly_bits(cfg.code.g),
        "s0": cfg.s0,
        "p": cfg.p,
        "blocks": cfg.blocks,
        "seed": cfg.seed,
        "length": cfg.length,
        "head": "suffix of one extra noise-affected codeword",
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
