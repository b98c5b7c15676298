"""Blind reconstruction statistics and the parameter search.

Three per-candidate statistics are implemented for an assumed
(length n, synchronization s, factor f):

* zero-syndrome fraction, with a two-sided hypothesis test built from
  the exact all-codeword probability under correct parameters and the
  subgroup-coset upper bound under incorrect ones;
* the mean probability of a zero parity-check bit (the statistic of
  factor-entropy style methods), exact and empirical;
* the divisibility probability of a candidate irreducible (the root
  statistic of root-entropy style methods), exact and empirical.

Only the zero-syndrome method carries a decision rule; the other two
are statistics plus assumption checkers and are reported for
comparison (ranking by deviation from 1/2 and by spread).
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gf2
from ._kernels import _CHUNK, _xor_lookup, ortho_zero_count, rem_many
from .codes import WORD_GUARD_N, CyclicCode, GuardError, check_crossover, parity_check_rows
from .dists import (
    BlockType,
    SubspaceSpec,
    error_residue_distribution,
    exact_distribution,
    spec_for_block,
    build_subspace,
)
from .stream import blocks_to_polys, offset_words, segment

MIN_BLOCKS_COMFORT = 50


def _check_bits(bits, ndim: int) -> np.ndarray:
    """`bits` as an array, refused unless it has `ndim` axes and only 0/1 values."""
    bits = np.asarray(bits)
    if bits.ndim != ndim or np.any((bits != 0) & (bits != 1)):
        raise ValueError(f"need a {ndim}-D array of 0/1 bits")
    return bits


def zero_syndrome_stat(blocks: np.ndarray, f: int) -> float:
    """Fraction of blocks whose polynomial is divisible by f, a divisor of X^n+1."""
    blocks = _check_bits(blocks, 2)
    if blocks.shape[0] == 0:
        raise ValueError("no blocks")
    n = blocks.shape[1]
    return _zero_fracs(n, [CyclicCode(n, f)], blocks.size)(blocks_to_polys(blocks))[0]


def lambda_coeff(n: int, deg_f: int, p: float) -> float:
    """(1-(1-2p)^(n-deg f+1)) / (1+(1-2p)^(n-deg f+1)), in [0, 1]."""
    if deg_f > n:
        raise ValueError("need deg f <= n")
    t = (1.0 - 2.0 * p) ** (n - deg_f + 1)
    return (1.0 - t) / (1.0 + t)


def h1_upper_bound(code: CyclicCode, p: float) -> float:
    """Upper bound on the zero-syndrome probability under incorrect parameters."""
    lam = lambda_coeff(code.n, code.n - code.k, p)
    return code.p_zero_syndrome(p) * (lam + 1.0) / 2.0


def kl_lower_bound(p0: float, lam: float) -> float:
    """Lower bound on the KL divergence between the two indicator laws."""
    return (2.0 / math.log(2.0)) * ((1.0 - lam) / 2.0 * p0) ** 2


@dataclass
class TestOutcome:
    n: int
    s: int
    f: int
    M: int
    stat: float
    p0: float | None = None
    bound: float | None = None
    tau: float | None = None
    decision: str | None = None
    kl_lb: float | None = None


def hypothesis_test(stat: float, M: int, code: CyclicCode, p: float) -> TestOutcome:
    """Accept H0 (parameters consistent) iff stat clears the midpoint threshold.

    Under correct parameters the zero-syndrome indicator has mean
    p0 = P(C(n,f)); under incorrect ones its mean is at most
    p0*(lambda+1)/2.  The paper-side analysis proves the separation but
    no finite-sample rule, so the threshold is the midpoint, which
    maximizes the worst-case margin given only those two values.
    """
    if M < 1:
        raise ValueError("need at least one block")
    p0 = code.p_zero_syndrome(p)
    lam = lambda_coeff(code.n, code.n - code.k, p)
    bound = h1_upper_bound(code, p)
    tau = (p0 + bound) / 2.0
    return TestOutcome(
        n=code.n,
        s=-1,
        f=code.g,
        M=M,
        stat=stat,
        p0=p0,
        bound=bound,
        tau=tau,
        decision="H0" if stat >= tau else "H1",
        kl_lb=kl_lower_bound(p0, lam),
    )


def mean_zero_coeff_prob_exact(
    code: CyclicCode, block_type: BlockType | SubspaceSpec, f: int, p: float | Sequence[float]
) -> float | list[float]:
    """Mean over parity checks of P[check bit = 0], exact.

    Check l is the inner product of the block with the shifted dual
    generator X^l * f_dual (the rows of the standard parity-check
    matrix of C(n, f)); its zero probability combines the exact
    subspace count of orthogonal noise-free blocks with the parity law
    of wt(h_l) independent BSC flips.  Only that law depends on p, so
    a sequence of p gets a list of values from one enumeration.
    """
    ps = [p] if np.ndim(p) == 0 else list(p)
    for q in ps:
        check_crossover(q)
    spec = spec_for_block(code, block_type)
    basis = np.array(build_subspace(spec), dtype=np.uint64)
    total = float(1 << basis.size)
    hs = parity_check_rows(CyclicCode(spec.n, f))
    zeros = ortho_zero_count(basis, hs).tolist()
    out = []
    for q in ps:
        acc = 0.0
        for h, z in zip(hs, zeros):
            a = z / total
            b = (1.0 - (1.0 - 2.0 * q) ** int.bit_count(h)) / 2.0
            acc += a * (1.0 - b) + (1.0 - a) * b
        out.append(acc / len(hs))
    return out[0] if np.ndim(p) == 0 else out


def root_divisibility_prob_exact(
    code: CyclicCode, block_type: BlockType, f_irred: int, p: float
) -> float:
    """Exact P[f_irred divides the noisy block polynomial].

    A root of X^n+1 is a root of the block polynomial iff its minimal
    polynomial divides the block, so the root statistic is the zero
    mass of the noisy residue distribution for that minimal polynomial.
    The noise-free residue is uniform on its image H, so the noisy one is
    zero with probability the mean of the error law over H.
    """
    if not gf2.is_irreducible(f_irred):
        raise ValueError("candidate must be irreducible")
    spec = spec_for_block(code, block_type)
    image = exact_distribution(spec, f_irred).support()
    return float(error_residue_distribution(spec.n, f_irred, p).probs[image].mean())


def _mean_zero_check_frac(polys: np.ndarray, code: CyclicCode) -> float:
    hs = np.array(parity_check_rows(code), dtype=np.uint64)
    bits = np.bitwise_count(polys[:, None] & hs[None, :]) & np.uint64(1)
    return float(np.count_nonzero(bits == 0) / bits.size)


def empirical_stats(blocks: np.ndarray, f: int) -> dict[str, float]:
    """Counting estimators of the three per-candidate statistics."""
    blocks = _check_bits(blocks, 2)
    if blocks.shape[0] == 0:
        raise ValueError("no blocks")
    polys = blocks_to_polys(blocks)
    code = CyclicCode(blocks.shape[1], f)
    zero_frac = _zero_fracs(code.n, [code], blocks.size)(polys)[0]
    return {
        "zero_syndrome_frac": zero_frac,
        "mean_zero_coeff_frac": _mean_zero_check_frac(polys, code),
        "divisibility_frac": zero_frac,
    }


# --- the search --------------------------------------------------------------


@dataclass
class ReconReport:
    method: str
    outcomes: list[TestOutcome]
    winner: tuple[int, int, int] | None
    diagnostics: dict = field(default_factory=dict)

    def winner_text(self) -> str:
        if self.winner is None:
            return "no code detected"
        n, s, g = self.winner
        return f"n={n} s={s} g={gf2.format_poly_bits(g)}"


# --- one method: statistic, per-candidate outcome, score of one (n, s) ---------


def _tested(stat: float, s: int, m: int, code: CyclicCode, p: float) -> TestOutcome:
    out = hypothesis_test(stat, m, code, p)
    out.s = s
    return out


def _untested(stat: float, s: int, m: int, code: CyclicCode, p: float) -> TestOutcome:
    return TestOutcome(n=code.n, s=s, f=code.g, M=m, stat=stat)


def _kl_score(group: list[TestOutcome]) -> tuple[float, int] | None:
    # accepted factors add M * kl_lb; their product is the generator
    accepted = [o for o in group if o.decision == "H0"]
    score = sum(o.M * o.kl_lb for o in accepted)
    if score <= 0.0:
        return None
    return score, functools.reduce(gf2.mul, (o.f for o in accepted), 1)


def _deviation_score(group: list[TestOutcome]) -> tuple[float, int]:
    best = max(group, key=lambda o: abs(o.stat - 0.5))
    return abs(best.stat - 0.5), best.f


def _spread_score(group: list[TestOutcome]) -> tuple[float, int]:
    top = max(group, key=lambda o: o.stat)
    return top.stat - min(o.stat for o in group), top.f


# --- per-length group statistics: (n, codes, stream bits) -> (words -> stats) ---


def _zero_fracs(n: int, codes: list[CyclicCode], nbits: int):
    """Each code's fraction of n-bit words divisible by its generator.

    w mod f is GF(2)-linear in w, so column b packs X^b mod f for every
    generator side by side in one word of the narrowest dtype.  The codes
    are one divisor of X^n+1 or the distinct factors of X^n+1, whose
    degrees sum to the odd part of n, so they fit 63 bits.  A word's
    packed residue is the XOR of lookups in spans of w columns
    (``_xor_lookup``): w = n where that table takes at most as many bytes
    as the stream has bits, else 11.  Each stat is count / M.
    """
    units = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    cols, fields, o = np.zeros(n, dtype=np.uint64), [], 0
    for c in codes:
        cols |= rem_many(units, c.g) << np.uint64(o)
        fields.append(((1 << (c.n - c.k)) - 1) << o)
        o += c.n - c.k
    dtype = np.min_scalar_type((1 << o) - 1)
    residues = _xor_lookup(cols, n if (1 << n) * dtype.itemsize <= nbits else _CHUNK, dtype)

    def fracs(polys: np.ndarray) -> list[float]:
        res = residues(polys)
        return [float((res.size - np.count_nonzero(res & f)) / res.size) for f in fields]

    return fracs


def _mean_zero_check_fracs(n: int, codes: list[CyclicCode], nbits: int):
    return lambda polys: [_mean_zero_check_frac(polys, c) for c in codes]


METHODS = {
    "zero-syndrome": (_zero_fracs, _tested, _kl_score),
    "factor-entropy": (_mean_zero_check_fracs, _untested, _deviation_score),
    "root-entropy": (_zero_fracs, _untested, _spread_score),
}


def reconstruct(
    bits: np.ndarray,
    n_min: int,
    n_max: int,
    p: float,
    method: str = "zero-syndrome",
) -> ReconReport:
    """Search lengths, offsets, and irreducible factors for the sent code.

    zero-syndrome: every candidate (n, s, f) with f a distinct
    irreducible factor of X^n+1 is hypothesis-tested (``gf2.factor_xn1``
    factors every n <= 63 in milliseconds); a candidate (n, s) scores
    the sum of M * kl_lower_bound over its accepted factors, and the
    estimated generator is the product of the accepted factors.  No
    acceptance anywhere means no code detected.

    factor-entropy / root-entropy: the analogous per-candidate
    statistics are reported for comparison, ranked by largest deviation
    from 1/2 and by largest spread respectively, without a detection
    rule.

    The best score wins, ties to smaller n, then smaller s.

    The crossover probability p is checked first, for every method, and
    ``bits`` must be a 1-D array of 0/1 values.
    The zero-syndrome and root-entropy counts of a length n come from
    one packed residue per block, all factors side by side, summed by
    table lookup (``_zero_fracs``); each stat is count / M.  p0 is
    computed once per candidate code.
    """
    check_crossover(p)
    if n_min < 2:
        raise ValueError("need n_min >= 2")
    if n_max < n_min:
        raise ValueError("need n_max >= n_min")
    if n_max > WORD_GUARD_N:
        raise GuardError(f"bit-packed blocks need n <= {WORD_GUARD_N}, got n_max={n_max}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stats_at, outcome_of, score_of = METHODS[method]
    bits = _check_bits(bits, 1).astype(np.uint8, copy=False)
    diagnostics: dict = {}
    m_at_nmax = max(0, (bits.size - (n_max - 1)) // n_max)
    if m_at_nmax < MIN_BLOCKS_COMFORT:
        diagnostics["warning"] = (
            f"only {m_at_nmax} blocks at n={n_max}; statistics may be unstable"
        )

    outcomes: list[TestOutcome] = []
    ranked: list[tuple[float, int, int, int]] = []  # (-score, n, s, generator)
    # zero bits past the end give every offset's last block a following aligned word
    padded = np.concatenate([bits, np.zeros(n_max, dtype=np.uint8)])
    for n in range(n_min, n_max + 1):
        codes = [CyclicCode(n, f) for f, _ in gf2.factor_xn1(n)]
        stats_of = stats_at(n, codes, bits.size)
        # every offset's blocks come from the blocks at offset 0, packed once
        aligned = blocks_to_polys(segment(padded[: bits.size + n], n, 0))
        words = np.empty(aligned.size - 1, dtype=np.uint64)
        for s in range(n):
            m = (bits.size - s) // n
            if m <= 0:
                continue
            polys = offset_words(aligned, n, s, words[:m])
            group = [outcome_of(st, s, m, c, p) for st, c in zip(stats_of(polys), codes)]
            outcomes.extend(group)
            scored = score_of(group)
            if scored is not None:
                ranked.append((-scored[0], n, s, scored[1]))

    winner = None
    if ranked:
        _, n, s, g = min(ranked)
        winner = (n, s, g)
        accepting = sorted({o.n for o in outcomes if o.decision == "H0"})
        if len(accepting) > 1:
            diagnostics["accepting_lengths"] = accepting
    diagnostics["blocks_at_winner"] = (
        segment(bits, winner[0], winner[1]).shape[0] if winner else 0
    )
    return ReconReport(method=method, outcomes=outcomes, winner=winner, diagnostics=diagnostics)


# --- report rendering ---------------------------------------------------------


def _fmt(x, nd=6):
    return "-" if x is None else f"{x:.{nd}g}"


def render_report(report: ReconReport, machine: bool = False) -> str:
    """One record per candidate plus a winner block; JSON lines when machine."""
    lines = []
    if machine:
        for o in report.outcomes:
            lines.append(json.dumps({**asdict(o), "f": gf2.format_poly_bits(o.f)}))
        lines.append(
            json.dumps(
                {
                    "winner": None
                    if report.winner is None
                    else {
                        "n": report.winner[0],
                        "s": report.winner[1],
                        "g": gf2.format_poly_bits(report.winner[2]),
                    },
                    "method": report.method,
                    **report.diagnostics,
                }
            )
        )
        return "\n".join(lines)

    lines.append(f"method: {report.method}")
    for o in report.outcomes:
        lines.append(
            f"n={o.n} s={o.s} f={gf2.format_poly_bits(o.f)} M={o.M} "
            f"stat={o.stat:.6f} p0={_fmt(o.p0)} bound={_fmt(o.bound)} "
            f"tau={_fmt(o.tau)} decision={o.decision or '-'} kl_lb={_fmt(o.kl_lb)}"
        )
    for key, val in report.diagnostics.items():
        lines.append(f"# {key}: {val}")
    lines.append(f"winner: {report.winner_text()}")
    return "\n".join(lines)
