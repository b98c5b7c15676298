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

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from ._kernels import ortho_zero_count, rem_many
from .codes import WORD_GUARD_N, CyclicCode, GuardError, parity_check_rows
from .dists import (
    BlockType,
    SubspaceSpec,
    error_residue_distribution,
    exact_distribution,
    noisy_zero_mass,
    spec_for_block,
    build_subspace,
)
from .stream import blocks_to_polys, segment

MIN_BLOCKS_COMFORT = 50


def zero_syndrome_stat(blocks: np.ndarray, f: int) -> float:
    """Fraction of blocks whose polynomial is divisible by f."""
    if blocks.shape[0] == 0:
        raise ValueError("no blocks")
    res = rem_many(blocks_to_polys(blocks), f)
    return float(np.count_nonzero(res == 0) / res.size)


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
    bound = p0 * (lam + 1.0) / 2.0
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
    code: CyclicCode, block_type: BlockType | SubspaceSpec, f: int, p: float
) -> float:
    """Mean over parity checks of P[check bit = 0], exact.

    Check l is the inner product of the block with the shifted dual
    generator X^l * f_dual (the rows of the standard parity-check
    matrix of C(n, f)); its zero probability combines the exact
    subspace count of orthogonal noise-free blocks with the parity law
    of wt(h_l) independent BSC flips.
    """
    spec = spec_for_block(code, block_type)
    n = spec.n
    basis = np.array(build_subspace(spec), dtype=np.uint64)
    dim = basis.size
    total = float(1 << dim)
    acc = 0.0
    hs = parity_check_rows(n, f)
    for h in hs:
        a = ortho_zero_count(basis, h) / total
        b = (1.0 - (1.0 - 2.0 * p) ** int.bit_count(h)) / 2.0
        acc += a * (1.0 - b) + (1.0 - a) * b
    return acc / len(hs)


def root_divisibility_prob_exact(
    code: CyclicCode, block_type: BlockType, f_irred: int, p: float
) -> float:
    """Exact P[f_irred divides the noisy block polynomial].

    A root of X^n+1 is a root of the block polynomial iff its minimal
    polynomial divides the block, so the root statistic is the zero
    mass of the noisy residue distribution for that minimal polynomial.
    """
    if not gf2.is_irreducible(f_irred):
        raise ValueError("candidate must be irreducible")
    spec = spec_for_block(code, block_type)
    base = exact_distribution(spec, f_irred)
    if p == 0.0:
        return base.zero_mass
    err = error_residue_distribution(spec.n, f_irred, p)
    return noisy_zero_mass(base, err)


def _mean_zero_check_frac(polys: np.ndarray, n: int, f: int) -> float:
    hs = np.array(parity_check_rows(n, f), dtype=np.uint64)
    bits = np.bitwise_count(polys[:, None] & hs[None, :]) & np.uint64(1)
    return float(np.count_nonzero(bits == 0) / bits.size)


def empirical_stats(blocks: np.ndarray, f: int) -> dict[str, float]:
    """Counting estimators of the three per-candidate statistics."""
    if blocks.shape[0] == 0:
        raise ValueError("no blocks")
    polys = blocks_to_polys(blocks)
    res = rem_many(polys, f)
    zero_frac = float(np.count_nonzero(res == 0) / res.size)
    return {
        "zero_syndrome_frac": zero_frac,
        "mean_zero_coeff_frac": _mean_zero_check_frac(polys, blocks.shape[1], f),
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


def _candidate_factors(n: int) -> list[int]:
    return [f for f, _ in gf2.factor_xn1(n)]


def reconstruct(
    bits: np.ndarray,
    n_min: int,
    n_max: int,
    p: float,
    method: str = "zero-syndrome",
    jobs: int | None = None,
) -> ReconReport:
    """Search lengths, offsets, and irreducible factors for the sent code.

    zero-syndrome: every candidate (n, s, f) with f an irreducible
    factor of X^n+1 is hypothesis-tested; a candidate (n, s) scores the
    sum of M * kl_lower_bound over its accepted factors, the best score
    wins (ties to smaller n, then smaller s), and the estimated
    generator is the product of the accepted factors.  No acceptance
    anywhere means no code detected.

    factor-entropy / root-entropy: the analogous per-candidate
    statistics are reported for comparison, ranked by largest deviation
    from 1/2 and by largest spread respectively, without a detection
    rule.
    """
    if n_min < 2:
        raise ValueError("need n_min >= 2")
    if n_max < n_min:
        raise ValueError("need n_max >= n_min")
    if n_max > WORD_GUARD_N:
        raise GuardError(f"bit-packed blocks need n <= {WORD_GUARD_N}, got n_max={n_max}")
    if method not in ("zero-syndrome", "factor-entropy", "root-entropy"):
        raise ValueError(f"unknown method {method!r}")
    bits = np.asarray(bits, dtype=np.uint8)
    diagnostics: dict = {}
    m_at_nmax = (bits.size - (n_max - 1)) // n_max
    if m_at_nmax < MIN_BLOCKS_COMFORT:
        diagnostics["warning"] = (
            f"only {m_at_nmax} blocks at n={n_max}; statistics may be unstable"
        )

    outcomes: list[TestOutcome] = []
    scores: dict[tuple[int, int], float] = {}
    accepted: dict[tuple[int, int], list[int]] = {}
    best_stat: dict[tuple[int, int], tuple[float, int]] = {}
    spread_lo: dict[tuple[int, int], float] = {}
    spread_hi: dict[tuple[int, int], float] = {}

    def eval_length(n: int) -> list[TestOutcome]:
        rows = []
        factors = _candidate_factors(n)
        codes = {f: CyclicCode(n, f) for f in factors}
        for s in range(n):
            blocks = segment(bits, n, s)
            m = blocks.shape[0]
            if m == 0:
                continue
            polys = blocks_to_polys(blocks)
            for f in factors:
                res = rem_many(polys, f)
                if method == "zero-syndrome":
                    stat = float(np.count_nonzero(res == 0) / res.size)
                    out = hypothesis_test(stat, m, codes[f], p)
                    out.s = s
                elif method == "factor-entropy":
                    stat = _mean_zero_check_frac(polys, n, f)
                    out = TestOutcome(n=n, s=s, f=f, M=m, stat=stat)
                else:  # root-entropy
                    stat = float(np.count_nonzero(res == 0) / res.size)
                    out = TestOutcome(n=n, s=s, f=f, M=m, stat=stat)
                rows.append(out)
        return rows

    lengths = range(n_min, n_max + 1)
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_length = list(pool.map(eval_length, lengths))
    else:
        per_length = [eval_length(n) for n in lengths]

    for out in (o for rows in per_length for o in rows):
        outcomes.append(out)
        n, s, key = out.n, out.s, (out.n, out.s)
        if method == "zero-syndrome":
            if out.decision == "H0":
                scores[key] = scores.get(key, 0.0) + out.M * out.kl_lb
                accepted.setdefault(key, []).append(out.f)
        elif method == "factor-entropy":
            dev = abs(out.stat - 0.5)
            if dev > scores.get(key, -1.0):
                scores[key] = dev
                best_stat[key] = (out.stat, out.f)
        else:  # root-entropy
            spread_lo[key] = min(spread_lo.get(key, 2.0), out.stat)
            spread_hi[key] = max(spread_hi.get(key, -1.0), out.stat)
            if key not in best_stat or out.stat > best_stat[key][0]:
                best_stat[key] = (out.stat, out.f)

    if method == "root-entropy":
        scores = {k: spread_hi[k] - spread_lo[k] for k in spread_hi}

    winner = None
    if scores:
        (n, s), top = min(
            scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        if method == "zero-syndrome":
            if top > 0.0:
                g = 1
                for f in accepted[(n, s)]:
                    g = gf2.mul(g, f)
                winner = (n, s, g)
                accepting = sorted({key[0] for key in accepted})
                if len(accepting) > 1:
                    diagnostics["accepting_lengths"] = accepting
        else:
            winner = (n, s, best_stat[(n, s)][1])
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
            lines.append(
                json.dumps(
                    {
                        "n": o.n,
                        "s": o.s,
                        "f": gf2.format_poly_bits(o.f),
                        "M": o.M,
                        "stat": o.stat,
                        "p0": o.p0,
                        "bound": o.bound,
                        "tau": o.tau,
                        "decision": o.decision,
                        "kl_lb": o.kl_lb,
                    }
                )
            )
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
