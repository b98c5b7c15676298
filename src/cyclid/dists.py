"""Exact syndrome distributions of segmented blocks and their classification.

A received block of length n drawn from a stream of codewords of a true
code C(n0, g0) is, depending on the segmentation, either an interior
window of one codeword or a span across codeword boundaries.  The
corresponding noise-free subspaces are the truncation space (first n
coordinates of the code) and the boundary space (outer direct sum of a
suffix code, q full codes, and a prefix code).

Two independent routes compute the distribution class of a block's
residue modulo a candidate divisor f of X^n + 1:

* ``exact_distribution`` reduces the subspace basis modulo f and
  row-reduces the residues to a basis of their image subgroup H of rank
  r; the uniform measure on the subspace puts 2^(dim-r) of its 2^dim
  elements on each residue of H, so masses are exact dyadic rationals
  (integer counts over a power-of-two denominator).
* ``predict_class`` never enumerates: it applies the classification
  rules for truncations and boundary spans (information-set argument,
  counting argument, the small-order-factor test, uniformity
  propagation, component decomposition), falling back to the rank of
  the residue images only where no closed-form rule applies.

The verification sweeps cross-check the two routes exhaustively.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from ._kernels import (
    bsc_residue_dp,
    rem_many,
    residue_counts_dense,
    subspace_elements,
    xor_convolve,
)
from .codes import CyclicCode, GuardError, check_crossover, check_divisor, span_basis

SPAN_GUARD_N = 24  # block length cap for subspace models; dim <= n
DEGF_DP_GUARD = 20  # dense residue arrays cap: 2^20 states
_MASS_TOL = 1e-12


class DistributionClass(enum.Enum):
    DEGENERATE = "Degenerate"
    UNIFORM = "Uniform"
    RESTRICTED_UNIFORM = "RestrictedUniform"
    IRREGULAR = "Irregular"

    def __str__(self):
        return self.value


# --- block geometry ----------------------------------------------------------


@dataclass(frozen=True)
class Interior:
    """Block lying wholly inside one codeword, starting at `offset`."""

    offset: int
    n: int


@dataclass(frozen=True)
class Boundary:
    """Block spanning a suffix of d1 bits, q codewords, and a d2-bit prefix."""

    d1: int
    q: int
    d2: int


BlockType = Interior | Boundary


def block_decomposition(n0: int, n: int, s: int, s0: int, j: int) -> BlockType:
    """Classify block j of an (n, s) segmentation against the (n0, s0) frame."""
    if not 0 <= s < n:
        raise ValueError("need 0 <= s < n")
    if not 0 <= s0 < n0:
        raise ValueError("need 0 <= s0 < n0")
    if j < 1:
        raise ValueError("block index starts at 1")
    o = (s - s0 + (j - 1) * n) % n0
    if n < n0 and o + n <= n0:
        return Interior(offset=o, n=n)
    d1 = (n0 - o) % n0
    q, d2 = divmod(n - d1, n0)
    return Boundary(d1=d1, q=q, d2=d2)


def distinct_block_types(n0: int, n: int, s: int, s0: int) -> list[BlockType]:
    """All block types an (n, s) segmentation produces, deduplicated.

    Block start offsets within the codeword frame cycle with period
    n0 / gcd(n, n0), so that many indices j suffice.
    """
    period = n0 // math.gcd(n, n0)
    return list(dict.fromkeys(block_decomposition(n0, n, s, s0, j) for j in range(1, period + 1)))


# --- subspace specifications -------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    """First n coordinates of the codewords of `code`, 1 <= n < n0."""

    code: CyclicCode
    n: int

    def __post_init__(self):
        if not 1 <= self.n < self.code.n:
            raise ValueError("truncation needs 1 <= n < n0")


@dataclass(frozen=True)
class BoundarySpan:
    """Outer direct sum: suffix code (d1) + q copies of `code` + prefix code (d2)."""

    code: CyclicCode
    d1: int
    q: int
    d2: int

    def __post_init__(self):
        n0 = self.code.n
        if not (0 <= self.d1 < n0 and 0 <= self.d2 < n0 and self.q >= 0):
            raise ValueError("need 0 <= d1, d2 < n0 and q >= 0")
        if self.n < 1:
            raise ValueError("empty boundary span")

    @property
    def n(self) -> int:
        return self.d1 + self.q * self.code.n + self.d2


SubspaceSpec = Truncation | BoundarySpan


def spec_for_block(code: CyclicCode, block: BlockType | SubspaceSpec) -> SubspaceSpec:
    """Subspace model of a block type; a subspace spec is returned unchanged.

    An interior block at any offset has the same distribution as the
    offset-0 truncation: cyclic shifting permutes the codewords.
    """
    if isinstance(block, Interior):
        return Truncation(code, block.n)
    if isinstance(block, Boundary):
        return BoundarySpan(code, block.d1, block.q, block.d2)
    return block


def _truncated_rows(code: CyclicCode, n: int, suffix: bool = False) -> list[int]:
    rows = []
    for i in range(code.k):
        v = code.g << i
        rows.append(v >> (code.n - n) if suffix else v & ((1 << n) - 1))
    return rows


def boundary_components(spec: BoundarySpan) -> list[list[int]]:
    """Bases of the independent summands of a boundary span, in position."""
    code = spec.code
    out = []
    if spec.d1:
        out.append(span_basis(_truncated_rows(code, spec.d1, suffix=True)))
    for t in range(spec.q):
        shift = spec.d1 + t * code.n
        out.append([code.g << (i + shift) for i in range(code.k)])
    if spec.d2:
        shift = spec.d1 + spec.q * code.n
        out.append([b << shift for b in span_basis(_truncated_rows(code, spec.d2))])
    return out


def build_subspace(spec: SubspaceSpec) -> list[int]:
    """Basis (bit-packed, independent) of the noise-free block subspace."""
    n = spec.n
    if n > SPAN_GUARD_N:
        raise GuardError(f"subspace models need n <= {SPAN_GUARD_N}, got {n}")
    if isinstance(spec, Truncation):
        return span_basis(_truncated_rows(spec.code, spec.n))
    return [b for comp in boundary_components(spec) for b in comp]


# --- distributions -----------------------------------------------------------


class SyndromeDistribution:
    """Probability mass of residues modulo f, sparse over the support.

    Exact (noise-free) distributions carry integer counts over the
    denominator 2^dim; their float masses are then exact as well, since
    dyadic rationals with dim <= 24 round-trip through float64.
    """

    def __init__(self, f, residues, probs, counts=None, dim=None, dense=None):
        self.f = f
        self.deg_f = f.bit_length() - 1
        self.residues = np.asarray(residues, dtype=np.uint64)
        self.probs = np.asarray(probs, dtype=np.float64)
        self.counts = None if counts is None else np.asarray(counts, dtype=np.int64)
        self.dim = dim
        self._dense = dense
        self._kind = None
        total = self.probs.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1")

    @property
    def is_exact(self) -> bool:
        return self.counts is not None

    @property
    def kind(self) -> DistributionClass:
        if self._kind is None:
            self._kind = classify(self)
        return self._kind

    def support_size(self) -> int:
        return int(self.residues.size)

    def mass_at(self, residue: int) -> float:
        i = np.searchsorted(self.residues, np.uint64(residue))
        if i < self.residues.size and self.residues[i] == np.uint64(residue):
            return float(self.probs[i])
        return 0.0

    @property
    def zero_mass(self) -> float:
        return self.mass_at(0)

    def dense_probs(self) -> np.ndarray:
        """Masses over all 2^deg_f residues (guarded by the DP cap)."""
        if self._dense is None:
            if self.deg_f > DEGF_DP_GUARD:
                raise GuardError(
                    f"dense form needs deg f <= {DEGF_DP_GUARD}, got {self.deg_f}"
                )
            dense = np.zeros(1 << self.deg_f, dtype=np.float64)
            dense[self.residues.astype(np.int64)] = self.probs
            self._dense = dense
        return self._dense

    def __repr__(self):
        return (
            f"SyndromeDistribution(f={gf2.format_poly(self.f)}, "
            f"support={self.support_size()}, kind={self.kind})"
        )


def distribution_from_basis(basis, f: int) -> SyndromeDistribution:
    """Exact residue distribution of the uniform measure on a subspace.

    Reduction mod f is linear, so the residues of the 2^dim span elements
    form the span H of the basis residues, each hit equally often.  The
    residues are row-reduced to r independent vectors; H is their span
    and each of its 2^r residues gets the count 2^(dim - r).  The basis
    words may be given already reduced mod f.
    """
    dim = len(basis)
    deg_f = f.bit_length() - 1
    if deg_f > DEGF_DP_GUARD:
        raise GuardError(f"residue tallies need deg f <= {DEGF_DP_GUARD}, got {deg_f}")
    image = span_basis(rem_many(np.asarray(basis, dtype=np.uint64), f).tolist())
    # nonzero scans a bool array several times faster than an int64 one
    hit = residue_counts_dense(image, deg_f).astype(bool)
    residues = np.flatnonzero(hit).astype(np.uint64)
    counts = np.full(residues.size, 1 << (dim - len(image)), dtype=np.int64)
    probs = np.full(residues.size, 1.0 / residues.size)
    return SyndromeDistribution(f, residues, probs, counts=counts, dim=dim)


def exact_distribution(spec: SubspaceSpec, f: int) -> SyndromeDistribution:
    """Noise-free distribution of (block mod f) over the block subspace."""
    check_divisor(spec.n, f)
    return distribution_from_basis(build_subspace(spec), f)


def _is_xor_subgroup(residues: np.ndarray):
    """Exact subgroup test for sorted distinct residues, per row of the last axis.

    In a sorted XOR-subgroup the elements at indices 2^j form the
    reduced basis and the doubling expansion over them reproduces the
    whole array in sorted order (element 0 included), so one vector
    comparison decides closure with no slack.
    """
    size = residues.shape[-1]
    if size & (size - 1):
        return False
    basis = residues[..., [1 << j for j in range(size.bit_length() - 1)]]
    return np.all(subspace_elements(basis) == residues, axis=-1)


def classify(dist: SyndromeDistribution) -> DistributionClass:
    """Degenerate / Uniform / RestrictedUniform / Irregular from the masses.

    The support-subgroup test is exact; mass equality is integer-exact
    for exact distributions and uses a 1e-12 tolerance otherwise.
    """
    size = dist.support_size()
    if size == 1:
        return DistributionClass.DEGENERATE
    if dist.is_exact:
        equal = bool(np.all(dist.counts == dist.counts[0]))
    else:
        equal = float(dist.probs.max() - dist.probs.min()) <= _MASS_TOL
    if not equal:
        return DistributionClass.IRREGULAR
    if size == 1 << dist.deg_f:
        return DistributionClass.UNIFORM
    if _is_xor_subgroup(dist.residues):
        return DistributionClass.RESTRICTED_UNIFORM
    return DistributionClass.IRREGULAR


# --- theorem-based prediction --------------------------------------------------


def theorem1_restricted_uniform_test(code: CyclicCode, n: int, f: int) -> bool:
    """Small-order-factor test deciding restricted uniformity of a truncation.

    For k0 < n < n0 and deg f <= k0, the truncation residues are
    restricted uniform iff the dual generator has a divisor m_perp of
    order n' < n0 with n = b*n', deg(m_perp) > k0 - deg(f), and f
    dividing m(X) * (1 + X^n' + ... + X^((b-1)n')), where m is the
    minimal generating polynomial of the n'-periodic pattern family.
    """
    if code.is_trivial or code.is_degenerate():
        raise ValueError("test requires a nontrivial non-degenerate code")
    deg_f = check_divisor(n, f)
    if not code.k < n < code.n:
        raise ValueError("test requires k0 < n < n0")
    if deg_f > code.k:
        raise ValueError("test requires deg f <= k0")
    return _theorem1(code, n, f)


def _theorem1(code: CyclicCode, n: int, f: int) -> bool:
    deg_f = f.bit_length() - 1
    for m_perp in gf2.divisors_of(code.g_dual, code.n):
        if m_perp == 1:
            continue
        if m_perp.bit_length() - 1 <= code.k - deg_f:
            continue
        np_ = gf2.order(m_perp)
        if np_ >= code.n or n % np_:
            continue
        b = n // np_
        m = gf2.div(gf2.xn1(np_), gf2.reciprocal(m_perp))
        comb = sum(1 << (t * np_) for t in range(b))
        if gf2.rem(gf2.mul(m, comb), f) == 0:
            return True
    return False


def _truncation_class(code: CyclicCode, n: int, f: int) -> DistributionClass:
    # interior blocks: any n consecutive coordinates of a uniform codeword
    if n <= code.k:
        return DistributionClass.UNIFORM
    if f.bit_length() - 1 > code.k:
        return DistributionClass.RESTRICTED_UNIFORM
    if _theorem1(code, n, f):
        return DistributionClass.RESTRICTED_UNIFORM
    return DistributionClass.UNIFORM


def _codeword_class(code: CyclicCode, f: int) -> DistributionClass:
    # residues of u*g0 mod f over all messages u of degree < k0
    if gf2.rem(code.g, f) == 0:
        return DistributionClass.DEGENERATE
    if f.bit_length() - 1 > code.k:
        return DistributionClass.RESTRICTED_UNIFORM
    # with deg f <= k0 the image is the ideal of gcd(g0, f): full iff coprime
    if gf2.gcd(code.g, f) == 1:
        return DistributionClass.UNIFORM
    return DistributionClass.RESTRICTED_UNIFORM


def _component_class(code: CyclicCode, kind: str, d: int, f: int) -> DistributionClass:
    deg_f = f.bit_length() - 1
    if kind == "code":
        return _codeword_class(code, f)
    if d < deg_f:
        # the component cannot reach all residues; never all-zero either
        return DistributionClass.RESTRICTED_UNIFORM
    if d <= code.k:
        return DistributionClass.UNIFORM
    if deg_f > code.k:
        return DistributionClass.RESTRICTED_UNIFORM
    if d < code.n and gf2.rem(gf2.xn1(d), f) == 0:
        if _theorem1(code, d, f):
            return DistributionClass.RESTRICTED_UNIFORM
        return DistributionClass.UNIFORM
    # no closed-form rule: rank of the component's residue image
    return _rank_class((gf2.rem(r, f) for r in _truncated_rows(code, d)), deg_f)


def _rank_class(residues, deg_f: int) -> DistributionClass:
    # a uniform measure's residue image is the span of its basis residues
    rank = len(span_basis(residues))
    if rank == 0:
        return DistributionClass.DEGENERATE
    if rank == deg_f:
        return DistributionClass.UNIFORM
    return DistributionClass.RESTRICTED_UNIFORM


def predict_class(
    code: CyclicCode, spec: SubspaceSpec | BlockType, f: int
) -> DistributionClass:
    """Distribution class from the decision rules alone, never by enumeration.

    Truncations use the information-set, counting, and small-order-factor
    rules.  Boundary spans (aligned multiples included) use uniformity
    propagation from the truncation when n < n0, then the component
    decomposition: degenerate components shift nothing and are dropped,
    any uniform component saturates the sum, a lone restricted component
    is its own sum, and several restricted components fall back to the
    rank of the combined residue image (their subgroups can sum to the
    full space, so the class of the sum is the class of the combined
    image, not the worst component).
    """
    spec = spec_for_block(code, spec)
    deg_f = check_divisor(spec.n, f)

    if isinstance(spec, Truncation):
        return _truncation_class(code, spec.n, f)

    d1, q, d2 = spec.d1, spec.q, spec.d2
    if spec.n < code.n:
        # a boundary span contains the truncation subspace, so uniformity
        # of the truncation propagates
        if _truncation_class(code, spec.n, f) is DistributionClass.UNIFORM:
            return DistributionClass.UNIFORM

    components = []
    if d1:
        components.append(_component_class(code, "trunc", d1, f))
    components.extend(_codeword_class(code, f) for _ in range(q))
    if d2:
        components.append(_component_class(code, "trunc", d2, f))
    live = [c for c in components if c is not DistributionClass.DEGENERATE]
    if not live:
        # every component is a constant zero: aligned with f dividing g0
        return DistributionClass.DEGENERATE
    if any(c is DistributionClass.UNIFORM for c in live):
        # covers the all-uniform case and saturation by one full component
        return DistributionClass.UNIFORM
    if len(live) == 1:
        return live[0]
    # several restricted components: their subgroups can still sum to the
    # full space, so the class comes from the rank of the combined image
    return _rank_class((gf2.rem(b, f) for b in build_subspace(spec)), deg_f)


# --- noise -------------------------------------------------------------------


@lru_cache(maxsize=16)
def _error_dp_cached(n: int, f: int, p: float) -> tuple:
    # the columns X^i mod f, i < n
    masks = rem_many(np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64)), f)
    probs = bsc_residue_dp(masks, p, f.bit_length() - 1)
    probs.setflags(write=False)
    return (probs,)


def error_residue_distribution(n: int, f: int, p: float) -> SyndromeDistribution:
    """Exact distribution of e(X) mod f for n iid BSC(p) bits.

    Dynamic programming over positions: each step mixes "flip X^i mod f"
    with probability p; O(n * 2^deg f) with the deg f <= 20 guard.
    """
    check_crossover(p)
    deg_f = f.bit_length() - 1
    if not 1 <= deg_f <= DEGF_DP_GUARD:
        raise GuardError(f"error DP needs 1 <= deg f <= {DEGF_DP_GUARD}, got {deg_f}")
    dense = _error_dp_cached(n, f, p)[0]
    support = np.nonzero(dense)[0].astype(np.uint64)
    return SyndromeDistribution(
        f, support, dense[support.astype(np.int64)], dense=dense
    )


def noisy_distribution(spec: SubspaceSpec, f: int, p: float) -> SyndromeDistribution:
    """Distribution of (noisy block mod f): noise-free convolved with the error DP.

    Convolution is over the additive residue group (XOR); p = 0 returns
    the exact noise-free distribution unchanged.
    """
    check_crossover(p)
    base = exact_distribution(spec, f)
    if p == 0.0:
        return base
    err = error_residue_distribution(spec.n, f, p)
    dense = xor_convolve(base.dense_probs(), err.dense_probs())
    support = np.nonzero(dense)[0].astype(np.uint64)
    return SyndromeDistribution(f, support, dense[support.astype(np.int64)], dense=dense)


def noisy_zero_mass(base: SyndromeDistribution, err: SyndromeDistribution) -> float:
    """P[noisy residue = 0]: the error must reproduce the noise-free residue."""
    dense = err.dense_probs()
    return float(np.dot(base.probs, dense[base.residues.astype(np.int64)]))


def format_distribution(dist: SyndromeDistribution) -> str:
    """Dump format: one '<residue-bits> <probability>' line per support residue."""
    lines = [
        f"{_residue_bits(int(r), dist.deg_f)} {p:.12g}"
        for r, p in zip(dist.residues, dist.probs)
    ]
    lines.append(f"class={dist.kind}")
    return "\n".join(lines)


def _residue_bits(r: int, width: int) -> str:
    return "".join(str((r >> i) & 1) for i in range(width))
