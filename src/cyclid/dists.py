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
  the residue images only where no closed-form rule applies.  A list of
  one code's specs is classified in one call, which decides each rule
  once per length in a memo that ends with the call.

The verification sweeps cross-check the two routes exhaustively.

Every law, noise-free or noisy, is one dense array of masses over all
2^deg f residues (deg f <= 20).  Noise enters through one cached error
law per (n, f, p), the residue of n iid BSC(p) bits modulo f.  The noisy
block law is the XOR convolution of that array with the noise-free law's,
which is uniform on an image H; the zero mass alone is the mean of the
error law over H.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

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


def _truncated_rows(code: CyclicCode, d: int, suffix: bool = False) -> list[int]:
    """The nonzero rows X^i g0, i < k, cut to the first (last) d coordinates.

    They are independent: g0 has constant term 1, so the prefix rows have
    distinct lowest bits and the suffix rows distinct highest bits.
    """
    if suffix:
        return [(code.g << i) >> (code.n - d) for i in range(max(0, code.k - d), code.k)]
    return [(code.g << i) & ((1 << d) - 1) for i in range(min(code.k, d))]


def boundary_components(spec: BoundarySpan) -> list[list[int]]:
    """Bases of the independent summands of a boundary span, in position."""
    code = spec.code
    out = []
    if spec.d1:
        out.append(_truncated_rows(code, spec.d1, suffix=True))
    for t in range(spec.q):
        shift = spec.d1 + t * code.n
        out.append([code.g << (i + shift) for i in range(code.k)])
    if spec.d2:
        shift = spec.d1 + spec.q * code.n
        out.append([b << shift for b in _truncated_rows(code, spec.d2)])
    return out


def build_subspace(spec: SubspaceSpec) -> list[int]:
    """Basis (bit-packed, independent) of the noise-free block subspace."""
    n = spec.n
    if n > SPAN_GUARD_N:
        raise GuardError(f"subspace models need n <= {SPAN_GUARD_N}, got {n}")
    if isinstance(spec, Truncation):
        return _truncated_rows(spec.code, spec.n)
    return [b for comp in boundary_components(spec) for b in comp]


# --- distributions -----------------------------------------------------------


class SyndromeDistribution:
    """Probability masses of the residues modulo f, one per residue.

    ``probs[r]`` is the mass of residue r, over all 2^deg f residues, the
    dense form every producer builds under the deg f <= 20 cap.  Exact
    (noise-free) laws also carry ``dim`` and integer ``counts`` over the
    denominator 2^dim; their masses counts * 2^-dim are exact as well,
    since dyadic rationals with dim <= 24 round-trip through float64.
    """

    def __init__(self, f, probs, counts=None, dim=None):
        self.f = f
        self.deg_f = f.bit_length() - 1
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.probs.shape != (1 << self.deg_f,):
            shape = self.probs.shape
            raise ValueError(f"need 2^{self.deg_f} masses, one per residue, got {shape}")
        self.counts = None if counts is None else np.asarray(counts, dtype=np.int64)
        self.dim = dim
        self._kind = None
        total = self.probs.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1")

    @property
    def kind(self) -> DistributionClass:
        if self._kind is None:
            self._kind = classify(self)
        return self._kind

    def support(self) -> np.ndarray:
        """The residues of nonzero mass, in increasing order."""
        return np.flatnonzero(self.probs)

    def mass_at(self, residue: int) -> float:
        if not 0 <= residue < self.probs.size:
            raise ValueError(f"{residue} is not a residue modulo a degree-{self.deg_f} f")
        return float(self.probs[residue])

    @property
    def zero_mass(self) -> float:
        return float(self.probs[0])

    def __repr__(self):
        return (
            f"SyndromeDistribution(f={gf2.format_poly(self.f)}, "
            f"support={self.support().size}, kind={self.kind})"
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
    counts = residue_counts_dense(image, deg_f) << (dim - len(image))
    return SyndromeDistribution(f, np.ldexp(counts, -dim), counts=counts, dim=dim)


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


def _support_classes(supports: np.ndarray, equal, deg_f: int) -> list:
    """The class of each row of sorted supports, shape (rows, size).

    ``equal`` says per row whether its masses are all equal.  One point
    is degenerate; unequal masses are irregular; all 2^deg f residues are
    uniform; an XOR subgroup is restricted uniform; anything else is
    irregular.
    """
    rows, size = supports.shape
    if size == 1:
        return [DistributionClass.DEGENERATE] * rows
    full = DistributionClass.UNIFORM
    if size != 1 << deg_f:
        full = DistributionClass.RESTRICTED_UNIFORM
        equal = equal & _is_xor_subgroup(supports)
    return [full if ok else DistributionClass.IRREGULAR for ok in equal.tolist()]


def classify(dist: SyndromeDistribution) -> DistributionClass:
    """Degenerate / Uniform / RestrictedUniform / Irregular from the masses.

    The support-subgroup test is exact; masses are equal within 1e-12,
    which is exact equality for exact laws, whose unequal masses differ
    by at least 2^-dim.
    """
    support = dist.support()
    equal = np.ptp(dist.probs[support]) <= _MASS_TOL
    return _support_classes(support[None], np.array([equal]), dist.deg_f)[0]


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


def _component_class(code: CyclicCode, d: int, f: int) -> DistributionClass:
    deg_f = f.bit_length() - 1
    if d < deg_f:
        # the component cannot reach all residues; never all-zero either
        return DistributionClass.RESTRICTED_UNIFORM
    if d <= code.k or deg_f > code.k or (d < code.n and gf2.rem(gf2.xn1(d), f) == 0):
        # the truncation rules, where f divides X^d + 1 in the third case
        return _truncation_class(code, d, f)
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


def predict_class(code: CyclicCode, specs: SubspaceSpec | BlockType | list, f: int):
    """Distribution class from the decision rules alone, never by enumeration.

    ``specs`` is one spec or block type of ``code``, or a list of them,
    which gets a list of classes.  Truncations use the information-set,
    counting, and small-order-factor rules.  Boundary spans (aligned
    multiples included) use uniformity propagation from the truncation
    when n < n0, then the component decomposition: degenerate components
    shift nothing and are dropped, any uniform component saturates the
    sum, and a lone restricted component is its own sum.  Several
    restricted components can still sum to the full space: their span is
    restricted if its dimension min(d1, k) + q k + min(d2, k) is below
    deg f, else its class is the rank of its residue image, with the
    words of all such spans reduced in one call.  Divisor checks and
    rules are decided once per length and call.
    """
    single = not isinstance(specs, (list, tuple))
    specs = [spec_for_block(code, spec) for spec in ([specs] if single else specs)]
    if any(spec.code != code for spec in specs):
        raise ValueError(f"every spec must be of {code}")
    deg_f = f.bit_length() - 1
    for n in {spec.n for spec in specs}:
        check_divisor(n, f)
    rule = cache(lambda fn, *d: fn(code, *d, f))  # a memo for this call only
    classes = [_span_rule_class(spec, deg_f, rule) for spec in specs]
    pending = [i for i, kind in enumerate(classes) if kind is None]
    if pending:
        bases = [build_subspace(specs[i]) for i in pending]
        words = np.array([w for basis in bases for w in basis], dtype=np.uint64)
        residues = iter(rem_many(words, f).tolist())
        for i, basis in zip(pending, bases):
            classes[i] = _rank_class(itertools.islice(residues, len(basis)), deg_f)
    return classes[0] if single else classes


def _span_rule_class(spec: SubspaceSpec, deg_f: int, rule):
    """``predict_class``'s rules for one spec; None where only a rank decides."""
    if isinstance(spec, Truncation):
        return rule(_truncation_class, spec.n)
    code, d1, q, d2 = spec.code, spec.d1, spec.q, spec.d2
    # a boundary span contains the truncation subspace, so uniformity of
    # the truncation propagates
    if spec.n < code.n and rule(_truncation_class, spec.n) is DistributionClass.UNIFORM:
        return DistributionClass.UNIFORM
    components = [rule(_codeword_class)] * q
    components += [rule(_component_class, d) for d in (d1, d2) if d]
    live = [c for c in components if c is not DistributionClass.DEGENERATE]
    if not live:
        # every component is a constant zero: aligned with f dividing g0
        return DistributionClass.DEGENERATE
    if any(c is DistributionClass.UNIFORM for c in live):
        # covers the all-uniform case and saturation by one full component
        return DistributionClass.UNIFORM
    if len(live) == 1:
        return live[0]
    # several restricted components, so the rank is positive: it is below
    # deg f when the span's dimension is
    if min(d1, code.k) + q * code.k + min(d2, code.k) < deg_f:
        return DistributionClass.RESTRICTED_UNIFORM
    return None


# --- noise -------------------------------------------------------------------


@lru_cache(maxsize=16)
def _error_dp_cached(n: int, f: int, p: float) -> np.ndarray:
    # the columns X^i mod f, i < n
    masks = rem_many(np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64)), f)
    probs = bsc_residue_dp(masks, p, f.bit_length() - 1)
    probs.setflags(write=False)
    return probs


def error_residue_distribution(n: int, f: int, p: float) -> SyndromeDistribution:
    """Exact distribution of e(X) mod f for n iid BSC(p) bits.

    Dynamic programming over positions: each step mixes "flip X^i mod f"
    with probability p; O(n * 2^deg f) with the deg f <= 20 guard.
    """
    check_crossover(p)
    deg_f = f.bit_length() - 1
    if not 1 <= deg_f <= DEGF_DP_GUARD:
        raise GuardError(f"error DP needs 1 <= deg f <= {DEGF_DP_GUARD}, got {deg_f}")
    return SyndromeDistribution(f, _error_dp_cached(n, f, p))


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
    return SyndromeDistribution(f, xor_convolve(base.probs, err.probs))


def format_distribution(dist: SyndromeDistribution) -> str:
    """Dump format: one '<residue-bits> <probability>' line per support residue."""
    lines = [
        f"{''.join(map(str, gf2.poly_to_bits(r, dist.deg_f)))} {dist.probs[r]:.12g}"
        for r in dist.support().tolist()
    ]
    lines.append(f"class={dist.kind}")
    return "\n".join(lines)
