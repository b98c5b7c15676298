"""Exhaustive desk-scale verification sweeps.

Every classification rule, bound, and counting identity the library
relies on is re-derived here by brute force over small parameter
spaces and compared with the closed-form machinery.  The sweeps return
plain result records so both the test suite and the ``verify`` CLI can
run them and report per-check counts.

The heavy noise-free/noisy distribution sweep is organized in rows of
the assumed block length n so that the error-residue dynamic programs
are computed once per (n, f, p) and shared across codes and
subspaces, and every basis word of a (n, n0) row is reduced modulo f
in one call.  A uniform measure on a subspace is uniform on its residue
image, so its class, noisy zero mass and eq-23 spread depend on the
image alone: a row keeps one record per distinct image per (n0, f), and
every spec instance and boundary component looks its image up there.
The images are decided in batches of equal rank, one span enumeration
per batch, and the eq-23 masses are an XOR convolution over each span.
A code's specs, one per frame offset, get their predicted classes from
one ``predict_class`` call per f.  The checks themselves, and their
counts, stay per instance.  Rows run serially: Python code between
short numpy calls holds the GIL for most of a row, so a thread pool
measured slower than a serial run.  The ``jobs`` keywords are accepted
and ignored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gf2
from ._kernels import ortho_zero_count, rem_many, subspace_elements, xor_convolve
from .codes import CyclicCode, GuardError, span_basis, syndrome_basis
from .dists import (
    DEGF_DP_GUARD,
    BoundarySpan,
    DistributionClass,
    SyndromeDistribution,
    Truncation,
    _error_dp_cached,
    _rank_class,
    _support_classes,
    block_decomposition,
    boundary_components,
    build_subspace,
    distribution_from_basis,
    predict_class,
    spec_for_block,
)
from .recon import h1_upper_bound, lambda_coeff, mean_zero_coeff_prob_exact, reconstruct
from .stream import StreamConfig, generate_stream

_EQ23_SUPPORT_CAP = 256
_SPAN_CHUNK = 1 << 16  # span elements per batch of residue images


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepResult") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)
        for k, v in other.notes.items():
            if k in self.notes and isinstance(v, (int, float)):
                self.notes[k] += v
            elif k in self.notes and isinstance(v, list):
                self.notes[k].extend(v)
            else:
                self.notes[k] = v

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"{self.name}: checked {self.checked}, {state}"


def nondegenerate_codes(n0: int) -> list[CyclicCode]:
    """All nontrivial non-degenerate C(n0, g0), canonically ordered."""
    out = []
    for g0 in gf2.divisors_xn1(n0):
        code = CyclicCode(n0, g0)
        if not code.is_trivial and not code.is_degenerate():
            out.append(code)
    return out


def _proper_divisors(n: int) -> list[int]:
    """The divisors f of X^n + 1 with 1 <= deg f < n."""
    return [f for f in gf2.divisors_xn1(n) if 1 <= f.bit_length() - 1 < n]


def _distinct_specs(code: CyclicCode, n: int) -> list:
    """Deduplicated subspace specs of (code, n): a block at each frame offset o < n0.

    Every offset is reached by some block of some (n, s) segmentation.
    """
    n0 = code.n
    blocks = (block_decomposition(n0, n, 0, -o % n0, 1) for o in range(n0))
    return list(dict.fromkeys(spec_for_block(code, block) for block in blocks))


# --- the distribution sweep (noise-free and noisy) ---------------------------


def _spec_bases(code: CyclicCode, n: int, with_components: bool) -> list:
    """(spec, basis, component slices) for each spec of (code, n) within the guards.

    Truncations come first, so a row sees a code's truncation class
    before its spans.  ``build_subspace`` concatenates a span's
    component bases, so the slices cut its basis into them; they are
    None unless asked for.
    """
    out = []
    for spec in sorted(_distinct_specs(code, n), key=lambda sp: isinstance(sp, BoundarySpan)):
        try:
            basis = build_subspace(spec)
        except GuardError:
            continue
        comps = None
        if with_components and isinstance(spec, BoundarySpan):
            ends = list(itertools.accumulate(len(comp) for comp in boundary_components(spec)))
            comps = [slice(a, b) for a, b in zip([0, *ends], ends)]
        out.append((spec, basis, comps))
    return out


def _span_classes(span: np.ndarray, deg_f: int) -> list:
    """``classify``'s rules on each row of enumerated spans, shape (rows, 2^r).

    Rows not already in increasing order are sorted in place.  Distinct
    elements carry equal counts 2^(dim - r), so a row's masses are equal
    exactly when its sorted elements are distinct.
    """
    if not np.all(span[:, 1:] > span[:, :-1]):
        span.sort(axis=1)
    return _support_classes(span, np.all(span[:, 1:] != span[:, :-1], axis=1), deg_f)


def _decide_images(images: list, f: int, check_noisy=None) -> dict:
    """image -> (class, per-p noisy figures or None), in batches of equal rank r.

    A batch of at most ``_SPAN_CHUNK`` span elements (a rank-20 image goes
    alone) is enumerated in one pass from reduced bases in increasing pivot
    order, so each row comes out sorted.  ``check_noisy`` gets each batch.
    """
    by_rank: dict = {}
    for image in images:
        by_rank.setdefault(len(image), []).append(image)
    out = {}
    for r, group in by_rank.items():
        step = max(1, _SPAN_CHUNK >> r)
        for lo in range(0, len(group), step):
            batch = group[lo : lo + step]
            bases = np.array(batch, dtype=np.intp).reshape(len(batch), r)[:, ::-1]
            span = subspace_elements(bases)
            kinds = _span_classes(span, f.bit_length() - 1)
            noisy = check_noisy(f, batch, span, kinds) if check_noisy else [None] * len(batch)
            out.update(zip(batch, zip(kinds, noisy)))
    return out


def _sweep_n_row(n: int, n0_list, p_list, with_noise: bool, with_components: bool):
    """All checks for one assumed block length n; returns named results."""
    res = {
        name: SweepResult(name)
        for name in (
            "cross_validation",
            "proposition1",
            "theorem2",
            "theorem3",
            "noisy_uniform",
            "theorem5_bound",
            "eq23_support",
        )
    }
    res["cross_validation"].notes["degenerate_instances"] = []
    uniform_verified: set = set()
    # per n0: specs and their bases depend on (code, n) only, not on f, and
    # every basis word of the n0 is reduced mod f in one call
    row = []
    for n0 in n0_list:
        if n > 2 * n0 + 2:
            continue
        code_specs = [
            (code, _spec_bases(code, n, with_components)) for code in nondegenerate_codes(n0)
        ]
        bases = [basis for _, spec_bases in code_specs for _, basis, _ in spec_bases]
        if bases:  # else every spec is over the guards
            words = np.array([b for basis in bases for b in basis], dtype=np.uint64)
            row.append((n0, code_specs, words, np.cumsum([len(basis) for basis in bases])[:-1]))
    if not row:
        return res  # no error DP either
    # f outside n0: each error DP is built once per (n, f, p) and shared by the n0
    for f in _proper_divisors(n):
        if f.bit_length() - 1 > DEGF_DP_GUARD:
            continue  # no dense residue arrays: its instances are skipped
        # p -> (error residue masses, Theorem-5 bound on the zero mass)
        noise = {}
        if with_noise:
            f_code = CyclicCode(n, f)
            for p in p_list:
                noise[p] = (_error_dp_cached(n, f, p), h1_upper_bound(f_code, p))
        check_noisy = partial(_check_noisy, res, n, noise, uniform_verified) if noise else None
        for n0, code_specs, words, ends in row:
            # 1. every instance's residue image, and its components' images
            residues = iter(np.split(rem_many(words, f), ends))
            # (code, [(spec, image, component images, None without components)])
            instances = []
            for code, spec_bases in code_specs:
                items = []
                for spec, _, comps in spec_bases:
                    words_mod_f = next(residues).tolist()
                    parts = comps and [tuple(span_basis(words_mod_f[c])) for c in comps]
                    items.append((spec, tuple(span_basis(words_mod_f)), parts))
                instances.append((code, items))
            # 2. each distinct image decided once, for this (n0, f) only;
            # component images get a class and no noisy figures
            spec_images = dict.fromkeys(im for _, items in instances for _, im, _ in items)
            records = _decide_images(list(spec_images), f, check_noisy)
            comp_only = dict.fromkeys(
                im for _, items in instances for *_, parts in items for im in parts or ()
                if im not in records
            )
            if comp_only:
                records.update(_decide_images(list(comp_only), f))
            # 3. the checks, per instance in spec order
            for code, items in instances:
                trunc_kind = None
                preds = predict_class(code, [spec for spec, _, _ in items], f)
                for (spec, image, parts), pred in zip(items, preds):
                    kind, noisy = records[image]
                    res["cross_validation"].checked += 1
                    if kind is not pred:
                        res["cross_validation"].failures.append(
                            (n0, code.g, n, spec, f, str(kind), str(pred))
                        )
                    aligned = (
                        isinstance(spec, BoundarySpan)
                        and spec.d1 == 0
                        and spec.d2 == 0
                    )
                    correct = aligned and gf2.rem(code.g, f) == 0
                    res["proposition1"].checked += 1
                    if kind is DistributionClass.IRREGULAR or (
                        kind is DistributionClass.DEGENERATE and not correct
                    ):
                        res["proposition1"].failures.append(
                            (n0, code.g, n, spec, f, str(kind))
                        )
                    if kind is DistributionClass.DEGENERATE:
                        res["cross_validation"].notes["degenerate_instances"].append(
                            (n0, code.g, n, f)
                        )
                    if isinstance(spec, Truncation):
                        trunc_kind = kind
                    elif n < n0 and trunc_kind is DistributionClass.UNIFORM:
                        # uniform truncation must propagate to every span
                        res["theorem2"].checked += 1
                        if kind is not DistributionClass.UNIFORM:
                            res["theorem2"].failures.append((n0, code.g, n, spec, f))
                    if parts is not None:
                        _check_theorem3(res["theorem3"], code, spec, f, kind, parts, records)
                    for (p, (_, bound)), (zero, spread) in zip(noise.items(), noisy or ()):
                        if not correct:
                            res["theorem5_bound"].checked += 1
                            if zero > bound + 1e-12:
                                res["theorem5_bound"].failures.append((spec, f, p, zero, bound))
                        if spread is not None:
                            # noisy masses on the noise-free support stay pairwise equal
                            res["eq23_support"].checked += 1
                            if spread > 1e-12:
                                res["eq23_support"].failures.append((spec, f, p))
    return res


def _check_theorem3(result, code, spec, f, kind, parts, records):
    """Component classes (each separately enumerated) against the composite.

    ``parts`` are the residue images of the span's components.  The
    provable direction is that all-uniform components (after dropping
    degenerate ones) give a uniform composite.  The literal converse --
    any restricted component forces a restricted composite -- fails
    exactly when the component image subgroups sum to the full residue
    space, so the expected class always comes from the rank of the
    combined supports; violations of the literal converse are counted
    as a note.
    """
    classes = [records[image][0] for image in parts]
    live = [c for c in classes if c is not DistributionClass.DEGENERATE]
    expect = _rank_class([g for image in parts for g in image], f.bit_length() - 1)
    result.checked += 1
    if kind is not expect:
        result.failures.append((code.g, spec, f, f"expected={expect}", str(kind)))
    if live and all(c is DistributionClass.UNIFORM for c in live):
        if kind is not DistributionClass.UNIFORM:
            result.failures.append((code.g, spec, f, "all-uniform", str(kind)))
    elif (
        any(c is DistributionClass.RESTRICTED_UNIFORM for c in live)
        and kind is DistributionClass.UNIFORM
    ):
        result.notes["literal_converse_violations"] = (
            result.notes.get("literal_converse_violations", 0) + 1
        )


def _check_noisy(res, n, noise, uniform_verified, f, images, span, kinds) -> list:
    """Per image and p, the noisy zero mass and the eq-23 spread (None unless
    restricted with at most 256 points) of a batch of noise-free laws.

    Row E of ``span`` is a support in increasing order, mass 1/2^r a point.
    A restricted row is an XOR subgroup whose entry c is combination c of its
    entries at indices 2^j, so E[i] ^ E[j] = E[i ^ j] and its noisy masses are
    the XOR convolution of the uniform masses with the error masses at E.  A
    uniform law must stay uniform: once per (n, f, p), as all are equal.
    """
    size = span.shape[1]
    restricted = [kind is DistributionClass.RESTRICTED_UNIFORM for kind in kinds]
    eq23 = np.array(restricted) & (size <= _EQ23_SUPPORT_CAP)
    out = [[] for _ in images]
    for dense, _ in noise.values():
        g = dense[span]  # one law at a time: never a stack of them
        spreads = np.zeros(len(images))
        if eq23.any():
            probs = np.full(size, 1.0 / size)
            spreads[eq23] = np.ptp(xor_convolve(probs, g[eq23]), axis=1)
        zeros = (g.sum(axis=1) / size).tolist()
        for row, zero, spread, e in zip(out, zeros, spreads.tolist(), eq23):
            row.append((zero, spread if e else None))
    del g
    uniform = [image for image, kind in zip(images, kinds) if kind is DistributionClass.UNIFORM]
    pending = [p for p in noise if (f, p) not in uniform_verified] if uniform else []
    if pending:
        dense = distribution_from_basis(list(uniform[0]), f).probs
    for p in pending:
        uniform_verified.add((f, p))
        noisy = SyndromeDistribution(f, xor_convolve(dense, noise[p][0]))
        res["noisy_uniform"].checked += 1
        if noisy.kind is not DistributionClass.UNIFORM:
            res["noisy_uniform"].failures.append((n, f, p, str(noisy.kind)))
    return out


def run_distribution_sweeps(
    n0_list=(7, 15),
    p_list=(0.01, 0.05, 0.1),
    with_noise: bool = True,
    with_components: bool = True,
    jobs: int | None = None,
    n_range: tuple[int, int] | None = None,
) -> dict[str, SweepResult]:
    """Noise-free cross-validation plus the noisy bound/preservation sweep.

    Covers every nontrivial non-degenerate g0 | X^n0+1, every reachable
    subspace spec for n in [2, 2*max(n0)+2], every nontrivial divisor f
    of X^n+1, within the enumeration guards.  ``jobs`` is ignored: the
    rows run serially.
    """
    lo, hi = n_range if n_range else (2, 2 * max(n0_list) + 2)
    results: dict[str, SweepResult] = {}
    for n in range(lo, hi + 1):
        for name, sub in _sweep_n_row(n, n0_list, p_list, with_noise, with_components).items():
            if name in results:
                results[name].merge(sub)
            else:
                results[name] = sub
    return results


# --- factor-entropy statistic sweep (criterion: mean always 1/2 below n0) -----


def sweep_mean_zero_coeff(
    n0: int = 15, p_list=(0.0, 0.05), jobs: int | None = None
) -> SweepResult:
    """Mean zero-coefficient probability is exactly 1/2 whenever n < n0.

    Each (code, spec, f) is enumerated once for every p.  ``jobs`` is
    ignored: the rows run serially.
    """
    result = SweepResult("mean_zero_coeff_half")
    codes = nondegenerate_codes(n0)
    for n in range(2, n0):
        code_specs = [(code, _distinct_specs(code, n)) for code in codes]
        for f in _proper_divisors(n):
            for code, specs in code_specs:
                for spec in specs:
                    vals = mean_zero_coeff_prob_exact(code, spec, f, p_list)
                    for p, val in zip(p_list, vals):
                        result.checked += 1
                        if abs(val - 0.5) > 1e-12:
                            result.failures.append((code.g, n, spec, f, p, val))
    return result


# --- appendix suites ----------------------------------------------------------


def sweep_lemma1(n0_list=(7, 15), trials: int = 200, seed: int = 7) -> SweepResult:
    """Counting identity: v.h is fair iff h is outside the dual code."""
    result = SweepResult("lemma1_inner_product")
    rng = np.random.default_rng(seed)
    for n0 in n0_list:
        for g in gf2.divisors_xn1(n0):
            code = CyclicCode(n0, g)
            if code.is_trivial or code.k > 12:
                continue
            basis = np.array([code.g << i for i in range(code.k)], dtype=np.uint64)
            for h in rng.integers(0, 1 << n0, size=trials, dtype=np.uint64):
                h = int(h)
                zeros = ortho_zero_count(basis, h)
                in_dual = gf2.rem(h, code.g_dual) == 0
                expect = 1 << code.k if in_dual else 1 << (code.k - 1)
                result.checked += 1
                if zeros != expect:
                    result.failures.append((n0, g, h, zeros, expect))
    return result


def sweep_lemma2(n0_list=(7, 15)) -> SweepResult:
    """Prefix/suffix alternative for every vector outside the dual."""
    result = SweepResult("lemma2_prefix_suffix")
    for n in n0_list:
        for g in gf2.divisors_xn1(n):
            code = CyclicCode(n, g)
            if code.is_trivial:
                continue
            rows = [code.g << i for i in range(code.k)]
            outside = np.array(
                [h for h in range(1 << n) if gf2.rem(h, code.g_dual) != 0],
                dtype=np.uint64,
            )
            for d1 in range(1, n):
                d2 = n - d1
                pre_basis = span_basis(r & ((1 << d1) - 1) for r in rows)
                suf_basis = span_basis(r >> d1 for r in rows)
                pre = outside & np.uint64((1 << d1) - 1)
                suf = outside >> np.uint64(d1)
                pre_in = np.ones(outside.size, dtype=bool)
                for b in pre_basis:
                    pre_in &= (np.bitwise_count(pre & np.uint64(b)) & 1) == 0
                suf_in = np.ones(outside.size, dtype=bool)
                for b in suf_basis:
                    suf_in &= (np.bitwise_count(suf & np.uint64(b)) & 1) == 0
                bad = pre_in & suf_in
                result.checked += int(outside.size)
                if bad.any():
                    result.failures.append((n, g, d1, int(outside[bad][0])))
    return result


def sweep_lemma3(n0_list=(7, 15)) -> SweepResult:
    """Degenerate-pattern codewords iff the dual generator has a small-order factor.

    The zero codeword is excluded from the scan: every code contains it
    and it tiles trivially.
    """
    result = SweepResult("lemma3_degenerate_pattern")
    for n in n0_list:
        for g in gf2.divisors_xn1(n):
            code = CyclicCode(n, g)
            has_pattern = any(
                gf2.least_period(gf2.poly_to_bits(v, n)) < n for v in code.codewords() if v
            )
            predicate = any(d != 1 and gf2.order(d) < n for d in gf2.divisors_of(code.g_dual, n))
            result.checked += 1
            if has_pattern != predicate:
                result.failures.append((n, g, has_pattern, predicate))
    return result


def sweep_sullivan(n_lo: int = 4, n_hi: int = 12, p_list=(0.05, 0.1)) -> SweepResult:
    """Subgroup-coset probability inequalities from full error enumeration.

    Checks the stated ratio P[e in C]/P[e in G] >= lambda for every
    proper coset, and the stronger direction the zero-syndrome bound
    actually uses, P[e in G] <= lambda * P[e in C]; also cross-checks
    the enumerated coset masses against the dynamic program.
    """
    result = SweepResult("sullivan_coset_ratio")
    for n in range(n_lo, n_hi + 1):
        patterns = np.arange(1 << n, dtype=np.uint64)
        weights = np.bitwise_count(patterns).astype(np.float64)
        for f in _proper_divisors(n):
            deg_f = f.bit_length() - 1
            syndromes = rem_many(patterns, f).astype(np.int64)
            for p in p_list:
                mass = p**weights * (1 - p) ** (n - weights)
                coset = np.bincount(syndromes, weights=mass, minlength=1 << deg_f)
                dp = _error_dp_cached(n, f, p)
                lam = lambda_coeff(n, deg_f, p)
                result.checked += 1
                if np.max(np.abs(coset - dp)) > 1e-12:
                    result.failures.append((n, f, p, "dp-mismatch"))
                    continue
                ratios = coset[0] / coset[1:]
                if np.min(ratios) < lam - 1e-12:
                    result.failures.append((n, f, p, "ratio<lambda"))
                if np.max(coset[1:]) > lam * coset[0] + 1e-12:
                    result.failures.append((n, f, p, "coset>lambda*subgroup"))
    return result


def sweep_syndrome_basis(n_lo: int = 4, n_hi: int = 16) -> SweepResult:
    """Syndrome coefficient vectors span exactly the dual code of C(n, f)."""
    result = SweepResult("syndrome_basis_span")
    for n in range(n_lo, n_hi + 1):
        for f in _proper_divisors(n):
            code = CyclicCode(n, f)
            hs = syndrome_basis(n, f)
            dual_rows = [code.g_dual << i for i in range(n - code.k)]
            result.checked += 1
            if sorted(span_basis(hs)) != sorted(span_basis(dual_rows)):
                result.failures.append((n, f, "span"))
            if any(gf2.rem(h, code.g_dual) != 0 for h in hs):
                result.failures.append((n, f, "not multiple of dual generator"))
    return result


def sweep_pzero_identity(n_lo: int = 2, n_hi: int = 16, p_list=(0.01, 0.05, 0.1)) -> SweepResult:
    """Weight-distribution sum equals the error-DP mass at residue zero."""
    result = SweepResult("pzero_identity")
    for n in range(n_lo, n_hi + 1):
        for f in _proper_divisors(n):
            code = CyclicCode(n, f)
            for p in p_list:
                a = code.p_zero_syndrome(p)
                b = float(_error_dp_cached(n, f, p)[0])
                result.checked += 1
                if abs(a - b) > 1e-12:
                    result.failures.append((n, f, p, a, b))
    return result


# --- algebra sweep -------------------------------------------------------------


def sweep_algebra(max_n: int = 40, trials: int = 300, seed: int = 1) -> SweepResult:
    """Ring axioms, division, factorization, orders, reciprocal, recurrences."""
    result = SweepResult("algebra")
    rng = np.random.default_rng(seed)

    def rand_poly(max_deg=24):
        return int(rng.integers(0, 1 << max_deg))

    for _ in range(trials):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        result.checked += 1
        ok = (
            gf2.add(a, b) == gf2.add(b, a)
            and gf2.add(a, a) == 0
            and gf2.mul(gf2.mul(a, b), c) == gf2.mul(a, gf2.mul(b, c))
            and gf2.mul(a, gf2.add(b, c)) == gf2.add(gf2.mul(a, b), gf2.mul(a, c))
        )
        if not ok:
            result.failures.append(("ring", a, b, c))
        m = rand_poly() | 1
        if m > 1:
            q, r = gf2.divmod_(a, m)
            result.checked += 1
            if gf2.add(gf2.mul(q, m), r) != a or (
                r and r.bit_length() >= m.bit_length()
            ):
                result.failures.append(("divmod", a, m))
        if a and b:
            g = gf2.gcd(a, b)
            result.checked += 1
            if gf2.rem(a, g) or gf2.rem(b, g):
                result.failures.append(("gcd", a, b))
        if a & 1 and b & 1:
            result.checked += 1
            if gf2.reciprocal(gf2.mul(a, b)) != gf2.mul(
                gf2.reciprocal(a), gf2.reciprocal(b)
            ) or gf2.reciprocal(gf2.reciprocal(a)) != a:
                result.failures.append(("reciprocal", a, b))

    for n in range(1, max_n + 1):
        factors = gf2.factor_xn1(n)
        prod = 1
        for f, mult in factors:
            for _ in range(mult):
                prod = gf2.mul(prod, f)
            result.checked += 2
            if not gf2.is_irreducible(f):
                result.failures.append(("irreducible", n, f))
            if n % gf2.order(f):
                result.failures.append(("order-divides", n, f))
        result.checked += 1
        if prod != gf2.xn1(n):
            result.failures.append(("product", n))
        divs = gf2.divisors_xn1(n)
        result.checked += 1
        expect = math.prod(m + 1 for _, m in factors)
        if len(divs) != expect or 1 not in divs or gf2.xn1(n) not in divs:
            result.failures.append(("divisors", n))

    # recurrence order equals least period, for every pattern of period <= min(15, max_n)
    for d in range(1, min(15, max_n) + 1):
        for w in range(1, 1 << d):
            bits = gf2.poly_to_bits(w, d)
            if gf2.least_period(bits) != d:
                continue
            h = gf2.lrs_minimal_polynomial(bits * max(2, (2 * d + d - 1) // d))
            result.checked += 1
            if h == 1 or gf2.order(h) != d:
                result.failures.append(("lrs-period", d, w))
    return result


# --- reconstruction sweep -------------------------------------------------------


def sweep_reconstruction(
    seeds=range(10), p: float = 0.02, blocks: int = 2000
) -> SweepResult:
    """Seed-fixed end-to-end runs: known-code recovery and coin-flip rejection."""
    result = SweepResult("reconstruction")
    code = CyclicCode(7, gf2.parse_poly("x^3+x+1"))
    hits = 0
    for seed in seeds:
        s0 = seed % 7
        cfg = StreamConfig(code, s0=s0, p=p, blocks=blocks, seed=1000 + seed)
        rep = reconstruct(generate_stream(cfg), 3, 10, p)
        result.checked += 1
        if rep.winner == (7, s0, code.g):
            hits += 1
        else:
            result.failures.append(("recover", seed, rep.winner))
    result.notes["recovered"] = hits

    rejections = 0
    for seed in seeds:
        rng = np.random.Generator(np.random.Philox(2000 + seed))
        coin = rng.integers(0, 2, size=10_000, dtype=np.uint8)
        rep = reconstruct(coin, 3, 10, p)
        result.checked += 1
        if rep.winner is None:
            rejections += 1
        else:
            result.failures.append(("coin", seed, rep.winner))
    result.notes["rejected"] = rejections
    return result


# --- suite registry -------------------------------------------------------------


def run_suite(
    name: str, n0_list=(7, 15), jobs: int | None = None
) -> list[SweepResult]:
    """Named verification suites used by the command-line front end.

    ``jobs`` is ignored: every suite runs serially.
    """
    if name == "algebra":
        return [sweep_algebra()]
    if name == "distributions":
        res = run_distribution_sweeps(n0_list=n0_list, with_noise=False)
        out = [res[k] for k in ("cross_validation", "proposition1", "theorem2", "theorem3")]
        return out + [
            sweep_lemma1(n0_list=n0_list),
            sweep_lemma2(n0_list=n0_list),
            sweep_lemma3(n0_list=n0_list),
            sweep_syndrome_basis(),
        ]
    if name == "noisy":
        res = run_distribution_sweeps(n0_list=n0_list, with_components=False)
        return [
            res[k] for k in ("noisy_uniform", "eq23_support", "theorem5_bound")
        ] + [sweep_pzero_identity()]
    if name == "bounds":
        return [sweep_sullivan(), sweep_mean_zero_coeff()]
    if name == "recon":
        return [sweep_reconstruction()]
    if name == "all":
        out = []
        for suite in ("algebra", "distributions", "noisy", "bounds", "recon"):
            out.extend(run_suite(suite, n0_list=n0_list))
        return out
    raise ValueError(f"unknown suite {name!r}")
