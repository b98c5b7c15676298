import itertools

import numpy as np
import pytest

from cyclid import dists, gf2
from cyclid.codes import CyclicCode, GuardError, span_basis
from cyclid.dists import (
    Boundary,
    BoundarySpan,
    DistributionClass,
    Interior,
    SyndromeDistribution,
    Truncation,
    _is_xor_subgroup,
    _truncated_rows,
    block_decomposition,
    build_subspace,
    classify,
    distinct_block_types,
    distribution_from_basis,
    error_residue_distribution,
    exact_distribution,
    format_distribution,
    noisy_distribution,
    predict_class,
    spec_for_block,
    theorem1_restricted_uniform_test,
)
from cyclid._kernels import subspace_elements
from cyclid.recon import root_divisibility_prob_exact
from cyclid.sweeps import _distinct_specs, nondegenerate_codes


def P(text):
    return gf2.parse_poly(text)


def example1_code():
    g0 = gf2.mul(gf2.mul(P("x^4+x^3+1"), P("x^4+x^3+x^2+x+1")), P("x+1"))
    return CyclicCode(15, g0)


def fig4_code():
    return CyclicCode(15, gf2.mul(P("x^4+x+1"), P("x^4+x^3+1")))


# --- block geometry -----------------------------------------------------------


def test_block_decomposition():
    assert block_decomposition(15, 9, 3, 3, 1) == Interior(offset=0, n=9)
    assert block_decomposition(7, 7, 1, 0, 1) == Boundary(d1=6, q=0, d2=1)
    for j in (1, 2, 5):
        assert block_decomposition(7, 14, 0, 0, j) == Boundary(d1=0, q=2, d2=0)
    with pytest.raises(ValueError):
        block_decomposition(7, 7, 7, 0, 1)
    with pytest.raises(ValueError):
        block_decomposition(7, 7, 0, 0, 0)


def test_distinct_block_types_cover_one_period():
    types = distinct_block_types(7, 3, 0, 0)
    # offsets step by gcd(3,7)=1, so every split appears
    assert Interior(offset=0, n=3) in types
    assert len(types) == 7


def test_spec_for_block():
    code = CyclicCode(7, P("x^3+x+1"))
    assert spec_for_block(code, Interior(2, 5)) == Truncation(code, 5)
    assert spec_for_block(code, Boundary(6, 0, 1)) == BoundarySpan(code, 6, 0, 1)


def test_spec_validation():
    code = CyclicCode(7, P("x^3+x+1"))
    with pytest.raises(ValueError):
        Truncation(code, 7)
    with pytest.raises(ValueError):
        Truncation(code, 0)
    with pytest.raises(ValueError):
        BoundarySpan(code, 7, 0, 1)
    with pytest.raises(ValueError):
        BoundarySpan(code, 0, 0, 0)


# --- subspace construction ------------------------------------------------------


def test_build_subspace_dimensions():
    assert len(build_subspace(Truncation(example1_code(), 9))) == 6
    for n in range(1, 7):  # n <= k0: any window is an information set
        assert len(build_subspace(Truncation(example1_code(), n))) == n
    code = CyclicCode(7, P("x^3+x+1"))
    assert len(build_subspace(BoundarySpan(code, 6, 0, 1))) == 5
    assert len(build_subspace(BoundarySpan(code, 0, 2, 0))) == 8


def test_build_subspace_guards():
    wide = CyclicCode(15, P("x+1"))
    with pytest.raises(GuardError):
        build_subspace(BoundarySpan(wide, 14, 1, 0))  # n = 29
    with pytest.raises(GuardError):
        build_subspace(BoundarySpan(CyclicCode(7, P("x^3+x+1")), 5, 3, 0))  # n = 26


def test_interior_offset_invariance():
    # every interior window of a cyclic code spans the same distribution
    from cyclid.codes import span_basis

    code = example1_code()
    f = P("x^2+x+1")
    base = exact_distribution(Truncation(code, 6), f)
    for offset in range(1, 10):
        rows = [(v >> offset) & 63 for v in code.codewords()]
        dist = distribution_from_basis(span_basis(rows), f)
        assert np.array_equal(dist.support(), base.support())
        assert np.array_equal(dist.counts, base.counts)


def _tally_by_enumeration(basis, f):
    """Brute-force reference: the residues of all 2^dim span elements, tallied."""
    elements = subspace_elements([gf2.rem(b, f) for b in basis])
    tally = np.bincount(elements, minlength=1 << (f.bit_length() - 1))
    residues = np.flatnonzero(tally)
    counts = tally[residues]
    dist = SyndromeDistribution(f, tally / float(1 << len(basis)), counts=tally)
    return residues, counts, dist.kind


def _assert_matches_enumeration(basis, f):
    dist = distribution_from_basis(basis, f)
    residues, counts, kind = _tally_by_enumeration(basis, f)
    assert dist.support().tolist() == residues.tolist()
    assert dist.counts[dist.support()].tolist() == counts.tolist()
    assert dist.dim == len(basis)
    assert dist.kind is kind


def test_elimination_matches_enumeration_n0_7():
    pairs = 0
    for n in range(2, 13):
        divisors = [f for f in gf2.divisors_xn1(n) if 1 <= f.bit_length() - 1 < n]
        for code in nondegenerate_codes(7):
            for spec in _distinct_specs(code, n):
                basis = build_subspace(spec)
                for f in divisors:
                    _assert_matches_enumeration(basis, f)
                    pairs += 1
    assert pairs > 2000


def test_elimination_with_rank_below_dim():
    f = P("x^4+x+1")
    v, w = 0b10110, 0b0011  # residues x^2 + 1 and x + 1
    cases = [
        [v, v, w],  # a repeated vector
        [v, 0, w],  # a zero vector
        [f, f << 3, gf2.mul(f, 0b101)],  # every residue collapses to 0
        [v, f << 2, v ^ gf2.mul(f, 0b11)],  # one collapses, one repeats another's residue
        [],
    ]
    for basis in cases:
        _assert_matches_enumeration(basis, f)
    dist = distribution_from_basis([v, v, w], f)
    assert dist.counts[dist.support()].tolist() == [2] * 4 and dist.zero_mass == 0.25
    zero = distribution_from_basis(cases[2], f)
    assert zero.support().tolist() == [0] and zero.counts[zero.support()].tolist() == [8]
    assert zero.kind is DistributionClass.DEGENERATE


# --- exact distributions ---------------------------------------------------------


def test_exact_distribution_restricted_example():
    dist = exact_distribution(Truncation(example1_code(), 9), P("x^6+x^3+1"))
    assert dist.zero_mass == 0.0625
    assert dist.counts[0] == 4 and dist.dim == 6  # exactly 4/64
    assert dist.kind is DistributionClass.RESTRICTED_UNIFORM


def test_exact_distribution_fig4a():
    dist = exact_distribution(Truncation(fig4_code(), 10), P("x^4+x^3+x^2+x+1"))
    assert dist.support().tolist() == [0, 0b0100, 0b1001, 0b1101]
    assert dist.probs[dist.support()].tolist() == [0.25, 0.25, 0.25, 0.25]
    assert dist.kind is DistributionClass.RESTRICTED_UNIFORM


def test_exact_distribution_uniform_when_short():
    dist = exact_distribution(Truncation(example1_code(), 6), P("x^2+x+1"))
    assert dist.kind is DistributionClass.UNIFORM
    assert dist.support().size == 4


def test_exact_distribution_validates_modulus():
    code = CyclicCode(7, P("x^3+x+1"))
    with pytest.raises(ValueError):
        exact_distribution(Truncation(code, 6), P("x^3+x+1"))  # does not divide X^6+1
    with pytest.raises(ValueError):
        exact_distribution(Truncation(code, 6), 1)
    with pytest.raises(GuardError):
        exact_distribution(
            BoundarySpan(code, 1, 3, 0),
            gf2.mul(gf2.mul(P("x+1"), gf2.factor_xn1(22)[1][0]), gf2.factor_xn1(22)[1][0]),
        )  # deg f = 21 over n = 22


def test_masses_sum_validation():
    with pytest.raises(ValueError):
        SyndromeDistribution(P("x^2+1"), [0.5, 0.4, 0.0, 0.0])


def test_law_holds_one_mass_per_residue():
    f = P("x^3+x+1")
    for masses in ([1.0], [0.25] * 4, [0.0625] * 16, np.full((2, 4), 0.125)):
        with pytest.raises(ValueError, match="one per residue"):
            SyndromeDistribution(f, masses)
    # masses set at residues given out of increasing order read back there
    probs = np.zeros(8)
    probs[[3, 0, 1, 2]] = [0.4, 0.2, 0.2, 0.2]
    law = SyndromeDistribution(f, probs)
    assert [law.mass_at(r) for r in (3, 0, 1, 2)] == [0.4, 0.2, 0.2, 0.2]
    assert law.zero_mass == 0.2 and law.support().tolist() == [0, 1, 2, 3]
    assert law.kind is DistributionClass.IRREGULAR
    for outside in (-1, 8):
        with pytest.raises(ValueError, match="not a residue"):
            law.mass_at(outside)
    # a repeated residue's masses add up: a point mass at 1
    probs = np.zeros(8)
    np.add.at(probs, [1, 1], [0.5, 0.5])
    point = SyndromeDistribution(f, probs)
    assert point.kind is DistributionClass.DEGENERATE and point.support().tolist() == [1]


def test_exact_law_counts_are_dyadic_masses():
    for spec, f in (
        (Truncation(example1_code(), 9), P("x^6+x^3+1")),
        (Truncation(fig4_code(), 10), P("x^4+x^3+x^2+x+1")),
        (BoundarySpan(example1_code(), 3, 0, 4), P("x+1")),
        (BoundarySpan(CyclicCode(7, P("x^3+x+1")), 2, 1, 5), P("x^3+x+1")),
    ):
        law = exact_distribution(spec, f)
        assert law.counts.shape == law.probs.shape == (1 << (f.bit_length() - 1),)
        assert int(law.counts.sum()) == 1 << law.dim
        assert np.array_equal(law.probs, law.counts / float(1 << law.dim))
        assert np.array_equal(law.support(), np.flatnonzero(law.counts))


# --- classification ---------------------------------------------------------------


def test_classify_basic():
    f = P("x^3+x+1")
    point = SyndromeDistribution(f, [1.0] + [0.0] * 7, counts=[8] + [0] * 7, dim=3)
    assert classify(point) is DistributionClass.DEGENERATE
    uniform = SyndromeDistribution(f, np.full(8, 0.125), counts=[1] * 8, dim=3)
    assert classify(uniform) is DistributionClass.UNIFORM
    irregular = SyndromeDistribution(f, [0.5, 0.25, 0.25, 0, 0, 0, 0, 0])
    assert classify(irregular) is DistributionClass.IRREGULAR
    # equal masses on a non-subgroup support
    crooked = SyndromeDistribution(f, [0.25, 0.25, 0.25, 0, 0.25, 0, 0, 0])
    assert classify(crooked) is DistributionClass.IRREGULAR
    subgroup = SyndromeDistribution(f, [0.25] * 4 + [0.0] * 4)
    assert classify(subgroup) is DistributionClass.RESTRICTED_UNIFORM


def test_xor_subgroup_check_exhaustive():
    # all subsets of F_2^4 containing 0 with power-of-two size
    for size in (2, 4, 8):
        for sub in itertools.combinations(range(1, 16), size - 1):
            arr = np.array((0,) + sub, dtype=np.uint64)
            s = set(arr.tolist())
            truth = all(a ^ b in s for a in s for b in s)
            assert _is_xor_subgroup(arr) == truth


# --- prediction -------------------------------------------------------------------


def test_theorem1_examples():
    code = example1_code()
    assert theorem1_restricted_uniform_test(code, 9, P("x^6+x^3+1"))
    assert not theorem1_restricted_uniform_test(code, 9, P("x^2+x+1"))
    with pytest.raises(ValueError):
        theorem1_restricted_uniform_test(code, 6, P("x^2+x+1"))  # n <= k0
    with pytest.raises(ValueError):
        theorem1_restricted_uniform_test(CyclicCode(4, P("x^2+1")), 3, P("x+1"))


def test_predict_class_examples():
    code = example1_code()
    assert (
        predict_class(code, BoundarySpan(code, 0, 1, 0), P("x+1"))
        is DistributionClass.DEGENERATE
    )
    assert (
        predict_class(code, Truncation(code, 9), P("x^6+x^3+1"))
        is DistributionClass.RESTRICTED_UNIFORM
    )
    assert (
        predict_class(code, Truncation(code, 5), P("x+1"))
        is DistributionClass.UNIFORM
    )
    # block types are accepted directly
    assert (
        predict_class(code, Interior(3, 5), P("x+1")) is DistributionClass.UNIFORM
    )


def test_predict_class_refuses_a_spec_of_another_code():
    # the rules of C(7, x^3+x+1) would call this truncation restricted;
    # its own code's law is uniform
    code = CyclicCode(7, P("x^3+x+1"))
    spec = Truncation(CyclicCode(15, P("x+1")), 9)
    f = P("x^6+x^3+1")
    assert exact_distribution(spec, f).kind is DistributionClass.UNIFORM
    with pytest.raises(ValueError):
        predict_class(code, spec, f)
    with pytest.raises(ValueError):
        predict_class(code, [Truncation(code, 6), spec], f)


def test_predict_class_list_equals_per_spec_calls():
    for n0 in (7, 15):
        for code in nondegenerate_codes(n0):
            for n in range(2, 18):
                specs = _distinct_specs(code, n)
                for f in gf2.divisors_xn1(n):
                    if not 1 <= f.bit_length() - 1 < n:
                        continue
                    one_by_one = [predict_class(code, spec, f) for spec in specs]
                    assert predict_class(code, specs, f) == one_by_one, (code, n, f)
    assert predict_class(CyclicCode(7, P("x^3+x+1")), [], P("x+1")) == []


def test_predict_class_counting_rule(monkeypatch):
    # a 6-bit suffix and a 1-bit prefix of C(7, 4): both components are
    # restricted mod the degree-6 f, and the span's dimension 4 + 1 = 5 is
    # below 6, so no rank is needed to call it restricted
    code = CyclicCode(7, P("x^3+x+1"))
    spec = BoundarySpan(code, 6, 0, 1)
    f = P("x^6+x^5+x^4+x^3+x^2+x+1")
    assert exact_distribution(spec, f).kind is DistributionClass.RESTRICTED_UNIFORM
    monkeypatch.setattr(dists, "build_subspace", None)  # the rank fallback would fail
    assert predict_class(code, spec, f) is DistributionClass.RESTRICTED_UNIFORM


def test_truncated_rows_are_independent_and_span_the_truncation():
    pairs = 0
    for n0 in (7, 9, 15, 21):
        for g in gf2.divisors_xn1(n0):
            code = CyclicCode(n0, g)
            if code.is_trivial:
                continue
            all_rows = [code.g << i for i in range(code.k)]
            for d in range(1, n0):
                for suffix in (False, True):
                    rows = _truncated_rows(code, d, suffix)
                    cut = [r >> (n0 - d) if suffix else r & ((1 << d) - 1) for r in all_rows]
                    assert len(rows) == min(code.k, d) == len(span_basis(rows))
                    assert span_basis(rows) == span_basis(cut), (code, d, suffix)
                    pairs += 1
    assert pairs > 1000


def test_predict_matches_classify_exhaustive_n0_7():
    # the full n0=7 slice of the cross-validation gate
    for g0 in gf2.divisors_xn1(7):
        code = CyclicCode(7, g0)
        if code.is_trivial or code.is_degenerate():
            continue
        for n in range(2, 17):
            specs = []
            for s in range(n):
                for bt in distinct_block_types(7, n, s, 0):
                    spec = spec_for_block(code, bt)
                    if spec not in specs:
                        specs.append(spec)
            for f in gf2.divisors_xn1(n):
                if not 1 <= gf2.degree(f) < n:
                    continue
                for spec in specs:
                    try:
                        dist = exact_distribution(spec, f)
                    except GuardError:
                        continue
                    assert dist.kind is predict_class(code, spec, f), (
                        g0,
                        n,
                        spec,
                        f,
                    )


# --- noise --------------------------------------------------------------------------


def test_error_residue_distribution():
    f = P("x^3+x+1")
    assert error_residue_distribution(7, f, 0.0).kind is DistributionClass.DEGENERATE
    half = error_residue_distribution(7, f, 0.5)
    assert half.kind is DistributionClass.UNIFORM
    code = CyclicCode(7, f)
    dp = error_residue_distribution(7, f, 0.01)
    assert abs(dp.zero_mass - code.p_zero_syndrome(0.01)) < 1e-12
    assert abs(dp.zero_mass - 0.93207) < 1e-5
    with pytest.raises(GuardError):
        error_residue_distribution(24, gf2.xn1(21) ^ 1 ^ (1 << 21), 0.01)


def test_noisy_distribution_checks_p_before_the_law():
    # deg f = 21 is over the tally guard, so a p error must come first
    spec = BoundarySpan(CyclicCode(11, P("x+1")), 0, 2, 0)
    f = gf2.div(gf2.xn1(22), P("x+1"))
    for p in (-0.1, float("nan"), 0.7):
        with pytest.raises(ValueError, match="crossover"):
            noisy_distribution(spec, f, p)
        with pytest.raises(ValueError, match="crossover"):
            error_residue_distribution(22, f, p)
    with pytest.raises(GuardError, match="deg f <= 20"):
        noisy_distribution(spec, f, 0.05)


def test_noisy_distribution_p0_is_exact():
    spec = Truncation(fig4_code(), 10)
    f = P("x^4+x^3+x^2+x+1")
    a = noisy_distribution(spec, f, 0.0)
    b = exact_distribution(spec, f)
    assert np.array_equal(a.support(), b.support())
    assert np.array_equal(a.probs, b.probs)


def test_noisy_uniform_preserved_exactly():
    code = example1_code()
    spec = Truncation(code, 6)
    f = P("x^2+x+1")
    for p in (0.01, 0.05, 0.1):
        noisy = noisy_distribution(spec, f, p)
        assert noisy.kind is DistributionClass.UNIFORM
        assert float(noisy.probs.max()) == float(noisy.probs.min())


def test_noisy_fig4b_support_equalities():
    # noisy masses on the noise-free support are pairwise equal; the full
    # noisy distribution is neither uniform nor restricted uniform
    spec = Truncation(fig4_code(), 10)
    f = P("x^4+x^3+x^2+x+1")
    base = exact_distribution(spec, f)
    for p in (0.01, 0.05):
        noisy = noisy_distribution(spec, f, p)
        masses = [noisy.mass_at(int(r)) for r in base.support()]
        assert max(masses) - min(masses) <= 1e-12
        assert noisy.kind is DistributionClass.IRREGULAR


def test_root_divisibility_matches_noisy_zero_mass():
    # the mean of the error law over the image against the zero mass of the
    # convolved law: every row of n0 = 7, rows 14 and 16 of n0 = 15
    for n0, rows in ((7, range(2, 17)), (15, (14, 16))):
        codes = nondegenerate_codes(n0)
        for n in rows:
            for f, _ in gf2.factor_xn1(n):
                for code in codes:
                    for spec in _distinct_specs(code, n):
                        for p in (0.0, 0.01, 0.05, 0.3):
                            got = root_divisibility_prob_exact(code, spec, f, p)
                            want = noisy_distribution(spec, f, p).zero_mass
                            assert abs(got - want) <= 1e-15, (spec, f, p)


def test_format_distribution():
    dist = exact_distribution(Truncation(fig4_code(), 10), P("x^4+x^3+x^2+x+1"))
    text = format_distribution(dist)
    lines = text.splitlines()
    assert lines[0] == "0000 0.25"
    assert lines[-1] == "class=RestrictedUniform"
    assert len(lines) == 5
