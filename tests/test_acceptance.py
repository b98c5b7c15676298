"""Acceptance gate: one test per criterion, each printing a PASS line.

The heavy classification/bound sweep runs once in a session fixture and
its results back the relevant criteria.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

import time

import numpy as np
import pytest

from cyclid import gf2
from cyclid.codes import CyclicCode
from cyclid.dists import (
    Boundary,
    BoundarySpan,
    DistributionClass,
    Interior,
    Truncation,
    exact_distribution,
    noisy_distribution,
    theorem1_restricted_uniform_test,
)
from cyclid.recon import mean_zero_coeff_prob_exact, root_divisibility_prob_exact
from cyclid.sweeps import (
    run_distribution_sweeps,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_mean_zero_coeff,
    sweep_reconstruction,
    sweep_sullivan,
)

def P(text):
    return gf2.parse_poly(text)


def example1_code():
    g0 = gf2.mul(gf2.mul(P("x^4+x^3+1"), P("x^4+x^3+x^2+x+1")), P("x+1"))
    return CyclicCode(15, g0)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def warm_kernels():
    # call each kernel once, so first-call costs (imports, numpy dispatch)
    # fall outside the timed criteria
    code = CyclicCode(7, P("x^3+x+1"))
    exact_distribution(Truncation(code, 5), P("x+1"))
    noisy_distribution(Truncation(code, 5), P("x+1"), 0.01)
    mean_zero_coeff_prob_exact(code, Boundary(6, 0, 1), P("x+1"), 0.0)
    code.weight_distribution()


@pytest.fixture(scope="session")
def big_sweep():
    t0 = time.perf_counter()
    res = run_distribution_sweeps(
        n0_list=(7, 15), p_list=(0.01, 0.05, 0.1), with_components=False
    )
    res["elapsed"] = time.perf_counter() - t0
    return res


def test_criterion_1_restricted_uniform_regression(warm_kernels):
    t0 = time.perf_counter()
    code = example1_code()
    f = P("x^6+x^3+1")
    dist = exact_distribution(Truncation(code, 9), f)
    elapsed = time.perf_counter() - t0
    ok = (
        int(dist.counts[dist.residues == 0][0]) == 4
        and dist.dim == 6  # exactly 4/64 = 0.0625
        and dist.zero_mass == 0.0625
        and dist.kind is DistributionClass.RESTRICTED_UNIFORM
        and theorem1_restricted_uniform_test(code, 9, f)
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"truncation 9 of the length-15 code: P[0] = {dist.zero_mass} (4/64), "
        f"class {dist.kind}, small-order-factor test true, {elapsed:.3f}s",
    )


def test_criterion_2_four_point_support(warm_kernels):
    code = CyclicCode(15, gf2.mul(P("x^4+x+1"), P("x^4+x^3+1")))
    f = P("x^4+x^3+x^2+x+1")
    spec = Truncation(code, 10)
    dist = exact_distribution(spec, f)
    ok = dist.residues.tolist() == [0b0000, 0b0100, 0b1001, 0b1101] and np.all(
        dist.counts == 32
    )
    spreads = []
    for p in (0.01, 0.05):
        noisy = noisy_distribution(spec, f, p)
        masses = [noisy.mass_at(int(r)) for r in dist.residues]
        spreads.append(max(masses) - min(masses))
    ok = ok and all(s <= 1e-12 for s in spreads)
    report(
        2,
        ok,
        "support {0, x^2, x^3+1, x^3+x^2+1} at 0.25 each; noisy masses on it "
        f"pairwise equal (spreads {spreads})",
    )


def test_criterion_3_mean_check_table(warm_kernels):
    t0 = time.perf_counter()
    code = CyclicCode(7, P("x^3+x+1"))
    block = Boundary(6, 0, 1)  # one assumed-grid bit past the boundary
    table = {
        P("x+1"): {0.0: 0.5},
        P("x^3+x+1"): {0.0: 0.8334, 0.01: 0.8076, 0.05: 0.7184},
        P("x^3+x^2+1"): {0.0: 0.5},
    }
    errs = []
    for f, rows in table.items():
        for p, expect in rows.items():
            got = mean_zero_coeff_prob_exact(code, block, f, p)
            errs.append(abs(got - expect))
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 5e-4 and elapsed < 1.0
    report(
        3,
        ok,
        f"mean zero-check values at (n=7, s=s0+1) reproduce 0.5/0.8334/0.5, "
        f"0.8076, 0.7184; max err {max(errs):.2e}, {elapsed:.3f}s",
    )


def _expected_degenerate_instances():
    # aligned multiples with f dividing g0, inside the guards
    expected = set()
    for n0 in (7, 15):
        for g0 in gf2.divisors_xn1(n0):
            code = CyclicCode(n0, g0)
            if code.is_trivial or code.is_degenerate():
                continue
            l = 1
            while l * n0 <= min(2 * n0 + 2, 24):
                if l * code.k <= 24:
                    for f in gf2.divisors_of(g0, n0):
                        if 1 <= gf2.degree(f) <= min(20, l * n0 - 1):
                            expected.add((n0, g0, l * n0, f))
                l += 1
    return expected


def test_criterion_4_cross_validation(big_sweep):
    cv = big_sweep["cross_validation"]
    prop = big_sweep["proposition1"]
    degenerate = set(cv.notes["degenerate_instances"])
    expected = _expected_degenerate_instances()
    ok = (
        cv.ok
        and prop.ok
        and cv.checked > 100_000
        and cv.checked == 121_865
        and prop.checked == 121_865
        and big_sweep["theorem2"].checked == 15_738
        and degenerate == expected
        and len(expected) == 139
        and big_sweep["elapsed"] < 600.0
    )
    report(
        4,
        ok,
        f"predict = classify on {cv.checked} instances, 0 mismatches; "
        f"degenerate exactly at the {len(expected)} aligned f|g0 instances; "
        f"no irregular; {big_sweep['elapsed']:.0f}s",
    )


def test_criterion_5_noisy_sweep(big_sweep):
    uni = big_sweep["noisy_uniform"]
    bound = big_sweep["theorem5_bound"]
    ok = (
        uni.ok
        and bound.ok
        and bound.checked > 300_000
        and uni.checked > 500
        and bound.checked == 365_178
        and uni.checked == 1_023
        and big_sweep["eq23_support"].checked == 39_672
    )
    report(
        5,
        ok,
        f"uniform preserved under noise in {uni.checked} (n, f, p) classes; "
        f"zero-syndrome bound held on {bound.checked} incorrect-parameter "
        "instances; 0 violations",
    )


def test_criterion_6_mean_check_half(warm_kernels):
    res = sweep_mean_zero_coeff(n0=15, p_list=(0.0, 0.05))
    report(
        6,
        res.ok and res.checked > 40_000,
        f"mean zero-check probability = 1/2 exactly on {res.checked} "
        "short-length instances; 0 violations",
    )


def test_criterion_7_appendix_suites(warm_kernels):
    l1 = sweep_lemma1()
    l2 = sweep_lemma2()
    l3 = sweep_lemma3()
    sul = sweep_sullivan()
    ok = l1.ok and l2.ok and l3.ok and sul.ok
    report(
        7,
        ok,
        f"counting identity ({l1.checked}), prefix/suffix alternative "
        f"({l2.checked}), degenerate-pattern equivalence ({l3.checked}), "
        f"subgroup-coset ratio ({sul.checked}): all exhaustive, 0 violations",
    )


def test_criterion_8_root_probabilities(warm_kernels):
    code = example1_code()
    block = Interior(0, 7)
    vals = {}
    for f in (P("x+1"), P("x^3+x+1")):
        vals[f] = [root_divisibility_prob_exact(code, block, f, p) for p in (0.0, 0.05)]
    ok = all(abs(v - 0.5) < 1e-12 for v in vals[P("x+1")]) and all(
        abs(v - 0.125) < 1e-12 for v in vals[P("x^3+x+1")]
    )
    report(
        8,
        ok,
        "divisibility probabilities over the 7-bit window: 0.5 for x+1 and "
        "0.125 for x^3+x+1 at every p, refuting equally-likely-roots; note: "
        "the source text prints these two values against the opposite "
        "factors, contradicting its own 1/2^deg formula; the enumeration "
        "oracle fixes the pairing used here",
    )


def test_criterion_9_end_to_end(warm_kernels):
    t0 = time.perf_counter()
    res = sweep_reconstruction(seeds=range(10), p=0.02, blocks=2000)
    elapsed = time.perf_counter() - t0
    ok = (
        res.notes["recovered"] >= 9
        and res.notes["rejected"] == 10
        and elapsed < 120.0
    )
    report(
        9,
        ok,
        f"recovered (7, s0, x^3+x+1) in {res.notes['recovered']}/10 noisy "
        f"streams; rejected 10/10 coin streams; {elapsed:.1f}s",
    )
