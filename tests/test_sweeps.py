import pytest

from cyclid import dists, gf2, sweeps
from cyclid.dists import _error_dp_cached
from cyclid.sweeps import (
    _sweep_n_row,
    nondegenerate_codes,
    run_distribution_sweeps,
    run_suite,
    sweep_algebra,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_pzero_identity,
    sweep_sullivan,
    sweep_syndrome_basis,
)


def test_nondegenerate_codes():
    codes7 = nondegenerate_codes(7)
    assert all(not c.is_trivial and not c.is_degenerate() for c in codes7)
    # 6 nontrivial divisors, minus the k=1 repetition code (degenerate)
    assert len(codes7) == 5
    assert any(c.g == gf2.parse_poly("x^3+x+1") for c in codes7)


@pytest.fixture(scope="module")
def n0_7_sweeps():
    return run_distribution_sweeps(n0_list=(7,))


def test_cross_validation_n0_7(n0_7_sweeps):
    res = n0_7_sweeps["cross_validation"]
    assert res.ok and res.checked == 4665
    assert len(res.notes["degenerate_instances"]) == 18


def test_proposition1_n0_7(n0_7_sweeps):
    assert n0_7_sweeps["proposition1"].ok


def test_theorem2_uniformity_propagates(n0_7_sweeps):
    res = n0_7_sweeps["theorem2"]
    assert res.ok and res.checked == 219


def test_theorem3_component_rule(n0_7_sweeps):
    # the rank-corrected composite rule holds everywhere; the literal
    # "any restricted component forces a restricted sum" reading is
    # violated whenever the component subgroups sum to the full space,
    # which happens often (first at n=8 spans with f = x^2+1)
    res = n0_7_sweeps["theorem3"]
    assert res.ok and res.checked == 4590
    assert res.notes["literal_converse_violations"] == 2238


def test_noisy_checks_n0_7(n0_7_sweeps):
    totals = {"noisy_uniform": 414, "theorem5_bound": 13_941, "eq23_support": 3_813}
    for name, checked in totals.items():
        assert n0_7_sweeps[name].ok
        assert n0_7_sweeps[name].checked == checked


@pytest.fixture(scope="module")
def rows_16_17():
    # the benchmark's sweep rows, counting the distributions they build
    builds = []
    build = sweeps.distribution_from_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweeps, "distribution_from_basis", lambda *a: builds.append(1) or build(*a))
        res = run_distribution_sweeps(
            n0_list=(7, 15), p_list=(0.01, 0.05, 0.1), with_components=False, n_range=(16, 17)
        )
    return res, len(builds)


def test_rows_16_17_totals(rows_16_17):
    res, _ = rows_16_17
    totals = {
        "cross_validation": 8400,
        "proposition1": 8400,
        "theorem2": 0,
        "theorem3": 0,
        "noisy_uniform": 63,
        "theorem5_bound": 25200,
        "eq23_support": 3033,
    }
    assert {name: r.checked for name, r in res.items()} == totals
    assert all(r.ok for r in res.values())


def test_rows_16_17_build_each_image_once(rows_16_17):
    # the 8400 instances have 1410 distinct (n, n0, f, residue image)
    assert rows_16_17[1] == 1410


def test_components_add_no_noisy_work(monkeypatch):
    # noisy figures are computed once per distinct spec image of an (n0, f);
    # component images are classified but never get noisy figures
    calls = []
    check_noisy = sweeps._check_noisy
    monkeypatch.setattr(sweeps, "_check_noisy", lambda *a: calls.append(1) or check_noisy(*a))
    counts = []
    for with_components in (False, True):
        calls.clear()
        run_distribution_sweeps(n0_list=(7,), with_components=with_components, n_range=(8, 12))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_guarded_row_builds_no_error_dp():
    # at n = 30 every spec of n0 = 15 is over the block-length guard and
    # n0 = 7 is out of range, so the row must not build an error DP
    misses = _error_dp_cached.cache_info().misses
    res = _sweep_n_row(30, (7, 15), (0.01,), True, False)
    assert _error_dp_cached.cache_info().misses == misses
    assert all(r.checked == 0 for r in res.values())


def test_row_shared_by_two_n0_builds_each_error_dp_once(monkeypatch):
    # row 16 serves n0 = 7 and n0 = 15; X^16+1 = (x+1)^16 has 15 divisors
    # with 1 <= deg f < 16, so the row needs 15 * 3 error DPs, more than the
    # DP memo holds: the n0 loop must sit inside the f loop to build each once
    builds = []
    dp = dists.bsc_residue_dp
    monkeypatch.setattr(dists, "bsc_residue_dp", lambda *a: builds.append(1) or dp(*a))
    _error_dp_cached.cache_clear()
    res = _sweep_n_row(16, (7, 15), (0.01, 0.05, 0.1), True, False)
    assert len(builds) == 15 * 3
    assert res["theorem5_bound"].checked > 0 and all(r.ok for r in res.values())


def test_lemma_suites_small():
    assert sweep_lemma1(n0_list=(7,), trials=50).ok
    assert sweep_lemma2(n0_list=(7,)).ok
    assert sweep_lemma3(n0_list=(7,)).ok


def test_sullivan_small():
    res = sweep_sullivan(n_lo=4, n_hi=8)
    assert res.ok and res.checked >= 50


def test_syndrome_basis_span():
    assert sweep_syndrome_basis(4, 12).ok


def test_pzero_identity():
    assert sweep_pzero_identity(2, 12).ok


def test_algebra_suite():
    res = sweep_algebra(max_n=24, trials=100)
    assert res.ok


def test_run_suite_registry():
    results = run_suite("recon")
    assert results[0].name == "reconstruction"
    with pytest.raises(ValueError):
        run_suite("bogus")
