from functools import partial

import numpy as np
import pytest

from cyclid import dists, gf2, sweeps
from cyclid.codes import span_basis
from cyclid.dists import DistributionClass, _error_dp_cached, distribution_from_basis
from cyclid.recon import mean_zero_coeff_prob_exact
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
    # the benchmark's sweep rows, counting the residue images they decide
    decided = []
    decide = sweeps._decide_images
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            sweeps, "_decide_images", lambda images, *a: decided.append(len(images)) or decide(images, *a)
        )
        res = run_distribution_sweeps(
            n0_list=(7, 15), p_list=(0.01, 0.05, 0.1), with_components=False, n_range=(16, 17)
        )
    return res, sum(decided)


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
    images = []
    check_noisy = sweeps._check_noisy
    monkeypatch.setattr(
        sweeps, "_check_noisy", lambda *a: images.append(len(a[5])) or check_noisy(*a)
    )
    counts = []
    for with_components in (False, True):
        images.clear()
        run_distribution_sweeps(n0_list=(7,), with_components=with_components, n_range=(8, 12))
        counts.append(sum(images))
    assert counts == [426, 426]


def _per_image_record(image, f, noise):
    """(class, per-p (zero mass, eq-23 spread)) of one image, from its law."""
    dist = distribution_from_basis(list(image), f)
    sup = dist.support()
    masses = dist.probs[sup]
    eq23 = dist.kind is DistributionClass.RESTRICTED_UNIFORM and sup.size <= 256
    figures = [
        (
            float(np.dot(masses, dense[sup])),
            float(np.ptp(masses @ dense[np.bitwise_xor.outer(sup, sup)])) if eq23 else None,
        )
        for dense, _ in noise.values()
    ]
    return dist.kind, figures


def _assert_records_match(records, f, noise):
    for image, (kind, figures) in records.items():
        want_kind, want = _per_image_record(image, f, noise)
        assert kind is want_kind, (image, f)
        for (zero, spread), (want_zero, want_spread) in zip(figures, want):
            assert abs(zero - want_zero) <= 1e-12
            assert (spread is None) is (want_spread is None)
            if spread is not None:
                assert abs(spread - want_spread) <= 1e-12


def test_batched_records_equal_per_image_ones(monkeypatch):
    # every distinct image of n0 = 7 on rows 2..16, with noise: the batched
    # class, zero mass and eq-23 spread against each image's own law
    decide = sweeps._decide_images
    seen = []  # (f, records) of the spec images of one row

    def spy(images, f, *args):
        seen.append((f, decide(images, f, *args)))
        return seen[-1][1]

    monkeypatch.setattr(sweeps, "_decide_images", spy)
    p_list = (0.01, 0.05, 0.1)
    decided = 0
    for n in range(2, 17):
        seen.clear()
        res = _sweep_n_row(n, (7,), p_list, True, False)
        assert all(r.ok for r in res.values())
        for f, records in seen:
            decided += len(records)
            noise = {p: (_error_dp_cached(n, f, p), None) for p in p_list}
            _assert_records_match(records, f, noise)
    assert decided > 1000


def test_span_classes_sort_rows_and_flag_repeats():
    # rows from an unreduced basis come out of order and are sorted in place;
    # a repeated element (a dependent basis) or a non-subgroup is irregular
    span = np.array([[0, 3, 1, 2], [0, 1, 1, 0], [0, 1, 2, 4]])
    kinds = sweeps._span_classes(span, 3)
    assert kinds == [
        DistributionClass.RESTRICTED_UNIFORM,
        DistributionClass.IRREGULAR,
        DistributionClass.IRREGULAR,
    ]
    assert span.tolist() == [[0, 1, 2, 3], [0, 0, 1, 1], [0, 1, 2, 4]]
    assert sweeps._span_classes(np.array([[0, 3, 1, 2]]), 2) == [DistributionClass.UNIFORM]
    assert sweeps._span_classes(np.zeros((2, 1)), 2) == [DistributionClass.DEGENERATE] * 2


def test_rank_group_over_several_chunks():
    # 300 distinct rank-8 images hold 300 * 256 span elements, more than one
    # batch: every batch must give the same records as the per-image route
    n, f = 13, gf2.div(gf2.xn1(13), 0b11)  # the degree-12 factor of X^13+1
    rand = np.random.default_rng(5)
    images = set()
    while len(images) < 300:
        image = tuple(span_basis(rand.integers(0, 1 << 12, size=8).tolist()))
        if len(image) == 8:
            images.add(image)
    images = sorted(images)
    assert len(images) << 8 > sweeps._SPAN_CHUNK
    noise = {p: (_error_dp_cached(n, f, p), 1.0) for p in (0.01, 0.1)}
    res = {"noisy_uniform": sweeps.SweepResult("noisy_uniform")}
    check_noisy = partial(sweeps._check_noisy, res, n, noise, set())
    records = sweeps._decide_images(images, f, check_noisy)
    assert list(records) == images
    assert {kind for kind, _ in records.values()} == {DistributionClass.RESTRICTED_UNIFORM}
    _assert_records_match(records, f, noise)


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


def test_mean_check_for_all_p_equals_scalar_calls():
    # one enumeration for every p gives bit-identical values to a call per p
    ps = (0.0, 0.01, 0.05)
    for code in nondegenerate_codes(9):
        for n in range(2, 9):
            for f in gf2.divisors_xn1(n):
                if not 1 <= f.bit_length() - 1 < n:
                    continue
                for spec in sweeps._distinct_specs(code, n):
                    scalar = [mean_zero_coeff_prob_exact(code, spec, f, p) for p in ps]
                    assert all(type(v) is float for v in scalar)
                    assert mean_zero_coeff_prob_exact(code, spec, f, ps) == scalar


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
    res = sweep_algebra()  # the defaults behind `verify --suite algebra`
    assert res.ok and res.checked == 66_472


def test_algebra_suite_recurrences_follow_max_n():
    # patterns of period <= max_n only, so small arguments give a small suite
    res = sweep_algebra(max_n=8, trials=10)
    assert res.ok and res.checked == 545


def test_distinct_specs_equal_every_offset_and_block():
    for n0 in (7, 9, 15):
        for code in nondegenerate_codes(n0):
            for n in range(2, 2 * n0 + 3):
                every = {
                    dists.spec_for_block(code, bt)
                    for s in range(n)
                    for bt in dists.distinct_block_types(n0, n, s, 0)
                }
                specs = sweeps._distinct_specs(code, n)
                assert len(specs) == len(set(specs)) and set(specs) == every, (code, n)


def test_run_suite_registry():
    results = run_suite("recon")
    assert results[0].name == "reconstruction"
    with pytest.raises(ValueError):
        run_suite("bogus")
