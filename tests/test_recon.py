import itertools
import math

import numpy as np
import pytest

from cyclid import gf2
from cyclid.codes import CyclicCode, GuardError
from cyclid.dists import Boundary, Interior
from cyclid.recon import (
    empirical_stats,
    h1_upper_bound,
    hypothesis_test,
    kl_lower_bound,
    lambda_coeff,
    mean_zero_coeff_prob_exact,
    reconstruct,
    render_report,
    root_divisibility_prob_exact,
    zero_syndrome_stat,
)
from cyclid.stream import StreamConfig, generate_stream, segment


def P(text):
    return gf2.parse_poly(text)


def hamming7():
    return CyclicCode(7, P("x^3+x+1"))


def example1_code():
    g0 = gf2.mul(gf2.mul(P("x^4+x^3+1"), P("x^4+x^3+x^2+x+1")), P("x+1"))
    return CyclicCode(15, g0)


def test_zero_syndrome_stat():
    code = hamming7()
    blocks = segment(
        generate_stream(StreamConfig(code, 0, 0.0, 40, seed=1)), 7, 0
    )
    assert zero_syndrome_stat(blocks, code.g) == 1.0
    ones = np.ones((4, 3), dtype=np.uint8)
    # 111 * 3 blocks: divisible by x+1 never (weight 3 odd)
    assert zero_syndrome_stat(ones, P("x+1")) == 0.0
    mixed = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert zero_syndrome_stat(mixed, P("x+1")) == 0.25
    with pytest.raises(ValueError):
        zero_syndrome_stat(np.empty((0, 3), dtype=np.uint8), P("x+1"))


def test_lambda_coeff():
    assert lambda_coeff(7, 3, 0.0) == 0.0
    assert lambda_coeff(7, 3, 0.5) == 1.0
    assert abs(lambda_coeff(7, 3, 0.05) - 0.25747) < 1e-5
    with pytest.raises(ValueError):
        lambda_coeff(3, 5, 0.1)


def test_h1_upper_bound():
    code = hamming7()
    assert h1_upper_bound(code, 0.0) == 0.5
    assert abs(h1_upper_bound(code, 0.5) - 2.0 ** (code.k - code.n)) < 1e-15
    assert abs(h1_upper_bound(code, 0.05) - 0.4395) < 1e-3


def test_h1_bound_strictly_below_p0():
    for n, f in [(7, P("x^3+x+1")), (9, P("x^2+x+1")), (15, P("x^4+x+1"))]:
        code = CyclicCode(n, f)
        for p in (0.01, 0.1, 0.3):
            assert h1_upper_bound(code, p) < code.p_zero_syndrome(p)


def test_kl_lower_bound():
    assert kl_lower_bound(0.7, 1.0) == 0.0
    assert kl_lower_bound(0.0, 0.3) == 0.0
    assert abs(kl_lower_bound(1.0, 0.0) - 1 / (2 * math.log(2))) < 1e-12


def test_hypothesis_test():
    code = hamming7()
    p = 0.05
    p0 = code.p_zero_syndrome(p)
    out = hypothesis_test(p0, 100, code, p)
    assert out.decision == "H0"
    assert out.bound < out.tau < out.p0
    out = hypothesis_test(out.bound, 100, code, p)
    assert out.decision == "H1"
    out = hypothesis_test(2.0**-3, 100, code, p)
    assert out.decision == "H1" and abs(out.tau - 0.569) < 1e-3
    with pytest.raises(ValueError):
        hypothesis_test(0.5, 0, code, p)


def test_table_values_mean_zero_check():
    # boundary block one bit past the true synchronization, n = n0 = 7
    code = hamming7()
    bt = Boundary(6, 0, 1)
    expect = {
        "x+1": (0.5, 0.5, 0.5),
        "x^3+x+1": (5 / 6, 0.8076, 0.7184),
        "x^3+x^2+1": (0.5, 0.5, 0.5),
    }
    for text, vals in expect.items():
        for p, v in zip((0.0, 0.01, 0.05), vals):
            got = mean_zero_coeff_prob_exact(code, bt, P(text), p)
            assert abs(got - v) < 5e-4, (text, p, got)


def test_mean_zero_check_is_half_below_true_length():
    code = example1_code()
    for n in (5, 8, 12):
        for f in (P("x+1"), P("x^2+1")):
            if gf2.rem(gf2.xn1(n), f):
                continue
            for p in (0.0, 0.05):
                assert (
                    abs(mean_zero_coeff_prob_exact(code, Interior(0, n), f, p) - 0.5)
                    < 1e-12
                )


def test_root_divisibility_example3():
    # the two roots are not equally likely: 0.5 for x+1, 0.125 for x^3+x+1
    code = example1_code()
    bt = Interior(0, 7)
    for p in (0.0, 0.01, 0.05):
        assert abs(root_divisibility_prob_exact(code, bt, P("x+1"), p) - 0.5) < 1e-12
        assert (
            abs(root_divisibility_prob_exact(code, bt, P("x^3+x+1"), p) - 0.125)
            < 1e-12
        )
    with pytest.raises(ValueError):
        root_divisibility_prob_exact(code, bt, P("x^2+1"), 0.0)


def test_root_divisibility_aligned_factor():
    code = hamming7()
    assert (
        root_divisibility_prob_exact(code, Boundary(0, 1, 0), P("x^3+x+1"), 0.0)
        == 1.0
    )


def test_empirical_stats():
    code = hamming7()
    blocks = segment(
        generate_stream(StreamConfig(code, 0, 0.0, 50, seed=4)), 7, 0
    )
    stats = empirical_stats(blocks, code.g)
    assert stats["zero_syndrome_frac"] == 1.0
    assert stats["mean_zero_coeff_frac"] == 1.0
    assert stats["divisibility_frac"] == 1.0
    one = np.array([[1, 0, 0, 1, 0, 1, 0]], dtype=np.uint8)  # syndrome 110
    stats = empirical_stats(one, P("x^3+x+1"))
    assert stats["zero_syndrome_frac"] == 0.0
    assert 0.0 < stats["mean_zero_coeff_frac"] < 1.0


def test_empirical_converges_to_exact():
    # Monte-Carlo at the boundary configuration against the exact value
    code = hamming7()
    f = P("x^3+x+1")
    exact = mean_zero_coeff_prob_exact(code, Boundary(6, 0, 1), f, 0.05)
    cfg = StreamConfig(code, s0=0, p=0.05, blocks=100_001, seed=31)
    blocks = segment(generate_stream(cfg), 7, 1)
    stats = empirical_stats(blocks, f)
    assert abs(stats["mean_zero_coeff_frac"] - exact) < 0.01
    exact_zero = root_divisibility_prob_exact(code, Boundary(6, 0, 1), f, 0.05)
    assert abs(stats["zero_syndrome_frac"] - exact_zero) < 0.01


def test_reconstruct_noise_free():
    cfg = StreamConfig(hamming7(), s0=2, p=0.0, blocks=200, seed=1)
    rep = reconstruct(generate_stream(cfg), 3, 10, 0.0)
    assert rep.winner == (7, 2, P("x^3+x+1"))
    assert rep.winner_text() == "n=7 s=2 g=1101"


def test_reconstruct_noisy():
    cfg = StreamConfig(hamming7(), s0=0, p=0.02, blocks=2000, seed=8)
    rep = reconstruct(generate_stream(cfg), 3, 10, 0.02)
    assert rep.winner == (7, 0, P("x^3+x+1"))


def test_reconstruct_coin_flip():
    rng = np.random.Generator(np.random.Philox(17))
    coin = rng.integers(0, 2, size=10_000, dtype=np.uint8)
    rep = reconstruct(coin, 3, 10, 0.02)
    assert rep.winner is None
    assert rep.winner_text() == "no code detected"


def test_reconstruct_warns_when_short():
    cfg = StreamConfig(hamming7(), s0=0, p=0.0, blocks=10, seed=1)
    rep = reconstruct(generate_stream(cfg), 3, 10, 0.0)
    assert "warning" in rep.diagnostics


def test_reconstruct_validation():
    bits = np.zeros(100, dtype=np.uint8)
    with pytest.raises(ValueError):
        reconstruct(bits, 1, 10, 0.0)
    with pytest.raises(ValueError):
        reconstruct(bits, 5, 4, 0.0)
    with pytest.raises(ValueError):
        reconstruct(bits, 3, 10, 0.0, method="magic")


def test_reconstruct_word_limit():
    rng = np.random.Generator(np.random.Philox(3))
    coin = rng.integers(0, 2, size=63 * 60, dtype=np.uint8)
    # n = 63 is the largest length a uint64 block word holds
    rep = reconstruct(coin, 63, 63, 0.02)
    assert len(rep.outcomes) == 63 * len(gf2.factor_xn1(63))
    with pytest.raises(GuardError, match="64"):
        reconstruct(coin, 3, 64, 0.02)


def test_reconstruct_wide_blocks_zero_counts(monkeypatch):
    # 57..63-bit blocks at every offset, where the packed words of two
    # neighbouring aligned blocks span up to 125 bits.  X^59+1 and X^61+1
    # are too slow to factor by trial division, so each length is tested
    # against x+1, x^d+1 for its least divisor d > 1 and (X^n+1)/(x+1).
    def factors(n):
        d = next(d for d in range(2, n + 1) if n % d == 0)
        return sorted({0b11, (1 << d) | 1, gf2.div(gf2.xn1(n), 0b11)} - {gf2.xn1(n)})

    monkeypatch.setattr("cyclid.recon._candidate_factors", factors)
    rng = np.random.Generator(np.random.Philox(9))
    bits = rng.integers(0, 2, size=63 * 12 + 40, dtype=np.uint8)
    rep = reconstruct(bits, 57, 63, 0.02)
    assert {(o.n, o.s) for o in rep.outcomes} == {(n, s) for n in range(57, 64) for s in range(n)}
    for (n, s), group in itertools.groupby(rep.outcomes, key=lambda o: (o.n, o.s)):
        polys = [gf2.poly_from_bits(row) for row in segment(bits, n, s)]
        for o in group:
            zeros = sum(gf2.rem(v, o.f) == 0 for v in polys)
            assert (o.M, o.stat) == (len(polys), zeros / len(polys))


def test_comparison_methods_rank_true_parameters():
    cfg = StreamConfig(hamming7(), s0=3, p=0.01, blocks=2000, seed=21)
    bits = generate_stream(cfg)
    fe = reconstruct(bits, 6, 8, 0.01, method="factor-entropy")
    assert fe.winner[0] == 7 and fe.winner[1] == 3
    re_ = reconstruct(bits, 6, 8, 0.01, method="root-entropy")
    assert re_.winner[0] == 7 and re_.winner[1] == 3


def test_render_report():
    import json

    cfg = StreamConfig(hamming7(), s0=1, p=0.0, blocks=100, seed=2)
    rep = reconstruct(generate_stream(cfg), 6, 8, 0.0)
    text = render_report(rep)
    assert text.splitlines()[0] == "method: zero-syndrome"
    assert text.splitlines()[-1].startswith("winner: n=7 s=1")
    machine = render_report(rep, machine=True)
    records = [json.loads(line) for line in machine.splitlines()]
    assert records[-1]["winner"] == {"n": 7, "s": 1, "g": "1101"}
    assert {"n", "s", "f", "M", "stat", "p0", "bound", "tau", "decision", "kl_lb"} <= set(
        records[0]
    )
