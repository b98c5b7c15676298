import hashlib
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


def test_mean_zero_check_refuses_p_outside_range():
    # formerly 1.1912, 0.5085 and 5.83 came back for these
    for p in (-0.1, 0.7, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1/2\]"):
            mean_zero_coeff_prob_exact(hamming7(), Boundary(6, 0, 1), P("x^3+x+1"), p)


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


def _pinned_streams():
    h7 = hamming7()
    bch15 = CyclicCode(15, gf2.mul(P("x^4+x+1"), P("x^4+x^3+x^2+x+1")))
    coin = np.random.Generator(np.random.Philox(17)).integers(0, 2, size=3000, dtype=np.uint8)
    return {
        "hamming7_noisy": (generate_stream(StreamConfig(h7, 2, 0.02, 400, seed=8)), 3, 10, 0.02),
        "hamming7_p0": (generate_stream(StreamConfig(h7, 1, 0.0, 150, seed=2)), 3, 9, 0.0),
        # 6 blocks at n = 10: warns, and several lengths accept
        "hamming7_short": (generate_stream(StreamConfig(h7, 0, 0.02, 10, seed=1)), 3, 10, 0.02),
        "bch15_noisy": (generate_stream(StreamConfig(bch15, 4, 0.01, 200, seed=5)), 12, 16, 0.01),
        "coin": (coin, 3, 9, 0.02),
    }


# SHA-256 of render_report(text), render_report(machine=True) per (stream, method)
_PINNED_REPORTS = {
    ("hamming7_noisy", "zero-syndrome"): (
        "a8cd8df27590fb43e36244ef6a44be623e444d0da6abfda0fb8a318a3811d3c3",
        "c342f1caf1bbe90d1db83f44ee4da1d486d4921969203df68a7b49e8782c630e",
    ),
    ("hamming7_noisy", "factor-entropy"): (
        "e5ad15a6ad00b22eb4782dcb060652c6f7b9ebc72a2fdf30dc11d20fc846be0c",
        "db93aae8b2b6d35387c7210183306b4635de6bef54d991818a1710e3502a3b86",
    ),
    ("hamming7_noisy", "root-entropy"): (
        "9a8910dcd9b931cff23f5a7db6e1245994da623b25f1f268b6dcba8617561039",
        "0daf6736278463347d209be660d81c7a489bb94e2a53e9ad981a35c16e52e1ea",
    ),
    ("hamming7_p0", "zero-syndrome"): (
        "2c5ff8055d4cd6cb6d10366e886a4a697f4223339b87a8b55fa47159e98773c5",
        "f0e7e7458634a4cf11799b8bd94082dd94a5804bb58e53a53a72a532a737eb59",
    ),
    ("hamming7_p0", "factor-entropy"): (
        "a5a017bfb53add23401c814b3332ddeafb593e2c2a4aa35cf6fa5143c5075193",
        "bf9b896eb18c4fd82aa4346addd81163f4db2c847808099dae4585378f5b4547",
    ),
    ("hamming7_p0", "root-entropy"): (
        "76cebdaba3205a194de8bbbee7db1e98fbcdb6e0875ddaed21da0a8028abca1d",
        "4eb42cbd0e0a065d355832ef6452f1d1b13d4e46b8a91a8cd2e8cbc3855dc3db",
    ),
    ("hamming7_short", "zero-syndrome"): (
        "e10818d433b9c369a900e56e219bf8da1ed5fb216b4e2d64d48772a1bc63d545",
        "3c9480e8afe1983f68752788b32df15eb3205c96f707c798931226b3298c01d0",
    ),
    ("hamming7_short", "factor-entropy"): (
        "9ee0028f04cb0d2fb7757eef31c59b6050e21836d40e7c602f08350e28d0c9f8",
        "d2a3c82887d88b05c03c2bda962e1500c1411bff57d46021fcf63685fc83a1d4",
    ),
    ("hamming7_short", "root-entropy"): (
        "5bf5a2c1b274e526106702e726577c862c3e0a8e32b6021bfcd672dc333f4967",
        "24c88e6429ab0432cc39f91f8b5f6bbdd1e8dcc831cfbdd33858530e9d01e908",
    ),
    ("bch15_noisy", "zero-syndrome"): (
        "50a710cbbea7518e2787cc68e5365b905053fabb244046addb2f7d35d7fdd2ef",
        "2b565aa5461c4bd4ce0b257dfa6619e3d12cdf07d3fa445fd85349a58762af15",
    ),
    ("bch15_noisy", "factor-entropy"): (
        "f1ad83f2d3ca5915f347c69938cd61b016ddea1ba40dd7a3569144da56b48da8",
        "eea83e3efc92acb258edbf2d356d9f89cd4a717370cd63096d555af0d7aed5b3",
    ),
    ("bch15_noisy", "root-entropy"): (
        "8286a70d4b6eba6891415dd644a50b064b0d88807cfed3e1561e1c5754cfed90",
        "79fa564013b0591055e6b0ad47b3326e6c16548beb435cc37f7385b0914924cf",
    ),
    ("coin", "zero-syndrome"): (
        "8daa62e47b1e638f4ace2370c98fd8724272310abaafb6ab4412f8cf14559045",
        "cd85007e7d459ddf050c41eec8018e62240839921f0f50dbb13b34d9184b075f",
    ),
    ("coin", "factor-entropy"): (
        "32dee3e9aa939c811a8f72e8965c364e0d0f9b9bcb6d99b1d1cdd3430128a67c",
        "3debd366e435228a235bcdc14f15c47bf6faabdd21caee7b6d5b7dbafe1d244b",
    ),
    ("coin", "root-entropy"): (
        "9fc44dc061e79fabab63b05d66b5b88b9143a92eca8f9cd3db7e20e26995c847",
        "73832bd4e1348b68b12bb000d2d7c31e4343f1dc67c4dc46bb06bd418e67ed27",
    ),
}


def test_reports_pinned_for_every_method():
    for name, (bits, lo, hi, p) in _pinned_streams().items():
        for method in ("zero-syndrome", "factor-entropy", "root-entropy"):
            rep = reconstruct(bits, lo, hi, p, method=method)
            got = tuple(
                hashlib.sha256(render_report(rep, machine=m).encode()).hexdigest()
                for m in (False, True)
            )
            assert got == _PINNED_REPORTS[(name, method)], (name, method)
