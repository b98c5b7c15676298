import numpy as np
import pytest

from cyclid import gf2
from cyclid.codes import CyclicCode
from cyclid.stream import (
    StreamConfig,
    blocks_to_polys,
    generate_stream,
    load_stream,
    save_stream,
    save_stream_metadata,
    segment,
)


def P(text):
    return gf2.parse_poly(text)


def hamming7():
    return CyclicCode(7, P("x^3+x+1"))


def test_config_validation():
    code = hamming7()
    with pytest.raises(ValueError):
        StreamConfig(CyclicCode(7, 1), 0, 0.0, 10, 0)  # trivial
    with pytest.raises(ValueError):
        StreamConfig(CyclicCode(4, P("x^2+1")), 0, 0.0, 10, 0)  # degenerate
    with pytest.raises(ValueError):
        StreamConfig(code, 7, 0.0, 10, 0)
    with pytest.raises(ValueError):
        StreamConfig(code, 0, 0.5, 10, 0)
    with pytest.raises(ValueError):
        StreamConfig(code, 0, 0.0, 0, 0)


def test_determinism():
    cfg = StreamConfig(hamming7(), s0=3, p=0.1, blocks=50, seed=99)
    a = generate_stream(cfg)
    b = generate_stream(cfg)
    assert np.array_equal(a, b)
    assert a.size == 3 + 50 * 7


def test_noise_free_blocks_are_codewords():
    code = hamming7()
    words = set(code.codewords())
    for seed in range(5):
        cfg = StreamConfig(code, s0=0, p=0.0, blocks=20, seed=seed)
        blocks = segment(generate_stream(cfg), 7, 0)
        for v in blocks_to_polys(blocks).tolist():
            assert v in words
            assert gf2.rem(v, code.g) == 0


def test_blocks_to_polys_matches_poly_from_bits():
    rng = np.random.default_rng(7)
    for n in (1, 7, 8, 9, 63):
        blocks = rng.integers(0, 2, size=(50, n), dtype=np.uint8)
        blocks[0] = 1
        blocks[1] = 0
        polys = blocks_to_polys(blocks)
        assert polys.dtype == np.uint64
        assert polys.tolist() == [gf2.poly_from_bits(row) for row in blocks]
    empty = blocks_to_polys(np.empty((0, 7), dtype=np.uint8))
    assert empty.dtype == np.uint64 and empty.size == 0
    with pytest.raises(ValueError):
        blocks_to_polys(np.zeros((2, 64), dtype=np.uint8))


def test_messages_independent_of_noise():
    # same seed, different p: noise-free words underneath are identical
    code = hamming7()
    clean = generate_stream(StreamConfig(code, s0=0, p=0.0, blocks=30, seed=5))
    noisy = generate_stream(StreamConfig(code, s0=0, p=0.1, blocks=30, seed=5))
    # flipping positions differ but the codeword skeleton is the same:
    # every noisy block must be closer to its own clean block than to
    # a fresh draw would make plausible; verify via syndrome of the
    # difference being the syndrome of the noise alone
    diff_rate = float(np.mean(clean != noisy))
    assert 0.05 < diff_rate < 0.16


def test_head_is_suffix_of_extra_word():
    code = hamming7()
    tail = generate_stream(StreamConfig(code, s0=0, p=0.0, blocks=10, seed=3))
    full = generate_stream(StreamConfig(code, s0=3, p=0.0, blocks=10, seed=3))
    assert full.size == tail.size + 3
    assert np.array_equal(full[3:], tail)


def test_flip_rate_binomial_window():
    code = hamming7()
    m = 1_000_000 // 7 + 1
    clean = generate_stream(StreamConfig(code, s0=0, p=0.0, blocks=m, seed=11))
    noisy = generate_stream(StreamConfig(code, s0=0, p=0.1, blocks=m, seed=11))
    rate = float(np.mean(clean != noisy))
    assert abs(rate - 0.1) < 0.002


def test_zero_syndrome_stat_is_one_at_true_parameters():
    from cyclid.recon import zero_syndrome_stat

    code = hamming7()
    cfg = StreamConfig(code, s0=4, p=0.0, blocks=100, seed=2)
    blocks = segment(generate_stream(cfg), 7, 4)
    assert zero_syndrome_stat(blocks, code.g) == 1.0


def test_segment():
    bits = np.arange(20) % 2
    blocks = segment(bits, 7, 1)
    assert blocks.shape == (2, 7)
    assert np.array_equal(np.concatenate([blocks[0], blocks[1]]), bits[1:15])
    assert segment(bits, 25, 0).shape == (0, 25)
    with pytest.raises(ValueError):
        segment(bits, 7, 7)


def test_stream_files(tmp_path):
    path = tmp_path / "stream.txt"
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    save_stream(path, bits)
    assert path.read_text() == "10110\n"
    assert np.array_equal(load_stream(path), bits)
    cfg = StreamConfig(hamming7(), s0=2, p=0.0, blocks=3, seed=1)
    save_stream_metadata(path, cfg)
    meta = (tmp_path / "stream.txt.meta.json").read_text()
    assert '"n0": 7' in meta and '"seed": 1' in meta
    bad = tmp_path / "bad.txt"
    bad.write_text("10x01\n")
    with pytest.raises(ValueError):
        load_stream(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_stream(empty)
