import json
import shlex
from pathlib import Path

import pytest

from cyclid import sweeps
from cyclid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "--n", "7")
    assert code == 0
    assert "1101 (x^3+x+1) x1" in out
    assert "divisors: 8" in out
    code, out, _ = run(capsys, "factor", "--n", "4")
    assert "11 (x+1) x4" in out
    code, out, _ = run(capsys, "factor", "--n", "1")
    assert "11 (x+1) x1" in out
    # X^61+1 = (x+1) * Phi_61, irreducible since 2 is primitive mod 61
    code, out, _ = run(capsys, "factor", "--n", "61")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[0] == "11 (x+1) x1"
    assert lines[1].startswith("1" * 61 + " (x^60+x^59+") and lines[1].endswith(" x1")
    assert lines[2] == "divisors: 4"


def test_dist_restricted_example(capsys):
    code, out, _ = run(
        capsys,
        "dist",
        "--n0", "15",
        "--g0", "x4+x3+1,x4+x3+x2+x+1,x+1",
        "--trunc", "9",
        "--f", "x6+x3+1",
    )
    assert code == 0
    assert "000000 0.0625" in out
    assert "class=RestrictedUniform" in out
    assert "AGREE" in out


def test_dist_fig4a(capsys):
    code, out, _ = run(
        capsys,
        "dist",
        "--n0", "15",
        "--g0", "x4+x+1,x4+x3+1",
        "--trunc", "10",
        "--f", "x4+x3+x2+x+1",
    )
    support = [line for line in out.splitlines() if line.endswith("0.25")]
    assert len(support) == 4


def test_dist_noisy_output_pinned(capsys):
    # the README's noisy example, byte for byte
    code, out, _ = run(
        capsys,
        "dist",
        "--n0", "7", "--g0", "x3+x+1",
        "--d1", "6", "--q", "0", "--d2", "1",
        "--f", "x3+x+1", "--p", "0.05",
    )
    assert code == 0
    assert out == (
        "000 0.3710375\n"
        "100 0.0429875\n"
        "010 0.0429875\n"
        "110 0.0429875\n"
        "001 0.0429875\n"
        "101 0.3710375\n"
        "011 0.0429875\n"
        "111 0.0429875\n"
        "class=Irregular\n"
        "predicted=RestrictedUniform classified=RestrictedUniform AGREE\n"
    )


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every line of the README's CLI block, in order, so `gen` writes the
    # stream `reconstruct` reads; the full verification is left to the
    # acceptance tests
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cyclid ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        if line == "cyclid verify --suite all":
            continue
        assert run(capsys, *shlex.split(line)[1:])[0] == 0, line


def test_dist_noisy_matches_noise_free_at_p0(capsys):
    args = [
        "dist",
        "--n0", "15",
        "--g0", "x4+x+1,x4+x3+1",
        "--trunc", "10",
        "--f", "x4+x3+x2+x+1",
    ]
    _, clean, _ = run(capsys, *args)
    _, with_p0, _ = run(capsys, *args, "--p", "0")
    assert clean == with_p0


def test_dist_refuses_p_outside_range(capsys):
    args = ["dist", "--n0", "7", "--g0", "x3+x+1", "--trunc", "6", "--f", "x+1"]
    for p in ("-0.1", "nan", "0.7"):
        code, out, err = run(capsys, *args, "--p", p)
        assert code == 1, p
        assert "[0, 1/2]" in err and out == ""


def test_gen_and_reconstruct_roundtrip(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    code, out, _ = run(
        capsys,
        "gen",
        "--n0", "7", "--g0", "x3+x+1", "--s0", "2", "--p", "0",
        "--blocks", "3", "--seed", "1", "--out", str(stream),
    )
    assert code == 0
    text = stream.read_text()
    assert len(text.strip()) == 2 + 3 * 7
    assert (tmp_path / "s.txt.meta.json").exists()
    # regeneration is byte-identical
    run(
        capsys,
        "gen",
        "--n0", "7", "--g0", "x3+x+1", "--s0", "2", "--p", "0",
        "--blocks", "3", "--seed", "1", "--out", str(tmp_path / "s2.txt"),
    )
    assert (tmp_path / "s2.txt").read_text() == text

    big = tmp_path / "big.txt"
    run(
        capsys,
        "gen",
        "--n0", "7", "--g0", "x3+x+1", "--s0", "2", "--p", "0",
        "--blocks", "200", "--seed", "1", "--out", str(big),
    )
    code, out, _ = run(
        capsys,
        "reconstruct",
        "--in", str(big),
        "--n-min", "3", "--n-max", "10", "--p", "0",
    )
    assert code == 0
    assert out.splitlines()[-1] == "winner: n=7 s=2 g=1101"


def test_reconstruct_no_code_exit(tmp_path, capsys):
    import numpy as np

    coin = tmp_path / "coin.txt"
    rng = np.random.Generator(np.random.Philox(5))
    coin.write_text("".join(map(str, rng.integers(0, 2, 10_000).tolist())) + "\n")
    code, out, _ = run(
        capsys, "reconstruct", "--in", str(coin), "--n-min", "3", "--n-max", "10"
    )
    assert code == 2
    assert "no code detected" in out


def test_reconstruct_at_n58_completes(tmp_path, capsys):
    import numpy as np

    coin = tmp_path / "coin.txt"
    rng = np.random.Generator(np.random.Philox(58))
    coin.write_text("".join(map(str, rng.integers(0, 2, 3000).tolist())) + "\n")
    code, _, err = run(
        capsys, "reconstruct", "--in", str(coin), "--n-min", "58", "--n-max", "58"
    )
    assert code in (0, 2), err


def test_reconstruct_refuses_p_outside_range(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    run(
        capsys,
        "gen",
        "--n0", "7", "--g0", "x3+x+1", "--s0", "0", "--p", "0",
        "--blocks", "100", "--seed", "3", "--out", str(stream),
    )
    code, out, err = run(
        capsys,
        "reconstruct",
        "--in", str(stream),
        "--n-min", "3", "--n-max", "8", "--p", "0.7", "--method", "root-entropy",
    )
    assert code == 1
    assert "[0, 1/2]" in err and out == ""


def test_reconstruct_machine_output(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    run(
        capsys,
        "gen",
        "--n0", "7", "--g0", "x3+x+1", "--s0", "0", "--p", "0",
        "--blocks", "100", "--seed", "3", "--out", str(stream),
    )
    code, out, _ = run(
        capsys,
        "reconstruct",
        "--in", str(stream),
        "--n-min", "6", "--n-max", "8", "--machine",
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["winner"]["n"] == 7
    assert all("decision" in r for r in records[:-1])


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["factor"])  # missing --n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    # malformed stream file surfaces as a usage-class error
    bad = tmp_path / "bad.txt"
    bad.write_text("012")
    assert main(["reconstruct", "--in", str(bad), "--n-max", "5"]) == 1
    # reconstruct runs serially and has no --jobs
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--in", str(bad), "--n-max", "5", "--jobs", "2"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_guard_error_reports_offending_size(capsys):
    code, out, err = run(
        capsys,
        "dist",
        "--n0", "15", "--g0", "x+1",
        "--d1", "14", "--q", "1", "--d2", "0",
        "--f", "x+1",
    )
    assert code == 1
    assert "29" in err  # the offending block length


def test_verify_algebra(capsys, monkeypatch):
    # the wiring only: test_sweeps.py runs the default algebra sweep, whose
    # loop over every pattern of period <= 15 takes seconds whatever its arguments
    result = sweeps.SweepResult("algebra", checked=5)
    monkeypatch.setattr(sweeps, "sweep_algebra", lambda: result)
    code, out, _ = run(capsys, "verify", "--suite", "algebra")
    assert code == 0
    assert "algebra: checked 5, ok" in out
    result.failures.append(("ring", 1, 2, 3))
    code, out, _ = run(capsys, "verify", "--suite", "algebra")
    assert code == 3
    assert "algebra: checked 5, 1 FAILURES" in out and "failure: ('ring', 1, 2, 3)" in out
    for argv in (["--suite", "nope"], ["--suite", "algebra", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 1


def test_dist_guards_are_fixed(capsys):
    # the block-length guard is a constant: the query is refused, naming n = 26
    argv = [
        "dist", "--n0", "7", "--g0", "x3+x+1",
        "--d1", "5", "--q", "3", "--d2", "0", "--f", "x+1",
    ]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "26" in err
    # and no flag raises it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--guard-n", "63"])
    assert exc.value.code == 1
    capsys.readouterr()
