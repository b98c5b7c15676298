"""The benchmark's workloads: inputs made from a seed, the calls a pass times,
and the exact outputs those calls must give.

Each workload is prepared once per pass.  Preparation is the set-up a user
pays before the first timed call (stream generation and writing the capture
files); the steps it returns are the timed calls, each ending in its output
check.  The expected winners and sweep totals are constants taken from the
commit the benchmark was defined on; they are never read back from the code
under test.

Every library call goes through a module attribute (``recon.reconstruct``,
``stream.load_stream``, ...) so that the traced run, which replaces those
attributes, sees it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cyclid import gf2, recon, stream, sweeps
from cyclid.codes import CyclicCode

JOBS = 2  # sweep thread pool size: the target workstation has 2 cores


@dataclass(frozen=True)
class Outcome:
    """One checked output: `work` feeds checks_per_s, `digest` is compared
    across passes and between traced and untraced passes."""

    label: str
    ok: bool
    work: int
    digest: str


@dataclass(frozen=True)
class Step:
    """One timed call; `labels` name the outcomes it must produce."""

    labels: tuple[str, ...]
    run: Callable[[], list[Outcome]]


@dataclass(frozen=True)
class Workload:
    why: str
    kind: str  # "recon" or "sweep": which unit checks_per_s counts
    prepare: Callable[[int, Path, bool], list[Step]]
    points: tuple[str, ...]  # patch points the traced run must see called


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# --- reconstruction workloads ------------------------------------------------

HAMMING_G0 = "x^3+x+1"
BCH_G0 = "x^8+x^7+x^6+x^4+1"


def _capture(path: Path, n0: int, g0: str, s0: int, p: float, blocks: int, seed: int) -> None:
    code = CyclicCode(n0, gf2.parse_poly(g0))
    bits = stream.generate_stream(stream.StreamConfig(code, s0=s0, p=p, blocks=blocks, seed=seed))
    stream.save_stream(path, bits)


def _coin_capture(path: Path, length: int, seed: int) -> None:
    rng = np.random.Generator(np.random.Philox(seed))
    stream.save_stream(path, rng.integers(0, 2, size=length, dtype=np.uint8))


def _recon_step(label: str, path: Path, n_max: int, p: float, expect) -> Step:
    def run() -> list[Outcome]:
        bits = stream.load_stream(path)
        report = recon.reconstruct(bits, 3, n_max, p)
        tests = [(o.n, o.s, o.f, o.M, o.stat, o.decision) for o in report.outcomes]
        return [Outcome(label, report.winner == expect, len(tests), _digest((report.winner, tests)))]

    return Step((label,), run)


def _prepare_recon_short(seed: int, workdir: Path, small: bool) -> list[Step]:
    # n_max = 22 keeps the p0 enumeration (2^k words for k up to 21) the
    # dominant cost while a pass stays near one second per capture
    n_max, blocks, p = (12, 500, 0.02) if small else (22, 2000, 0.02)
    coded, coin = workdir / "recon-short-code.txt", workdir / "recon-short-coin.txt"
    _capture(coded, 7, HAMMING_G0, 3, p, blocks, 10 * seed + 1)
    _coin_capture(coin, 3 + 7 * blocks, 10 * seed + 2)
    return [
        _recon_step("hamming-winner", coded, n_max, p, (7, 3, gf2.parse_poly(HAMMING_G0))),
        _recon_step("coin-no-code", coin, n_max, p, None),
    ]


def _prepare_recon_long(seed: int, workdir: Path, small: bool) -> list[Step]:
    n_max, blocks, p = (16, 3000, 0.01) if small else (18, 50_000, 0.01)
    path = workdir / "recon-long.txt"
    _capture(path, 15, BCH_G0, 5, p, blocks, 10 * seed + 3)
    return [_recon_step("bch-winner", path, n_max, p, (15, 5, gf2.parse_poly(BCH_G0)))]


# --- sweep workloads -------------------------------------------------------------

# Exact totals at the defining commit; every record must also report no failures.
SWEEP_ROWS_EXPECTED = {
    "cross_validation": 8400,
    "proposition1": 8400,
    "theorem2": 0,
    "theorem3": 0,
    "noisy_uniform": 63,
    "theorem5_bound": 25200,
    "eq23_support": 3033,
}
VERIFY_SMALL_EXPECTED = {
    "distributions": {
        "cross_validation": 4665,
        "proposition1": 4665,
        "theorem2": 219,
        "theorem3": 4590,
        "lemma1_inner_product": 1200,
        "lemma2_prefix_suffix": 3924,
        "lemma3_degenerate_pattern": 8,
        "syndrome_basis_span": 135,
    },
    "sullivan": {"sullivan_coset_ratio": 126},
    "mean-check-n0=9": {"mean_zero_coeff_half": 1020},
    "mean-check-n0=13": {"mean_zero_coeff_half": 1184},
}


def _sweep_step(prefix: str, call: Callable[[], list], expected: dict[str, int] | None) -> Step:
    """Outcome per expected record: its total matches and it has no failures.

    With `expected` None (reduced inputs) only the failure lists are checked.
    A record the step does not expect is a failed outcome too.
    """

    def run() -> list[Outcome]:
        results = {r.name: r for r in call()}
        want = expected if expected is not None else dict.fromkeys(results)
        out = []
        for name in sorted(want.keys() | results.keys()):
            r = results.get(name)
            if r is None:
                out.append(Outcome(f"{prefix}/{name}", False, 0, "missing"))
                continue
            ok = name in want and not r.failures and want[name] in (None, r.checked)
            notes = sorted((k, len(v) if isinstance(v, list) else v) for k, v in r.notes.items())
            out.append(Outcome(f"{prefix}/{name}", ok, r.checked, _digest((r.checked, len(r.failures), notes))))
        return out

    return Step(tuple(f"{prefix}/{n}" for n in sorted(expected or ())), run)


def _prepare_sweep_rows(seed: int, workdir: Path, small: bool) -> list[Step]:
    # The inputs are a fixed exhaustive configuration: the seed changes nothing.
    rows = (8, 9) if small else (16, 17)

    def call():
        return list(
            sweeps.run_distribution_sweeps(
                n0_list=(7, 15),
                p_list=(0.01, 0.05, 0.1),
                with_noise=True,
                with_components=False,
                jobs=JOBS,
                n_range=rows,
            ).values()
        )

    return [_sweep_step("rows", call, None if small else SWEEP_ROWS_EXPECTED)]


def _prepare_verify_small(seed: int, workdir: Path, small: bool) -> list[Step]:
    # The inputs are a fixed exhaustive configuration: the seed changes nothing.
    exp = (lambda key: None) if small else VERIFY_SMALL_EXPECTED.get
    if small:
        distributions = lambda: list(  # noqa: E731
            sweeps.run_distribution_sweeps(n0_list=(7,), with_noise=False, jobs=JOBS, n_range=(5, 8)).values()
        ) + [sweeps.sweep_lemma1(n0_list=(7,), trials=20)]
        sullivan = lambda: [sweeps.sweep_sullivan(n_lo=4, n_hi=6)]  # noqa: E731
        mean_checks = (7,)
    else:
        distributions = lambda: sweeps.run_suite("distributions", n0_list=(7,), jobs=JOBS)  # noqa: E731
        sullivan = lambda: [sweeps.sweep_sullivan()]  # noqa: E731
        mean_checks = (9, 13)
    steps = [
        _sweep_step("distributions", distributions, exp("distributions")),
        _sweep_step("sullivan", sullivan, exp("sullivan")),
    ]
    for n0 in mean_checks:
        key = f"mean-check-n0={n0}"
        steps.append(
            _sweep_step(key, lambda n0=n0: [sweeps.sweep_mean_zero_coeff(n0=n0, jobs=JOBS)], exp(key))
        )
    return steps


def _prepare_recon(seed: int, workdir: Path, small: bool) -> list[Step]:
    return _prepare_recon_short(seed, workdir, small) + _prepare_recon_long(seed, workdir, small)


def _prepare_verify(seed: int, workdir: Path, small: bool) -> list[Step]:
    return _prepare_sweep_rows(seed, workdir, small) + _prepare_verify_small(seed, workdir, small)


# Two workloads rather than one per part: runs on a shared 2-vCPU host drift
# by 20-30% over minutes, and every workload is one more chance for a set of
# runs to spread past its bound.  The parts stay separate in the traced run.
WORKLOADS = {
    "recon": Workload(
        "reconstruct on three captures: p0 enumeration dominates n = 3..22 on 14 kbit; "
        "per-block packing and residues dominate a 750 kbit BCH(15,7) capture",
        "recon",
        _prepare_recon,
        (
            "cyclid.stream.generate_stream",
            "cyclid.stream.load_stream",
            "cyclid.recon.reconstruct",
            "cyclid.recon.segment",
            "cyclid.recon.blocks_to_polys",
            "cyclid.recon.rem_many",
            "cyclid.recon.hypothesis_test",
            "cyclid.codes.CyclicCode.p_zero_syndrome",
            "cyclid.codes.weight_counts",
            "cyclid.gf2.factor_xn1",
        ),
    ),
    "verify": Workload(
        "exhaustive sweeps: large-dimension tallies and noisy checks on sweep rows 16..17, "
        "then many small-dimension tallies and the mean-check enumeration",
        "sweep",
        _prepare_verify,
        (
            "cyclid.sweeps.run_distribution_sweeps",
            "cyclid.sweeps._sweep_n_row",
            "cyclid.sweeps.distribution_from_basis",
            "cyclid.sweeps.predict_class",
            "cyclid.sweeps.build_subspace",
            "cyclid.sweeps._check_noisy",
            "cyclid.sweeps.xor_convolve",
            "cyclid.sweeps.mean_zero_coeff_prob_exact",
            "cyclid.sweeps.ortho_zero_count",
            "cyclid.sweeps.rem_many",
            "cyclid.dists.residue_counts_dense",
            "cyclid.dists.build_subspace",
            "cyclid.dists.bsc_residue_dp",
            "cyclid.recon.build_subspace",
            "cyclid.recon.ortho_zero_count",
            "cyclid.gf2.factor_xn1",
        ),
    ),
}


def expected_outputs() -> dict:
    """The checked outputs of each workload, as printed by every run."""
    return {
        "recon": {
            "hamming-winner": f"(7, 3, {HAMMING_G0})",
            "coin-no-code": "no code detected",
            "bch-winner": f"(15, 5, {BCH_G0})",
        },
        "verify": {"rows": SWEEP_ROWS_EXPECTED, **VERIFY_SMALL_EXPECTED},
    }
