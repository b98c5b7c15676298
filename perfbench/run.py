"""cyclid benchmark: seeded workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Passes repeat until `--seconds` have gone by (at least three
untraced passes), each one a new ``perfbench/one_pass.py`` process, so no memo
survives from one pass to the next.  Every output is checked against the
expected winners and sweep totals in ``workloads.py``; a mismatch, a crash
of the code under test, or an output that differs from the run's first pass
counts as a failed operation.

--trace 0 reports the end-to-end metrics: medians over the passes of
wall_s, checks_per_s, setup_s and peak_rss_mb.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics, with the
tracing overhead as the difference of the two sides' median wall times.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each run
also writes its passes to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKDIR = HERE / "work"
MIN_PASSES = 3
SETUPS_PER_PASS = 2  # extra set-up-only processes after each untraced pass
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # no pass starts that could end the run later than this

END_TO_END = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    """A pass process exited abnormally or printed no result."""


def run_pass(workload: str, seed: int, trace: bool, small: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--workdir", str(WORKDIR)] + ["--trace"] * trace + ["--small"] * small + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cyclid").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def check_outcomes(passes: list[dict]) -> tuple[int, int, dict[str, str]]:
    """(attempted, failed, first failure per label) over every pass.

    An outcome fails when its own check failed or when its output differs
    from the same outcome in the run's first pass.
    """
    reference = {label: digest for label, _, _, digest in passes[0]["outcomes"]}
    attempted = failed = 0
    failures: dict[str, str] = {}
    for i, p in enumerate(passes):
        for label, ok, _, digest in p["outcomes"]:
            attempted += 1
            why = None if ok else "check failed"
            if ok and digest != reference.get(label):
                why = f"output of pass {i} differs from pass 0" + (" (traced)" if "layers" in p else "")
            if why:
                failed += 1
                failures.setdefault(label, why)
    return attempted, failed, failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes (alternating with traced ones when `trace`) and set-up
    samples, repeated until `seconds` have passed."""
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        plain.append(run_pass(workload, seed, False))
        if trace:
            traced.append(run_pass(workload, seed, True))
        else:
            setups.append(plain[-1]["setup_s"])
            for _ in range(SETUPS_PER_PASS):
                setups.append(run_pass(workload, seed, False, setup_only=True)["setup_s"])
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        enough = trace or len(plain) >= MIN_PASSES
        if (enough and elapsed >= seconds) or elapsed + longest > RUN_LIMIT_S:
            return plain, traced, setups


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": _median(p["wall_s"] for p in plain),
        "checks_per_s": _median(sum(o[2] for o in p["outcomes"]) / p["wall_s"] for p in plain),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {}
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        if unit in ("count", "bytes"):  # exact counts: a median that is one of the values
            metrics[name] = statistics.median_low(p["layers"][name] for p in traced)
        elif name.startswith("process."):
            metrics[name] = _median(p[name.split(".", 1)[1]] for p in plain)
        elif name == "trace.overhead_s":
            metrics[name] = _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in plain)
        else:
            metrics[name] = _median(p["layers"][name] for p in traced)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cyclid" / "__init__.py").is_file():
        print(f"perfbench: no cyclid sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env.update(plain[0]["env"], loadavg_1m_end=os.getloadavg()[0])

    attempted, failed, failures = check_outcomes(plain + traced)
    record = {"env": env, "passes": plain, "traced_passes": traced, "setup_samples": setups}
    out = WORKDIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print("expected " + json.dumps(workloads.expected_outputs()[args.workload]))
    for label, why in failures.items():
        print(f"FAILED {label}: {why}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} outputs)")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
        calls = traced[0]["calls"]
        for point in workloads.WORKLOADS[args.workload].points:
            if not calls.get(point):
                print(f"WARNING patch point {point} recorded no calls")
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}; spans in {traced[-1]['spans_file']}")
        print("computed " + json.dumps({k: metrics[k] for k in tracer.COMPUTED_COUNTS}))
    else:
        metrics = end_to_end(plain, setups)
        units = END_TO_END
        print(f"passes {len(plain)}, set-up samples {len(setups)}; each metric is the median over them")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:24s} {shown} {units[name]}")
    print(f"record {out}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
