"""One benchmark pass in a fresh interpreter, as a command-line user runs cyclid.

    python3 perfbench/one_pass.py --workload NAME --seed N --t0 T --workdir DIR
                                  [--trace] [--small] [--setup-only]

`--t0` is the parent's time.monotonic() just before it started this process,
so set-up time covers interpreter start, imports, stream generation and the
capture files.  Prints one JSON object: set-up and wall seconds, peak RSS, CPU
times of the timed region, every checked outcome, and with --trace the
per-layer metrics and calls per patch point.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _cpu() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the tracer test")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up: one more set-up sample")
    args = ap.parse_args()

    import numpy as np

    import cyclid
    from cyclid import dists, gf2

    import tracer as tracing
    import workloads

    # Every memo the library keeps, cleared before each timed step so that no
    # step is flattered by one before it.  Taken before the tracer wraps them.
    memos = (gf2.factor_xn1, gf2.divisors_xn1, dists._error_dp_cached)
    spec = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    steps = spec.prepare(args.seed, args.workdir, args.small)

    t_first = time.monotonic()
    setup_s = t_first - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    cpu0, sys0 = _cpu()
    outcomes = []
    dp_hits = dp_misses = 0
    for i, step in enumerate(steps):
        for memo in memos:
            memo.cache_clear()
        with tracer.operation(f"step{i}") if tracer else nullcontext():
            try:
                outcomes.extend(step.run())
            except Exception:
                # a crash of the code under test fails the step's outcomes, not the run
                traceback.print_exc(file=sys.stderr)
                labels = step.labels or (f"step{i}",)
                outcomes.extend(workloads.Outcome(label, False, 0, "raised") for label in labels)
        info = dists._error_dp_cached.cache_info()
        dp_hits, dp_misses = dp_hits + info.hits, dp_misses + info.misses
    wall_s = time.monotonic() - t_first
    cpu1, sys1 = _cpu()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "sys_s": sys1 - sys0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": [[o.label, o.ok, o.work, o.digest] for o in outcomes],
        "env": {"backend": cyclid.BACKEND, "numpy": np.__version__, "python": sys.version.split()[0]},
    }
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(workloads.JOBS)
        layers["dists.error_dp_hits"] = dp_hits
        layers["dists.error_dp_misses"] = dp_misses
        layers["sweeps.instances"] = sum(o.work for o in outcomes) if spec.kind == "sweep" else 0
        result["layers"] = layers
        result["calls"] = tracer.calls_by_point()
        result["missing_points"] = tracer.missing
        spans = args.workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
