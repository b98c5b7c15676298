"""Quick check of the traced run on reduced inputs.

    python3 -m pytest perfbench/test_tracer.py

For every workload, a traced pass must reach every patch point the workload
expects and give the same outputs as an untraced pass.  A rename in cyclid
that the tracer no longer reaches fails here instead of reporting zeros.
"""

import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_and_reaches_patch_points(workload):
    plain = run.run_pass(workload, seed=3, trace=False, small=True)
    traced = run.run_pass(workload, seed=3, trace=True, small=True)
    assert traced["missing_points"] == []
    silent = [p for p in workloads.WORKLOADS[workload].points if not traced["calls"][p]]
    assert silent == []
    assert plain["outcomes"] and all(ok for _, ok, _, _ in plain["outcomes"])
    assert traced["outcomes"] == plain["outcomes"]
