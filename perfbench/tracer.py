"""Spans around the calls into each cyclid module, recorded from outside.

The tracer replaces the module attributes that each caller looks up at call
time -- ``cyclid.recon.rem_many``, not ``cyclid._kernels.rem_many`` -- with a
wrapper that records one span per call: name (the patched attribute), start,
end, parent span, thread, the exception type if the call raised, and an exact
work count where the call has one.  Spans from worker threads whose own stack
is empty take the current operation span as parent, so the pool threads of a
sweep hang under the call that started them.  Spans stay in memory and are
written out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass


def _size(args):
    return int(args[0].size)


def _span_of_basis(args):
    return 1 << len(args[0])


# patched attribute -> (layer metric prefix, exact work count from the call's arguments)
PATCH_POINTS = {
    "cyclid.stream.generate_stream": ("stream.generate", None),
    "cyclid.stream.load_stream": ("stream.load", None),
    "cyclid.recon.reconstruct": ("recon.reconstruct", None),
    "cyclid.recon.segment": ("stream.segment", None),
    "cyclid.recon.blocks_to_polys": ("stream.pack", _size),  # bytes of block rows read
    "cyclid.recon.rem_many": ("kernels.rem_many", _size),  # words reduced
    "cyclid.sweeps.rem_many": ("kernels.rem_many", _size),
    "cyclid.recon.hypothesis_test": ("recon.test", None),
    "cyclid.codes.CyclicCode.p_zero_syndrome": ("codes.p0", None),
    "cyclid.codes.weight_counts": ("kernels.weight", lambda a: 1 << a[1]),  # 2^k words enumerated
    "cyclid.recon.ortho_zero_count": ("kernels.ortho", _span_of_basis),
    "cyclid.sweeps.ortho_zero_count": ("kernels.ortho", _span_of_basis),
    "cyclid.sweeps.mean_zero_coeff_prob_exact": ("recon.mean_check", None),
    "cyclid.dists.residue_counts_dense": ("kernels.tally", _span_of_basis),  # 2^dim residues tallied
    "cyclid.dists.bsc_residue_dp": ("kernels.bsc_dp", lambda a: len(a[0]) << a[2]),  # n * 2^deg f cells
    "cyclid.dists.xor_convolve": ("kernels.xor_conv", None),
    "cyclid.sweeps.xor_convolve": ("kernels.xor_conv", None),
    "cyclid.sweeps.distribution_from_basis": ("dists.tally", None),
    "cyclid.dists.distribution_from_basis": ("dists.tally", None),
    "cyclid.sweeps.predict_class": ("dists.predict", None),
    "cyclid.sweeps.build_subspace": ("dists.subspace", None),
    "cyclid.dists.build_subspace": ("dists.subspace", None),
    "cyclid.recon.build_subspace": ("dists.subspace", None),
    "cyclid.sweeps.run_distribution_sweeps": ("sweeps.distribution", None),
    "cyclid.sweeps._sweep_n_row": ("sweeps.row", None),
    "cyclid.sweeps._check_noisy": ("sweeps.noisy", None),
    "cyclid.gf2.factor_xn1": ("gf2.factor", None),
}

# The per-layer metrics a traced run reports, with their units and direction.
LAYER_METRICS = {
    "codes.p0_s": ("s", "lower"),
    "codes.p0_calls": ("count", "lower"),
    "codes.p0_keys": ("count", "lower"),
    "codes.p0_reuse": ("ratio", "higher"),
    "codes.enum_words": ("count", "lower"),
    "stream.load_s": ("s", "lower"),
    "stream.segment_s": ("s", "lower"),
    "stream.pack_s": ("s", "lower"),
    "stream.pack_bytes": ("bytes", "lower"),
    "stream.generate_s": ("s", "lower"),
    "recon.tests": ("count", "higher"),
    "recon.self_s": ("s", "lower"),
    "recon.mean_check_s": ("s", "lower"),
    "kernels.rem_many_s": ("s", "lower"),
    "kernels.rem_many_words": ("count", "lower"),
    "kernels.tally_s": ("s", "lower"),
    "kernels.tally_calls": ("count", "lower"),
    "kernels.tally_elems": ("count", "lower"),
    "kernels.weight_s": ("s", "lower"),
    "kernels.ortho_s": ("s", "lower"),
    "kernels.ortho_elems": ("count", "lower"),
    "kernels.bsc_dp_s": ("s", "lower"),
    "kernels.bsc_dp_cells": ("count", "lower"),
    "kernels.xor_conv_s": ("s", "lower"),
    "dists.tally_self_s": ("s", "lower"),
    "dists.predict_s": ("s", "lower"),
    "dists.predict_calls": ("count", "lower"),
    "dists.subspace_s": ("s", "lower"),
    "dists.guard_skips": ("count", "lower"),
    "dists.error_dp_hits": ("count", "higher"),
    "dists.error_dp_misses": ("count", "lower"),
    "sweeps.row_s_max": ("s", "lower"),
    "sweeps.pool_busy_frac": ("ratio", "higher"),
    "sweeps.noisy_s": ("s", "lower"),
    "sweeps.instances": ("count", "higher"),
    "gf2.factor_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.sys_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Work counts that repeat exactly from run to run ("computed", not measured).
COMPUTED_COUNTS = (
    "codes.enum_words",
    "stream.pack_bytes",
    "kernels.rem_many_words",
    "kernels.tally_elems",
    "kernels.ortho_elems",
    "kernels.bsc_dp_cells",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    error: str | None = None
    work: int = 0
    key: tuple | None = None


def _resolve(path: str):
    """(owner, attribute name) for a dotted module or class attribute path."""
    parts = path.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ModuleNotFoundError(path)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # patch points the code under test no longer has

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn, work):
        tracer = self
        is_p0 = name.endswith("p_zero_syndrome")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, 0.0, 0.0, stack[-1] if stack else tracer.root,
                        threading.current_thread().name)
            if work:
                span.work = work(args)
            if is_p0:  # called as code.p_zero_syndrome(p)
                span.key = (args[0].n, args[0].g, args[1])
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        for path, (_, work) in PATCH_POINTS.items():
            try:
                owner, attr = _resolve(path)
                fn = getattr(owner, attr)
            except (ModuleNotFoundError, AttributeError):
                self.missing.append(path)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(path, fn, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def operation(self, label: str):
        """Root span for one timed step; pool-thread spans attach to it."""
        span = Span(next(self._ids), f"op:{label}", time.perf_counter(), 0.0, None,
                    threading.current_thread().name)
        self.root = span.id
        self._stack().append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack().pop()
            self.root = None
            self.spans.append(span)

    def calls_by_point(self) -> dict[str, int]:
        calls = dict.fromkeys(PATCH_POINTS, 0)
        for s in self.spans:
            if s.name in calls:
                calls[s.name] += 1
        return calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "thread", "error", "work", "key"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(astuple(s)) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer totals; a layer's self time excludes its child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        longest = defaultdict(float)
        guard_skips = 0
        p0_keys = set()
        for s in self.spans:
            if s.name not in PATCH_POINTS:
                continue
            layer = PATCH_POINTS[s.name][0]
            d = s.end - s.start
            total[layer] += d
            self_time[layer] += d - child_time[s.id]
            calls[layer] += 1
            work[layer] += s.work
            longest[layer] = max(longest[layer], d)
            if s.error == "GuardError" and layer in ("dists.subspace", "dists.tally"):
                guard_skips += 1
            if s.key is not None:
                p0_keys.add(s.key)
        distribution_wall = total["sweeps.distribution"]
        return {
            "codes.p0_s": total["codes.p0"],
            "codes.p0_calls": calls["codes.p0"],
            "codes.p0_keys": len(p0_keys),
            "codes.p0_reuse": len(p0_keys) / calls["codes.p0"] if calls["codes.p0"] else 0.0,
            "codes.enum_words": work["kernels.weight"],
            "stream.load_s": total["stream.load"],
            "stream.segment_s": total["stream.segment"],
            "stream.pack_s": total["stream.pack"],
            "stream.pack_bytes": work["stream.pack"],
            "stream.generate_s": total["stream.generate"],
            "recon.tests": calls["recon.test"],
            "recon.self_s": self_time["recon.reconstruct"],
            "recon.mean_check_s": total["recon.mean_check"],
            "kernels.rem_many_s": total["kernels.rem_many"],
            "kernels.rem_many_words": work["kernels.rem_many"],
            "kernels.tally_s": total["kernels.tally"],
            "kernels.tally_calls": calls["kernels.tally"],
            "kernels.tally_elems": work["kernels.tally"],
            "kernels.weight_s": total["kernels.weight"],
            "kernels.ortho_s": total["kernels.ortho"],
            "kernels.ortho_elems": work["kernels.ortho"],
            "kernels.bsc_dp_s": total["kernels.bsc_dp"],
            "kernels.bsc_dp_cells": work["kernels.bsc_dp"],
            "kernels.xor_conv_s": total["kernels.xor_conv"],
            "dists.tally_self_s": self_time["dists.tally"],
            "dists.predict_s": total["dists.predict"],
            "dists.predict_calls": calls["dists.predict"],
            "dists.subspace_s": total["dists.subspace"],
            "dists.guard_skips": guard_skips,
            "sweeps.row_s_max": longest["sweeps.row"],
            "sweeps.pool_busy_frac": total["sweeps.row"] / (jobs * distribution_wall) if distribution_wall else 0.0,
            "sweeps.noisy_s": total["sweeps.noisy"],
            "gf2.factor_s": total["gf2.factor"],
            "trace.spans": len(self.spans),
        }
