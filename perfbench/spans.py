"""Span recorder and per-layer metrics for the traced run.

Spans are recorded from outside the program: while a traced job runs, the
module attributes through which the layers call each other are swapped for
thin wrappers that open and close a span around the call.  Spans stay in
memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its children.
Calls are synchronous, so children nest inside their parent and the self
times of all spans of a job add up to the job's root span.
"""

import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

ROOT = "harness.job"


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    run_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory spans; run_id tells the jobs of one run apart."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run_id=self.run_id))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, hook=None, measure_memory=None):
        """fn with a span around every call.  hook(span, args, kwargs,
        result) may attach counters to the span.  When
        measure_memory(args, kwargs) is true, tracemalloc runs for that call
        only and the span gets its peak."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            memory = measure_memory is not None and measure_memory(args, kwargs)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    span.attrs["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.end(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def job(self, run_id):
        self.run_id = run_id
        span = self.begin(ROOT)
        try:
            yield span
        finally:
            self.end(span)

    def dump(self, path, extra):
        rows = [[s.name, s.start, s.end, s.parent, s.run_id, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(extra, fields=["name", "start", "end", "parent", "run_id",
                                          "attrs"], spans=rows), fh)


def self_times(spans):
    """Per-span self time: duration minus the children's durations."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# --- instrumentation --------------------------------------------------------


def _arg(args, kwargs, index, name):
    """An argument passed either by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _on_jacobian(span, args, kwargs, result):
    span.attrs["bytes"] = int(result.nbytes)
    span.attrs["support"] = int(_arg(args, kwargs, 1, "kernel").support)


def _on_adjoint(span, args, kwargs, result):
    span.attrs["support"] = int(_arg(args, kwargs, 1, "kernel").support)


def _on_solve(span, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    span.attrs["iters"] = int(result.iterations)
    span.attrs["cap"] = int(_arg(args, kwargs, 2, "cfg").max_iters)
    span.attrs["pixels"] = int(g.height * g.width)


def _on_tv(span, args, kwargs, result):
    half = _arg(args, kwargs, 1, "fidelity_half")
    span.attrs["kind"] = "theta" if half else "coherence"


# (module, attribute, span name, hook).  The span name's first part is the
# layer the wrapped function belongs to; the module is where the caller
# looks the name up.  An attribute a module no longer has is skipped, and
# the metrics built on it read 0.
WRAPS = [
    ("bench", "bench", "bench.bench", None),
    ("bench", "run_tuple", "bench.tuple", None),
    ("bench", "load_image", "image.load", None),
    ("bench", "add_gaussian_noise", "image.noise", None),
    ("bench", "psnr", "image.psnr", None),
    ("bench", "ssim", "image.ssim", None),
    ("bench", "eadtv_angles", "dpe.eadtv_angles", None),
    ("bench", "analyze", "dpe.analyze", None),
    ("bench", "solve", "solver.solve", _on_solve),
    ("dpe", "analyze", "dpe.analyze", None),
    ("dpe", "to_luminance", "image.luminance", None),
    ("dpe", "tv_regularize_field", "dpe.tv", _on_tv),
    ("dpe", "sobel_grad", "diffops.sobel", None),
    ("dpe", "convolve_channel", "diffops.convolve", None),
    ("dpe", "grad_forward", "diffops.grad", None),
    ("dpe", "eig2x2", "tensor.eig2x2", None),
    ("dpe", "coherence", "tensor.coherence", None),
    ("solver", "solve", "solver.solve", _on_solve),
    ("solver", "jacobian_apply", "tensor.J", _on_jacobian),
    ("solver", "jacobian_adjoint_apply", "tensor.Jt", _on_adjoint),
    ("solver", "eig2x2", "tensor.eig2x2", None),
    ("tensor", "grad_forward", "diffops.grad", None),
    ("tensor", "div_backward", "diffops.div", None),
]


def first_solve_of_kind():
    """Predicate true for the first solve of each (image shape, kernel
    support, q): tracemalloc slows Python-heavy small solves by tens of
    percent, so only one solve of each kind pays for it."""
    seen = set()

    def measure(args, kwargs):
        cfg = _arg(args, kwargs, 2, "cfg")
        kind = (_arg(args, kwargs, 0, "g").shape, cfg.kernel.support, cfg.q)
        if kind in seen:
            return False
        seen.add(kind)
        return True

    return measure


@contextmanager
def instrumented(recorder, modules):
    """Install the WRAPS wrappers for the duration of the block, then
    restore every original attribute."""
    saved = []
    measure = first_solve_of_kind()
    try:
        for mod_name, attr, name, hook in WRAPS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, recorder.wrap(
                name, fn, hook, measure if name == "solver.solve" else None))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# --- per-layer metrics ------------------------------------------------------

LAYERS = ("harness", "bench", "dpe", "solver", "tensor", "diffops", "image")

# Every per-layer metric with its unit.  Counts are per traced job and are
# computed from calls and array shapes, not measured traffic.
PER_LAYER = {
    "tensor.J.calls": "count",
    "tensor.J.ms_p50": "ms",
    "tensor.J.ms_p90": "ms",
    "tensor.J.gather_ms_p50": "ms",
    "tensor.J.self_s": "s",
    "tensor.Jt.calls": "count",
    "tensor.Jt.ms_p50": "ms",
    "tensor.Jt.ms_p90": "ms",
    "tensor.Jt.gather_ms_p50": "ms",
    "tensor.Jt.self_s": "s",
    "tensor.J.mb_computed": "MB",
    "tensor.eig2x2.calls": "count",
    "tensor.eig2x2.s": "s",
    "tensor.eig2x2.solver_s": "s",
    "tensor.eig2x2.dpe_s": "s",
    "diffops.grad.s": "s",
    "diffops.div.s": "s",
    "diffops.sobel.s": "s",
    "diffops.convolve.s": "s",
    "solver.solves": "count",
    "solver.iters": "count",
    "solver.cap_hit_ratio": "ratio",
    "solver.s": "s",
    "solver.self_ms_per_iter": "ms",
    "solver.mpix_iter_per_s": "Mpix/s",
    "solver.alloc_peak_mb": "MB",
    "dpe.analyze.s": "s",
    "dpe.st.s": "s",
    "dpe.coherence_tv.s": "s",
    "dpe.theta_tv.s": "s",
    "dpe.tv.iters": "count",
    "image.load.s": "s",
    "image.noise.s": "s",
    "image.psnr.s": "s",
    "image.ssim.s": "s",
    "bench.tuples": "count",
    "bench.solves": "count",
    "bench.useful_ratio": "ratio",
    "bench.solves_per_s": "1/s",
    "bench.eadtv_angles.s": "s",
    "harness.self_s": "s",
    "bench.self_s": "s",
    "dpe.self_s": "s",
    "solver.self_s": "s",
    "tensor.self_s": "s",
    "diffops.self_s": "s",
    "image.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, jobs):
    """Per-layer metrics per traced job, from the spans of `jobs` traced jobs."""
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name))

    def self_sum(indices):
        return sum(selfs[i] for i in indices)

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p >= 0 else ""

    m = {}
    per = 1.0 / jobs

    for key, name in (("J", "tensor.J"), ("Jt", "tensor.Jt")):
        ms = [spans[i].duration * 1e3 for i in idx(name)]
        gather = [spans[i].duration * 1e3 for i in idx(name) if spans[i].attrs["support"] > 1]
        m["tensor.%s.calls" % key] = len(ms) * per
        m["tensor.%s.ms_p50" % key] = _pct(ms, 50)
        m["tensor.%s.ms_p90" % key] = _pct(ms, 90)
        m["tensor.%s.gather_ms_p50" % key] = _pct(gather, 50)
        m["tensor.%s.self_s" % key] = self_sum(idx(name)) * per
    m["tensor.J.mb_computed"] = sum(spans[i].attrs["bytes"] for i in idx("tensor.J")) / 1e6 * per
    eig = idx("tensor.eig2x2")
    m["tensor.eig2x2.calls"] = len(eig) * per
    m["tensor.eig2x2.s"] = total("tensor.eig2x2") * per
    for layer in ("solver", "dpe"):
        m["tensor.eig2x2.%s_s" % layer] = per * sum(
            spans[i].duration for i in eig if parent_name(i).startswith(layer + "."))

    for key in ("grad", "div", "sobel", "convolve"):
        m["diffops.%s.s" % key] = total("diffops." + key) * per

    solves = idx("solver.solve")
    iters = sum(spans[i].attrs["iters"] for i in solves)
    solve_s = total("solver.solve")
    inner = sum(spans[i].duration for i in idx("tensor.J") + idx("tensor.Jt")
                if parent_name(i) == "solver.solve")
    m["solver.solves"] = len(solves) * per
    m["solver.iters"] = iters * per
    m["solver.cap_hit_ratio"] = (
        sum(spans[i].attrs["iters"] >= spans[i].attrs["cap"] for i in solves) / len(solves)
        if solves else 0.0)
    m["solver.s"] = solve_s * per
    m["solver.self_ms_per_iter"] = (solve_s - inner) / iters * 1e3 if iters else 0.0
    m["solver.mpix_iter_per_s"] = (
        sum(spans[i].attrs["pixels"] * spans[i].attrs["iters"] for i in solves)
        / solve_s / 1e6 if solve_s else 0.0)
    m["solver.alloc_peak_mb"] = max(
        (spans[i].attrs.get("alloc_peak", 0) for i in solves), default=0) / 1e6

    st_parts = ("diffops.sobel", "diffops.convolve", "tensor.eig2x2", "tensor.coherence")
    m["dpe.analyze.s"] = total("dpe.analyze") * per
    m["dpe.st.s"] = per * sum(spans[i].duration for name in st_parts for i in idx(name)
                              if parent_name(i) == "dpe.analyze")
    tv = idx("dpe.tv")
    for kind in ("coherence", "theta"):
        m["dpe.%s_tv.s" % kind] = per * sum(
            spans[i].duration for i in tv if spans[i].attrs["kind"] == kind)
    m["dpe.tv.iters"] = per * sum(spans[i].attrs["iters"] for i in solves
                                  if parent_name(i) == "dpe.tv")

    for key in ("load", "noise", "psnr", "ssim"):
        m["image.%s.s" % key] = total("image." + key) * per

    bench_solves = sum(1 for i in solves if parent_name(i) == "bench.tuple")
    tuples = len(idx("bench.tuple"))
    m["bench.tuples"] = tuples * per
    m["bench.solves"] = bench_solves * per
    m["bench.useful_ratio"] = tuples / bench_solves if bench_solves else 0.0
    m["bench.solves_per_s"] = bench_solves / total("bench.bench") if bench_solves else 0.0
    m["bench.eadtv_angles.s"] = total("dpe.eadtv_angles") * per

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s.layer] += selfs[i]
    for layer in LAYERS:
        m["%s.self_s" % layer] = layer_self[layer] * per
    return m
