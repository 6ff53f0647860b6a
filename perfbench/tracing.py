"""Module-boundary spans for the traced run.

The tracer wraps, from outside the package, every public function defined
in a ``latticeqmc`` module, plus the methods and the numpy FFT calls listed
below.  A wrapper is installed wherever the name is looked up: in the
defining module and in every module that bound it with ``from .x import f``,
so a call between modules is seen whichever way it is spelled.  Spans stay
in memory and are written when the run ends.

A span records its name, start, end, parent span, op id, an optional work
count and, while tracemalloc runs, the peak traced memory inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

# Methods patched on their class: (module, class, method, span name).
METHODS = (
    ("cbc", "CbcCriterion", "value", "cbc.recheck"),
    ("weights", "WeightScheme", "combine", "weights.combine"),
    ("lattice", "PointSet", "to_csv", "lattice.export"),
    ("lattice", "PointSet", "to_json", "lattice.export"),
)


def _elems(self, eta, *args, **kwargs):
    return int(np.size(eta))


def _evals(family, alpha, x, y, *args, **kwargs):
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


def _fft_length(a, n=None, *args, **kwargs):
    return int(n) if n is not None else int(np.shape(a)[-1])


# Work counters for functions: span name -> function of the call's arguments.
COUNTERS = {"kernels.kernel_1d": _evals, "weights.combine": _elems, "cbc.fft": _fft_length}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "count", "base", "peak",
                 "child_s")

    def __init__(self, sid, name, parent, op, count):
        self.id, self.name, self.parent, self.op, self.count = sid, name, parent, op, count
        self.start = self.end = 0.0
        self.base = self.peak = 0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent.id if self.parent else None, "op": self.op,
                "count": self.count, "peak_mb": self.peak_mb}

    @property
    def peak_mb(self) -> float:
        return max(self.peak - self.base, 0) / 1e6


class Tracer:
    """Collects spans while ``active``; wrappers are pass-through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: str | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, count) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, count)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if tracemalloc.is_tracing():
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        if span.parent is not None:
            span.parent.child_s += span.duration
            span.parent.peak = max(span.parent.peak, span.peak)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name, counter(*args, **kwargs) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's public functions at every binding, the listed
        methods on their classes, and ``np.fft`` as seen from ``cbc``."""
        prefix = package.__name__
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == prefix or name.startswith(prefix + "."))}
        originals = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == name and name != prefix):
                    layer = name.rsplit(".", 1)[-1]
                    originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, attr, originals[obj])
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(modules[f"{prefix}.{mod_name}"], cls_name)
            self._set(cls, meth, self.wrap(span_name, getattr(cls, meth)))
        cbc = modules[f"{prefix}.cbc"]
        self._set(cbc, "np", _NumpyWithTracedFft(cbc.np, self))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


class _FftNamespace:
    def __init__(self, fft_module, tracer: Tracer):
        self._fft = fft_module
        self._tracer = tracer
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, attr):
        obj = getattr(self._fft, attr)
        if not callable(obj):
            return obj
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap("cbc.fft", obj)
        return self._wrapped[attr]


class _NumpyWithTracedFft:
    """Stands in for the ``np`` name inside ``latticeqmc.cbc``: every
    attribute is numpy's, except that ``np.fft.*`` calls record spans."""

    def __init__(self, numpy_module, tracer: Tracer):
        self._np = numpy_module
        self.fft = _FftNamespace(numpy_module.fft, tracer)

    def __getattr__(self, attr):
        return getattr(self._np, attr)


# -- per-layer metrics ---------------------------------------------------------

ALL_CBC = ("cbc_fft", "cbc_state")

# metric -> (span, statistic, end-to-end metrics it should move, workloads it
# should move them on, workloads where it should not move them).  A traced
# run fails when a span below records no call on a workload it is mapped to.
PER_LAYER = {
    "cbc.fft.s": ("cbc.fft", "s", ("work_per_s", "op_s.p50"), ALL_CBC, ("exact_error",)),
    "cbc.fft.calls": ("cbc.fft", "calls", ("work_per_s", "op_s.p50"), ALL_CBC, ("exact_error",)),
    "cbc.fft.points": ("cbc.fft", "count", ("work_per_s", "op_s.p50"), ALL_CBC,
                       ("exact_error",)),
    "cbc.cbc_fast.self_s": ("cbc.cbc_fast", "self_s", ("work_per_s",), ALL_CBC, ()),
    "cbc.cbc_plain.self_s": ("cbc.cbc_plain", "self_s", ("work_per_s",), ("cbc_state",), ()),
    "cbc.recheck.s": ("cbc.recheck", "s", ("peak_rss_mb",), ("cbc_fft",), ()),
    "worst_case_error.wce_sq_korobov_lattice.self_s": (
        "worst_case_error.wce_sq_korobov_lattice", "self_s", ("peak_rss_mb",), ("cbc_fft",), ()),
    "worst_case_error.wce_sq_korobov_lattice.peak_mb": (
        "worst_case_error.wce_sq_korobov_lattice", "peak_mb", ("peak_rss_mb",), ("cbc_fft",),
        ()),
    "cbc.cbc_fast.peak_mb": ("cbc.cbc_fast", "peak_mb", ("peak_rss_mb",), ("cbc_fft",), ()),
    "worst_case_error.korobov_residue_table.s": (
        "worst_case_error.korobov_residue_table", "s", ("warmup_s", "op_s.p50"), ALL_CBC, ()),
    "numtheory.primitive_root.s": ("numtheory.primitive_root", "s", ("warmup_s", "op_s.p50"),
                                   ALL_CBC, ()),
    "numtheory.is_prime.s": ("numtheory.is_prime", "s", ("warmup_s", "op_s.p50"), ALL_CBC, ()),
    "kernels.kernel_1d.s": ("kernels.kernel_1d", "s", ("work_per_s",), ("exact_error",),
                            ("cbc_fft",)),
    "kernels.kernel_1d.evals": ("kernels.kernel_1d", "count", ("work_per_s",), ("exact_error",),
                                ("cbc_fft",)),
    "weights.combine.s": ("weights.combine", "s", ("work_per_s",), ("exact_error",),
                          ("cbc_fft",)),
    "weights.combine.elems": ("weights.combine", "count", ("work_per_s",), ("exact_error",),
                              ("cbc_fft",)),
    "special_functions.bernoulli_scaled.s": (
        "special_functions.bernoulli_scaled", "s", ("work_per_s",), ("exact_error",),
        ("cbc_fft",)),
    "worst_case_error.wce_sq_quadratic_form.self_s": (
        "worst_case_error.wce_sq_quadratic_form", "self_s", ("work_per_s",), ("exact_error",),
        ("cbc_fft",)),
    "worst_case_error.wce_sym_exact.self_s": (
        "worst_case_error.wce_sym_exact", "self_s", ("work_per_s",), ("exact_error",),
        ("cbc_fft",)),
}
_CLI_MOVES = ("work_per_s", "op_s.p50")
for _metric, _span, _stat in (
    ("lattice.rank1_points.s", "lattice.rank1_points", "s"),
    ("lattice.tent_transform.s", "lattice.tent_transform", "s"),
    ("lattice.symmetrize.s", "lattice.symmetrize", "s"),
    ("lattice.distinct_count.s", "lattice.distinct_count", "s"),
    ("lattice.export.s", "lattice.export", "s"),
    ("experiments.run_experiment.self_s", "experiments.run_experiment", "self_s"),
    ("experiments.integrand_eval.s", "experiments.integrand_eval", "s"),
    ("fourier.run_appendix_checks.self_s", "fourier.run_appendix_checks", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
):
    PER_LAYER[_metric] = (_span, _stat, _CLI_MOVES, ("cli_pipeline",), ())

# Measured by the harness, not from spans: metric -> (unit, end-to-end metrics
# it should move, workloads).
EXTRA_LAYER = {
    "cli.import_s": ("s", ("work_per_s", "op_s.p50"), ("cli_pipeline",)),
    "trace.overhead_s": ("s", (), ()),
    "warmup_s": ("s", (), ()),
}

UNITS = {"s": "s", "self_s": "s", "calls": "count", "count": "count", "peak_mb": "MB"}


def pass_stats(spans: list[Span]) -> dict[str, dict]:
    """Per span name: outermost total time, self time, calls, count, peak."""
    out: dict[str, dict] = {}
    for span in spans:
        st = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0,
                                        "peak_mb": 0.0})
        st["calls"] += 1
        st["self_s"] += span.self_s
        st["count"] += span.count or 0
        st["peak_mb"] = max(st["peak_mb"], span.peak_mb)
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            st["s"] += span.duration
    return out


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """Every per-layer metric from one pass; peaks stay 0 without tracemalloc."""
    return {metric: stats.get(span, {}).get(stat, 0) for metric, (span, stat, *_) in
            PER_LAYER.items()}


def peak_metrics(stats: dict[str, dict]) -> dict[str, float]:
    return {metric: value for metric, value in layer_metrics(stats).items()
            if PER_LAYER[metric][1] == "peak_mb"}


def traces_memory(workload: str) -> bool:
    """tracemalloc slows every allocation, so it runs only on the workloads
    that a peak-memory metric is mapped to."""
    return any(stat == "peak_mb" and workload in on for _, stat, _, on, _ in PER_LAYER.values())


def empty_layers(stats: dict[str, dict], workload: str) -> list[str]:
    """Spans mapped to this workload that recorded no call."""
    return sorted({span for span, _, _, on, _ in PER_LAYER.values()
                   if workload in on and stats.get(span, {}).get("calls", 0) == 0})
