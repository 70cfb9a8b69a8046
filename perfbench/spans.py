"""Per-layer spans and counts, recorded from outside the library.

:class:`Tracer` wraps every public function of each chebsig module and
patches the wrapper in at each place the function is looked up: its own
module's globals, and every chebsig module that bound it with
``from .module import name``.  Calls inside a module (``min_and_max`` ->
``evaluate``) go through the module global and so are traced too.

Each wrapped call is a span.  Spans aggregate as they close into
``<layer>.<function>.calls``, ``.busy_s`` (time inside the function,
counting only the outermost of nested calls to it) and ``.self_s`` (the
span's duration minus the time its direct child spans cover), plus
``<layer>.busy_s`` for the whole module.  A few functions also count the
work they were handed (see ``_work``).  Experiments aggregate under their
report name, e.g. ``experiments.random_1000.wall_s``, with ``peak_kb`` from
tracemalloc when the tracer is built with ``peak_memory=True``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cheb", "fourier", "nodes", "conditioning", "signals", "report",
          "experiments", "cli")
#: Private functions worth a span of their own.
PRIVATE = {"cheb._chop_point"}
#: Called once per CSV field; a span each would cost more than it measures.
SKIP = {"report.format_float"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _traced_functions():
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"chebsig.{layer}")
        for name, fn in vars(module).items():
            key = f"{layer}.{name}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and (not name.startswith("_") or key in PRIVATE)
                    and key not in SKIP):
                out.append((layer, name, fn))
    return out


class Tracer:
    """Aggregated spans of one traced stretch of work.

    Use as ``with Tracer() as t: ...``, as many times as needed: ``t.stats``
    accumulates metric names to values, and on each exit every wrapped
    function is restored.
    """

    def __init__(self, peak_memory: bool = False):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.peak_memory = peak_memory
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {id(fn): self._wrap(layer, name, fn)
                    for layer, name, fn in _traced_functions()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chebsig" and not mod_name.startswith("chebsig."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if self.peak_memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.peak_memory:
            tracemalloc.stop()
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        experiment = layer == "experiments" and name.startswith("run_") and name != "run_all"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == "cheb.interpolant_from_function":
                args, kwargs = self._count_samples(args, kwargs)
            self._depth[key] += 1
            self._depth[layer] += 1
            frame = [time.perf_counter(), 0.0, 0.0]
            if experiment and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                frame[2] = tracemalloc.get_traced_memory()[0]
            self._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(key, layer, frame, experiment, result)
                self._work(key, args, kwargs, result)

        return wrapper

    def _close(self, key, layer, frame, experiment, result):
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self._depth[key] -= 1
        self._depth[layer] -= 1
        s = self.stats
        if self._depth[layer] == 0:
            s[f"{layer}.busy_s"] += duration
        if experiment and result is not None:
            label = f"experiments.{result.name}"
            s[f"{label}.wall_s"] += duration
            s[f"{label}.self_s"] += duration - frame[1]
            if tracemalloc.is_tracing():
                peak_kb = (tracemalloc.get_traced_memory()[1] - frame[2]) / 1024.0
                s[f"{label}.peak_kb"] = max(s[f"{label}.peak_kb"], peak_kb)
        s[f"{key}.calls"] += 1
        s[f"{key}.self_s"] += duration - frame[1]
        if self._depth[key] == 0:
            s[f"{key}.busy_s"] += duration

    def _count_samples(self, args, kwargs):
        """Hand interpolant_from_function an f that counts its sample points."""
        f = _arg(args, kwargs, 0, "f")
        stats = self.stats

        def counted(x):
            stats["cheb.interpolant_from_function.f_points"] += np.size(x)
            return f(x)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, {**kwargs, "f": counted}

    def _work(self, key, args, kwargs, result):
        """Work counts: the size of what each kernel was handed."""
        s = self.stats
        if key == "cheb.evaluate":
            p, x = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "x")
            s["cheb.evaluate.coeff_points"] += p.coeffs.size * np.size(x)
        elif key == "cheb.evaluate_barycentric":
            nodes, x = _arg(args, kwargs, 1, "nodes"), _arg(args, kwargs, 2, "x")
            s["cheb.evaluate_barycentric.pairs"] += len(nodes) * np.size(x)
        elif key == "fourier.trig_interpolate":
            xs, xq = _arg(args, kwargs, 0, "sample_x"), _arg(args, kwargs, 2, "query_x")
            s["fourier.trig_interpolate.pairs"] += np.size(xs) * np.size(xq)
        elif key == "report.write_report" and result is not None:
            report = _arg(args, kwargs, 0, "report")
            for series in report.series:
                s["report.write_report.files"] += 1
                s["report.write_report.bytes"] += (result / f"{series.label}.csv").stat().st_size
