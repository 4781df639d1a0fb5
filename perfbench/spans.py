"""Span tracing of efos's layers from outside the package.

``Tracer.install`` wraps the public entry points of each efos module (and
numpy's n-D FFTs) with small recorders.  Every binding of a wrapped
function in every loaded ``efos`` module is replaced, so re-exports such
as ``efos.linear.gradient`` or ``efos.nonlinear.solve_linear`` go through
the wrapper too.  Spans are recorded only inside ``Tracer.operation`` and
kept in memory; ``summarize`` turns one operation's spans into per-layer
numbers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _fft_points(args, kwargs, result):
    # points on the spatial side of the transform, computed from array sizes
    forward = getattr(args[0], "size", 0)
    return [("grid.fft_points", max(forward, getattr(result, "size", 0)))]


def _iterations(args, kwargs, result):
    return [("nonlinear.iterations", result[1].iterations)]


def _samples(args, kwargs, result):
    return [("ellipticity.sweep_samples", result.samples_used)]


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return [("fieldfile.bytes", os.path.getsize(path))]


# (module, attribute, span name, counter extractor); a class attribute is
# written "Class.method".  Span names ending in "calls" only count calls.
SPANS = [
    ("numpy.fft", "fftn", "grid.fft", _fft_points),
    ("numpy.fft", "ifftn", "grid.fft", _fft_points),
    ("numpy.fft", "rfftn", "grid.fft", _fft_points),
    ("numpy.fft", "irfftn", "grid.fft", _fft_points),
    ("efos.grid", "gradient", "grid.gradient", None),
    ("efos.linear", "solve_linear", "linear.solve", None),
    ("efos.linear", "solve_representation", "linear.solve", None),
    ("efos.linear", "apply_tensor", "linear.apply_tensor", None),
    ("efos.linear", "MultiplierPlan.__init__", "linear.plan", None),
    ("efos.linear", "MultiplierPlan.apply", "linear.apply", None),
    ("efos.nonlinear", "campanato_solve", "nonlinear.loop", _iterations),
    ("efos.nonlinear", "NonlinearOperator.apply_to_gradient", "nonlinear.F_eval", None),
    ("efos.nonlinear", "NonlinearOperator.evaluate", "nonlinear.evaluate_calls", None),
    ("efos.ellipticity", "ellipticity_constant", "ellipticity.nu", None),
    ("efos.ellipticity", "nearness_constant", "ellipticity.sweep", _samples),
    ("efos.ellipticity", "check_pseudomonotonicity", "ellipticity.sweep", _samples),
    ("efos.ellipticity", "lipschitz_and_converse", "ellipticity.sweep", _samples),
    ("efos.tensor", "direction_matrix", "tensor.direction_matrix_calls", None),
    ("efos.oracle", "solve_dense", "oracle.dense", None),
    ("efos.oracle", "brute_nu", "oracle.brute_nu", None),
    ("efos.fieldfile", "write_field", "fieldfile.write", _bytes_written),
    ("efos.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (op, name) -> amount
        self.op = None
        self._stack = []
        self._patches = []

    @contextmanager
    def operation(self, op_id):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            self._stack.clear()

    def _wrap(self, fn, name, extract):
        count_only = name.endswith("_calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if count_only:
                self.counts[(op, name)] += 1
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                for key, amount in extract(args, kwargs, result):
                    self.counts[(op, key)] += amount
            return result

        return wrapper

    def install(self):
        """Wrap every entry point in SPANS whose module is loaded."""
        efos_modules = [m for k, m in sys.modules.items() if k == "efos" or k.startswith("efos.")]
        for module_name, attr, name, extract in SPANS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name, extract))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, extract)
            owners = [module] + [m for m in efos_modules if m is not module]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def export(self):
        counts = [[op, name, amount] for (op, name), amount in self.counts.items()]
        return {"spans": self.spans, "counts": counts}

    def merge(self, data):
        """Append spans and counters exported by another process."""
        base = len(self.spans)
        for name, start, end, parent, op in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for op, name, amount in data["counts"]:
            self.counts[(op, name)] += amount


def summarize(tracer: Tracer, op) -> dict:
    """Per-layer numbers of one operation.

    For each span name: ``calls``, ``total`` (time of spans not nested in a
    span of the same name), ``self`` (duration minus the time covered by
    child spans) and ``in_loop`` (calls made inside a Picard loop); plus
    the counters recorded for the operation.
    """
    index = {i: s for i, s in enumerate(tracer.spans) if s[4] == op}
    child_time = Counter()
    for s in index.values():
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls, total, self_time, in_loop = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in index.items():
        calls[name] += 1
        self_time[name] += (end - start) - child_time[i]
        ancestors = []
        while parent >= 0:
            ancestors.append(index[parent][0])
            parent = index[parent][3]
        if name not in ancestors:
            total[name] += end - start
        if "nonlinear.loop" in ancestors:
            in_loop[name] += 1
    counters = {name: amount for (o, name), amount in tracer.counts.items() if o == op}
    return {"calls": calls, "total": total, "self": self_time, "in_loop": in_loop, "counts": counters}
