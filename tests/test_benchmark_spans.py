"""The benchmark's span table and workloads name efos API that exists.

``perfbench/spans.py`` wraps efos (and numpy.fft) attributes by name, so a
renamed or deleted function would silently drop its layer from traced
runs; ``perfbench/workloads.py`` calls efos, so a removed function or
parameter would fail every benchmark operation.  Both files are read with
``ast``, without importing the benchmark.  A deleted report field that a
workload's check or a span's extractor reads fails only when they run, so
one traced operation of each in-process workload is run too, with the
two files loaded by path.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import efos

from helpers import load_benchmark

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS_PY = SPANS_PY.with_name("workloads.py")


def _span_targets():
    for node in ast.parse(SPANS_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]:
            return [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in node.value.elts]
    raise AssertionError(f"{SPANS_PY} assigns no SPANS list")


def test_every_span_target_resolves():
    targets = _span_targets()
    assert any(module.startswith("efos") for module, _ in targets)
    for module, attribute in targets:
        obj = importlib.import_module(module)
        for part in attribute.split("."):  # "Class.method"
            assert hasattr(obj, part), f"{module} has no {attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attribute} is not callable"


def _efos_calls():
    """(line, dotted target, call node) of every call in workloads.py to
    ``efos.<target>`` or ``self.efos.<target>``."""
    for node in ast.walk(ast.parse(WORKLOADS_PY.read_text())):
        if not isinstance(node, ast.Call):
            continue
        path, base = [], node.func
        while isinstance(base, ast.Attribute):
            path.insert(0, base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            continue
        path = [base.id] + path
        if path[0] == "self":
            path = path[1:]
        if path[0] == "efos" and len(path) > 1:
            yield node.lineno, ".".join(path[1:]), node


def test_every_workload_call_binds():
    calls = list(_efos_calls())
    assert len(calls) > 30
    for line, target, call in calls:
        where = f"workloads.py:{line} efos.{target}"
        obj = efos
        for part in target.split("."):
            assert hasattr(obj, part), f"{where}: efos has no {target}"
            obj = getattr(obj, part)
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        keywords = [k.arg for k in call.keywords]
        assert None not in keywords, where
        try:
            inspect.signature(obj).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None


@pytest.mark.parametrize("name", ["picard-g32", "verify-toolkit"])
def test_one_traced_operation_passes_its_check(tmp_path, name):
    workloads, spans = load_benchmark("workloads"), load_benchmark("spans")
    workload = workloads.WORKLOADS[name](3, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation("setup"):
            workload.setup()
        inp = workload.make_input(0)
        with tracer.operation(0):
            out = workload.run(inp)
    finally:
        tracer.uninstall()
    assert workload.check(inp, out) is None
    counts = spans.summarize(tracer, 0)["counts"]
    assert counts["nonlinear.iterations" if name == "picard-g32" else "ellipticity.sweep_samples"] > 0
