"""The benchmark's span table names functions that exist.

``perfbench/spans.py`` wraps efos (and numpy.fft) attributes by name, so a
renamed or deleted function would silently drop its layer from traced
runs.  The table is read with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
