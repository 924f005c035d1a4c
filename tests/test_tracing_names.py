"""The attack benchmark's tracer wraps program functions by (module, name); a
rename in the program would silently drop a layer from its per-layer report."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "attackbench" / "tracing.py"


def _wrapped() -> tuple:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("WRAPPED not found in attackbench/tracing.py")


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _span in wrapped:
        mod = importlib.import_module(f"graphevade.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
