"""The package exports no exception class that the program never raises."""

import ast
from pathlib import Path

import graphevade

SRC = Path(graphevade.__file__).resolve().parent


def _raised_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def _exported_exceptions() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {name for name in imported
            if isinstance(getattr(graphevade, name), type)
            and issubclass(getattr(graphevade, name), Exception)}


def test_every_exported_exception_is_raised():
    exported = _exported_exceptions()
    assert exported  # the scan sees the package's exceptions at all
    assert exported - _raised_names() == set()
