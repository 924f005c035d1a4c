"""Count the physical and the code lines of each src/graphevade module.

Run from the root of a checkout:

    python3 tools/src_lines.py

A code line is one that is not blank, not only a comment and not part of a
docstring (the string that opens a module, class or function body). Every
other line of a multi-line statement is code, a multi-line string in code
included. One line per module gives its physical and code lines; the last
line gives the totals, with the docstring, comment and blank lines that make
up the difference. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphevade"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of the docstrings of the module and of its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(text: str) -> dict[str, int]:
    """Counts of physical, code, docstring, comment and blank lines."""
    physical = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    blank = {i for i, line in enumerate(physical, 1) if not line.strip()} - docs
    return {"physical": len(physical), "code": len(code), "docstring": len(docs),
            "comment": len(physical) - len(code) - len(docs) - len(blank), "blank": len(blank)}


def main() -> int:
    totals: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        counts = classify(path.read_text(encoding="utf-8"))
        print(f"{path.name}: {counts['physical']} physical, {counts['code']} code")
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    print(f"total: {totals['physical']} physical, {totals['code']} code "
          f"({totals['docstring']} docstring, {totals['comment']} comment, {totals['blank']} blank)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
