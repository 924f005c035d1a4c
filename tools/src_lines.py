"""Count the physical and the code lines of each src/graphevade module.

Run from the root of a checkout:

    python3 tools/src_lines.py
    python3 tools/src_lines.py --against HEAD~1

A code line is one that is not blank, not only a comment and not part of a
docstring (the string that opens a module, class or function body). Every
other line of a multi-line statement is code, a multi-line string in code
included. One line per module gives its physical and code lines; the last
line gives the totals, with the docstring, comment and blank lines that make
up the difference. With --against REV, each line gives REV's counts (its
files read with ``git show REV:path``), the working tree's counts and the
change; a module on one side only counts 0 on the other. Standard library
only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def tree_texts() -> dict[str, str]:
    """Module name -> source of the working tree's src/graphevade."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def git(*args: str) -> str:
    """Stdout of one git command, run at the root of the checkout."""
    return subprocess.run(["git", *args], cwd=PACKAGE.parent.parent, check=True,
                          capture_output=True, text=True).stdout


def rev_texts(rev: str) -> dict[str, str]:
    """Module name -> source of src/graphevade at git revision rev."""
    names = git("ls-tree", "--name-only", f"{rev}:src/graphevade").split()
    return {name: git("show", f"{rev}:src/graphevade/{name}")
            for name in names if name.endswith(".py")}


def totals_of(texts: dict[str, str]) -> dict[str, dict[str, int]]:
    """Counts per module, plus their sum under "total"."""
    counts = {name: classify(text) for name, text in texts.items()}
    total = {key: sum(c[key] for c in counts.values())
             for key in ("physical", "code", "docstring", "comment", "blank")}
    return {**counts, "total": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of src/graphevade.")
    parser.add_argument("--against", metavar="REV",
                        help="also count REV's modules (read with git show) and print the change")
    args = parser.parse_args(argv)
    now = totals_of(tree_texts())
    if args.against is None:
        for name, counts in now.items():
            if name != "total":
                print(f"{name}: {counts['physical']} physical, {counts['code']} code")
        t = now["total"]
        print(f"total: {t['physical']} physical, {t['code']} code "
              f"({t['docstring']} docstring, {t['comment']} comment, {t['blank']} blank)")
        return 0
    try:
        then = totals_of(rev_texts(args.against))
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"src_lines: cannot read {args.against}: {exc.stderr.strip()}\n")
        return 2
    zero = dict.fromkeys(("physical", "code"), 0)
    names = sorted((set(now) | set(then)) - {"total"}) + ["total"]
    print(f"module: {args.against} -> working tree, physical/code lines (change)")
    for name in names:
        a, b = then.get(name, zero), now.get(name, zero)
        print(f"{name}: {a['physical']}/{a['code']} -> {b['physical']}/{b['code']} "
              f"({b['physical'] - a['physical']:+d}/{b['code'] - a['code']:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
