"""List the statement lines of src/graphevade that the program never runs.

Run from the root of a checkout:

    python3 tools/unrun_lines.py

A ``sys.settrace`` line trace covers the files of src/graphevade while two
things run in this one process, with one worker throughout:

- the README CLI walkthrough, in a temporary directory: ``gen``,
  ``train-target``, an eigencentrality ``attack``, a label-oracle
  shortest-path ``attack``, ``bench`` on benchmarks/smoke.json and ``rank``;
- one pass of each attackbench workload at seed 42, made as
  tools/output_hashes.py makes it (attackbench/ is imported, not changed).

A statement line is a line where a statement starts and the compiler emits
code (so docstrings and ``global``/``nonlocal`` do not count). For each
module the never-run statement lines are printed with their source, then one
summary line per module and a total. Under the trace the whole run took
about a minute on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphevade"
sys.dont_write_bytecode = True


def statement_lines(path: Path) -> set[int]:
    """Start lines of the statements in path that compile to code."""
    text = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    with_code: set[int] = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & with_code


def walkthrough_commands(work: Path) -> list[list[str]]:
    """The README CLI commands, with one worker and every output under work."""
    data, target = work / "data", work / "target"
    dataset, model = str(data / "dataset.jsonl"), str(target / "model.json")
    return [
        ["gen", "--out", str(data), "--seed", "42"],
        ["train-target", "--dataset", dataset, "--out", str(target)],
        ["attack", "--model", model, "--dataset", dataset, "--out", str(work / "attack"),
         "--strategy", "eigencentrality", "--surrogate", "svm_rbf", "--r", "3.3e-3",
         "--max-queries", "30", "--rounds", "3", "--k-candidates", "10", "--seed", "42",
         "--workers", "1"],
        ["attack", "--model", model, "--dataset", dataset, "--out", str(work / "attack_sp"),
         "--strategy", "shortest_path", "--oracle", "label", "--r", "3.3e-3",
         "--max-queries", "30", "--rounds", "3", "--k-candidates", "10", "--seed", "42",
         "--workers", "1"],
        ["bench", "--spec", str(ROOT / "benchmarks" / "smoke.json"), "--out",
         str(work / "bench"), "--workers", "1"],
        ["rank", "--table", str(work / "bench" / "results.csv"), "--out", str(work / "rank")],
    ]


def walkthrough(work: Path) -> None:
    """Run the README CLI commands, each expected to exit 0."""
    from graphevade.cli import main

    for argv in walkthrough_commands(work):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"graphevade {argv[0]} exited {code}")


def workload_passes() -> None:
    sys.path.insert(0, str(ROOT / "attackbench"))
    sys.path.insert(0, str(ROOT / "tools"))
    from output_hashes import cell_hashes
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        for _ in cell_hashes(WORKLOADS[name], 42):
            pass


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(global_)
    try:
        import graphevade  # noqa: F401  (module-level lines run under the trace)

        with tempfile.TemporaryDirectory() as tmp:
            walkthrough(Path(tmp))
        workload_passes()
    finally:
        sys.settrace(None)

    summary, total, never = [], 0, 0
    for name, path in files.items():
        lines = statement_lines(path)
        missed = sorted(lines - ran[name])
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
        summary.append(f"{path.name}: {len(missed)} of {len(lines)} statement lines never ran")
        total += len(lines)
        never += len(missed)
    print()
    print("\n".join(summary))
    print(f"total: {never} of {total} statement lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
