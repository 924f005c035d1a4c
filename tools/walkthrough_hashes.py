"""Hash every file and stdout of the README CLI walkthrough.

Run from the root of a checkout:

    python3 tools/walkthrough_hashes.py

The commands are those of tools/unrun_lines.py (``gen``, ``train-target``,
two ``attack`` runs, ``bench`` on benchmarks/smoke.json and ``rank``, one
worker each), run in-process from a temporary working directory with
relative output paths, so the files they write do not name the directory.
``--help`` of the program and of every subcommand runs too. One line is
printed per stdout and per file written: its sha256. The last line is one
digest over every line before it. Stderr is not hashed, since ``bench``
reports elapsed seconds there. Two checkouts that print the same last line
wrote the same bytes; a difference names the first output that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

from graphevade.cli import build_parser, main as cli_main  # noqa: E402
from unrun_lines import walkthrough_commands  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process command; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return code, out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_lines():
    """One line per stdout and per file written, in a fixed order."""
    subcommands = sorted(next(a for a in build_parser()._actions
                              if isinstance(a, argparse._SubParsersAction)).choices)
    commands = [["--help"]] + [[name, "--help"] for name in subcommands]
    commands += walkthrough_commands(Path("."))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, argv in enumerate(commands):
                code, stdout = _run(argv)
                if code != 0:
                    raise SystemExit(f"graphevade {' '.join(argv)} exited {code}")
                yield f"stdout {i} {' '.join(argv[:2])} {_sha256(stdout.encode('utf-8'))}"
            for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                yield f"file {path.as_posix()} {_sha256(path.read_bytes())}"
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    combined = hashlib.sha256()
    count = 0
    for line in output_lines():
        print(line, flush=True)
        combined.update(line.encode("utf-8") + b"\n")
        count += 1
    print(f"combined {combined.hexdigest()} over {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
