"""Run attackbench in alternating pairs on two checkouts and summarise them.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --workload hard-label \
        --pairs 10 --seed 42 --seconds 15 --out BENCH_example.json

Each pair runs ``attackbench/run.py --trace 0`` once in the parent checkout
and once in the change checkout (``--change``, by default this one). Odd
pairs run the parent first, even pairs the change, so a drift in machine
speed falls on both sides alike. Any run that reports ``correct: false`` or
``failed > 0`` stops the tool with exit code 1.

The output holds one row per (workload, seed): every end-to-end metric's
runs, median and quartiles (``statistics.quantiles``, inclusive) per side,
and ``change_wins_pairs``: for each end-to-end metric, the pairs in which the
change read better, in the direction (``better``) that the change's
``BENCHMARK.json`` gives it; a tie counts for neither side. For each
end-to-end metric, ``change_median_beyond_parent_iqr`` says whether the
change's median lies beyond the parent's interquartile range (IQR) in that
direction: above the parent's upper quartile when higher is better, below
its lower quartile when lower is. Each row also
names what it compared: ``seconds`` per run and, per side, the checkout's
``git rev-parse HEAD`` and whether its tracked files differ from that commit
(``dirty``), both null outside git. Rows of other (workload, seed) keys
already in ``--out`` are kept, so several seeds go into one file. Stdlib
only; attackbench/, BENCHMARK.json and git are read, not changed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHAT = ("attackbench/run.py --trace 0, single worker, alternating pairs of the parent "
        "and the change (odd pairs parent first); change_wins_pairs counts, for each "
        "end-to-end metric, the pairs where the change read better in the direction "
        "BENCHMARK.json gives it (ties count for neither side); "
        "change_median_beyond_parent_iqr says whether the change's median lies past the "
        "parent's quartile on that better side")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One attackbench run in checkout; its result line, checked."""
    proc = subprocess.run(
        [sys.executable, "attackbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"{checkout}: {workload} seed {seed}: correct={result['correct']}, "
                 f"failed={result['failed']}\n{proc.stderr}")
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": [round(v, 4) for v in runs], "median": round(statistics.median(runs), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def git_state(checkout: Path) -> dict:
    """checkout's HEAD commit and whether its tracked files differ from it;
    both None outside git. No lock is taken, so the index is left as it is."""

    def git(*args) -> str | None:
        try:
            proc = subprocess.run(["git", "--no-optional-locks", *args], cwd=checkout,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if head else None
    return {"head": head, "dirty": None if status is None else bool(status)}


def better_directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, "higher" or "lower", as
    checkout's BENCHMARK.json gives it."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def wins(metric: dict, better: str) -> int:
    """Pairs of one metric's runs in which the change beat the parent in the
    better direction; ties count for neither."""
    sign = 1 if better == "higher" else -1
    pairs = zip(metric["parent"]["runs"], metric["change"]["runs"])
    return sum(sign * (c - p) > 0 for p, c in pairs)


def beyond_iqr(metric: dict, better: str) -> bool:
    """Whether the change's median lies past the parent's quartile on the
    better side."""
    if better == "higher":
        return metric["change"]["median"] > metric["parent"]["q3"]
    return metric["change"]["median"] < metric["parent"]["q1"]


def bench_workload(parent: Path, change: Path, workload: str, pairs: int, seed: int,
                   seconds: float) -> dict:
    checkouts = {"parent": git_state(parent), "change": git_state(change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(parent if side == "parent" else change, workload, seed, seconds)
            runs[side].append(result)
            speed = result["metrics"]["attacked_graphs_per_s"]["value"]
            print(f"[{workload} seed={seed}] pair {i + 1}/{pairs} {side}: "
                  f"{speed} graphs/s", file=sys.stderr, flush=True)
    metrics = {
        name: {side: summary([r["metrics"][name]["value"] for r in runs[side]])
               for side in ("parent", "change")}
        for name in runs["parent"][0]["metrics"]
    }
    directions = better_directions(change)
    change_wins = {name: f"{wins(metrics[name], better)}/{pairs}"
                   for name, better in directions.items()}
    beyond = {name: beyond_iqr(metrics[name], better) for name, better in directions.items()}
    return {"workload": workload, "seed": seed, "pairs": pairs, "seconds": seconds,
            "checkouts": checkouts, "correct": True, "failed": 0, "metrics": metrics,
            "change_wins_pairs": change_wins, "change_median_beyond_parent_iqr": beyond}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    ap.add_argument("--change", type=Path, default=ROOT, help="the change's checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2: quartiles need two runs per side")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    rows = doc.get("workloads", [])
    for workload in args.workload:
        row = bench_workload(args.parent, args.change, workload, args.pairs, args.seed,
                             args.seconds)
        rows = [r for r in rows if (r["workload"], r["seed"]) != (workload, args.seed)] + [row]
        doc.update(what=WHAT, machine=machine(), workloads=rows)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
