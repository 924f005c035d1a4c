"""Profile the attack part of one attackbench pass with cProfile.

Run from the root of a checkout:

    python3 tools/profile_pass.py --workload hard-label --seed 42 --top 25

One pass of the workload runs as attackbench/run.py runs it (same blocks,
same cells, same checks, one worker), with cProfile enabled only inside
``attack_engine.attack_testset``: set-up (generation and target training)
and the checks stay out of the profile. Two tables follow: the top ``--top``
functions by own time, then by cumulative time. attackbench's tracer charges
the engine's batched WL and ``prefetch_many``'s Python work to
``attack_engine.self_s``; these tables name the functions behind it. Progress
goes to stderr, and a pass with a failed graph exits 1. Stdlib only;
attackbench/ is imported, not changed.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "attackbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def profile_pass(workload, seed: int, log) -> tuple[cProfile.Profile, "run.Pass"]:
    """One pass of workload at seed, attack_testset profiled; the profile and the pass."""
    mods = run._import_program()
    engine = mods["attack_engine"]
    attack_testset = engine.attack_testset
    profiler = cProfile.Profile()

    def profiled(*args, **kwargs):
        profiler.enable()
        try:
            return attack_testset(*args, **kwargs)
        finally:
            profiler.disable()

    engine.attack_testset = profiled
    try:
        return profiler, run.run_pass(mods, workload, seed, log)
    finally:
        engine.attack_testset = attack_testset


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.top < 1:
        ap.error("--top must be >= 1")

    def log(msg: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {msg}", file=sys.stderr, flush=True)

    profiler, p = profile_pass(WORKLOADS[args.workload], args.seed, log)
    print(f"{args.workload} seed {args.seed}: {p.graphs} graphs, failed {p.failed}, "
          f"attack {p.attack_wall_s:.2f} s wall under cProfile")
    for key, title in (("tottime", "own time"), ("cumulative", "cumulative time")):
        print(f"\n== top {args.top} by {title} ==")
        pstats.Stats(profiler, stream=sys.stdout).strip_dirs().sort_stats(key).print_stats(args.top)
    return 1 if p.failed else 0


if __name__ == "__main__":
    sys.exit(main())
