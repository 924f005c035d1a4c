"""Attack benchmark runner: one workload in one single-worker process.

Run from the root of a checkout:

    python3 attackbench/run.py --workload reference-eig --seed 42 --seconds 15 --trace 0

A pass attacks every block of the workload once: for each round, one block of
each reference config is generated and a target is trained on it (set-up);
then each method of the workload attacks its own slice of the block's
held-out split through ``attack_engine.attack_testset`` (``workers=1``), and
every attacked graph is checked (see checks.py). Passes repeat, on the same
inputs, until --seconds have gone by. With --trace 1, one more pass runs with
every layer wrapped (see tracing.py), and the per-layer metrics come from that
pass alone.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. An operation is one attacked graph. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

from checks import check_cell  # noqa: E402
from speed import Interval  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import ATTACK, CONFIGS, OBJECTS_RANGE, TARGET, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"


def _import_program() -> dict:
    src = ROOT / "src"
    if not (src / "graphevade" / "__init__.py").is_file():
        raise SystemExit(f"graphevade sources not found under {src}")
    sys.path.insert(0, str(src))
    from graphevade import attack_engine, graph_core, synth_data, target_lcd
    return {"attack_engine": attack_engine, "graph_core": graph_core,
            "synth_data": synth_data, "target_lcd": target_lcd}


def block_seed(seed: int, block_idx: int) -> int:
    """Generator and attack seed of a block; no two workload seeds share a block.

    Unlike bench_stats, the configs of one round do not share a seed: with a
    shared seed they draw near-identical graphs, and the accuracy drop of a
    round then rests on one draw instead of three.
    """
    return seed * 1000 + block_idx


class Pass:
    """What one pass over the workload measured and found.

    Times are kept twice: wall seconds, and reference-speed seconds (see
    speed.py), which the reported metrics use.
    """

    def __init__(self):
        self.setup_ref_s: list[float] = []   # per round: its three blocks
        self.setup_wall_s = 0.0
        self.attack_ref_s = 0.0
        self.attack_wall_s = 0.0
        self.graphs = 0
        self.failed = 0
        self.bad = 0                          # graphs that failed a check
        self.drops: dict[tuple, float] = {}
        self.signature: dict[tuple, tuple] = {}


class _Timed(Interval):
    """An Interval that also puts the spans traced inside it into reference-speed seconds."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.first_span = len(self.tracer.names) if self.tracer is not None else 0
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        if self.tracer is not None and self.wall_s > 0:
            self.tracer.rescale(self.first_span, self.ref_s / self.wall_s)


def run_pass(mods, workload, seed: int, log, tracer=None) -> Pass:
    """One pass; with a tracer, the checks' own queries are left out of its spans."""
    synth_data, target_lcd, attack_engine = (
        mods["synth_data"], mods["target_lcd"], mods["attack_engine"])
    GraphDataset = mods["graph_core"].GraphDataset
    LabeledGraph = mods["graph_core"].LabeledGraph
    n_methods = len(workload.methods)
    result = Pass()
    for round_idx in range(workload.rounds):
        blocks = []
        setup_ref = 0.0
        for k, (cname, delta) in enumerate(CONFIGS.items()):
            bseed = block_seed(seed, len(CONFIGS) * round_idx + k)
            gen = synth_data.GeneratorConfig(
                objects_range=OBJECTS_RANGE, delta=delta,
                n_test_per_class=workload.test_per_class, seed=bseed)
            with _Timed(tracer) as t:
                ds = synth_data.generate(gen)
                target = target_lcd.train_target(ds, wl_iters=TARGET["wl_iters"],
                                                 C=TARGET["C"], seed=bseed)
            setup_ref += t.ref_s
            result.setup_wall_s += t.wall_s
            blocks.append((cname, bseed, ds.subset("test"), target))
        result.setup_ref_s.append(setup_ref)
        for cname, bseed, test, target in blocks:
            for j, method in enumerate(workload.methods):
                # methods attack disjoint slices, each half of either class
                # (the test split lists class +1 first), so every attacked
                # graph is an independent draw for the accuracy drop
                graphs = list(test.graphs[j::n_methods])
                labels = list(test.labels[j::n_methods])
                cell_test = GraphDataset.from_graphs(graphs, labels, ["test"] * len(graphs))
                key = (round_idx, cname, method.name)
                cfg = attack_engine.AttackConfig(
                    strategy=method.strategy, surrogate=method.surrogate,
                    oracle=method.oracle, seed=bseed, **ATTACK)
                result.graphs += len(graphs)
                timer = _Timed(tracer)
                try:
                    with timer:
                        summary = attack_engine.attack_testset(target, cell_test, cfg)
                except Exception:
                    summary = None
                    log(f"cell {key} raised:\n{traceback.format_exc()}")
                result.attack_ref_s += timer.ref_s
                result.attack_wall_s += timer.wall_s
                if summary is None:
                    result.failed += len(graphs)
                    continue
                if tracer is not None:
                    tracer.paused = True
                try:
                    per_graph, cell, drop = check_cell(
                        graphs, labels, target, cfg, summary,
                        target_lcd.BlackBoxQuery, LabeledGraph)
                finally:
                    if tracer is not None:
                        tracer.paused = False
                if cell:
                    bad = len(graphs)
                    log(f"cell {key}: {'; '.join(cell)}")
                else:
                    bad = sum(1 for p in per_graph if p)
                    for g, p in zip(graphs, per_graph):
                        if p:
                            log(f"cell {key} graph {g.graph_id}: {'; '.join(p)}")
                result.bad += bad
                result.failed += bad
                result.drops[key] = drop
                result.signature[key] = tuple(
                    (r.clean_label, r.attacked_label, r.outcome.queries_used,
                     len(r.outcome.records)) for r in summary.results)
    return result


def _flag_repeat_mismatches(first: Pass, later: Pass, log) -> None:
    """Fail the graphs of cells whose outcomes differ from the first pass on
    the same inputs: the attack is meant to be deterministic per seed."""
    bad = 0
    for key, sig in later.signature.items():
        if key in first.signature and first.signature[key] != sig:
            bad += len(sig)
    if bad:
        log(f"{bad} graphs differ from pass 0 on the same inputs")
        later.bad += bad
        later.failed += bad


def _log_pass(log, label: str, p: Pass) -> None:
    log(f"{label}: {p.graphs} graphs, failed {p.failed}; setup "
        f"{p.setup_wall_s:.2f} s wall / {sum(p.setup_ref_s):.2f} ref-s, attack "
        f"{p.attack_wall_s:.2f} s wall / {p.attack_ref_s:.2f} ref-s")


def measure(mods, workload, seed: int, seconds: float, log) -> list[Pass]:
    """Whole passes on the same inputs until `seconds` of passes have run."""
    passes: list[Pass] = []
    wall = 0.0
    while not passes or wall < seconds:
        p = run_pass(mods, workload, seed, log)
        if passes:
            _flag_repeat_mismatches(passes[0], p, log)
        passes.append(p)
        wall += p.setup_wall_s + p.attack_wall_s
        _log_pass(log, f"pass {len(passes) - 1}", p)
    return passes


def end_to_end(passes: list[Pass]) -> dict:
    drops = list(passes[0].drops.values())
    attack_ref_s = sum(p.attack_ref_s for p in passes)
    return {
        "setup_s": {"value": statistics.median(s for p in passes for s in p.setup_ref_s),
                    "unit": "s"},
        "attacked_graphs_per_s": {
            "value": sum(p.graphs for p in passes) / attack_ref_s if attack_ref_s else None,
            "unit": "graphs/s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "unit": "MiB"},
        "accuracy_drop_pp": {"value": statistics.fmean(drops) if drops else None,
                             "unit": "pp"},
    }


def traced_pass(mods, workload, seed: int, untraced: list[Pass], log) -> tuple[Pass, dict]:
    """One more pass with every layer wrapped; per-layer metrics plus overhead."""
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run_pass(mods, workload, seed, log, tracer)
    finally:
        tracer.uninstall()
    for name in tracer.unmeasured:
        log(f"unmeasured: {name} no longer exists")
    _flag_repeat_mismatches(untraced[0], traced, log)
    _log_pass(log, "traced pass", traced)
    # attack time only: the first pass's set-up also pays the process's warm-up
    base = statistics.median(p.attack_ref_s for p in untraced)
    overhead = traced.attack_ref_s - base
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / base, "unit": "%"}
    metrics["trace.spans"] = {"value": len(tracer.names), "unit": "count"}
    RUNS_DIR.mkdir(exist_ok=True)
    tracer.write(RUNS_DIR / f"trace-{workload.name}-seed{seed}.json",
                 {"workload": workload.name, "seed": seed, "metrics": metrics})
    return traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    mods = _import_program()
    workload = WORKLOADS[args.workload]

    def log(msg: str) -> None:
        print(f"[{workload.name} seed={args.seed}] {msg}", file=sys.stderr, flush=True)

    passes = measure(mods, workload, args.seed, args.seconds, log)
    if args.trace:
        traced, metrics = traced_pass(mods, workload, args.seed, passes, log)
        passes.append(traced)
    else:
        metrics = end_to_end(passes)
    print(json.dumps({
        "correct": sum(p.bad for p in passes) == 0,
        "attempted": sum(p.graphs for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
