"""Hash every attack decision of one pass of each attackbench workload.

Run from the root of a checkout:

    python3 tools/output_hashes.py --seed 42

For each workload of attackbench/workloads.py, the blocks are generated and
attacked exactly as one pass of attackbench/run.py makes them (same seeds,
same slices), without timing or checks. ``--workers N`` (default 1) passes N
to ``attack_testset``; any N must print the same lines. Each cell (round,
config, method) prints one line: the sha256 of its ``summary_to_json``
(records included) and of its block target's ``target_to_json``, both as
canonical JSON. The last line is one digest over every cell line. Two
checkouts that print the same last line took the same decisions; a
difference names the first cell that moved. attackbench/ is imported, not
changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "attackbench"))
sys.path.insert(0, str(ROOT / "src"))

from graphevade import attack_engine, graph_core, synth_data, target_lcd  # noqa: E402
from run import block_seed  # noqa: E402
from workloads import ATTACK, CONFIGS, OBJECTS_RANGE, TARGET, WORKLOADS  # noqa: E402


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_hashes(workload, seed: int, workers: int = 1):
    """(cell key, summary hash, target hash) of every cell of one pass."""
    n_methods = len(workload.methods)
    for round_idx in range(workload.rounds):
        for k, (cname, delta) in enumerate(CONFIGS.items()):
            bseed = block_seed(seed, len(CONFIGS) * round_idx + k)
            ds = synth_data.generate(synth_data.GeneratorConfig(
                objects_range=OBJECTS_RANGE, delta=delta,
                n_test_per_class=workload.test_per_class, seed=bseed))
            target = target_lcd.train_target(ds, wl_iters=TARGET["wl_iters"],
                                             C=TARGET["C"], seed=bseed)
            target_hash = _sha256(target_lcd.target_to_json(target))
            test = ds.subset("test")
            for j, method in enumerate(workload.methods):
                graphs = list(test.graphs[j::n_methods])
                labels = list(test.labels[j::n_methods])
                cell = graph_core.GraphDataset.from_graphs(graphs, labels, ["test"] * len(graphs))
                cfg = attack_engine.AttackConfig(
                    strategy=method.strategy, surrogate=method.surrogate,
                    oracle=method.oracle, seed=bseed, **ATTACK)
                summary = attack_engine.attack_testset(target, cell, cfg, workers=workers)
                yield ((workload.name, round_idx, cname, method.name),
                       _sha256(attack_engine.summary_to_json(summary)), target_hash)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workers < 1:
        ap.error("--workers must be >= 1")
    combined = hashlib.sha256()
    cells = 0
    for name in sorted(WORKLOADS):
        for key, summary_hash, target_hash in cell_hashes(WORKLOADS[name], args.seed,
                                                          args.workers):
            line = f"{' '.join(map(str, key))} summary {summary_hash} target {target_hash}"
            print(line, flush=True)
            combined.update(line.encode("utf-8") + b"\n")
            cells += 1
    print(f"combined {combined.hexdigest()} over {cells} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
