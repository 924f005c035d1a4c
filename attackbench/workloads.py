"""The benchmark's workloads: which reference blocks each one attacks, and how.

A block is one (dataset config, seed) pair, as in
``bench_stats.run_benchmark``: the config's generator runs with the seed, a
fresh target is trained on the train split, and each method of the workload
attacks its own slice of the held-out split with the block's seed. A round is one block of each
of the three reference configs; block b of a run with ``--seed s`` uses seed
``1000 * s + b`` (see ``run.block_seed``), so different seeds share no block.

The configs and the attack settings are copied from
``benchmarks/reference.json`` rather than read from it, so that spec-format
changes there leave the benchmark's inputs alone.

Sizes: across seeds, the accuracy drop and the throughput spread with the
number of distinct targets (blocks) and graphs a run attacks. So the test
splits are small (the reference has 50 graphs per class), the methods of a
block attack disjoint slices of its split instead of the same graphs, and
each workload gets as many blocks as about 25-35 s of set-up and attack
allow. Attacks that end early are cheap, so hard-label runs most blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIGS = {"desk": 0.70, "office": 0.60, "lounge": 0.75}
OBJECTS_RANGE = (7, 8)
ATTACK = {"r": 0.0033333333333333335, "max_queries": 30, "k_candidates": 10,
          "rounds": 3}
TARGET = {"wl_iters": 3, "C": 10.0}


@dataclass(frozen=True)
class Method:
    name: str
    strategy: str
    surrogate: str
    oracle: str = "score"


@dataclass(frozen=True)
class Workload:
    """rounds blocks of each config; test_per_class held-out graphs per class
    per block, split evenly between the methods."""

    name: str
    why: str
    methods: tuple[Method, ...]
    rounds: int
    test_per_class: int

    def __post_init__(self):
        if self.test_per_class % len(self.methods):
            raise ValueError(f"{self.name}: test_per_class must split evenly between methods")


ADV_LCD = Method("adv_lcd", "eigencentrality", "svm_rbf")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference-eig",
            "eigencentrality with the four reference surrogates; attacker WL, "
            "graph_hash and surrogate fit and scoring do most of the work",
            (ADV_LCD,
             Method("svm_linear", "eigencentrality", "svm_linear"),
             Method("svm_poly", "eigencentrality", "svm_poly"),
             Method("naive_bayes", "eigencentrality", "naive_bayes")),
            rounds=8, test_per_class=12),
        Workload(
            "reference-planners",
            "shortest_path and random_walk with svm_rbf; a planner change "
            "shows here and must not show on reference-eig",
            (Method("shortest_path", "shortest_path", "svm_rbf"),
             Method("random_walk", "random_walk", "svm_rbf")),
            rounds=7, test_per_class=8),
        Workload(
            "hard-label",
            "Adversarial-LCD with a hard-label oracle; no surrogate is fit, so "
            "the target's query path (WL, graph_hash, margins) leads",
            (Method("adv_lcd_label", "eigencentrality", "svm_rbf", "label"),),
            rounds=10, test_per_class=10),
    )
}
