"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 5-7 share one reference-benchmark run: three dataset configs x six
methods x ten repetitions at 200 train / 100 test graphs each, plus a budget
sweep on the primary config. Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines live; on two cores the benchmark fixture takes
most of the suite's runtime.
"""

import ast
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import graphevade.attack_engine as engine_module
from graphevade.attack_engine import AttackConfig
from graphevade.bench_stats import (
    MethodSpec,
    ResultTable,
    friedman_nemenyi,
    nemenyi_critical_difference,
    run_benchmark,
)
from graphevade.graph_core import apply_flips, graph_hash
from graphevade.learners import KernelSpec, kkt_max_residual, svm_predict, svm_train
from graphevade.perturb import adjacency_matrix, eigencentrality
from graphevade.synth_data import GeneratorConfig, generate
from graphevade.wl_features import sparse_dot, wl_feature_vector, wl_feature_vectors
from oracles import (
    dominant_eigenspace_cosine,
    dual_objective,
    dual_qp_projected_gradient,
    wl_pair_kernel,
)

from conftest import random_graph


@contextmanager
def criterion(num, name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL [{time.monotonic() - t0:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.monotonic() - t0:.1f}s]")


# ---------------------------------------------------------------------------
# reference benchmark shared by criteria 5-8
# ---------------------------------------------------------------------------

REFERENCE_CONFIGS = {
    "desk": GeneratorConfig(objects_range=(7, 8), delta=0.70),
    "office": GeneratorConfig(objects_range=(7, 8), delta=0.60),
    "lounge": GeneratorConfig(objects_range=(7, 8), delta=0.75),
}
# r = k/900 for k = 1..3: beta = ceil(r n^2) is nominally k at n = 30 and stays
# within {1, ..., 4} over the generator's n range (24..32)
BUDGETS = [1.0 / 900, 2.0 / 900, 3.0 / 900]
BASE_ATTACK = AttackConfig(r=BUDGETS[2], max_queries=30, rounds=3,
                           k_candidates=10, seed=42)
METHODS = [
    MethodSpec("adv_lcd", "eigencentrality", "svm_rbf"),
    MethodSpec("shortest_path", "shortest_path", "svm_rbf"),
    MethodSpec("random_walk", "random_walk", "svm_rbf"),
    MethodSpec("svm_linear", "eigencentrality", "svm_linear"),
    MethodSpec("svm_poly", "eigencentrality", "svm_poly"),
    MethodSpec("naive_bayes", "eigencentrality", "naive_bayes"),
]
REPETITIONS = 10


@pytest.fixture(scope="module")
def reference_bench():
    t0 = time.monotonic()
    main = run_benchmark(METHODS, REFERENCE_CONFIGS, BASE_ATTACK,
                         repetitions=REPETITIONS, seed=42, workers=2)
    sweep = run_benchmark([METHODS[0]], {"desk": REFERENCE_CONFIGS["desk"]},
                          BASE_ATTACK, repetitions=REPETITIONS,
                          budgets=BUDGETS, seed=42, workers=2)
    return {"main": main, "sweep": sweep, "elapsed": time.monotonic() - t0}


def _slice(table: ResultTable, names):
    idx = [table.method_names.index(n) for n in names]
    return ResultTable(table.row_names, tuple(names), table.values[:, idx, :])


# ---------------------------------------------------------------------------
# criterion 1: eigencentrality vs dense eigensolver oracle
# ---------------------------------------------------------------------------

def test_criterion_1_eigencentrality_oracle():
    with criterion(1, "eigencentrality oracle equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1234)
        for i in range(100):
            n = int(rng.integers(2, 11))
            p = float(rng.uniform(0.2, 0.7))
            g = random_graph(n, p, rng, graph_id=f"c1-{i}")
            scores = eigencentrality(g, tol=1e-13, max_iter=200_000)
            cos = dominant_eigenspace_cosine(adjacency_matrix(g), scores.x)
            assert cos >= 1 - 1e-8, f"graph {i}: cosine {cos}"
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 2: WL correctness
# ---------------------------------------------------------------------------

def test_criterion_2_wl_correctness():
    with criterion(2, "WL feature and kernel correctness"):
        t0 = time.monotonic()
        rng = np.random.default_rng(99)
        # (a) permutation invariance, 50 permutations per graph, exact equality
        for i in range(10):
            g = random_graph(int(rng.integers(2, 9)), 0.4, rng, graph_id=f"c2-{i}")
            base = wl_feature_vector(g, 3).counts
            for _ in range(50):
                perm = rng.permutation(g.n)
                inv = np.argsort(perm)
                from graphevade.graph_core import LabeledGraph
                permuted = LabeledGraph(
                    g.graph_id,
                    tuple(g.node_labels[inv[j]] for j in range(g.n)),
                    tuple(g.node_tiers[inv[j]] for j in range(g.n)),
                    tuple((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                          for u, v, w in g.edges),
                )
                assert wl_feature_vector(permuted, 3).counts == base
        # (b) pairwise kernel equals the independent two-graph oracle, exactly
        for i in range(200):
            g1 = random_graph(int(rng.integers(1, 8)), 0.4, rng, graph_id=f"c2p{i}a")
            g2 = random_graph(int(rng.integers(1, 8)), 0.4, rng, graph_id=f"c2p{i}b")
            v1, v2 = wl_feature_vectors([g1, g2], 3)
            assert sparse_dot(v1.counts, v2.counts) == wl_pair_kernel(g1, g2, 3)
        # (c) per-iteration histogram sums equal n
        for i in range(20):
            g = random_graph(int(rng.integers(1, 10)), 0.35, rng, graph_id=f"c2s{i}")
            vec = wl_feature_vector(g, 3)
            assert vec.iteration_sums() == [g.n] * 4
        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3: SVM solver soundness
# ---------------------------------------------------------------------------

def test_criterion_3_svm_soundness():
    with criterion(3, "SVM solver soundness"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        trained = []

        # two-point and XOR fixtures
        x2 = [np.array([0.0]), np.array([2.0])]
        trained.append((svm_train(x2, [-1, 1], KernelSpec("linear"), C=10.0, tol=1e-6),
                        x2, [-1, 1], 1e-6))
        xor_x = [np.array(p, dtype=float) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
        xor_y = [-1, 1, 1, -1]
        xor_model = svm_train(xor_x, xor_y, KernelSpec("rbf", gamma=1.0), C=10.0, tol=1e-5)
        assert [svm_predict(xor_model, x)[0] for x in xor_x] == xor_y
        trained.append((xor_model, xor_x, xor_y, 1e-5))

        # 20-point problems: dual objective vs the projected-gradient oracle
        for separable in (True, False):
            for kind in ("linear", "rbf"):
                half = 10
                a = rng.normal(loc=-2.0 if separable else 0.0, size=(half, 3))
                b = rng.normal(loc=2.0 if separable else 0.5, size=(half, 3))
                x = [row for row in np.vstack([a, b])]
                y = [-1] * half + [1] * half
                spec = KernelSpec(kind, gamma=0.5) if kind == "rbf" else KernelSpec(kind)
                model = svm_train(x, y, spec, C=1.0, tol=1e-5, max_passes=500)
                trained.append((model, x, y, 1e-5))
                xd = np.vstack(x)
                if kind == "rbf":
                    sq = np.sum(xd * xd, axis=1)
                    gram = np.exp(-0.5 * np.clip(sq[:, None] + sq[None, :]
                                                 - 2 * xd @ xd.T, 0, None))
                else:
                    gram = xd @ xd.T
                alpha = np.zeros(20)
                alpha[list(model.sv_indices)] = model.alphas
                smo_obj = dual_objective(alpha, gram, np.asarray(y, float))
                _, pg_obj = dual_qp_projected_gradient(gram, np.asarray(y, float), 1.0)
                assert abs(smo_obj - pg_obj) <= 1e-4, f"{kind} sep={separable}"

        # polynomial-kernel model joins the KKT battery
        xp = [rng.normal(size=2) for _ in range(16)]
        yp = [1 if v @ v > 1.5 else -1 for v in xp]
        if len(set(yp)) == 2:
            trained.append((svm_train(xp, yp, KernelSpec("polynomial", degree=3, coef0=1.0),
                                      C=5.0, tol=1e-4, max_passes=500), xp, yp, 1e-4))

        for model, x, y, tol in trained:
            assert kkt_max_residual(model, x, y) <= tol + 1e-9
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 4: statistics fixtures
# ---------------------------------------------------------------------------

def test_criterion_4_statistics_fixtures():
    with criterion(4, "statistics fixtures"):
        assert abs(nemenyi_critical_difference(4, 5, 0.05) - 2.0977) <= 1e-3

        # dominance fixture: A beats B beats C in all 10 blocks
        vals = np.zeros((2, 3, 5))
        vals[:, 0, :] = -30.0
        vals[:, 1, :] = -20.0
        vals[:, 2, :] = -10.0
        rep = friedman_nemenyi(ResultTable(("r0", "r1"), ("A", "B", "C"), vals))
        n_blocks, k = 10, 3
        hand_chi2 = (12.0 * n_blocks / (k * (k + 1))
                     * ((3.0**2 + 2.0**2 + 1.0**2) - k * (k + 1) ** 2 / 4.0))
        assert rep.mean_ranks == (3.0, 2.0, 1.0)
        assert abs(rep.friedman_chi2 - hand_chi2) <= 1e-9

        rng = np.random.default_rng(5)
        for k in (2, 3, 4, 5, 7):
            table = ResultTable(
                tuple(f"r{i}" for i in range(3)),
                tuple(f"m{j}" for j in range(k)),
                rng.normal(size=(3, k, 4)),
            )
            ranks = friedman_nemenyi(table).mean_ranks
            assert abs(sum(ranks) - k * (k + 1) / 2) <= 1e-9


# ---------------------------------------------------------------------------
# criteria 5-7: method orderings on the reference benchmark
# ---------------------------------------------------------------------------

def test_criterion_5_strategy_ordering(reference_bench):
    with criterion(5, "attack effectiveness ordering"):
        table = _slice(reference_bench["main"].table,
                       ["adv_lcd", "shortest_path", "random_walk"])
        eig = float(table.method_values("adv_lcd").mean())
        sp = float(table.method_values("shortest_path").mean())
        rw = float(table.method_values("random_walk").mean())
        print(f"\n  mean decline: eigencentrality {eig:+.2f}, "
              f"shortest-path {sp:+.2f}, random-walk {rw:+.2f}")
        assert eig < sp < rw  # larger decline = more negative
        assert rw - eig >= 2.0  # eigencentrality leads random-walk by >= 2 pp
        assert reference_bench["elapsed"] < 600.0


def test_criterion_6_surrogate_ordering(reference_bench):
    with criterion(6, "surrogate ordering"):
        table = _slice(reference_bench["main"].table,
                       ["adv_lcd", "svm_linear", "svm_poly", "naive_bayes"])
        rep = friedman_nemenyi(table, alpha=0.05)
        means = {m: float(table.method_values(m).mean()) for m in table.method_names}
        ranks = dict(zip(rep.method_names, rep.mean_ranks))
        print(f"\n  means {means}\n  mean ranks {ranks}, "
              f"friedman p {rep.friedman_p:.3g}")
        # declines are negative: RBF must attack at least as hard as linear
        assert means["adv_lcd"] <= means["svm_linear"]
        assert rep.friedman_p < 0.05
        for other in ("svm_linear", "svm_poly", "naive_bayes"):
            assert ranks["adv_lcd"] >= ranks[other] - 1e-9


def test_criterion_7_budget_monotonicity(reference_bench):
    with criterion(7, "budget monotonicity"):
        sweep = reference_bench["sweep"].table
        means = [float(sweep.values[i, 0, :].mean()) for i in range(len(sweep.row_names))]
        print(f"\n  seed-averaged decline per budget {dict(zip(sweep.row_names, np.round(means, 2)))}")
        assert len(means) == 3
        assert means[0] >= means[1] >= means[2]  # non-increasing (more negative)


# ---------------------------------------------------------------------------
# criterion 8: black-box and budget contracts
# ---------------------------------------------------------------------------

ALLOWED_TARGET_IMPORTS = {"BlackBoxQuery", "QueryBudgetExhausted", "attack_loss", "evaluate"}
MODEL_INTERNALS = {"svm", "dictionary", "platt_a", "platt_b", "alphas",
                   "support_vectors", "sv_labels", "bias", "_model"}


def test_criterion_8_blackbox_and_budget_contracts(reference_bench):
    with criterion(8, "black-box and budget contracts"):
        src = Path(engine_module.__file__).read_text()
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and "target_lcd" in node.module:
                names = {alias.name for alias in node.names}
                assert names <= ALLOWED_TARGET_IMPORTS, names
            if isinstance(node, ast.Attribute):
                assert node.attr not in MODEL_INTERNALS, f"engine touches .{node.attr}"
        assert "TargetModel" not in src

        # exhaustive post-hoc audit of every AttackRecord in the benchmark
        dataset_cache = {}
        audited = 0
        for bench in (reference_bench["main"], reference_bench["sweep"]):
            for (row, _method, rep), summary in bench.summaries.items():
                cfg_name = row.split(":", 1)[0]
                key = (cfg_name, rep)
                if key not in dataset_cache:
                    gen = REFERENCE_CONFIGS[cfg_name]
                    ds = generate(GeneratorConfig(**{**gen.__dict__, "seed": 42 + rep}))
                    dataset_cache[key] = {g.graph_id: g for g in ds.graphs}
                by_id = dataset_cache[key]
                for res in summary.results:
                    outcome = res.outcome
                    assert outcome.queries_used <= summary.config.max_queries
                    original = by_id[outcome.graph_id]
                    for rec in outcome.records:
                        rebuilt = apply_flips(original, rec.flips)
                        assert graph_hash(rebuilt) == rec.digest
                        flips_away = len(rebuilt.edge_pairs ^ original.edge_pairs)
                        assert flips_away <= outcome.beta
                        audited += 1
        assert audited > 10_000  # the audit actually covered the benchmark
        print(f"\n  audited {audited} attack records")


# ---------------------------------------------------------------------------
# criterion 9: determinism of bench outputs across worker counts
# ---------------------------------------------------------------------------

def test_criterion_9_bench_determinism(tmp_path):
    with criterion(9, "bench determinism across workers"):
        import json as _json

        from graphevade.cli import main as cli_main

        spec = {
            "seed": 42,
            "repetitions": 2,
            "configs": {"tiny": {"n_train_per_class": 12, "n_test_per_class": 6}},
            "methods": [
                {"name": "adv_lcd", "strategy": "eigencentrality", "surrogate": "svm_rbf"},
                {"name": "random_walk", "strategy": "random_walk", "surrogate": "svm_rbf"},
            ],
            "attack": {"r": 0.0033, "max_queries": 10, "k_candidates": 5, "rounds": 2},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_json.dumps(spec))
        outs = []
        for workers in ("1", "2", "2"):
            out = tmp_path / f"run{len(outs)}"
            code = cli_main(["bench", "--spec", str(spec_path), "--out", str(out),
                             "--workers", workers])
            assert code == 0
            outs.append(out)
        for name in ("results.csv", "results.json", "rank_report.json",
                     "rank_report.csv", "cd_diagram.txt"):
            blobs = {(o / name).read_bytes() for o in outs}
            assert len(blobs) == 1, f"{name} differs across runs"
