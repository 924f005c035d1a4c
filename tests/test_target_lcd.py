import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphevade.graph_core import EdgeFlip, LabeledGraph, apply_flips, write_dataset
from graphevade.learners import DegenerateLabels
from graphevade.synth_data import GeneratorConfig, generate
from graphevade.target_lcd import (
    BlackBoxQuery,
    QueryBudgetExhausted,
    QueryLedger,
    attack_loss,
    evaluate,
    load_target,
    query,
    save_target,
    target_from_json,
    target_to_json,
    train_target,
)

from conftest import make_graph


@pytest.fixture(scope="module")
def small_ds():
    return generate(GeneratorConfig(n_train_per_class=30, n_test_per_class=10, seed=3))


@pytest.fixture(scope="module")
def target(small_ds):
    return train_target(small_ds, seed=3)


def test_separable_dataset_reaches_accuracy(target):
    assert target.test_accuracy >= 0.9
    assert target.train_accuracy >= 0.95


def test_single_class_dataset_degenerate(small_ds):
    idx = [i for i, y in enumerate(small_ds.labels) if y == 1]
    from graphevade.graph_core import GraphDataset
    ds = GraphDataset.from_graphs(
        [small_ds.graphs[i] for i in idx],
        [1] * len(idx),
        [small_ds.splits[i] for i in idx],
    )
    with pytest.raises(DegenerateLabels):
        train_target(ds, seed=0)


def test_retrain_same_seed_identical(small_ds):
    a = train_target(small_ds, seed=9)
    b = train_target(small_ds, seed=9)
    assert a.train_accuracy == b.train_accuracy
    assert a.test_accuracy == b.test_accuracy
    assert a.svm.bias == b.svm.bias
    assert np.array_equal(a.svm.alphas, b.svm.alphas)


def test_query_consistency_with_evaluate(target, small_ds):
    g = small_ds.graphs[0]
    ledger = QueryLedger(max_queries=5)
    out = query(target, ledger, g)
    assert out == evaluate(target, [g])[0]
    assert ledger.count == 1


def test_zero_budget_exhausts_immediately(target, small_ds):
    ledger = QueryLedger(max_queries=0)
    with pytest.raises(QueryBudgetExhausted):
        query(target, ledger, small_ds.graphs[0])


def test_duplicate_query_served_from_cache(target, small_ds):
    g = small_ds.graphs[0]
    ledger = QueryLedger(max_queries=2)
    first = query(target, ledger, g)
    # same structure under a different id still hits the cache
    clone = make_graph(g.n, g.edges, labels=g.node_labels, tiers=g.node_tiers,
                       graph_id="clone")
    assert query(target, ledger, clone) == first
    assert ledger.count == 1
    query(target, ledger, small_ds.graphs[1])
    assert ledger.count == 2
    with pytest.raises(QueryBudgetExhausted):
        query(target, ledger, small_ds.graphs[2])
    # cached graphs stay answerable after exhaustion
    assert query(target, ledger, g) == first


def test_confidence_at_least_half(target, small_ds):
    for g in small_ds.graphs[:10]:
        label, conf = evaluate(target, [g])[0]
        assert label in (1, -1)
        assert 0.5 <= conf <= 1.0


def test_label_oracle_collapses_confidence(target, small_ds):
    ledger = QueryLedger(max_queries=3, oracle="label")
    label, conf = query(target, ledger, small_ds.graphs[0])
    assert conf == 1.0
    assert label in (1, -1)


def test_ledger_validation():
    with pytest.raises(ValueError):
        QueryLedger(max_queries=-1)
    with pytest.raises(ValueError):
        QueryLedger(max_queries=1, oracle="telepathy")


def test_attack_loss_arithmetic():
    assert attack_loss((1, 1.0), 1) == 0.0
    assert attack_loss((-1, 1.0), 1) == 1.0
    assert attack_loss((1, 0.8), 1) == pytest.approx(0.2)
    assert attack_loss((1, 0.8), -1) == pytest.approx(0.8)


def test_loss_bounds_and_flip_correspondence(target, small_ds):
    for g, y in zip(small_ds.graphs[:20], small_ds.labels[:20]):
        out = evaluate(target, [g])[0]
        loss = attack_loss(out, y)
        assert 0.0 <= loss <= 1.0
        assert (out[0] != y) == (loss > 0.5) or loss == 0.5


def test_black_box_wrapper_counts(target, small_ds):
    iface = BlackBoxQuery(target, max_queries=3)
    iface.query(small_ds.graphs[0])
    iface.query(small_ds.graphs[1])
    assert iface.queries_used == 2
    assert iface.max_queries == 3


def test_query_time_labels_never_shift_model(target, small_ds):
    g = small_ds.graphs[0]
    before = target_to_json(target)
    probes = list(small_ds.graphs[:10])
    expected = evaluate(target, probes)
    mutated = apply_flips(g, [EdgeFlip(0, g.n - 1, "add", weight=1.0)]
                          if not g.has_edge(0, g.n - 1)
                          else [EdgeFlip(0, g.n - 1, "remove")])
    unseen = LabeledGraph("u", ("never-seen",) + g.node_labels[1:], g.node_tiers, g.edges)
    evaluate(target, [mutated, unseen])
    assert target_to_json(target) == before
    assert evaluate(target, probes) == expected


def test_target_v1_file_rejected(target):
    doc = {**target_to_json(target), "version": "target-v1", "dictionary": ["l00"]}
    with pytest.raises(ValueError, match="target-v1"):
        target_from_json(doc)


def test_target_persistence_roundtrip(tmp_path, target, small_ds):
    path = tmp_path / "target.json"
    save_target(target, path)
    loaded = load_target(path)
    graphs = list(small_ds.graphs[:10])
    assert evaluate(loaded, graphs) == evaluate(target, graphs)
    assert loaded.wl_iters == target.wl_iters
    assert loaded.test_accuracy == target.test_accuracy


def test_saved_target_evaluates_identically_in_another_process(tmp_path, target, small_ds):
    model_path = tmp_path / "target.json"
    data_path = tmp_path / "data.jsonl"
    save_target(target, model_path)
    write_dataset(small_ds, data_path)
    script = (
        "import json, sys\n"
        "from graphevade.graph_core import read_dataset\n"
        "from graphevade.target_lcd import evaluate, load_target\n"
        "model = load_target(sys.argv[1])\n"
        "json.dump(evaluate(model, read_dataset(sys.argv[2]).graphs), sys.stdout)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "271828",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(model_path), str(data_path)],
                          env=env, capture_output=True, text=True, check=True)
    there = [tuple(p) for p in json.loads(proc.stdout)]
    assert there == evaluate(target, small_ds.graphs)
