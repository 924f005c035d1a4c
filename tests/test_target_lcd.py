import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.graph_core import EdgeFlip, LabeledGraph, apply_flips, graph_hash, write_dataset
from graphevade.learners import KERNEL_KINDS, DegenerateLabels, KernelSpec, TrainedSvm, svm_margins
from graphevade.synth_data import GeneratorConfig, generate
from graphevade.target_lcd import (
    BlackBoxQuery,
    QueryBudgetExhausted,
    TargetModel,
    attack_loss,
    evaluate,
    load_target,
    query,
    save_target,
    target_from_json,
    target_to_json,
    train_target,
)
from graphevade.target_lcd import _unit_counts
from graphevade.wl_features import wl_feature_vector
from oracles import linear_margin, unit_counts, wl_histogram

from conftest import as_dict, graph_strategy, make_graph, sparse


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
    ledger = BlackBoxQuery(target, max_queries=5)
    out = query(target, ledger, g)
    assert out == evaluate(target, [g])[0]
    assert ledger.count == 1


def test_zero_budget_exhausts_immediately(target, small_ds):
    ledger = BlackBoxQuery(target, max_queries=0)
    with pytest.raises(QueryBudgetExhausted):
        query(target, ledger, small_ds.graphs[0])


def test_duplicate_query_served_from_cache(target, small_ds):
    g = small_ds.graphs[0]
    ledger = BlackBoxQuery(target, max_queries=2)
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
    ledger = BlackBoxQuery(target, max_queries=3, oracle="label")
    label, conf = query(target, ledger, small_ds.graphs[0])
    assert conf == 1.0
    assert label in (1, -1)


def test_ledger_validation(target):
    with pytest.raises(ValueError):
        BlackBoxQuery(target, max_queries=-1)
    with pytest.raises(ValueError):
        BlackBoxQuery(target, max_queries=1, oracle="telepathy")


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


# --- prefetch ------------------------------------------------------------------

def _copy(g):
    """The same graph as a new object: no digest and no WL vector kept."""
    return LabeledGraph._trusted("copy", g.node_labels, g.node_tiers, g.edges)


@pytest.fixture(scope="module")
def probe_pool(small_ds):
    """Test graphs and one-flip variants of them: twelve distinct digests."""
    pool = []
    for g in small_ds.subset("test").graphs[:6]:
        flip = (EdgeFlip(0, g.n - 1, "remove") if g.has_edge(0, g.n - 1)
                else EdgeFlip(0, g.n - 1, "add", weight=g.mean_weight))
        pool += [g, apply_flips(g, [flip])]
    return pool


def _answers(iface, graphs):
    """Per query: the answer under float.hex (or "exhausted") and the count."""
    out = []
    for g in graphs:
        try:
            label, conf = iface.query(g)
            out.append((label, conf.hex(), iface.queries_used))
        except QueryBudgetExhausted:
            out.append(("exhausted", iface.queries_used))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefetched_answers_equal_plain_queries(target, probe_pool, data):
    """One ledger through prefetch, or several on one model through one
    prefetch_many, each with its own budget, oracle and graphs it answered
    before the hint: every answer, cache hit and exhaustion is the plain
    ledger's."""
    plans = []
    for _ in range(data.draw(st.integers(1, 3))):
        picks = data.draw(st.lists(st.integers(0, len(probe_pool) - 1), max_size=10))
        max_queries = data.draw(st.integers(0, 8))
        oracle = data.draw(st.sampled_from(["score", "label"]))
        asked = data.draw(st.integers(0, len(picks)))  # queried before the prefetch
        plans.append(([_copy(probe_pool[i]) for i in picks], max_queries, oracle, asked))
    ledgers, expected, got = [], [], []
    for graphs, max_queries, oracle, asked in plans:
        plain = BlackBoxQuery(target, max_queries, oracle)
        hinted = BlackBoxQuery(target, max_queries, oracle)
        expected.append(_answers(plain, [_copy(g) for g in graphs]))
        got.append(_answers(hinted, graphs[:asked]))
        ledgers.append(hinted)
    charged = [hinted.queries_used for hinted in ledgers]
    # duplicates among each hint, and graphs the ledger already answered
    hints = [(hinted, graphs + graphs[:2]) for hinted, (graphs, *_) in zip(ledgers, plans)]
    if len(hints) == 1:
        ledgers[0].prefetch(hints[0][1])
    else:
        BlackBoxQuery.prefetch_many(hints)
    for hinted, before, (graphs, max_queries, oracle, asked), answers in zip(
            ledgers, charged, plans, got):
        assert hinted.queries_used == before  # nothing charged or revealed
        assert len(hinted._cache) == before
        assert len(hinted._pending) <= max_queries - before
        assert not set(hinted._pending) & set(hinted._cache)
        answers += _answers(hinted, graphs[asked:])
        if oracle == "label":
            assert all(a[1] == (1.0).hex() for a in answers if a[0] != "exhausted")
    assert got == expected  # same answers, same cache hits, same exhaustion


def test_prefetch_skips_answered_graphs_and_caps_at_budget(target, probe_pool, monkeypatch):
    import graphevade.target_lcd as target_module

    batches = []
    predict = target_module.evaluate

    def spy(model, graphs):
        graphs = list(graphs)
        batches.append(graphs)
        return predict(model, graphs)

    monkeypatch.setattr(target_module, "evaluate", spy)
    iface = BlackBoxQuery(target, 5)
    first = iface.query(probe_pool[0])
    batches.clear()
    iface.prefetch([_copy(probe_pool[0])] + probe_pool[1:])
    # the answered graph is left out, and only four more can be revealed
    assert batches == [probe_pool[1:5]]
    assert iface.query(_copy(probe_pool[0])) == first  # a free cache hit
    for g in probe_pool[1:5]:
        iface.query(g)
    assert batches == [probe_pool[1:5]]  # every answer came from the batch
    assert iface.queries_used == 5
    with pytest.raises(QueryBudgetExhausted):
        iface.query(probe_pool[5])
    iface.prefetch(probe_pool)  # no budget left: nothing to compute
    assert len(batches) == 1 and iface._pending == {}


def test_prefetch_many_runs_one_pass_over_the_union(target, probe_pool, monkeypatch):
    import graphevade.target_lcd as target_module

    batches = []
    predict = target_module.evaluate

    def spy(model, graphs):
        graphs = list(graphs)
        batches.append(graphs)
        return predict(model, graphs)

    monkeypatch.setattr(target_module, "evaluate", spy)
    a, b, c = (BlackBoxQuery(target, 10) for _ in range(3))
    a.query(probe_pool[0])
    c.prefetch(probe_pool[5:7])  # a batch the next call replaces with nothing
    batches.clear()
    BlackBoxQuery.prefetch_many([(a, probe_pool[:3]), (b, [_copy(probe_pool[1])] + probe_pool[3:5]),
                                 (c, [])])
    # a leaves out what it answered; a digest both batches hold is computed once
    assert batches == [probe_pool[1:5]]
    assert list(a._pending) == [graph_hash(g) for g in probe_pool[1:3]]
    assert list(b._pending) == [graph_hash(g) for g in probe_pool[1:2] + probe_pool[3:5]]
    assert c._pending == {}
    other = BlackBoxQuery(replace(target), 10)  # the same weights, another model
    with pytest.raises(ValueError, match="one model"):
        BlackBoxQuery.prefetch_many([(a, probe_pool), (other, probe_pool)])


def test_prefetch_replaces_the_previous_batch(target, probe_pool):
    iface = BlackBoxQuery(target, 10)
    iface.prefetch(probe_pool[:3])
    iface.prefetch(probe_pool[3:5])
    assert len(iface._pending) == 2
    # a graph of the dropped batch is computed afresh, with the same answer
    assert iface.query(probe_pool[0]) == evaluate(target, [_copy(probe_pool[0])])[0]
    assert iface.queries_used == 1


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


_KEYS = st.tuples(st.integers(0, 3), st.integers(0, 2**64 - 1))
_SIGNED = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _targets(draw):
    """(a TargetModel over sparse support vectors, a few keys its vectors use)."""
    kind = draw(st.sampled_from(KERNEL_KINDS))
    gamma = st.floats(1e-3, 10.0)
    spec = KernelSpec(kind, gamma=draw(gamma if kind == "rbf" else st.none() | gamma),
                      degree=draw(st.integers(1, 4)), coef0=draw(_SIGNED))
    keys = draw(st.lists(_KEYS, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(0, 4))
    vectors = tuple(sparse(draw(st.dictionaries(st.sampled_from(keys) | _KEYS, _SIGNED, max_size=6)))
                    for _ in range(n))
    svm = TrainedSvm(
        support_vectors=vectors,
        alphas=np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)), dtype=float),
        sv_labels=np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)),
                           dtype=float),
        bias=draw(_SIGNED), spec=spec, C=draw(st.floats(1e-3, 1e6) | st.just(math.inf)),
        platt_a=draw(_SIGNED), platt_b=draw(_SIGNED), n_train=draw(st.integers(0, 1000)))
    target = TargetModel(svm, draw(st.integers(0, 5)), draw(st.floats(0.0, 1.0)),
                         draw(st.none() | st.floats(0.0, 1.0)))
    return target, keys


@settings(max_examples=150, deadline=None)
@given(_targets(), st.data())
def test_target_json_round_trip(drawn, data):
    """target_to_json, JSON text and target_from_json give back the same
    document, and the rebuilt SVM's margins equal the original's bit for bit."""
    model, keys = drawn
    doc = target_to_json(model)
    loaded = target_from_json(json.loads(json.dumps(doc)))
    assert target_to_json(loaded) == doc
    probes = [sparse(d) for d in data.draw(st.lists(
        st.dictionaries(st.sampled_from(keys) | _KEYS, _SIGNED, max_size=6), max_size=4))]
    assert svm_margins(loaded.svm, probes).tobytes() == svm_margins(model.svm, probes).tobytes()


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_target_margins_match_dict_sum(target, small_ds, data):
    """Margins over unit-normalised count arrays equal the dict-keyed weight
    sum, bit for bit: perturbed dataset graphs (mostly known keys) and
    graphs over labels the model never saw (no known key)."""
    g = data.draw(st.sampled_from(small_ds.graphs))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=6, unique=True))
    flips = [EdgeFlip(u, v, "remove") if g.has_edge(u, v) else EdgeFlip(u, v, "add", weight=1.0)
             for u, v in pairs]
    coef = target.svm.alphas * target.svm.sv_labels
    support = [as_dict(sv) for sv in target.svm.support_vectors]
    for h in (apply_flips(g, flips), data.draw(graph_strategy())):
        got = svm_margins(target.svm, [_unit_counts(wl_feature_vector(h, target.wl_iters))])[0]
        want = linear_margin(support, coef, target.svm.bias,
                             unit_counts(wl_histogram(h, target.wl_iters)))
        assert float(got).hex() == float(want).hex()


# A target-v2 file written before the feature arrays replaced the sparse
# dicts, and what it answered then, on this generator config.
PINNED_DATA = GeneratorConfig(n_train_per_class=4, n_test_per_class=2, objects_range=(2, 3),
                              features_per_object_range=(1, 2), seed=7)
PINNED_SHA256 = "cd742cd694e64c1dd1bd8c5500134592bf4b31845a0e17cebb098a1769d04810"
PINNED_EVALUATION = [
    (1, 0.8333989829972397),
    (1, 0.8332936459025643),
    (1, 0.8333406710300512),
    (1, 0.8332999854350597),
    (-1, 0.83327828923329),
    (-1, 0.8332776015173424),
    (-1, 0.8333886973071395),
    (-1, 0.8333886973071392),
    (-1, 0.738052276707932),
    (-1, 0.6859018386795819),
    (1, 0.5787272690357551),
    (1, 0.6013920156701308),
]


def test_target_v2_file_is_pinned(tmp_path):
    committed = Path(__file__).parent / "data" / "target_v2_small.json"
    assert hashlib.sha256(committed.read_bytes()).hexdigest() == PINNED_SHA256
    ds = generate(PINNED_DATA)
    fresh = train_target(ds, wl_iters=2, seed=7)
    save_target(fresh, tmp_path / "target.json")
    assert hashlib.sha256((tmp_path / "target.json").read_bytes()).hexdigest() == PINNED_SHA256
    loaded = load_target(committed)
    assert evaluate(loaded, ds.graphs) == PINNED_EVALUATION
    assert evaluate(fresh, ds.graphs) == PINNED_EVALUATION
