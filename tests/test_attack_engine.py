import ast
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphevade.attack_engine as engine_module
import graphevade.target_lcd as target_module
import graphevade.wl_features as wl_module
from graphevade.attack_engine import (
    AttackConfig,
    attack_one,
    attack_testset,
    summary_to_json,
)
from graphevade.graph_core import GraphDataset, LabeledGraph, apply_flips, graph_hash
from graphevade.learners import DidNotConverge
from graphevade.perturb import (
    flip_budget,
    plan_eigencentrality,
    plan_mutations,
    plan_random_walk,
    plan_shortest_path,
)
from graphevade.synth_data import GeneratorConfig, generate
from graphevade.target_lcd import BlackBoxQuery, QueryBudgetExhausted, evaluate, train_target
from graphevade.wl_features import wl_feature_vectors

from conftest import make_graph, random_graph
from oracles import wl_histogram


class StubQuery:
    """Query interface stub: no model behind it at all."""

    def __init__(self, answer_fn, max_queries=1000):
        self.answer_fn = answer_fn
        self.max_queries = max_queries
        self.queries_used = 0
        self.seen = []

    def query(self, g):
        h = graph_hash(g)
        if h in {graph_hash(s) for s in self.seen}:
            return self.answer_fn(g)
        if self.queries_used >= self.max_queries:
            raise QueryBudgetExhausted()
        self.queries_used += 1
        self.seen.append(g)
        return self.answer_fn(g)


def test_unattackable_oracle_burns_full_schedule(rng):
    g = random_graph(10, 0.4, rng)
    y = 1
    cfg = AttackConfig(r=1.0 / 100, strategy="eigencentrality", max_queries=1000,
                       k_candidates=4, rounds=3, seed=1)
    stub = StubQuery(lambda _: (y, 1.0))
    out = attack_one(stub, g, y, cfg)
    assert out.success is False
    assert out.best_loss == 0.0
    assert out.queries_used == min(1000, cfg.rounds * cfg.k_candidates)
    # all losses identical: surrogate training fails and the fallback is logged
    notes = [d["surrogate"] for d in out.diagnostics]
    assert notes[0] == "strategy-only"
    assert all(n.startswith("fallback:") for n in notes[1:])


def test_parity_toy_classifier_first_flip_wins(rng):
    g = random_graph(8, 0.5, rng)
    y = 1 if len(g.edges) % 2 == 0 else -1

    def parity(graph):
        return (1 if len(graph.edges) % 2 == 0 else -1, 1.0)

    cfg = AttackConfig(r=1.0 / 64, strategy="eigencentrality", max_queries=50,
                       k_candidates=5, rounds=3, seed=0)
    stub = StubQuery(parity)
    out = attack_one(stub, g, y, cfg)
    assert out.success is True
    assert out.queries_used == 1
    assert out.best_loss == 1.0


def test_budget_exhaustion_is_terminal_not_error(rng):
    g = random_graph(10, 0.4, rng)
    cfg = AttackConfig(r=1.0 / 100, max_queries=3, k_candidates=3, rounds=5, seed=2)
    stub = StubQuery(lambda _: (1, 0.9), max_queries=3)
    out = attack_one(stub, g, 1, cfg)
    assert out.success is False
    assert out.queries_used == 3


@pytest.fixture(scope="module")
def trained():
    ds = generate(GeneratorConfig(n_train_per_class=40, n_test_per_class=10, seed=5))
    return ds, train_target(ds, seed=5)


def test_perturbation_discipline_and_budget(trained):
    ds, target = trained
    cfg = AttackConfig(r=3.0 / 900, max_queries=20, k_candidates=5, rounds=3, seed=7)
    summary = attack_testset(target, ds.subset("test"), cfg)
    for res in summary.results:
        o = res.outcome
        assert o.queries_used <= cfg.max_queries
        # query accounting: one ledger entry per distinct perturbed graph
        assert o.queries_used == len(o.records)
        assert len({r.digest for r in o.records}) == len(o.records)
        original = next(g for g in ds.graphs if g.graph_id == o.graph_id)
        for rec in o.records:
            rebuilt = apply_flips(original, rec.flips)
            assert graph_hash(rebuilt) == rec.digest
            assert len(rebuilt.edge_pairs ^ original.edge_pairs) <= o.beta
        # success flag corresponds to a recorded prediction flip
        assert o.success == any(r.success for r in o.records)


def test_monotone_best_loss(trained):
    ds, target = trained
    from graphevade.target_lcd import BlackBoxQuery
    g = ds.subset("test").graphs[0]
    y = ds.subset("test").labels[0]
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=5, rounds=4, seed=11)
    out = attack_one(BlackBoxQuery(target, 30), g, y, cfg)
    best = 0.0
    for rec in out.records:
        best = max(best, rec.loss)
    assert out.best_loss == pytest.approx(best)
    assert out.best_loss == max((r.loss for r in out.records), default=0.0)


def test_attack_testset_determinism_and_workers(trained):
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=15, k_candidates=5, rounds=2, seed=13)
    a = attack_testset(target, test, cfg, workers=1)
    b = attack_testset(target, test, cfg, workers=2)
    assert a.decline_pp == b.decline_pp
    assert [r.outcome.best_loss for r in a.results] == [r.outcome.best_loss for r in b.results]
    assert [r.outcome.queries_used for r in a.results] == [r.outcome.queries_used for r in b.results]
    c = attack_testset(target, test, cfg, workers=1)
    assert summary_to_json(a) == summary_to_json(c)


def test_zero_queries_means_zero_decline(trained):
    ds, target = trained
    cfg = AttackConfig(r=3.0 / 900, max_queries=0, k_candidates=5, rounds=2, seed=17)
    summary = attack_testset(target, ds.subset("test"), cfg)
    assert summary.decline_pp == 0.0
    assert summary.attacked_accuracy == summary.clean_accuracy
    assert summary.mean_queries == 0.0


def test_decline_recount_oracle(trained):
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=20, k_candidates=5, rounds=3, seed=19)
    summary = attack_testset(target, test, cfg)
    clean_correct = sum(1 for r in summary.results if r.clean_label == r.true_label)
    attacked_correct = sum(1 for r in summary.results if r.attacked_label == r.true_label)
    n = len(summary.results)
    assert summary.decline_pp == pytest.approx(
        -(clean_correct - attacked_correct) / n * 100.0)


def _per_graph(summary):
    return [(r.graph_id, r.clean_label, r.attacked_label, r.outcome.beta,
             r.outcome.best_loss, r.outcome.queries_used,
             [rec.digest for rec in r.outcome.records]) for r in summary.results]


def test_unperturbable_graph_comes_back_unattacked(trained):
    ds, target = trained
    test = ds.subset("test")
    solo = LabeledGraph("solo", ("l00",), ("object",), ())
    with_solo = GraphDataset.from_graphs(list(test.graphs) + [solo],
                                         list(test.labels) + [1],
                                         ["test"] * (len(test) + 1))
    cfg = AttackConfig(r=3.0 / 900, max_queries=10, k_candidates=5, rounds=2, seed=37)
    base = attack_testset(target, test, cfg)
    summary = attack_testset(target, with_solo, cfg)
    last = summary.results[-1]
    assert last.graph_id == "solo"
    assert last.outcome.beta == 0
    assert last.outcome.records == ()
    assert last.outcome.queries_used == 0
    assert last.outcome.success is False
    assert last.attacked_label == last.clean_label
    assert _per_graph(summary)[:-1] == _per_graph(base)


def test_success_rate_counts_only_clean_correct_graphs(trained):
    ds, target = trained
    test = ds.subset("test")
    graphs = list(test.graphs[:6])
    clean = [lab for lab, _ in evaluate(target, graphs)]
    # graph 0 gets the label the target does not predict: wrong before any flip
    labels = [-clean[0]] + clean[1:]
    split = GraphDataset.from_graphs(graphs, labels, ["test"] * len(graphs))
    cfg = AttackConfig(r=3.0 / 900, max_queries=10, k_candidates=5, rounds=2, seed=41)
    summary = attack_testset(target, split, cfg)
    assert summary.results[0].clean_label != summary.results[0].true_label
    assert summary.results[0].outcome.success  # any query already disagrees with y
    rest = summary.results[1:]
    assert summary.success_rate == sum(r.outcome.success for r in rest) / len(rest)
    none_right = GraphDataset.from_graphs(graphs[:2], [-c for c in clean[:2]], ["test"] * 2)
    assert attack_testset(target, none_right, cfg).success_rate == 0.0


def test_surrogate_training_set_matches_records(trained, monkeypatch):
    # every fit trains on the clean anchor, then each record so far in query
    # order, each row the WL histogram of the graph that record queried
    ds, target = trained
    test = ds.subset("test")
    fits = []

    def spy_on(name):
        original = getattr(engine_module, name)

        def spy(vectors, labels, *args, **kwargs):
            fits.append([list(v.counts.items()) for v in vectors])
            return original(vectors, labels, *args, **kwargs)

        monkeypatch.setattr(engine_module, name, spy)

    spy_on("svm_train")
    spy_on("nb_train")
    graphs = test.graphs[:4]
    for surrogate in ("svm_rbf", "naive_bayes"):
        cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3,
                           surrogate=surrogate, seed=23)
        guided = 0
        for g, y, clean in zip(graphs, test.labels, evaluate(target, graphs)):
            fits.clear()
            out = attack_one(BlackBoxQuery(target, 30), g, y, cfg, clean_observation=clean)
            rows = [list(wl_histogram(g, cfg.wl_iters).items())]
            rows += [list(wl_histogram(apply_flips(g, rec.flips), cfg.wl_iters).items())
                     for rec in out.records]
            trained_after = [d["records"] for d, nxt in zip(out.diagnostics, out.diagnostics[1:])
                             if nxt["surrogate"] == "trained"]
            assert [len(f) - 1 for f in fits] == trained_after
            for f in fits:
                assert f == rows[:len(f)]
            guided += len(fits)
        assert guided


def test_rbf_surrogate_on_wl_identical_graphs_falls_back_to_unit_gamma(monkeypatch):
    # WL ignores edge weights, so every pairwise distance is zero and the
    # median heuristic has no scale
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.5)], labels="abab")
    h = make_graph(4, [(0, 1, 1.0), (1, 2, 0.9), (2, 3, 1.5)], labels="abab")
    specs = []
    train_fn = engine_module.svm_train
    monkeypatch.setattr(engine_module, "svm_train",
                        lambda x, y, spec, **kw: specs.append(spec) or train_fn(x, y, spec, **kw))
    scorer, note = engine_module._train_scorer([g, h], [0.2, 0.8], AttackConfig(), seed=1)
    assert note == "trained" and scorer is not None
    assert [(s.kind, s.gamma) for s in specs] == [("rbf", 1.0)]
    assert scorer([g, h]).shape == (2,)


def test_unconverged_surrogate_falls_back_to_strategy_order(trained, monkeypatch):
    # one SMO pass cannot converge, so every guided round queries its pool as
    # drawn: the first k plans whose graphs were not queried before
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=5, rounds=3, epochs=1, seed=7)
    pools = []  # per round, its whole pool in draw order
    draws_fn = engine_module._pool_draws

    def spy_draws(*args):
        # the planners are seeded, so a second pass draws the same plans
        pools.append([p for draw in draws_fn(*args) for p in draw if p])
        return draws_fn(*args)

    monkeypatch.setattr(engine_module, "_pool_draws", spy_draws)
    g, y, clean = test.graphs[0], test.labels[0], evaluate(target, [test.graphs[0]])[0]
    out = attack_one(BlackBoxQuery(target, cfg.max_queries), g, y, cfg, clean_observation=clean)
    assert [d["surrogate"] for d in out.diagnostics] == [
        "strategy-only", "fallback:DidNotConverge", "fallback:DidNotConverge"]
    for d, before, pool in zip(out.diagnostics[1:], out.diagnostics, pools[1:]):
        assert d["distinct"] is None
        queried = {rec.digest for rec in out.records[:before["records"]]}
        want = []
        for flips in pool:
            digest = graph_hash(apply_flips(g, flips))
            if digest not in queried and digest not in want:
                want.append(digest)
        assert [rec.digest for rec in out.records[before["records"]:d["records"]]] == (
            want[:cfg.k_candidates])


class WorkCounter:
    """Wraps the attacker's hash and WL entry points and the WL refinement
    that every caller shares, keeping every graph they were given (kept
    alive, so ids stay unique)."""

    def __init__(self, monkeypatch):
        self.reset()
        hash_fn = engine_module.graph_hash
        single_fn = engine_module.wl_feature_vector
        batch_fn = engine_module.wl_feature_vectors
        extract_fn = wl_module._extract

        def counted_hash(g):
            self.hashed.append(g)
            return hash_fn(g)

        def counted_single(g, wl_iters):
            self.single.append(g)
            return single_fn(g, wl_iters)

        def counted_batch(graphs, wl_iters):
            self.batch_calls += 1
            return batch_fn(graphs, wl_iters)

        def counted_extract(graphs, wl_iters):
            self.refined.extend(graphs)
            return extract_fn(graphs, wl_iters)

        monkeypatch.setattr(engine_module, "graph_hash", counted_hash)
        monkeypatch.setattr(engine_module, "wl_feature_vector", counted_single)
        monkeypatch.setattr(engine_module, "wl_feature_vectors", counted_batch)
        monkeypatch.setattr(wl_module, "_extract", counted_extract)

    def reset(self):
        self.hashed, self.single, self.refined, self.batch_calls = [], [], [], 0

    def featurised(self, g) -> int:
        return sum(x is g for x in self.refined)


class RecordingQuery:
    def __init__(self, iface):
        self.iface = iface
        self.asked = []

    def query(self, g):
        self.asked.append(g)
        return self.iface.query(g)

    @property
    def queries_used(self):
        return self.iface.queries_used


def test_each_candidate_hashed_and_featurised_at_most_once(trained, monkeypatch):
    ds, target = trained
    from graphevade.target_lcd import BlackBoxQuery
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3, seed=23)
    clean = evaluate(target, list(test.graphs))
    counter = WorkCounter(monkeypatch)
    guided = 0
    for g, y, obs in zip(test.graphs, test.labels, clean):
        counter.reset()
        iface = RecordingQuery(BlackBoxQuery(target, cfg.max_queries))
        out = attack_one(iface, g, y, cfg, clean_observation=obs)
        guided += sum(d["surrogate"] == "trained" for d in out.diagnostics)
        assert len(iface.asked) == len(out.records)
        assert counter.single == [g]  # the clean anchor
        for cand in iface.asked:
            assert counter.featurised(cand) <= 1
        ids = [id(x) for x in counter.hashed]
        assert len(ids) == len(set(ids))  # no pool entry hashed twice
        assert {id(c) for c in iface.asked} <= set(ids)
    assert guided  # some pools were scored, so their features were reused


def test_hard_label_attack_featurises_only_the_clean_anchor(trained, monkeypatch):
    ds, target = trained
    from graphevade.target_lcd import BlackBoxQuery
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3,
                       oracle="label", seed=23)
    clean = evaluate(target, list(test.graphs))
    counter = WorkCounter(monkeypatch)
    attacked = 0
    for g, y, (label, _) in zip(test.graphs, test.labels, clean):
        if label != y:
            continue  # a clean loss of 1 would make the records two-class
        counter.reset()
        out = attack_one(BlackBoxQuery(target, cfg.max_queries, "label"), g, y, cfg,
                         clean_observation=(label, 1.0))
        attacked += len(out.records) > cfg.k_candidates
        assert counter.single == [g]
        assert counter.batch_calls == 0
    assert attacked  # some attacks ran guided rounds


def test_unscored_pools_build_only_the_candidates_they_examine(trained, monkeypatch):
    ds, target = trained
    from graphevade.target_lcd import BlackBoxQuery
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3,
                       oracle="label", seed=23)
    built, hashed = [], []
    apply_fn, hash_fn = engine_module.apply_flips, engine_module.graph_hash
    draws_fn = engine_module._pool_draws
    pooled = 0  # plans in the rounds' whole pools

    def spy_draws(*args):
        nonlocal pooled
        pooled += sum(len([p for p in draw if p]) for draw in draws_fn(*args))
        return draws_fn(*args)

    def counted_apply(g, flips):
        built.append(apply_fn(g, flips))
        return built[-1]

    def counted_hash(g):
        hashed.append(g)
        return hash_fn(g)

    monkeypatch.setattr(engine_module, "apply_flips", counted_apply)
    monkeypatch.setattr(engine_module, "graph_hash", counted_hash)
    monkeypatch.setattr(engine_module, "_pool_draws", spy_draws)
    drawn = 0
    for g, y, (label, _) in zip(test.graphs, test.labels, evaluate(target, list(test.graphs))):
        if label != y:
            continue  # a clean loss of 1 would make the records two-class
        out = attack_one(BlackBoxQuery(target, cfg.max_queries, "label"), g, y, cfg,
                         clean_observation=(label, 1.0))
        assert all(d["surrogate"] != "trained" for d in out.diagnostics)
        drawn += sum(d["pool"] for d in out.diagnostics)
    # every candidate built was examined (hashed), in the order built, and
    # only part of the pools was drawn
    assert [id(c) for c in built] == [id(c) for c in hashed]
    assert len(built) <= drawn < pooled


def test_scored_rounds_build_each_distinct_plan_once(trained, monkeypatch):
    # the scorer sees every drawn plan in draw order (an rbf margin depends
    # on its row in the batch), a repeat as the same graph object
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3, seed=23)
    rounds = []  # per round: its whole pool, (plan, graph) built, graphs scored
    draws_fn = engine_module._pool_draws
    apply_fn, train_fn = engine_module.apply_flips, engine_module._train_scorer

    def spy_draws(*args):
        # the planners are seeded, so a second pass draws the same plans
        pool = [p for draw in draws_fn(*args) for p in draw if p]
        rounds.append({"pool": pool, "built": [], "scored": None})
        return draws_fn(*args)

    def spy_apply(g, flips):
        rounds[-1]["built"].append((flips, apply_fn(g, flips)))
        return rounds[-1]["built"][-1][1]

    def spy_train(*args):
        scorer, note = train_fn(*args)
        if scorer is None:
            return scorer, note

        def spy_scorer(graphs):
            rounds[-1]["scored"] = list(graphs)
            return scorer(graphs)

        return spy_scorer, note

    monkeypatch.setattr(engine_module, "_pool_draws", spy_draws)
    monkeypatch.setattr(engine_module, "apply_flips", spy_apply)
    monkeypatch.setattr(engine_module, "_train_scorer", spy_train)
    scored = repeats = 0
    for g, y, obs in zip(test.graphs, test.labels, evaluate(target, list(test.graphs))):
        rounds.clear()
        out = attack_one(BlackBoxQuery(target, cfg.max_queries), g, y, cfg,
                         clean_observation=obs)
        assert len(rounds) == len(out.diagnostics)
        for r, d in zip(rounds, out.diagnostics):
            if r["scored"] is None:
                assert d["pool"] <= len(r["pool"])  # an unscored pool is drawn lazily
                continue
            scored += 1
            assert d["pool"] == len(r["pool"])
            assert d["distinct"] == len(set(r["pool"]))
            repeats += len(r["pool"]) - d["distinct"]
            assert [flips for flips, _ in r["built"]] == list(dict.fromkeys(r["pool"]))
            graph_of = dict(r["built"])
            assert len(r["scored"]) == len(r["pool"])
            assert all(c is graph_of[flips] for c, flips in zip(r["scored"], r["pool"]))
    assert scored and repeats  # some scored pools drew a plan more than once


def test_label_oracle_with_fresh_windows_draws_no_mutations(trained, monkeypatch):
    # hard labels leave every round unscored; when a round's first k
    # eigencentrality windows are all fresh, the walk stops there and the
    # incumbent's mutations are never drawn
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3,
                       oracle="label", seed=23)
    mutated = []
    monkeypatch.setattr(engine_module, "plan_mutations",
                        lambda *args: mutated.append(args) or [])
    guided = 0
    for g, y, (label, _) in zip(test.graphs, test.labels, evaluate(target, list(test.graphs))):
        if label != y:
            continue  # a clean loss of 1 would make the records two-class
        out = attack_one(BlackBoxQuery(target, cfg.max_queries, "label"), g, y, cfg,
                         clean_observation=(label, 1.0))
        assert [d["queried"] for d in out.diagnostics[:-1]] == (
            [cfg.k_candidates] * (len(out.diagnostics) - 1))
        assert all(d["pool"] == cfg.k_candidates for d in out.diagnostics)
        guided += len(out.diagnostics) - 1  # rounds that had an incumbent
    assert guided and not mutated


# --- batched queries ----------------------------------------------------------

@st.composite
def tiny_graphs(draw, vocab):
    """1 to 7 nodes over a few target labels; edgeless and 1- and 2-node graphs
    included."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.lists(st.sampled_from(vocab), min_size=n, max_size=n))
    tiers = draw(st.lists(st.sampled_from(["object", "feature"]), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [pair for pair, keep in zip(pairs, present) if keep]
    weights = draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                            min_size=len(chosen), max_size=len(chosen)))
    return LabeledGraph("tiny", tuple(labels), tuple(tiers),
                        tuple((u, v, w) for (u, v), w in zip(chosen, weights)))


def _outcome(out):
    return (out.records, out.best_flips, out.best_loss, out.success, out.queries_used,
            out.diagnostics, out.beta, graph_hash(out.best_graph))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prefetch_leaves_every_outcome_unchanged(trained, data):
    ds, target = trained
    # tiny graphs cover the edge cases; test graphs give losses that vary,
    # so the surrogate trains and attacks succeed part-way
    vocabulary = sorted({lab for h in ds.graphs for lab in h.node_labels})
    g = data.draw(tiny_graphs(vocabulary[:4])
                  | st.sampled_from(ds.subset("test").graphs))
    k = data.draw(st.integers(min_value=1, max_value=4))
    rounds = data.draw(st.integers(min_value=1, max_value=3))
    # 0 or k..rounds*k, so the budget can run out in the middle of a round
    max_queries = data.draw(st.sampled_from([0] + list(range(k, rounds * k + 1))))
    oracle = data.draw(st.sampled_from(["score", "label"]))
    cfg = AttackConfig(r=data.draw(st.sampled_from([0.02, 0.1, 0.3])),
                       strategy=data.draw(st.sampled_from(engine_module.STRATEGIES)),
                       surrogate=data.draw(st.sampled_from(["svm_rbf", "naive_bayes"])),
                       max_queries=max_queries, k_candidates=k, rounds=rounds,
                       oracle=oracle, seed=data.draw(st.integers(0, 3)))
    label, conf = evaluate(target, [g])[0]
    y = data.draw(st.sampled_from([label, label, -label]))  # mostly right when clean
    clean = (label, 1.0) if oracle == "label" else (label, conf)
    hinted = attack_one(BlackBoxQuery(target, max_queries, oracle), g, y, cfg, clean)
    plain = attack_one(RecordingQuery(BlackBoxQuery(target, max_queries, oracle)),
                       g, y, cfg, clean)
    assert _outcome(hinted) == _outcome(plain)
    assert len(hinted.records) == hinted.queries_used <= max_queries
    for rec in hinted.records:
        changed = apply_flips(g, rec.flips).edge_pairs ^ g.edge_pairs
        assert len(changed) <= hinted.beta
    assert len(hinted.best_graph.edge_pairs ^ g.edge_pairs) <= hinted.beta


def _eager_pool_draws(g, beta, cfg, round_idx, scores, incumbent):
    """The reference pool: every plan of the round in one draw, each planner
    called once for the round's whole count."""
    k = cfg.k_candidates
    count = k if round_idx == 0 else 3 * k
    seed = engine_module._stream_seed(cfg.seed, g.graph_id, "strategy", round_idx)
    if cfg.strategy == "eigencentrality":
        offset = (k if round_idx > 0 else 0) + max(0, round_idx - 1) * count
        plans = plan_eigencentrality(g, beta, scores, count, offset=offset)
    elif cfg.strategy == "random_walk":
        plans = plan_random_walk(g, beta, count, seed)
    else:
        plans = plan_shortest_path(g, beta, count, seed)
    if incumbent is not None:
        plans = plans + plan_mutations(
            g, *incumbent, beta, 2 * k,
            engine_module._stream_seed(cfg.seed, g.graph_id, "mutate", round_idx))
    return iter([plans])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lazy_pools_leave_every_outcome_unchanged(trained, data):
    ds, target = trained
    vocabulary = sorted({lab for h in ds.graphs for lab in h.node_labels})
    g = data.draw(tiny_graphs(vocabulary[:4])
                  | st.sampled_from(ds.subset("test").graphs))
    k = data.draw(st.integers(min_value=1, max_value=4))
    rounds = data.draw(st.integers(min_value=1, max_value=3))
    max_queries = data.draw(st.sampled_from([0] + list(range(k, rounds * k + 1))))
    oracle = data.draw(st.sampled_from(["score", "label"]))
    cfg = AttackConfig(r=data.draw(st.sampled_from([0.02, 0.1, 0.3])),
                       strategy=data.draw(st.sampled_from(engine_module.STRATEGIES)),
                       surrogate=data.draw(st.sampled_from(["svm_rbf", "naive_bayes"])),
                       max_queries=max_queries, k_candidates=k, rounds=rounds,
                       oracle=oracle, seed=data.draw(st.integers(0, 3)))
    label, conf = evaluate(target, [g])[0]
    y = data.draw(st.sampled_from([label, label, -label]))
    clean = (label, 1.0) if oracle == "label" else (label, conf)
    draws_fn = engine_module._pool_draws
    made = []  # per round, the non-empty plans of the draws the walk made

    def counted_draws(*args):
        made.append(0)
        for draw in draws_fn(*args):
            made[-1] += sum(1 for flips in draw if flips)
            yield draw

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "_pool_draws", counted_draws)
        lazy = attack_one(BlackBoxQuery(target, max_queries, oracle), g, y, cfg, clean)
        mp.setattr(engine_module, "_pool_draws", _eager_pool_draws)
        eager = attack_one(BlackBoxQuery(target, max_queries, oracle), g, y, cfg, clean)
    assert [d["pool"] for d in lazy.diagnostics] == made

    def without_pool(out):
        return replace(out, diagnostics=tuple(
            {key: v for key, v in d.items() if key != "pool"} for d in out.diagnostics))

    # the pool sizes differ: an eager round counts every plan it drew
    assert _outcome(without_pool(lazy)) == _outcome(without_pool(eager))
    for d_lazy, d_eager in zip(lazy.diagnostics, eager.diagnostics):
        if d_lazy["distinct"] is None:  # unscored: drawn no further than needed
            assert d_lazy["pool"] <= d_eager["pool"]
        else:
            assert d_lazy["pool"] == d_eager["pool"]


def test_each_round_asks_the_target_once(trained, monkeypatch):
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=6, rounds=3, seed=23)
    batches = []
    predict = target_module.evaluate

    def spy(model, graphs):
        graphs = list(graphs)
        batches.append(len(graphs))
        return predict(model, graphs)

    monkeypatch.setattr(target_module, "evaluate", spy)
    for g, y, obs in zip(test.graphs, test.labels, evaluate(target, list(test.graphs))):
        batches.clear()
        out = attack_one(BlackBoxQuery(target, cfg.max_queries), g, y, cfg,
                         clean_observation=obs)
        # one batch per round that had candidates, and no one-graph query
        assert len(batches) == sum(d["queried"] > 0 for d in out.diagnostics)
        assert sum(batches) >= len(out.records)


def _fresh(g, graph_id):
    """g as a new object under graph_id: no digest, WL vector or memo kept."""
    return LabeledGraph._trusted(graph_id, g.node_labels, g.node_tiers, g.edges)


def _alone(target, graphs, ys, cfg):
    """attack_one's outcome for each graph, each on a fresh copy and ledger."""
    clean = evaluate(target, [_fresh(g, g.graph_id) for g in graphs])
    return [attack_one(BlackBoxQuery(target, cfg.max_queries, cfg.oracle),
                       _fresh(g, g.graph_id), y, cfg,
                       (lab, 1.0) if cfg.oracle == "label" else (lab, conf))
            for g, y, (lab, conf) in zip(graphs, ys, clean)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lock_step_outcomes_equal_each_graph_alone(trained, data):
    ds, target = trained
    vocabulary = sorted({lab for h in ds.graphs for lab in h.node_labels})
    drawn = data.draw(st.lists(tiny_graphs(vocabulary[:4])
                               | st.sampled_from(ds.subset("test").graphs), max_size=4))
    # a 1-node graph returns before its first round
    solo = LabeledGraph("solo", (vocabulary[0],), ("object",), ())
    graphs = [_fresh(g, f"g{i}") for i, g in enumerate(drawn)] + [solo]
    k = data.draw(st.integers(min_value=1, max_value=4))
    rounds = data.draw(st.integers(min_value=1, max_value=3))
    cfg = AttackConfig(r=data.draw(st.sampled_from([0.02, 0.1, 0.3])),
                       strategy=data.draw(st.sampled_from(engine_module.STRATEGIES)),
                       surrogate=data.draw(st.sampled_from(["svm_rbf", "naive_bayes"])),
                       max_queries=data.draw(st.sampled_from([0] + list(range(k, rounds * k + 1)))),
                       k_candidates=k, rounds=rounds,
                       oracle=data.draw(st.sampled_from(["score", "label"])),
                       seed=data.draw(st.integers(0, 3)))
    # a label the clean graph already misses flips with the first query, so
    # that graph stops in round 0 while the others go on
    ys = [data.draw(st.sampled_from([lab, lab, -lab])) for lab, _ in evaluate(target, graphs)]
    summary = attack_testset(target, GraphDataset.from_graphs(graphs, ys, ["test"] * len(graphs)),
                             cfg)
    assert ([_outcome(r.outcome) for r in summary.results]
            == [_outcome(o) for o in _alone(target, graphs, ys, cfg)])


def test_lock_step_asks_the_target_once_per_round(trained, monkeypatch):
    ds, target = trained
    test = ds.subset("test")
    graphs = list(test.graphs[:8]) + [LabeledGraph("solo", ("l00",), ("object",), ())]
    clean = evaluate(target, graphs)
    # every other graph is labelled against its clean prediction, so it stops
    # in round 0; a budget of 13 runs out in the middle of a round of 5
    ys = [lab if i % 2 else -lab for i, (lab, _) in enumerate(clean)]
    cfg = AttackConfig(r=3.0 / 900, max_queries=13, k_candidates=5, rounds=4, seed=23)
    batches = []
    predict = target_module.evaluate

    def spy(model, graphs):
        graphs = list(graphs)
        batches.append(len(graphs))
        return predict(model, graphs)

    monkeypatch.setattr(target_module, "evaluate", spy)
    monkeypatch.setattr(engine_module, "evaluate", spy)
    summary = attack_testset(target, GraphDataset.from_graphs(graphs, ys, ["test"] * len(graphs)),
                             cfg)
    outcomes = [r.outcome for r in summary.results]
    # one pass per lock-step round in which some graph was charged a query,
    # after the clean batch; no query computed its answer alone
    charged = {d["round"] for o in outcomes
               for d, before in zip(o.diagnostics, (0,) + tuple(d["records"] for d in o.diagnostics))
               if d["records"] > before}
    assert batches[0] == len(graphs)
    assert len(batches) == 1 + len(charged)
    assert sum(batches[1:]) >= sum(len(o.records) for o in outcomes)
    monkeypatch.undo()
    assert [_outcome(o) for o in outcomes] == [_outcome(o) for o in _alone(target, graphs, ys, cfg)]
    # what the cell covered: a graph done in round 0, one that went on, a
    # budget spent mid-round and a graph with no round at all
    assert any(o.success and len(o.diagnostics) == 1 for o in outcomes)
    assert any(len(o.diagnostics) > 1 for o in outcomes)
    assert any(o.queries_used == 13 for o in outcomes)
    assert outcomes[-1].beta == 0 and outcomes[-1].diagnostics == ()


def test_unconverged_eigencentrality_leaves_the_graph_unattacked(trained, monkeypatch):
    ds, target = trained
    test = ds.subset("test")
    cfg = AttackConfig(r=3.0 / 900, max_queries=10, k_candidates=5, rounds=2, seed=37)
    base = attack_testset(target, test, cfg)
    stuck = test.graphs[2]
    solve = engine_module.eigencentrality

    def flaky(g):
        if g.graph_id == stuck.graph_id:
            raise DidNotConverge("power iteration", 100_000, "iterations")
        return solve(g)

    monkeypatch.setattr(engine_module, "eigencentrality", flaky)
    summary = attack_testset(target, test, cfg)
    got = summary.results[2]
    assert got.outcome.beta == flip_budget(cfg.r, stuck.n)
    assert got.outcome.records == () and got.outcome.queries_used == 0
    assert got.outcome.success is False and got.attacked_label == got.clean_label
    assert got.outcome.best_graph is stuck
    assert "DidNotConverge" in json.dumps(got.outcome.diagnostics)
    others = [i for i in range(len(test)) if i != 2]
    assert ([_outcome(summary.results[i].outcome) for i in others]
            == [_outcome(base.results[i].outcome) for i in others])


def test_workers_agree_on_graphs_that_carry_wl_vectors(trained):
    ds, target = trained
    test = ds.subset("test")
    for vec in wl_feature_vectors(list(test.graphs), 3):
        vec.counts  # the read-only view a graph cannot be pickled with
    for g in test.graphs:
        graph_hash(g)  # and the label memos: a sha256 state is not picklable either
    cfg = AttackConfig(r=3.0 / 900, max_queries=15, k_candidates=5, rounds=2, seed=13)
    one = attack_testset(target, test, cfg, workers=1)
    two = attack_testset(target, test, cfg, workers=2)
    assert summary_to_json(one) == summary_to_json(two)


# --- pinned decisions ------------------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    """A desk block of the reference benchmark, cut down to 6 test graphs."""
    ds = generate(GeneratorConfig(objects_range=(7, 8), delta=0.70, n_train_per_class=40,
                                  n_test_per_class=3, seed=3))
    return ds.subset("test"), train_target(ds, wl_iters=3, C=10.0, seed=3)


def decision_digest(summary) -> str:
    """sha256 of what the attack decided: each record's digest, label and
    success flag, and each graph's query count, attacked label and best flips."""
    trace = [
        [r.outcome.queries_used, r.attacked_label,
         [[f.u, f.v, f.direction, f.weight] for f in r.outcome.best_flips],
         [[rec.digest, rec.label, rec.success] for rec in r.outcome.records]]
        for r in summary.results
    ]
    return hashlib.sha256(json.dumps(trace).encode("utf-8")).hexdigest()


# recorded before the planners and the pool went incremental; record digests
# depend on graph_hash's format, so a change there must re-record them
PINNED = {
    ("eigencentrality", "svm_rbf", "score"):
        "b745fe45abcf6c233defa3e0a811f3b2cc06d6fbcb8390b79494288136b82a94",
    ("random_walk", "svm_rbf", "score"):
        "b45611208e828450a9f2c6400c1258fefcf5227ae5fbae75edf2c943874017de",
    ("shortest_path", "svm_rbf", "score"):
        "d4158cb68a1554533eff4886f21046f83c73187d3d3995736220cf167cd75b59",
    ("eigencentrality", "naive_bayes", "score"):
        "647162fef16124f939cd5485d9a615dcc43124aa045ee1b432be8fc6738b073f",
    ("eigencentrality", "svm_rbf", "label"):
        "39c5f6aa17e903880a12b09cb022ec4961f94a33ef7391b87a7d555640dc037b",
}


@pytest.mark.parametrize("strategy,surrogate,oracle", sorted(PINNED))
def test_attack_decisions_are_pinned(desk, strategy, surrogate, oracle):
    # a speed-up must leave every query, label and best perturbation as it was
    test, target = desk
    cfg = AttackConfig(r=3.0 / 900, max_queries=30, k_candidates=10, rounds=3,
                       strategy=strategy, surrogate=surrogate, oracle=oracle, seed=3)
    summary = attack_testset(target, test, cfg)
    assert decision_digest(summary) == PINNED[(strategy, surrogate, oracle)]


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(strategy="teleport")
    with pytest.raises(ValueError):
        AttackConfig(surrogate="gnn")
    with pytest.raises(ValueError):
        AttackConfig(max_queries=3, k_candidates=5)
    with pytest.raises(ValueError):
        AttackConfig(rounds=0)
    with pytest.raises(ValueError):
        AttackConfig(r=0.0)
    AttackConfig(max_queries=0)  # "no attack" is allowed


def test_summary_json_shape(trained):
    ds, target = trained
    cfg = AttackConfig(r=3.0 / 900, max_queries=10, k_candidates=5, rounds=2, seed=29)
    summary = attack_testset(target, ds.subset("test"), cfg)
    doc = summary_to_json(summary)
    assert doc["config"]["seed"] == 29
    assert len(doc["graphs"]) == len(ds.subset("test"))
    row = doc["graphs"][0]
    for key in ("graph_id", "beta", "best_loss", "queries_used", "records"):
        assert key in row


# --- black-box seal ------------------------------------------------------------

ALLOWED_TARGET_IMPORTS = {"BlackBoxQuery", "QueryBudgetExhausted", "attack_loss", "evaluate"}
MODEL_INTERNALS = {"svm", "dictionary", "platt_a", "platt_b", "alphas",
                   "support_vectors", "sv_labels", "bias", "_model"}


def test_engine_links_against_query_interface_only():
    src = Path(engine_module.__file__).read_text()
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and "target_lcd" in node.module:
            names = {alias.name for alias in node.names}
            assert names <= ALLOWED_TARGET_IMPORTS, names
    assert "TargetModel" not in src
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in MODEL_INTERNALS, f"engine touches .{node.attr}"


def test_attack_runs_against_opaque_stub(rng):
    # duck-typed interface with no TargetModel anywhere proves the contract
    g = random_graph(9, 0.4, rng)
    flip_after = 5
    calls = {"n": 0}

    def oracle(graph):
        calls["n"] += 1
        return ((-1, 0.8) if calls["n"] > flip_after else (1, 0.9))

    stub = StubQuery(oracle)
    cfg = AttackConfig(r=2.0 / 81, max_queries=40, k_candidates=4, rounds=4, seed=31)
    out = attack_one(stub, g, 1, cfg)
    assert out.success is True
