from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.graph_core import graph_hash, write_dataset
from graphevade.synth_data import (
    GeneratorConfig,
    InvalidConfig,
    _class_edge_probs,
    _label_cdf,
    _label_weights,
    generate,
)
from graphevade.target_lcd import train_target

from oracles import adjacency_lists, draw_by_draw_graph


def test_default_config_shape():
    cfg = GeneratorConfig(n_train_per_class=10, n_test_per_class=5)
    ds = generate(cfg)
    assert len(ds) == 30
    assert sum(1 for s in ds.splits if s == "train") == 20
    for split in ("train", "test"):
        sub = ds.subset(split)
        assert sum(1 for y in sub.labels if y == 1) == len(sub) // 2


def test_graphs_satisfy_core_invariants():
    ds = generate(GeneratorConfig(n_train_per_class=15, n_test_per_class=5, seed=11))
    for g in ds.graphs:
        lo, hi = 8, 9
        n_obj = sum(1 for t in g.node_tiers if t == "object")
        assert lo <= n_obj <= hi
        for u, v, w in g.edges:
            assert 0 <= u < v < g.n
            assert w >= 0
        # every feature node anchors to exactly one object via its star edge
        adj = adjacency_lists(g)
        for v, tier in enumerate(g.node_tiers):
            if tier == "feature":
                anchors = [u for u in adj[v] if g.node_tiers[u] == "object"]
                assert len(anchors) >= 1


def test_zero_features_gives_object_only_graphs():
    cfg = GeneratorConfig(n_train_per_class=5, n_test_per_class=2,
                          objects_range=(4, 4), features_per_object_range=(0, 0))
    ds = generate(cfg)
    for g in ds.graphs:
        assert g.n == 4
        assert all(t == "object" for t in g.node_tiers)


def test_determinism_byte_identical(tmp_path):
    cfg = GeneratorConfig(n_train_per_class=20, n_test_per_class=10, seed=77)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(generate(cfg), a)
    write_dataset(generate(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_differs(tmp_path):
    base = GeneratorConfig(n_train_per_class=10, n_test_per_class=5, seed=1)
    other = GeneratorConfig(n_train_per_class=10, n_test_per_class=5, seed=2)
    assert generate(base) != generate(other)


def test_delta_zero_classes_indistinguishable():
    accs = []
    for seed in range(5):
        cfg = GeneratorConfig(n_train_per_class=40, n_test_per_class=20,
                              delta=0.0, seed=seed)
        ds = generate(cfg)
        model = train_target(ds, seed=seed)
        accs.append(model.test_accuracy)
    assert abs(float(np.mean(accs)) - 0.5) <= 0.1


def test_default_delta_separable_reference_seed():
    ds = generate(GeneratorConfig(seed=42))
    model = train_target(ds, seed=42)
    assert model.test_accuracy >= 0.9


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        GeneratorConfig(n_train_per_class=0)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(objects_range=(3, 2))
    with pytest.raises(InvalidConfig):
        GeneratorConfig(features_per_object_range=(-1, 2))
    with pytest.raises(InvalidConfig):
        GeneratorConfig(p_obj=1.5)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(delta=-0.1)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(vocab_size=0)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(weight_low=0.0)


def test_class_b_core_is_denser():
    ds = generate(GeneratorConfig(n_train_per_class=50, n_test_per_class=1, seed=4))

    def core_edges(g):
        return sum(1 for u, v, _ in g.edges
                   if g.node_tiers[u] == "object" and g.node_tiers[v] == "object")

    dense = np.mean([core_edges(g) for g, y in zip(ds.graphs, ds.labels) if y == -1])
    sparse = np.mean([core_edges(g) for g, y in zip(ds.graphs, ds.labels) if y == 1])
    assert dense > sparse + 2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.sampled_from([0.0, 0.3, 0.7, 1.5, 4.0]),
       st.sampled_from([1, -1]), st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=60))
def test_label_sampler_matches_rng_choice(vocab_size, delta, cls, seed, draws):
    # labels drawn as a block of uniforms, each searched in the cdf, are the
    # labels rng.choice draws one at a time, with the same state after
    weights = _label_weights(GeneratorConfig(vocab_size=vocab_size, delta=delta), cls)
    cdf = _label_cdf(weights)
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [bisect_right(cdf, u) for u in ours.random(draws).tolist()] == [
        int(ref.choice(vocab_size, p=weights)) for _ in range(draws)]
    assert ours.bit_generator.state == ref.bit_generator.state


def _fields(g):
    return (g.graph_id, g.node_labels, g.node_tiers,
            [(u, v, w.hex()) for u, v, w in g.edges], graph_hash(g))


@settings(max_examples=200, deadline=None)
@given(vocab_size=st.integers(min_value=1, max_value=12),
       objects_range=st.integers(min_value=1, max_value=12).flatmap(
           lambda hi: st.tuples(st.integers(min_value=1, max_value=hi), st.just(hi))),
       features_per_object_range=st.integers(min_value=0, max_value=6).flatmap(
           lambda hi: st.tuples(st.integers(min_value=0, max_value=hi), st.just(hi))),
       p_obj=st.sampled_from([0.0, 0.3, 1.0]), p_feat=st.sampled_from([0.0, 0.3, 1.0]),
       weights=st.sampled_from([(0.1, 2.0), (1.0, 1.0), (0.3, 0.3), (1e-9, 1e9),
                                (5e-324, 1e308)])
       | st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)).map(sorted),
       delta=st.sampled_from([0.0, 0.3, 0.7, 1.5, 4.0]),
       seed=st.integers(min_value=0, max_value=2**32))
def test_generate_matches_the_draw_by_draw_generator(vocab_size, objects_range,
                                                    features_per_object_range, p_obj, p_feat,
                                                    weights, delta, seed):
    cfg = GeneratorConfig(n_train_per_class=2, n_test_per_class=1, objects_range=objects_range,
                          features_per_object_range=features_per_object_range,
                          vocab_size=vocab_size, p_obj=p_obj, p_feat=p_feat,
                          weight_low=weights[0], weight_high=weights[1], delta=delta, seed=seed)
    ds = generate(cfg)
    assert len(ds) == 6
    for index, (g, cls) in enumerate(zip(ds.graphs, ds.labels)):
        ref = draw_by_draw_graph(cfg, _label_weights(cfg, cls), *_class_edge_probs(cfg, cls),
                                 f"g{index:04d}", index)
        assert _fields(g) == _fields(ref)
