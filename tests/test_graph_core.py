import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.graph_core import (
    EdgeFlip,
    GraphDataset,
    InapplicableFlip,
    LabeledGraph,
    ParseError,
    SchemaError,
    apply_flips,
    graph_hash,
    read_dataset,
    write_dataset,
)
from graphevade.synth_data import GeneratorConfig, generate

from oracles import structural_digest

from conftest import graph_strategy, make_graph, random_graph


def test_triangle_remove_gives_path():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    out = apply_flips(g, [EdgeFlip(0, 1, "remove")])
    assert out.edge_pairs == {(0, 2), (1, 2)}
    assert g.edge_pairs == {(0, 1), (0, 2), (1, 2)}  # input untouched


def test_empty_flip_list_is_identity():
    g = make_graph(4, [(0, 3), (1, 2)])
    assert apply_flips(g, []) == g


def test_adds_on_empty_graph():
    g = make_graph(4, [])
    out = apply_flips(g, [EdgeFlip(0, 1, "add"), EdgeFlip(2, 3, "add")])
    assert out.edge_pairs == {(0, 1), (2, 3)}


def test_added_edge_defaults_to_mean_weight():
    g = make_graph(3, [(0, 1, 2.0), (1, 2, 4.0)])
    out = apply_flips(g, [EdgeFlip(0, 2, "add")])
    assert out.edge_weights[(0, 2)] == pytest.approx(3.0)
    lone = apply_flips(make_graph(2, []), [EdgeFlip(0, 1, "add")])
    assert lone.edge_weights[(0, 1)] == 1.0


def test_inapplicable_flips_raise():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(InapplicableFlip):
        apply_flips(g, [EdgeFlip(0, 1, "add")])
    with pytest.raises(InapplicableFlip):
        apply_flips(g, [EdgeFlip(1, 2, "remove")])


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        LabeledGraph("g", ("a",), ("object", "object"), ())


def test_edges_canonicalized():
    g = LabeledGraph("g", ("a", "a", "a"), ("object",) * 3,
                     ((2, 1, 1.0), (1, 0, 2.0)))
    assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))


@settings(max_examples=60, deadline=None)
@given(graph_strategy(), st.data())
def test_flip_twice_restores_edges(g, data):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    if not pairs:
        return
    u, v = data.draw(st.sampled_from(pairs))
    if g.has_edge(u, v):
        first = EdgeFlip(u, v, "remove")
        second = EdgeFlip(u, v, "add", weight=g.edge_weights[(u, v)])
    else:
        first = EdgeFlip(u, v, "add", weight=1.5)
        second = EdgeFlip(u, v, "remove")
    assert apply_flips(g, [first, second]).edges == g.edges


def test_hash_identity_and_sensitivity():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert graph_hash(g) == graph_hash(apply_flips(g, []))
    removed = apply_flips(g, [EdgeFlip(0, 1, "remove")])
    assert graph_hash(g) != graph_hash(removed)


def test_hash_collision_scan(rng):
    seen = set()
    for i in range(1000):
        g = random_graph(6, 0.4, rng, graph_id=f"r{i}")
        seen.add(graph_hash(g))
    # distinct structures should hash distinctly; duplicates of identical
    # structures are expected and fine, so regenerate structurally unique ones
    assert len(seen) >= 900


def test_hash_ignores_graph_id():
    a = make_graph(3, [(0, 1)], graph_id="x")
    b = make_graph(3, [(0, 1)], graph_id="y")
    assert graph_hash(a) == graph_hash(b)


@st.composite
def applicable_flips(draw, g):
    """A flip sequence valid against the running edge set: pairs may repeat,
    adds carry no weight (mean of the running edges) or an explicit one."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    if not pairs:
        return []
    present = set(g.edge_pairs)
    flips = []
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=8)):
        if (u, v) in present:
            present.discard((u, v))
            flips.append(EdgeFlip(u, v, "remove"))
        else:
            present.add((u, v))
            weight = draw(st.none() | st.floats(min_value=0.0, max_value=10.0))
            flips.append(EdgeFlip(u, v, "add", weight=weight))
    return flips


@settings(max_examples=80, deadline=None)
@given(graph_strategy(), st.data())
def test_apply_flips_equals_validated_graph(g, data):
    out = apply_flips(g, data.draw(applicable_flips(g)))
    validated = LabeledGraph(out.graph_id, out.node_labels, out.node_tiers, out.edges)
    assert out == validated
    assert graph_hash(out) == graph_hash(validated)
    assert out.edge_pairs == validated.edge_pairs
    assert out.mean_weight == validated.mean_weight


@settings(max_examples=80, deadline=None)
@given(graph_strategy(), st.data())
def test_memoised_digest_matches_fresh_digest(g, data):
    assert graph_hash(g) == structural_digest(g)
    assert graph_hash(g) == structural_digest(g)  # served from the memo
    out = apply_flips(g, data.draw(applicable_flips(g)))
    trusted = LabeledGraph._trusted("t", g.node_labels, g.node_tiers, g.edges)
    for fresh in (out, trusted):
        assert "_digest" not in vars(fresh)
        assert graph_hash(fresh) == structural_digest(fresh)
    for h in (g, out, pickle.loads(pickle.dumps(out)), pickle.loads(pickle.dumps(trusted))):
        again = pickle.loads(pickle.dumps(h))
        assert graph_hash(again) == structural_digest(again) == structural_digest(h)


def test_apply_flips_rejects_out_of_range_add():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        apply_flips(g, [EdgeFlip(1, 3, "add")])
    with pytest.raises(ValueError):
        apply_flips(g, [EdgeFlip(-1, 2, "add")])


@settings(max_examples=60, deadline=None)
@given(graph_strategy(), st.randoms(use_true_random=False))
def test_hash_ignores_graph_id_and_edge_input_order(g, rnd):
    shuffled = [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
    rnd.shuffle(shuffled)
    other = LabeledGraph("another-id", g.node_labels, g.node_tiers, tuple(shuffled))
    assert graph_hash(other) == graph_hash(g)


def test_hash_separates_label_splits_and_close_weights():
    def digest(labels, edges=()):
        return graph_hash(make_graph(len(labels), edges, labels=labels))
    variants = [("ab", "c"), ("a", "bc"), ("a,b", "c"), ("a", "b,c"), ("a'", "c"),
                ('a"', "c"), ("a', 'c",), ("a", "'c"), ("a\\", "c")]
    assert len({digest(v) for v in variants}) == len(variants)
    assert digest(("a", "b"), [(0, 1, 0.3)]) != digest(("a", "b"), [(0, 1, 0.1 + 0.2)])
    tiers = [LabeledGraph("g", ("a", "b"), t, ()) for t in
             (("object", "feature"), ("feature", "object"), ("object", "object"))]
    assert len({graph_hash(t) for t in tiers}) == 3


def test_dataset_roundtrip_file(tmp_path):
    ds = generate(GeneratorConfig(n_train_per_class=10, n_test_per_class=5, seed=7))
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back == ds
    # byte-identical canonical rewrite
    path2 = tmp_path / "ds2.jsonl"
    write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_two_line_file(tmp_path):
    g1 = make_graph(2, [(0, 1)], labels=["a", "b"])
    g2 = make_graph(1, [], labels=["a"])
    path = tmp_path / "two.jsonl"
    ds = GraphDataset.from_graphs([g1, g2], [1, -1], ["train", "test"])
    write_dataset(ds, path)
    back = read_dataset(path)
    assert len(back) == 2
    assert back.labels == (1, -1)
    assert back.splits == ("train", "test")


def test_self_loop_line_is_parse_error(tmp_path):
    rec = {"id": "g0", "y": 1, "split": "train",
           "nodes": [{"id": 0, "label": "a", "tier": "object"},
                     {"id": 1, "label": "a", "tier": "object"},
                     {"id": 2, "label": "a", "tier": "object"},
                     {"id": 3, "label": "a", "tier": "object"}],
           "edges": [{"u": 3, "v": 3, "w": 1.0}]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError) as err:
        read_dataset(path)
    assert err.value.line_no == 1
    assert "self-loop" in str(err.value)


def test_unknown_field_is_schema_error(tmp_path):
    rec = {"id": "g0", "y": 1, "bogus": 3,
           "nodes": [{"id": 0, "label": "a", "tier": "object"}],
           "edges": []}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaError) as err:
        read_dataset(path)
    assert err.value.field == "bogus"


def test_missing_field_and_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "g0", "y": 1, "nodes": [{"id": 0, "label": "a", "tier": "object"}]}\n')
    with pytest.raises(SchemaError):
        read_dataset(path)
    path.write_text("{not json\n")
    with pytest.raises(ParseError):
        read_dataset(path)


def test_noncontiguous_node_ids_rejected(tmp_path):
    rec = {"id": "g0", "y": 1,
           "nodes": [{"id": 0, "label": "a", "tier": "object"},
                     {"id": 2, "label": "a", "tier": "object"}],
           "edges": []}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaError):
        read_dataset(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(graph_strategy(max_n=6), min_size=1, max_size=5), st.data())
def test_roundtrip_property(tmp_path_factory, graphs, data):
    graphs = [LabeledGraph(f"g{i:04d}", g.node_labels, g.node_tiers, g.edges)
              for i, g in enumerate(graphs)]
    labels = data.draw(st.lists(st.sampled_from([1, -1]),
                                min_size=len(graphs), max_size=len(graphs)))
    splits = data.draw(st.lists(st.sampled_from(["train", "test"]),
                                min_size=len(graphs), max_size=len(graphs)))
    ds = GraphDataset.from_graphs(graphs, labels, splits)
    path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
    write_dataset(ds, path)
    assert read_dataset(path) == ds


def test_dataset_validation():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        GraphDataset.from_graphs([g], [2])
    with pytest.raises(ValueError):
        GraphDataset((g,), (1,), ("train", "test"), ("a",))
    with pytest.raises(ValueError):
        GraphDataset((g,), (1,), ("train",), ("zzz",))


def test_subset_filters_splits():
    g = make_graph(2, [(0, 1)])
    ds = GraphDataset.from_graphs([g, g, g], [1, -1, 1], ["train", "test", "train"])
    assert len(ds.subset("train")) == 2
    assert len(ds.subset("test")) == 1
