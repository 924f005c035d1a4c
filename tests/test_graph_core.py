import json
import math
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
    json_value,
    read_dataset,
    write_dataset,
)
from graphevade.synth_data import GeneratorConfig, generate

from oracles import FlipError, dict_apply_flips, structural_digest, wl_histogram

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
    out = apply_flips(g, [EdgeFlip(0, 1, "add", 1.0), EdgeFlip(2, 3, "add", 0.5)])
    assert out.edge_pairs == {(0, 1), (2, 3)}
    assert out.edge_weights == {(0, 1): 1.0, (2, 3): 0.5}


def test_add_without_weight_raises():
    with pytest.raises(ValueError, match="weight"):
        EdgeFlip(0, 1, "add")
    assert EdgeFlip(0, 1, "remove").weight is None


def test_inapplicable_flips_raise():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(InapplicableFlip):
        apply_flips(g, [EdgeFlip(0, 1, "add", 1.0)])
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
    and each add carries its weight."""
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
            weight = draw(st.floats(min_value=0.0, max_value=10.0))
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


def test_graph_pickles_without_its_memos(rng):
    from graphevade.wl_features import wl_feature_vector

    g = random_graph(7, 0.4, rng, graph_id="memo")
    flip = EdgeFlip(0, 1, "remove") if g.has_edge(0, 1) else EdgeFlip(0, 1, "add", 1.0)
    candidate = apply_flips(g, [flip])
    for h in (g, candidate):
        digest = graph_hash(h)
        vec = wl_feature_vector(h, 3)
        vec.counts  # a read-only view, which pickle cannot take
        h.edge_weights
        back = pickle.loads(pickle.dumps(h))
        assert sorted(vars(back)) == ["edges", "graph_id", "node_labels", "node_tiers"]
        assert back == h and graph_hash(back) == digest
        assert wl_feature_vector(back, 3).counts == vec.counts
        assert "_wl" in vars(h)  # the original keeps its memos
        assert set(h._node_memo) == {"sha256", "wl0"}  # a hash state and an array
    assert candidate._node_memo is g._node_memo


def test_mean_weight_adds_left_to_right():
    # 0.1 added ten times left to right is 0.9999999999999999; the builtin
    # sum compensates from Python 3.12 on and gives 1.0
    g = make_graph(11, [(0, v, 0.1) for v in range(1, 11)])
    assert g.mean_weight.hex() == (0.9999999999999999 / 10).hex()


@st.composite
def flip_lists(draw, g):
    """Flips over a few pairs, so pairs repeat (add then remove, remove then
    add back); most apply to the running edge set, some do not, and some
    pairs lie outside the nodes."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)] + [(-1, 0), (0, g.n)]
    pool = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    present = set(g.edge_pairs)
    flips = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        pair = draw(st.sampled_from(pool))
        applicable = draw(st.integers(min_value=0, max_value=9)) > 0
        if (pair not in present) == applicable:
            weight = draw(st.floats(min_value=0.0, max_value=10.0))
            flips.append(EdgeFlip(*pair, "add", weight=weight))
            present.add(pair)
        else:
            flips.append(EdgeFlip(*pair, "remove"))
            present.discard(pair)
    return flips


def _hexed(edges):
    return [(u, v, w.hex()) for u, v, w in edges]


@settings(max_examples=200, deadline=None)
@given(graph_strategy(), st.data())
def test_apply_flips_matches_the_edge_map_oracle(g, data):
    base = g
    for _ in range(3):  # a chain: each step flips the graph the last one built
        flips = data.draw(flip_lists(base))
        try:
            want = dict_apply_flips(base.edges, base.n, flips)
        except FlipError as exc:
            error = InapplicableFlip if exc.kind == "inapplicable" else ValueError
            apply_flips(base, flips[:exc.index])  # every flip before it applies
            for upto in (exc.index + 1, len(flips)):
                with pytest.raises(error):
                    apply_flips(base, flips[:upto])
            return
        out = apply_flips(base, flips)
        assert _hexed(out.edges) == _hexed(want)
        assert out == LabeledGraph(out.graph_id, out.node_labels, out.node_tiers, want)
        base = out


@settings(max_examples=80, deadline=None)
@given(graph_strategy(), st.data())
def test_candidates_share_label_memos_with_their_base(g, data):
    from graphevade.wl_features import wl_feature_vector

    wl_iters = data.draw(st.integers(min_value=0, max_value=3))
    chain = [g]
    for _ in range(3):  # candidates of candidates, as the attack's mutations are
        chain.append(apply_flips(chain[-1], data.draw(applicable_flips(chain[-1]))))
    # whichever graph of the chain fills a memo first, every other reads it
    for h in data.draw(st.permutations(chain)):
        assert h._node_memo is g._node_memo
        assert graph_hash(h) == structural_digest(h)
        vec = wl_feature_vector(h, wl_iters)
        assert list(vec.counts.items()) == list(wl_histogram(h, wl_iters).items())


def test_apply_flips_rejects_out_of_range_add():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        apply_flips(g, [EdgeFlip(1, 3, "add", 1.0)])
    with pytest.raises(ValueError):
        apply_flips(g, [EdgeFlip(-1, 2, "add", 1.0)])


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
    with pytest.raises(ParseError, match=r"^line 1: field 'bogus': ") as err:
        read_dataset(path)
    assert isinstance(err.value.__cause__, SchemaError)
    assert err.value.__cause__.field == "bogus"


def test_missing_field_and_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "g0", "y": 1, "nodes": [{"id": 0, "label": "a", "tier": "object"}]}\n')
    with pytest.raises(ParseError, match=r"^line 1: field 'edges': missing"):
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
    with pytest.raises(ParseError, match=r"^line 1: field 'id': "):
        read_dataset(path)


@pytest.mark.parametrize("value,kind,lo,hi", [
    (True, int, 0, math.inf), (False, float, 0, math.inf),  # a bool is neither
    (1.5, int, 0, math.inf), (1.0, int, 0, math.inf), ("1", float, 0, math.inf),
    (math.nan, float, 0, math.inf), (math.inf, float, 0, math.inf),
    (-math.inf, float, 0, math.inf), (10**400, float, 0, math.inf),
    (-1, int, 0, math.inf), (2, int, -1, 2), (-2, int, -1, 2),
    ([], dict, 0, math.inf), ({}, list, 0, math.inf), (1, str, 0, math.inf),
])
def test_json_value_rejects(value, kind, lo, hi):
    with pytest.raises(SchemaError, match=r"^field 'x': must be a ") as err:
        json_value(value, kind, "x", lo, hi)
    assert err.value.field == "x"


def test_json_value_accepts():
    assert json_value(3, float, "x") == 3.0 and type(json_value(3, float, "x")) is float
    assert json_value(-2.5, float, "x") == -2.5
    assert json_value(0, int, "x") == 0 and json_value(1, int, "x", -1, 2) == 1
    assert json_value(-1, int, "x", -1, 2) == -1
    assert json_value(10**30, int, "x") == 10**30
    assert json_value("s", str, "x") == "s"
    assert json_value([1], list, "x") == [1] and json_value({"a": 1}, dict, "x") == {"a": 1}


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
        GraphDataset.from_graphs([g], [2], ["train"])
    with pytest.raises(ValueError):
        GraphDataset((g,), (1,), ("train", "test"))


def test_subset_filters_splits():
    g = make_graph(2, [(0, 1)])
    ds = GraphDataset.from_graphs([g, g, g], [1, -1, 1], ["train", "test", "train"])
    assert len(ds.subset("train")) == 2
    assert len(ds.subset("test")) == 1
