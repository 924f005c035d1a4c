import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphevade.wl_features as wl_module
from graphevade.wl_features import sparse_dot, wl_feature_vector, wl_feature_vectors
from oracles import are_isomorphic, jacobi_eigh, wl_histogram, wl_pair_kernel

from conftest import graph_strategy, make_graph, random_graph


def permute(g, perm):
    inv = np.argsort(perm)
    return make_graph(
        g.n,
        [(min(perm[u], perm[v]), max(perm[u], perm[v]), w) for u, v, w in g.edges],
        labels=[g.node_labels[inv[i]] for i in range(g.n)],
        tiers=[g.node_tiers[inv[i]] for i in range(g.n)],
    )


def wl_kernel_matrix(graphs, wl_iters, normalize=False):
    """Gram matrix of the WL subtree kernel, K[i][j] = dot(phi(g_i), phi(g_j));
    normalize divides by sqrt(K[i][i] K[j][j])."""
    vecs = [v.counts for v in wl_feature_vectors(graphs, wl_iters)]
    k = np.array([[float(sparse_dot(a, b)) for b in vecs] for a in vecs])
    if normalize:
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
    return k


def level_histograms(g, wl_iters):
    """{label id: count} of each level h = 0..wl_iters: the multiset of the
    node labels at that level."""
    levels = [{} for _ in range(wl_iters + 1)]
    for (h, label), count in wl_feature_vector(g, wl_iters).counts.items():
        levels[h][label] = count
    return levels


def test_isolated_equal_nodes_stay_equal():
    g = make_graph(2, [], labels=["a", "a"])
    assert list(level_histograms(g, 1)[1].values()) == [2]


def test_path_degree_asymmetry_after_one_step():
    # the two ends share a label, the middle node gets another
    g = make_graph(3, [(0, 1), (1, 2)], labels=["a", "a", "a"])
    assert list(level_histograms(g, 1)[1].values()) == [2, 1]


def test_isomorphic_graphs_share_label_multisets(rng):
    for trial in range(30):
        g = random_graph(6, 0.4, rng, graph_id=f"i{trial}")
        perm = rng.permutation(g.n)
        h = permute(g, perm)
        assert are_isomorphic(g, h)
        assert level_histograms(g, 2) == level_histograms(h, 2)


def test_multiset_difference_implies_non_isomorphic(rng):
    found = 0
    for trial in range(40):
        a = random_graph(5, 0.4, rng, graph_id=f"a{trial}")
        b = random_graph(5, 0.4, rng, graph_id=f"b{trial}")
        if level_histograms(a, 3) != level_histograms(b, 3):
            found += 1
            assert not are_isomorphic(a, b)
    assert found > 10


def test_k2_h0_histogram():
    g = make_graph(2, [(0, 1)], labels=["a", "a"])
    vec = wl_feature_vector(g, 0)
    ((key, count),) = vec.counts.items()
    assert key[0] == 0 and count == 2


def test_iteration_sums_equal_n(rng):
    for trial in range(10):
        g = random_graph(7, 0.35, rng, graph_id=f"s{trial}")
        vec = wl_feature_vector(g, 3)
        assert vec.iteration_sums() == [g.n] * 4


def test_pair_kernel_matches_oracle(rng):
    for trial in range(200):
        g1 = random_graph(6, 0.4, rng, graph_id=f"p{trial}a")
        g2 = random_graph(6, 0.4, rng, graph_id=f"p{trial}b")
        v1, v2 = wl_feature_vectors([g1, g2], 3)
        assert sparse_dot(v1.counts, v2.counts) == wl_pair_kernel(g1, g2, 3)


def test_kernel_matrix_identical_graphs(rng):
    g = random_graph(6, 0.5, rng)
    k = wl_kernel_matrix([g, g, g], 2)
    assert np.allclose(k, k[0, 0])


def test_normalized_kernel_unit_diagonal(rng):
    graphs = [random_graph(6, 0.4, rng, graph_id=f"n{i}") for i in range(5)]
    k = wl_kernel_matrix(graphs, 2, normalize=True)
    assert np.allclose(np.diag(k), 1.0)
    assert np.all(np.abs(k) <= 1 + 1e-12)


def test_kernel_matrix_psd(rng):
    graphs = [random_graph(6, 0.4, rng, graph_id=f"m{i}") for i in range(50)]
    k = wl_kernel_matrix(graphs, 3)
    evals, _ = jacobi_eigh(k)
    assert evals.min() >= -1e-8
    assert np.allclose(k, k.T)
    assert np.all(np.diag(k) > 0)


def test_kernel_cauchy_schwarz(rng):
    graphs = [random_graph(6, 0.45, rng, graph_id=f"c{i}") for i in range(12)]
    k = wl_kernel_matrix(graphs, 3)
    for i in range(12):
        for j in range(12):
            assert k[i, j] ** 2 <= k[i, i] * k[j, j] + 1e-9


@settings(max_examples=40, deadline=None)
@given(graph_strategy())
def test_permutation_invariance_property(g):
    rng = np.random.default_rng(7)
    base = wl_feature_vector(g, 3).counts
    for _ in range(5):
        h = permute(g, rng.permutation(g.n))
        assert wl_feature_vector(h, 3).counts == base


@settings(max_examples=80, deadline=None)
@given(st.lists(graph_strategy(), max_size=6), st.integers(min_value=0, max_value=3))
def test_batch_equals_each_graph_alone(graphs, wl_iters):
    # two objects of one structure and an edgeless graph: the same ids then
    # recur in many blocks of the batch
    twins = [make_graph(4, [(0, 1), (1, 2), (1, 3)], labels=["a", "b", "a", "c"]) for _ in range(2)]
    graphs = graphs + twins + [make_graph(3, [], labels=["a", "a", "b"])]
    batch = wl_feature_vectors(graphs, wl_iters)
    assert len(batch) == len(graphs)
    for g, vec in zip(graphs, batch):
        # same keys, counts and first-seen key order
        alone = list(wl_feature_vector(g, wl_iters).counts.items())
        assert list(vec.counts.items()) == alone
        assert alone == list(wl_histogram(g, wl_iters).items())


def test_batch_of_mixed_sizes(rng):
    graphs = [make_graph(1, []), random_graph(9, 0.4, rng, graph_id="big"),
              make_graph(2, [], labels=["a", "b"]), make_graph(2, [(0, 1)]),
              random_graph(5, 0.0, rng, graph_id="edgeless"), make_graph(1, [], labels=["c"])]
    assert wl_feature_vectors([], 3) == []
    for wl_iters in (0, 1, 3):
        batch = wl_feature_vectors(graphs, wl_iters)
        assert [list(v.counts.items()) for v in batch] == [
            list(wl_histogram(g, wl_iters).items()) for g in graphs]
        assert [v.iteration_sums() for v in batch] == [[g.n] * (wl_iters + 1) for g in graphs]


def test_feature_arrays_follow_first_seen_order(rng):
    g = random_graph(9, 0.4, rng, graph_id="arrays")
    vec = wl_feature_vector(g, 2)
    assert vec.ids.dtype == np.uint64
    assert list(zip(vec.levels.tolist(), vec.ids.tolist(), vec.values.tolist())) == [
        (h, i, c) for (h, i), c in wl_histogram(g, 2).items()]
    with pytest.raises(TypeError):
        vec.counts[(0, 1)] = 1  # a read-only view


def test_monotone_label_refinement(rng):
    for trial in range(10):
        g = random_graph(7, 0.4, rng, graph_id=f"r{trial}")
        distinct = [len(level) for level in level_histograms(g, 3)]
        assert distinct == sorted(distinct)


def test_ids_independent_of_extraction_order(rng):
    graphs = [random_graph(6, 0.4, rng, graph_id=f"d{i}") for i in range(8)]
    alone = [wl_feature_vector(g, 3).counts for g in graphs]
    others = [random_graph(7, 0.5, rng, graph_id=f"o{i}") for i in range(5)]
    wl_feature_vectors(others, 3)
    mixed = wl_feature_vectors(others + graphs[::-1], 3)[len(others):]
    # same keys, counts and first-seen key order
    assert [list(v.counts.items()) for v in mixed[::-1]] == [list(c.items()) for c in alone]


def test_ids_independent_of_hash_seed(rng):
    graphs = [random_graph(6, 0.4, rng, graph_id=f"h{i}") for i in range(4)]
    here = [sorted([list(k), c] for k, c in wl_feature_vector(g, 3).counts.items())
            for g in graphs]
    script = (
        "import json, sys\n"
        "from graphevade.graph_core import LabeledGraph\n"
        "from graphevade.wl_features import wl_feature_vector\n"
        "out = []\n"
        "for labels, tiers, edges in json.load(sys.stdin):\n"
        "    g = LabeledGraph('g', tuple(labels), tuple(tiers), tuple(map(tuple, edges)))\n"
        "    out.append(sorted([list(k), c] for k, c in wl_feature_vector(g, 3).counts.items()))\n"
        "json.dump(out, sys.stdout)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    payload = json.dumps([[g.node_labels, g.node_tiers, g.edges] for g in graphs])
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], input=payload, env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == here


def test_vector_keys_align_across_graphs():
    g1 = make_graph(2, [(0, 1)], labels=["a", "b"])
    g2 = make_graph(2, [(0, 1)], labels=["b", "a"])
    v1, v2 = wl_feature_vectors([g1, g2], 1)
    assert v1.counts == v2.counts  # isomorphic up to order, ids are graph-only


@settings(max_examples=60, deadline=None)
@given(graph_strategy(), st.integers(min_value=0, max_value=3))
def test_memoised_vector_matches_fresh_histogram(g, wl_iters):
    vec = wl_feature_vector(g, wl_iters)
    assert wl_feature_vectors([g], wl_iters)[0] is vec  # kept on the graph
    assert list(vec.counts.items()) == list(wl_histogram(g, wl_iters).items())
    deeper = wl_feature_vector(g, wl_iters + 1)  # another depth, another vector
    assert list(deeper.counts.items()) == list(wl_histogram(g, wl_iters + 1).items())
    for arr in (vec.levels, vec.ids, vec.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:1] = 0


def test_only_graphs_without_a_vector_are_refined(rng, monkeypatch):
    graphs = [random_graph(6, 0.4, rng, graph_id=f"m{i}") for i in range(4)]
    kept = wl_feature_vector(graphs[1], 2)
    batches = []
    extract = wl_module._extract

    def spy(batch, wl_iters):
        batches.append(list(batch))
        return extract(batch, wl_iters)

    monkeypatch.setattr(wl_module, "_extract", spy)
    vecs = wl_feature_vectors(graphs, 2)
    assert batches == [[graphs[0], graphs[2], graphs[3]]]  # one batch of the rest
    assert vecs[1] is kept
    assert wl_feature_vectors(graphs[::-1], 2) == vecs[::-1]
    assert len(batches) == 1


def test_repeated_graph_in_a_batch_is_refined_once(rng, monkeypatch):
    g, h = (random_graph(7, 0.4, rng, graph_id=i) for i in "gh")
    twin = make_graph(g.n, g.edges, labels=g.node_labels, tiers=g.node_tiers)
    batches = []
    extract = wl_module._extract

    def spy(batch, wl_iters):
        batches.append(list(batch))
        return extract(batch, wl_iters)

    monkeypatch.setattr(wl_module, "_extract", spy)
    vecs = wl_feature_vectors([g, h, g], 3)
    assert [[id(x) for x in b] for b in batches] == [[id(g), id(h)]]
    assert vecs[0] is vecs[2]
    alone = wl_feature_vector(twin, 3)  # an equal graph with no vector yet
    for a, b in ((vecs[0].levels, alone.levels), (vecs[0].ids, alone.ids),
                 (vecs[0].values, alone.values)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
