import numpy as np
import pytest
from hypothesis import strategies as st

from graphevade.graph_core import LabeledGraph
from graphevade.learners import SparseVector


def make_graph(n, edges, labels=None, tiers=None, graph_id="g"):
    labels = tuple(labels) if labels is not None else tuple("a" for _ in range(n))
    tiers = tuple(tiers) if tiers is not None else tuple("object" for _ in range(n))
    triples = tuple(
        (u, v, 1.0) if len(e) == 2 else tuple(e)
        for e in edges
        for u, v, *_ in [e]
    )
    return LabeledGraph(graph_id, labels, tiers, triples)


def random_graph(n, p, rng, weights=True, labels=("a", "b", "c"), graph_id="g"):
    node_labels = tuple(labels[int(i)] for i in rng.integers(0, len(labels), size=n))
    tiers = tuple("object" if rng.random() < 0.5 else "feature" for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.1, 2.0)) if weights else 1.0
                edges.append((u, v, w))
    return LabeledGraph(graph_id, node_labels, tiers, tuple(edges))


def sparse(d):
    """SparseVector of a {(level, id): value} dict, entries in dict order."""
    keys = list(d)
    return SparseVector(np.array([k[0] for k in keys], dtype=np.int64),
                        np.array([k[1] for k in keys], dtype=np.uint64),
                        np.array([d[k] for k in keys]))


def as_dict(v):
    """{(level, id): value} dict of a SparseVector, in entry order."""
    return dict(zip(zip(v.levels.tolist(), v.ids.tolist()), v.values.tolist()))


def pytest_collection_modifyitems(items):
    """Mark every test that uses the reference benchmark fixture as slow."""
    for item in items:
        if "reference_bench" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@st.composite
def graph_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    tiers = draw(st.lists(st.sampled_from(["object", "feature"]), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                            min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((u, v, w) for (u, v), w in zip(chosen, weights))
    return LabeledGraph("h", tuple(labels), tuple(tiers), edges)
