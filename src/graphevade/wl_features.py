"""Weisfeiler-Lehman relabeling and per-iteration label histograms.

Label ids are 64-bit hashes that depend only on the graph, so histograms from
different graphs, processes and saved models share coordinates without a
shared dictionary. Level 0 hashes each node-label string with blake2b (the
built-in str hash is salted per process); each refinement step compresses a
node's label and the multiset of its neighbours' labels as
mix(own * GOLDEN + sum of mix(neighbour)), with mix the splitmix64 finaliser
(hashed colour refinement, as in Kersting et al., Power Iterated Color
Refinement, AAAI 2014).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph_core import LabeledGraph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, elementwise over a uint64 array (wrapping); x is
    left as it is."""
    x = x ^ (x >> _S30)
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


@lru_cache(maxsize=4096)
def _label_id(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")


def _union_arcs(graphs: Sequence[LabeledGraph], starts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(source, destination) node arrays of the disjoint union of graphs, with
    each undirected edge in both directions; graph i's nodes start at starts[i]."""
    n_edges = [len(g.edges) for g in graphs]
    e = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                    dtype=np.float64, count=3 * sum(n_edges)).reshape(-1, 3)
    shift = np.repeat(np.asarray(starts, dtype=np.intp), n_edges)
    u = e[:, 0].astype(np.intp) + shift
    v = e[:, 1].astype(np.intp) + shift
    return np.concatenate((u, v)), np.concatenate((v, u))


def _refine(labels: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    acc = labels * _GOLDEN
    np.add.at(acc, dst, _mix(labels)[src])
    return _mix(acc)


@dataclass(frozen=True)
class WlFeatureVector:
    """Sparse concatenated histogram: (iteration h, label id) -> count, h = 0..H."""

    counts: Mapping[tuple[int, int], int]
    wl_iters: int

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))

    def iteration_sums(self) -> list[int]:
        sums = [0] * (self.wl_iters + 1)
        for (h, _), c in self.counts.items():
            sums[h] += c
        return sums


def _initial_ids(labels: Iterable[str], count: int) -> np.ndarray:
    return np.fromiter(map(_label_id, labels), dtype=np.uint64, count=count)


def initial_labels(g: LabeledGraph) -> np.ndarray:
    return _initial_ids(g.node_labels, g.n)


def wl_relabel_step(g: LabeledGraph, labels: np.ndarray) -> np.ndarray:
    """One WL iteration: each node's new label hashes its own label together
    with the multiset of its neighbours' labels."""
    return _refine(np.asarray(labels, dtype=np.uint64), *_union_arcs([g], [0]))


def wl_feature_vector(g: LabeledGraph, wl_iters: int) -> WlFeatureVector:
    """Concatenated label histograms for h = 0..wl_iters (h=0 counts raw labels).

    Keys appear in first-seen node order within each iteration."""
    return wl_feature_vectors((g,), wl_iters)[0]


def wl_feature_vectors(graphs: Sequence[LabeledGraph], wl_iters: int) -> list[WlFeatureVector]:
    """wl_feature_vector of each graph, refining the whole batch at once.

    Each step runs once over the disjoint union of the batch (one edge list,
    graph i's node indices shifted by the node count of the graphs before
    it); the label rows are then cut back per graph, so every vector, key
    order included, equals that of its graph featurised alone."""
    if wl_iters < 0:
        raise ValueError("wl_iters must be >= 0")
    sizes = [g.n for g in graphs]
    starts = list(accumulate(sizes, initial=0))
    labels = _initial_ids(chain.from_iterable(g.node_labels for g in graphs), starts[-1])
    src, dst = _union_arcs(graphs, starts[:-1])
    rows = [labels.tolist()]
    for _ in range(wl_iters):
        labels = _refine(labels, src, dst)
        rows.append(labels.tolist())
    out = []
    for n, a in zip(sizes, starts):
        keys = zip(chain.from_iterable(repeat(h, n) for h in range(wl_iters + 1)),
                   chain.from_iterable(row[a:a + n] for row in rows))
        out.append(WlFeatureVector(Counter(keys), wl_iters))
    return out


def sparse_dot(a: Mapping, b: Mapping):
    """Dot product of two sparse maps (ints in, int out; floats propagate)."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)
