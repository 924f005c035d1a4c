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
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .graph_core import LabeledGraph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, elementwise over a uint64 array (wrapping)."""
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


@lru_cache(maxsize=4096)
def _label_id(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")


def _arcs(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """(source, destination) node arrays with each undirected edge in both directions."""
    e = np.array([(u, v) for u, v, _ in g.edges], dtype=np.intp).reshape(-1, 2)
    return np.concatenate((e[:, 0], e[:, 1])), np.concatenate((e[:, 1], e[:, 0]))


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


def initial_labels(g: LabeledGraph) -> np.ndarray:
    return np.fromiter((_label_id(lab) for lab in g.node_labels), dtype=np.uint64, count=g.n)


def wl_relabel_step(g: LabeledGraph, labels: np.ndarray) -> np.ndarray:
    """One WL iteration: each node's new label hashes its own label together
    with the multiset of its neighbours' labels."""
    return _refine(np.asarray(labels, dtype=np.uint64), *_arcs(g))


def wl_feature_vector(g: LabeledGraph, wl_iters: int) -> WlFeatureVector:
    """Concatenated label histograms for h = 0..wl_iters (h=0 counts raw labels).

    Keys appear in first-seen node order within each iteration."""
    if wl_iters < 0:
        raise ValueError("wl_iters must be >= 0")
    counts: dict[tuple[int, int], int] = {}
    labels = initial_labels(g)
    src, dst = _arcs(g)
    for h in range(wl_iters + 1):
        for lab in labels.tolist():
            key = (h, lab)
            counts[key] = counts.get(key, 0) + 1
        if h < wl_iters:
            labels = _refine(labels, src, dst)
    return WlFeatureVector(counts, wl_iters)


def wl_feature_vectors(graphs: Sequence[LabeledGraph], wl_iters: int) -> list[WlFeatureVector]:
    return [wl_feature_vector(g, wl_iters) for g in graphs]


def sparse_dot(a: Mapping, b: Mapping):
    """Dot product of two sparse maps (ints in, int out; floats propagate)."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)
