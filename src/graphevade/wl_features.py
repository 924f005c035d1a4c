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
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph_core import LabeledGraph
from .learners import SparseVector

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


@dataclass(frozen=True, eq=False)
class WlFeatureVector(SparseVector):
    """Sparse concatenated histogram over h = 0..wl_iters: entry k counts
    values[k] nodes whose label at iteration levels[k] is ids[k]. Entries run
    level by level, in first-seen node order within a level."""

    wl_iters: int

    @cached_property
    def counts(self) -> Mapping[tuple[int, int], int]:
        """Read-only (h, label id) -> count view, in entry order."""
        keys = zip(self.levels.tolist(), self.ids.tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def iteration_sums(self) -> list[int]:
        return np.bincount(self.levels, weights=self.values,
                           minlength=self.wl_iters + 1).astype(np.int64).tolist()


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
    if not graphs:
        return []
    sizes = [g.n for g in graphs]
    starts = list(accumulate(sizes, initial=0))
    labels = _initial_ids(chain.from_iterable(g.node_labels for g in graphs), starts[-1])
    src, dst = _union_arcs(graphs, starts[:-1])
    rows = [labels]
    for _ in range(wl_iters):
        labels = _refine(labels, src, dst)
        rows.append(labels)
    # entries level-major, each level graph by graph: block b = h * m + i
    # holds graph i's nodes at level h, in node order
    m = len(graphs)
    ids = np.concatenate(rows)
    n = len(ids)
    block = np.repeat(np.arange((wl_iters + 1) * m), sizes * (wl_iters + 1))  # list repetition
    # runs of equal (block, id); the sort is stable, so each run opens at its
    # key's first-seen node
    order = np.lexsort((ids, block))
    ids, block = ids[order], block[order]
    opens = np.empty(n + 1, dtype=bool)
    opens[0] = opens[n] = True
    np.not_equal(ids[1:], ids[:-1], out=opens[1:n])
    opens[1:n] |= block[1:] != block[:-1]
    bounds = np.flatnonzero(opens)
    heads = bounds[:-1]
    values = bounds[1:] - heads
    # runs back in first-seen order: by graph, then by entry position, which
    # orders by level and then by node
    block = block[heads]
    graph = block % m
    runs = np.argsort(graph * n + order[heads])
    levels = block[runs] // m
    cuts = np.searchsorted(graph[runs], np.arange(m + 1)).tolist()
    ids, values = ids[heads[runs]], values[runs]
    return [WlFeatureVector(levels[a:b], ids[a:b], values[a:b], wl_iters)
            for a, b in zip(cuts, cuts[1:])]


def sparse_dot(a: Mapping, b: Mapping):
    """Dot product of two sparse maps (ints in, int out; floats propagate)."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)
