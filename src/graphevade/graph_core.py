"""Immutable labeled multi-tier graphs, datasets, and JSON-lines serialization."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

TIERS = ("object", "feature")
_RECORD_FIELDS = ("id", "y", "split", "nodes", "edges")
_NODE_FIELDS = ("id", "label", "tier")
_EDGE_FIELDS = ("u", "v", "w")


class InapplicableFlip(Exception):
    """An edge flip conflicts with the current edge set (add on existing, remove on missing)."""


class ParseError(Exception):
    """A dataset line is malformed JSON or violates a graph invariant."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(Exception):
    """A record carries a missing, unknown, or mistyped field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class EdgeFlip:
    """One edge toggle: add or remove the undirected pair (u, v).

    ``weight`` applies only to additions; ``None`` means "mean weight of the
    edges present when the flip is applied" (1.0 on an edgeless graph).
    """

    u: int
    v: int
    direction: str  # "add" | "remove"
    weight: float | None = None

    def __post_init__(self):
        if self.u >= self.v:
            raise ValueError(f"flip endpoints must satisfy u < v, got ({self.u}, {self.v})")
        if self.direction not in ("add", "remove"):
            raise ValueError(f"unknown flip direction {self.direction!r}")
        if self.weight is not None and not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"flip weight must be finite and >= 0, got {self.weight}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected multi-tier graph with categorical node labels and weighted edges.

    Edges are stored canonically: endpoints ordered u < v, list sorted by
    (u, v), so equal graphs compare and serialize identically. Instances are
    immutable and safe to share across workers.
    """

    graph_id: str
    node_labels: tuple[str, ...]
    node_tiers: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.node_labels)
        tiers = tuple(str(x) for x in self.node_tiers)
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "node_tiers", tiers)
        n = len(labels)
        if n < 1:
            raise ValueError("graph must have at least one node")
        if len(tiers) != n:
            raise ValueError("node_tiers length must match node_labels")
        for t in tiers:
            if t not in TIERS:
                raise ValueError(f"unknown node tier {t!r}")
        canon = []
        seen = set()
        for e in self.edges:
            u, v, w = int(e[0]), int(e[1]), float(e[2])
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) endpoint out of range for n={n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"edge ({u}, {v}) weight must be finite and >= 0, got {w}")
            seen.add((u, v))
            canon.append((u, v, w))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @classmethod
    def _trusted(cls, graph_id: str, node_labels: tuple[str, ...], node_tiers: tuple[str, ...],
                 edges: tuple[tuple[int, int, float], ...]) -> "LabeledGraph":
        """Build from fields that already hold every invariant, edges canonical,
        without validating them again."""
        g = object.__new__(cls)
        g.__dict__.update(graph_id=graph_id, node_labels=node_labels,
                          node_tiers=node_tiers, edges=edges)
        return g

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    @cached_property
    def edge_weights(self) -> Mapping[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists, one tuple per node."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def mean_weight(self) -> float:
        """Mean edge weight; 1.0 for an edgeless graph (default weight for added edges)."""
        if not self.edges:
            return 1.0
        return sum(w for _, _, w in self.edges) / len(self.edges)

    @cached_property
    def _digest(self) -> str:
        """graph_hash of this graph."""
        labels = repr(self.node_labels).encode("utf-8")
        tiers = repr(self.node_tiers).encode("utf-8")
        h = hashlib.sha256(struct.pack("<QQ", len(labels), len(tiers)))
        h.update(labels)
        h.update(tiers)
        h.update(struct.pack(f"<{3 * len(self.edges)}d", *chain.from_iterable(self.edges)))
        return h.hexdigest()

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_pairs


def apply_flips(g: LabeledGraph, flips: Sequence[EdgeFlip]) -> LabeledGraph:
    """Apply an ordered list of edge flips, returning a new graph.

    Each flip must be applicable against the running edge set; an add on an
    existing edge or a remove on a missing edge raises InapplicableFlip
    (it signals a buggy strategy, so the whole application aborts), and an
    add outside the node range raises ValueError. With those checks and
    EdgeFlip's own (u < v, weight finite and >= 0), the result holds every
    LabeledGraph invariant, so it is built without validating it again.
    """
    weights = dict(g.edge_weights)
    for flip in flips:
        pair = flip.pair
        if flip.direction == "add":
            if pair in weights:
                raise InapplicableFlip(f"add on existing edge {pair}")
            if not (0 <= flip.u and flip.v < g.n):
                raise ValueError(f"edge {pair} endpoint out of range for n={g.n}")
            if flip.weight is not None:
                w = float(flip.weight)
            elif weights:
                w = sum(weights.values()) / len(weights)
            else:
                w = 1.0
            weights[pair] = w
        else:
            if pair not in weights:
                raise InapplicableFlip(f"remove on missing edge {pair}")
            del weights[pair]
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return LabeledGraph._trusted(g.graph_id, g.node_labels, g.node_tiers, edges)


def graph_hash(g: LabeledGraph) -> str:
    """Structural digest: equal canonical graphs (ignoring graph_id) hash equal.

    sha256 over the length-prefixed reprs of the label and tier tuples, then
    the canonical edge triples as little-endian doubles. Used to deduplicate
    queried perturbations in the attack loop. Computed once per graph object.
    """
    return g._digest


@dataclass(frozen=True)
class GraphDataset:
    """A list of graphs with binary class labels (+1 loop / -1 non-loop) and split tags."""

    graphs: tuple[LabeledGraph, ...]
    labels: tuple[int, ...]
    splits: tuple[str, ...]
    label_vocabulary: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.graphs) == len(self.labels) == len(self.splits)):
            raise ValueError("graphs, labels, and splits must have equal length")
        for y in self.labels:
            if y not in (1, -1):
                raise ValueError(f"class label must be +1 or -1, got {y}")
        for s in self.splits:
            if s not in ("train", "test"):
                raise ValueError(f"unknown split tag {s!r}")
        vocab = set(self.label_vocabulary)
        for g in self.graphs:
            for lab in g.node_labels:
                if lab not in vocab:
                    raise ValueError(f"node label {lab!r} missing from vocabulary")

    @classmethod
    def from_graphs(
        cls,
        graphs: Iterable[LabeledGraph],
        labels: Iterable[int],
        splits: Iterable[str] | None = None,
    ) -> "GraphDataset":
        graphs = tuple(graphs)
        labels = tuple(int(y) for y in labels)
        if splits is None:
            splits = tuple("train" for _ in graphs)
        else:
            splits = tuple(splits)
        vocab = tuple(sorted({lab for g in graphs for lab in g.node_labels}))
        return cls(graphs, labels, splits, vocab)

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, split: str) -> "GraphDataset":
        idx = [i for i, s in enumerate(self.splits) if s == split]
        return GraphDataset.from_graphs(
            [self.graphs[i] for i in idx],
            [self.labels[i] for i in idx],
            [self.splits[i] for i in idx],
        )


def _require_fields(obj: dict, allowed: Sequence[str], required: Sequence[str], where: str):
    for key in obj:
        if key not in allowed:
            raise SchemaError(key, f"unknown field in {where}")
    for key in required:
        if key not in obj:
            raise SchemaError(key, f"missing from {where}")


def _graph_from_record(rec: dict) -> tuple[LabeledGraph, int, str]:
    if not isinstance(rec, dict):
        raise SchemaError("record", "each line must hold a JSON object")
    _require_fields(rec, _RECORD_FIELDS, ("id", "y", "nodes", "edges"), "graph record")
    gid = rec["id"]
    if not isinstance(gid, str):
        raise SchemaError("id", "must be a string")
    y = rec["y"]
    if y not in (1, -1):
        raise SchemaError("y", "must be 1 or -1")
    split = rec.get("split", "train")
    if split not in ("train", "test"):
        raise SchemaError("split", "must be 'train' or 'test'")
    nodes = rec["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError("nodes", "must be a non-empty list")
    n = len(nodes)
    labels: list[str | None] = [None] * n
    tiers: list[str | None] = [None] * n
    for node in nodes:
        if not isinstance(node, dict):
            raise SchemaError("nodes", "each node must be an object")
        _require_fields(node, _NODE_FIELDS, _NODE_FIELDS, "node")
        nid = node["id"]
        if not isinstance(nid, int) or isinstance(nid, bool) or not (0 <= nid < n):
            raise SchemaError("id", f"node ids must be integers 0..{n - 1} contiguous")
        if labels[nid] is not None:
            raise SchemaError("id", f"duplicate node id {nid}")
        if not isinstance(node["label"], str):
            raise SchemaError("label", "must be a string")
        if node["tier"] not in TIERS:
            raise SchemaError("tier", f"must be one of {TIERS}")
        labels[nid] = node["label"]
        tiers[nid] = node["tier"]
    edges = rec["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges", "must be a list")
    triples = []
    for edge in edges:
        if not isinstance(edge, dict):
            raise SchemaError("edges", "each edge must be an object")
        _require_fields(edge, _EDGE_FIELDS, _EDGE_FIELDS, "edge")
        u, v, w = edge["u"], edge["v"], edge["w"]
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise SchemaError("u", "edge endpoints must be integers")
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise SchemaError("w", "edge weight must be a number")
        triples.append((u, v, float(w)))
    graph = LabeledGraph(gid, tuple(labels), tuple(tiers), tuple(triples))
    return graph, int(y), split


def dumps_graph_record(g: LabeledGraph, y: int, split: str = "train") -> str:
    """One canonical JSON line for a graph (nodes ascending, edges sorted by (u, v))."""
    rec = {
        "id": g.graph_id,
        "y": y,
        "split": split,
        "nodes": [
            {"id": i, "label": g.node_labels[i], "tier": g.node_tiers[i]}
            for i in range(g.n)
        ],
        "edges": [{"u": u, "v": v, "w": w} for u, v, w in g.edges],
    }
    return json.dumps(rec, separators=(",", ":"))


def write_dataset(ds: GraphDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g, y, split in zip(ds.graphs, ds.labels, ds.splits):
            fh.write(dumps_graph_record(g, y, split))
            fh.write("\n")


def read_dataset(path) -> GraphDataset:
    graphs, labels, splits = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            try:
                g, y, split = _graph_from_record(rec)
            except SchemaError:
                raise
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            graphs.append(g)
            labels.append(y)
            splits.append(split)
    return GraphDataset.from_graphs(graphs, labels, splits)
