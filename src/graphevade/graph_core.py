"""Immutable labeled multi-tier graphs, datasets, and JSON-lines serialization."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, KeysView, Mapping, Sequence

TIERS = ("object", "feature")
_RECORD_FIELDS = ("id", "y", "split", "nodes", "edges")
_NODE_FIELDS = ("id", "label", "tier")
_EDGE_FIELDS = ("u", "v", "w")


class InapplicableFlip(Exception):
    """An edge flip conflicts with the current edge set (add on existing, remove on missing)."""


class ParseError(Exception):
    """A dataset line is malformed JSON, breaks the schema or a graph invariant."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ValueError):
    """A record carries a missing, unknown, or mistyped field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class EdgeFlip:
    """One edge toggle: add or remove the undirected pair (u, v). An addition
    carries the new edge's weight; a removal carries none."""

    u: int
    v: int
    direction: str  # "add" | "remove"
    weight: float | None = None

    def __post_init__(self):
        if self.u >= self.v:
            raise ValueError(f"flip endpoints must satisfy u < v, got ({self.u}, {self.v})")
        if self.direction not in ("add", "remove"):
            raise ValueError(f"unknown flip direction {self.direction!r}")
        if self.direction == "add" and self.weight is None:
            raise ValueError(f"add of ({self.u}, {self.v}) needs a weight")
        if self.weight is not None and not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"flip weight must be finite and >= 0, got {self.weight}")


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
    def edge_weights(self) -> Mapping[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    @property
    def edge_pairs(self) -> KeysView[tuple[int, int]]:
        """The (u, v) pairs of the edges: a set-like view of edge_weights."""
        return self.edge_weights.keys()

    @cached_property
    def mean_weight(self) -> float:
        """Mean edge weight (the planners' weight for an add); 1.0 if edgeless."""
        if not self.edges:
            return 1.0
        return _sum_left_to_right(w for _, _, w in self.edges) / len(self.edges)

    @cached_property
    def _node_memo(self) -> dict:
        """Memos of node_labels and node_tiers alone, which every graph that
        apply_flips derives from this one shares: "sha256" holds the digest's
        hash state after the label and tier reprs, and wl_features keeps the
        level-0 WL ids under "wl0"."""
        return {}

    @cached_property
    def _digest(self) -> str:
        """graph_hash of this graph."""
        memo = self._node_memo
        head = memo.get("sha256")
        if head is None:
            labels = repr(self.node_labels).encode("utf-8")
            tiers = repr(self.node_tiers).encode("utf-8")
            head = hashlib.sha256(struct.pack("<QQ", len(labels), len(tiers)))
            head.update(labels)
            head.update(tiers)
            memo["sha256"] = head
        h = head.copy()
        h.update(struct.pack(f"<{3 * len(self.edges)}d", *chain.from_iterable(self.edges)))
        return h.hexdigest()

    @cached_property
    def _wl(self) -> dict:
        """WL feature vectors of this graph by wl_iters, filled by wl_features."""
        return {}

    def __getstate__(self):
        # the memos (digest, views, WL vectors) are rebuilt on demand, and a
        # WL vector's read-only counts view cannot be pickled
        return {name: self.__dict__[name]
                for name in ("graph_id", "node_labels", "node_tiers", "edges")}

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_weights


def apply_flips(g: LabeledGraph, flips: Sequence[EdgeFlip]) -> LabeledGraph:
    """Apply an ordered list of edge flips, returning a new graph.

    Each flip must be applicable against the running edge set; an add on an
    existing edge or a remove on a missing edge raises InapplicableFlip
    (it signals a buggy strategy, so the whole application aborts), and an
    add outside the node range raises ValueError. With those checks and
    EdgeFlip's own (u < v, weight finite and >= 0), the result holds every
    LabeledGraph invariant, so it is built without validating it again. It
    shares g's memos of the node labels and tiers.
    """
    edges = list(g.edges)  # kept sorted: each flip is found by bisection
    for flip in flips:
        u, v = pair = flip.u, flip.v
        i = bisect_left(edges, pair)
        present = i < len(edges) and edges[i][0] == u and edges[i][1] == v
        if flip.direction == "add":
            if present:
                raise InapplicableFlip(f"add on existing edge {pair}")
            if not (0 <= u and v < g.n):
                raise ValueError(f"edge {pair} endpoint out of range for n={g.n}")
            edges.insert(i, (u, v, float(flip.weight)))
        else:
            if not present:
                raise InapplicableFlip(f"remove on missing edge {pair}")
            del edges[i]
    out = LabeledGraph._trusted(g.graph_id, g.node_labels, g.node_tiers, tuple(edges))
    out.__dict__["_node_memo"] = g._node_memo
    return out


def _sum_left_to_right(values: Iterable[float]) -> float:
    """Plain left-to-right float sum. The builtin sum compensates its rounding
    from Python 3.12 on, which would change mean weights, and with them
    digests and path costs, from one interpreter version to the next."""
    total = 0.0
    for x in values:
        total += x
    return total


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

    def __post_init__(self):
        if not (len(self.graphs) == len(self.labels) == len(self.splits)):
            raise ValueError("graphs, labels, and splits must have equal length")
        for y in self.labels:
            if y not in (1, -1):
                raise ValueError(f"class label must be +1 or -1, got {y}")
        for s in self.splits:
            if s not in ("train", "test"):
                raise ValueError(f"unknown split tag {s!r}")

    @classmethod
    def from_graphs(
        cls,
        graphs: Iterable[LabeledGraph],
        labels: Iterable[int],
        splits: Iterable[str],
    ) -> "GraphDataset":
        return cls(tuple(graphs), tuple(int(y) for y in labels), tuple(splits))

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, split: str) -> "GraphDataset":
        idx = [i for i, s in enumerate(self.splits) if s == split]
        return GraphDataset.from_graphs(
            [self.graphs[i] for i in idx],
            [self.labels[i] for i in idx],
            [self.splits[i] for i in idx],
        )


JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number"}


def json_value(value, kind: type, what: str, lo: int = 0, hi: float = math.inf):
    """value, a number as a float; SchemaError(what) unless it is a JSON value
    of kind: an object, an array, a string, an integer in [lo, hi) or a finite
    number (an integer counts). true and false are neither integers nor
    numbers."""
    ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if ok and kind in (int, float):
        ok = lo <= value < hi if kind is int else abs(value) <= sys.float_info.max
    if not ok:
        raise SchemaError(what, f"must be a {'finite ' * (kind is float)}JSON {JSON_TYPES[kind]}"
                          + (f" in [{lo}, {hi})" if kind is int else ""))
    return float(value) if kind is float else value


def json_fields(obj, allowed, required, what: str) -> dict:
    """obj, or SchemaError unless it is a JSON object whose keys are all in
    allowed and include every key in required."""
    for key in json_value(obj, dict, what):
        if key not in allowed:
            raise SchemaError(key, f"unknown key in {what}")
    for key in required:
        if key not in obj:
            raise SchemaError(key, f"missing from {what}")
    return obj


def _graph_from_record(rec) -> tuple[LabeledGraph, int, str]:
    json_fields(rec, _RECORD_FIELDS, ("id", "y", "nodes", "edges"), "record")
    gid = json_value(rec["id"], str, "id")
    y = json_value(rec["y"], int, "y", -1, 2)
    if y == 0:
        raise SchemaError("y", "must be the integer 1 or -1")
    split = rec.get("split", "train")
    if split not in ("train", "test"):
        raise SchemaError("split", "must be 'train' or 'test'")
    nodes = json_value(rec["nodes"], list, "nodes")
    n = len(nodes)
    labels: list[str | None] = [None] * n
    tiers: list[str | None] = [None] * n
    for node in nodes:
        json_fields(node, _NODE_FIELDS, _NODE_FIELDS, "node")
        nid = json_value(node["id"], int, "id", 0, n)
        if labels[nid] is not None:
            raise SchemaError("id", f"duplicate node id {nid}")
        labels[nid] = json_value(node["label"], str, "label")
        tiers[nid] = node["tier"]
    triples = []
    for edge in json_value(rec["edges"], list, "edges"):
        json_fields(edge, _EDGE_FIELDS, _EDGE_FIELDS, "edge")
        triples.append((json_value(edge["u"], int, "u"), json_value(edge["v"], int, "v"),
                        json_value(edge["w"], float, "w")))
    return LabeledGraph(gid, tuple(labels), tuple(tiers), tuple(triples)), y, split


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
            except ValueError as exc:  # a SchemaError or a graph invariant
                raise ParseError(line_no, str(exc)) from exc
            graphs.append(g)
            labels.append(y)
            splits.append(split)
    return GraphDataset.from_graphs(graphs, labels, splits)
