"""Perturbation planning under a flip budget: eigencentrality ranking, teleporting
random walks, shortest-path edits, and one-flip mutations of an incumbent.

A plan is a tuple of EdgeFlips; every planner here decides its own flips."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graph_core import EdgeFlip, LabeledGraph
from .learners import DidNotConverge


class BudgetExceedsPairs(Exception):
    """The flip budget is larger than the number of available node pairs."""


def flip_budget(r: float, n: int) -> int:
    """Flip budget beta = max(1, ceil(r * n^2)) for perturbation ratio r and n nodes."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"perturbation ratio must be positive, got {r}")
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    beta = max(1, math.ceil(r * n * n))
    pairs = n * (n - 1) // 2
    if beta > pairs:
        raise BudgetExceedsPairs(
            f"beta={beta} exceeds the {pairs} unordered pairs of an n={n} graph"
        )
    return beta


@dataclass(frozen=True)
class CentralityScores:
    """Dominant eigenvector of the binary adjacency matrix."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        norm = float(np.linalg.norm(x))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"centrality vector must have unit norm, got {norm}")
        if np.any(x < 0):
            raise ValueError("centrality entries must be nonnegative")

    @cached_property
    def ranking(self) -> tuple[tuple[int, int], ...]:
        """All unordered node pairs by score product X_u * X_v descending, ties
        broken by (u, v) lexicographic order (the order _upper_pairs lists
        them in, which a stable sort keeps); computed once per scores."""
        iu, iv = _upper_pairs(self.x.shape[0])
        order = np.argsort(-self.x[iu] * self.x[iv], kind="stable")
        return tuple(zip(iu[order].tolist(), iv[order].tolist()))


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), read-only: every (u, v) with u < v, in
    lexicographic order."""
    iu, iv = np.triu_indices(n, 1)
    iu.setflags(write=False)
    iv.setflags(write=False)
    return iu, iv


def adjacency_matrix(g: LabeledGraph) -> np.ndarray:
    """Binary (0/1) symmetric adjacency; edge weights are ignored on purpose."""
    a = np.zeros((g.n, g.n), dtype=float)
    for u, v, _ in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


_BLOCK = 32  # power-iteration steps between two convergence tests


def eigencentrality(g: LabeledGraph, tol: float = 1e-10, max_iter: int = 100_000) -> CentralityScores:
    """Power iteration for the dominant eigenvector of the binary adjacency matrix.

    Iterates with A + I: the unit diagonal shift keeps the iteration matrix
    primitive, which breaks both the period-2 oscillation on bipartite graphs
    and the stagnation on edgeless ones, while leaving the eigenvectors of A
    untouched. Converges when successive iterates differ by < tol in the
    infinity norm.

    Steps run in blocks of _BLOCK iterates written into one buffer, and one
    vectorised test per block finds the first converged step; the iterates
    past it are dropped, so the result is the step-by-step one, bit for bit.
    """
    m = adjacency_matrix(g) + np.eye(g.n)
    xs = np.empty((_BLOCK + 1, g.n))
    xs[0] = 1.0 / math.sqrt(g.n)
    steps_of_block = list(zip(xs[:-1], xs[1:]))  # (prev, row) views, made once
    dot, sqrt = np.dot, math.sqrt
    for done in range(0, max_iter, _BLOCK):
        steps = min(_BLOCK, max_iter - done)
        for prev, row in steps_of_block[:steps]:
            dot(m, prev, out=row)
            row /= sqrt(dot(row, row))
        hit = np.abs(xs[1 : steps + 1] - xs[:steps]).max(axis=1) < tol
        if hit.any():
            x = np.clip(xs[1 + int(hit.argmax())], 0.0, None)
            x /= np.linalg.norm(x)
            return CentralityScores(x)
        xs[0] = xs[steps]
    raise DidNotConverge("power iteration", max_iter, "iterations")


def _flip_for_pair(g: LabeledGraph, pair: tuple[int, int], weight: float) -> EdgeFlip:
    """Remove the pair's edge if g has it, otherwise add it with weight."""
    u, v = pair
    if g.has_edge(u, v):
        return EdgeFlip(u, v, "remove")
    return EdgeFlip(u, v, "add", weight=weight)


def plan_eigencentrality(
    g: LabeledGraph,
    beta: int,
    scores: CentralityScores,
    k_candidates: int = 1,
    offset: int = 0,
) -> list[tuple[EdgeFlip, ...]]:
    """Plans built from the centrality-ranked pair list.

    Plan i covers ranked pairs offset+i .. offset+i+beta-1 (a sliding window, so
    successive candidates differ); each pair becomes a removal if the edge
    exists in g, otherwise an addition. scores is eigencentrality(g); the
    ranking is deterministic, so no seed is taken. Emits fewer than
    k_candidates plans when the pair list runs out past the requested offset.
    Each pair's flip is built once and shared by the windows that cover it.
    """
    pairs = scores.ranking
    n_plans = min(k_candidates, max(0, len(pairs) - beta + 1 - offset))
    mean_w = g.mean_weight
    flips = [_flip_for_pair(g, p, mean_w) for p in pairs[offset : offset + n_plans + beta - 1]]
    return [tuple(flips[i : i + beta]) for i in range(n_plans)]


def _walk_pairs(g: LabeledGraph, beta: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The first beta distinct pairs of consecutive nodes visited by a uniform
    teleporting walk of 4 * beta steps."""
    nodes = rng.integers(0, g.n, size=4 * beta + 1)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a == b:
            continue
        p = (int(min(a, b)), int(max(a, b)))
        if p in seen:
            continue
        seen.add(p)
        pairs.append(p)
        if len(pairs) == beta:
            break
    return pairs


def plan_random_walk(
    g: LabeledGraph,
    beta: int,
    k_candidates: int = 1,
    seed: int = 0,
) -> list[tuple[EdgeFlip, ...]]:
    """Plans from a teleporting random walk (each step jumps to a uniform node,
    so disconnected and edgeless graphs still yield flips).

    The walk visits 4 * beta steps; the first beta distinct non-self pairs
    become flips. One plan per rng draw.
    """
    rng = np.random.default_rng(seed)
    mean_w = g.mean_weight
    return [tuple(_flip_for_pair(g, p, mean_w) for p in _walk_pairs(g, beta, rng))
            for _ in range(k_candidates)]


def _adjacency(weights: Mapping[tuple[int, int], float], n: int) -> list[list[tuple[int, float]]]:
    """(neighbour, weight) lists, one per node, sorted by neighbour."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    return adj


def _components(adj: list[list[tuple[int, float]]]) -> np.ndarray:
    """Component label of every node: the smallest node of its component."""
    comp = [-1] * len(adj)
    for root in range(len(adj)):
        if comp[root] >= 0:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for w, _ in adj[stack.pop()]:
                if comp[w] < 0:
                    comp[w] = root
                    stack.append(w)
    return np.array(comp)


def _dijkstra_lex(
    adj: list[list[tuple[int, float]]], s: int, t: int
) -> tuple[float, tuple[int, ...]] | None:
    """Weighted shortest s-t path over a sorted adjacency (see _adjacency);
    among equal-cost paths, the lexicographically smallest node sequence wins.
    Returns (distance, path) or None if unreachable."""
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (s,))]
    done: set[int] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in done:
            continue
        done.add(v)
        if v == t:
            return dist, path
        # every node of path is done, so this also keeps paths simple
        for w, wt in adj[v]:
            if w not in done:
                heapq.heappush(heap, (dist + wt, path + (w,)))
    return None


def _shortest_path_flips(
    g: LabeledGraph, beta: int, rng: np.random.Generator,
    adj: list[list[tuple[int, float]]], comp: np.ndarray,
) -> tuple[EdgeFlip, ...]:
    """Flip sequence for one shortest-path plan.

    For a sampled connected pair (s, t): add the (s, t) shortcut if absent,
    otherwise remove the highest-weight edge on the current shortest s-t path
    (ties to the smallest (u, v)); the path is recomputed after every flip.
    Each pair is flipped at most once so flips stay pairwise distinct; when the
    current (s, t) offers nothing further (disconnected or all path edges
    already used), a new connected pair is sampled.

    adj and comp are g's sorted adjacency and component labels, shared by the
    plans of one call: the adjacency is copied and then edited in place flip
    by flip. Components change only on a removal (a shortcut joins two nodes
    that are already connected). A pair is drawn by its index among the
    still-open connected pairs in lexicographic order.
    """
    weights = dict(g.edge_weights)
    adj = [lst.copy() for lst in adj]
    iu, iv = _upper_pairs(g.n)
    connected = comp[iu] == comp[iv]
    stuck = np.zeros(iu.shape[0], dtype=bool)
    mean_w = g.mean_weight
    flips: list[EdgeFlip] = []
    used: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 20 + 4 * beta
    while len(flips) < beta and attempts < max_attempts:
        attempts += 1
        pool = np.flatnonzero(connected & ~stuck)
        if not len(pool):
            break
        k = int(pool[int(rng.integers(len(pool)))])
        s, t = int(iu[k]), int(iv[k])
        progressed = False
        while len(flips) < beta:
            pair = (s, t)
            if pair not in weights and pair not in used:
                flips.append(EdgeFlip(s, t, "add", weight=mean_w))
                weights[pair] = mean_w
                insort(adj[s], (t, mean_w))
                insort(adj[t], (s, mean_w))
                used.add(pair)
                progressed = True
                continue
            sp = _dijkstra_lex(adj, s, t)
            if sp is None:
                break
            _, path = sp
            path_edges = [
                (min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])
            ]
            removable = [p for p in path_edges if p not in used]
            if not removable:
                break
            a, b = max(removable, key=lambda p: (weights[p], -p[0], -p[1]))
            flips.append(EdgeFlip(a, b, "remove"))
            del weights[(a, b)]
            del adj[a][bisect_left(adj[a], (b,))]
            del adj[b][bisect_left(adj[b], (a,))]
            comp = _components(adj)
            connected = comp[iu] == comp[iv]
            used.add((a, b))
            progressed = True
        if not progressed:
            stuck[k] = True
    return tuple(flips)


def plan_shortest_path(
    g: LabeledGraph,
    beta: int,
    k_candidates: int = 1,
    seed: int = 0,
) -> list[tuple[EdgeFlip, ...]]:
    """Plans that edit the weighted shortest path between sampled connected pairs.

    On an edgeless graph no connected pair exists, so the planner falls back to
    the teleporting-walk plans of the same seed.
    """
    if not g.edges:
        return plan_random_walk(g, beta, k_candidates, seed)
    rng = np.random.default_rng(seed)
    adj = _adjacency(g.edge_weights, g.n)
    comp = _components(adj)
    return [_shortest_path_flips(g, beta, rng, adj, comp) for _ in range(k_candidates)]


def plan_mutations(
    g: LabeledGraph,
    best_graph: LabeledGraph,
    best_flips: tuple[EdgeFlip, ...],
    beta: int,
    count: int,
    seed: int,
) -> list[tuple[EdgeFlip, ...]]:
    """One-flip local mutations of the incumbent best_graph (reached from g by
    best_flips), staying within beta flips of g measured as edge-set symmetric
    difference.

    Each mutation is best_flips plus one flip, a plan that takes g to the
    mutated graph. The flip is of a drawn pair: any pair (by its index in
    lexicographic order) while the incumbent is under budget, otherwise one
    of the pairs it already differs on, so the flip reverts it. The flip
    removes the pair's edge if the incumbent has it and otherwise adds it at
    g's mean weight. A pair drawn again yields the same plan object: at
    budget the draws can only revert one of the incumbent's few flips, so
    most of them repeat.
    """
    rng = np.random.default_rng(seed)
    diff = sorted(g.edge_pairs ^ best_graph.edge_pairs)
    iu, iv = _upper_pairs(g.n)
    mean_w = g.mean_weight
    plans = {}  # drawn pair -> its mutation
    out = []
    for _ in range(count):
        if len(diff) >= beta:  # beta >= 1, so diff is not empty
            pair = diff[int(rng.integers(len(diff)))]
        else:
            k = int(rng.integers(len(iu)))
            pair = (int(iu[k]), int(iv[k]))
        if pair not in plans:
            plans[pair] = best_flips + (_flip_for_pair(best_graph, pair, mean_w),)
        out.append(plans[pair])
    return out
