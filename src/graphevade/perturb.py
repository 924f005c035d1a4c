"""Perturbation planning under a flip budget: eigencentrality ranking, teleporting
random walks, and shortest-path edits."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .graph_core import EdgeFlip, LabeledGraph
from .learners import DidNotConverge


class BudgetExceedsPairs(Exception):
    """The flip budget is larger than the number of available node pairs."""


class NoConnectedPair(Exception):
    """The graph has no edges, so no connected (s, t) pair exists."""


@dataclass(frozen=True)
class Budget:
    """Flip budget beta = max(1, ceil(r * n^2)) for perturbation ratio r and n nodes."""

    r: float
    n: int
    beta: int = field(init=False)

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"perturbation ratio must be positive, got {self.r}")
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        beta = max(1, math.ceil(self.r * self.n * self.n))
        pairs = self.n * (self.n - 1) // 2
        if beta > pairs:
            raise BudgetExceedsPairs(
                f"beta={beta} exceeds the {pairs} unordered pairs of an n={self.n} graph"
            )
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class CentralityScores:
    """Dominant eigenvector of the binary adjacency matrix plus its Rayleigh eigenvalue."""

    x: np.ndarray
    lambda_max: float
    iterations: int

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
        broken by (u, v) lexicographic order; computed once per scores."""
        iu, iv = _upper_pairs(self.x.shape[0])
        order = np.lexsort((iv, iu, -self.x[iu] * self.x[iv]))
        return tuple(zip(iu[order].tolist(), iv[order].tolist()))


@dataclass(frozen=True)
class PerturbationPlan:
    """An ordered, within-budget list of edge flips plus the strategy that made it."""

    flips: tuple[EdgeFlip, ...]
    strategy: str


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


def eigencentrality(g: LabeledGraph, tol: float = 1e-10, max_iter: int = 100_000) -> CentralityScores:
    """Power iteration for the dominant eigenvector of the binary adjacency matrix.

    Iterates with A + I: the unit diagonal shift keeps the iteration matrix
    primitive, which breaks both the period-2 oscillation on bipartite graphs
    and the stagnation on edgeless ones, while leaving the eigenvectors of A
    untouched. Converges when successive iterates differ by < tol in the
    infinity norm; the reported eigenvalue is the Rayleigh quotient of A.
    """
    a = adjacency_matrix(g)
    m = a + np.eye(g.n)
    x = np.full(g.n, 1.0 / math.sqrt(g.n))
    for it in range(1, max_iter + 1):
        x_new = m @ x
        x_new /= math.sqrt(x_new @ x_new)
        if float(np.abs(x_new - x).max()) < tol:
            x = x_new
            lam = float(x @ a @ x)
            x = np.clip(x, 0.0, None)
            x /= np.linalg.norm(x)
            return CentralityScores(x, lam, it)
        x = x_new
    raise DidNotConverge("power iteration", max_iter, "iterations")


def ranked_pairs(scores: CentralityScores) -> list[tuple[int, int]]:
    """All unordered node pairs sorted by score product X_u * X_v descending,
    ties broken by (u, v) lexicographic order."""
    return list(scores.ranking)


def _flip_for_pair(g: LabeledGraph, pair: tuple[int, int]) -> EdgeFlip:
    u, v = pair
    if g.has_edge(u, v):
        return EdgeFlip(u, v, "remove")
    return EdgeFlip(u, v, "add", weight=g.mean_weight)


def plan_eigencentrality(
    g: LabeledGraph,
    budget: Budget,
    k_candidates: int = 1,
    seed: int = 0,
    offset: int = 0,
    scores: CentralityScores | None = None,
) -> list[PerturbationPlan]:
    """Plans built from the centrality-ranked pair list.

    Plan i covers ranked pairs offset+i .. offset+i+beta-1 (a sliding window, so
    successive candidates differ); each pair becomes a removal if the edge
    exists in g, otherwise an addition. Ranking is deterministic, so the seed
    (kept for the planners' shared signature) goes unused; precomputed scores
    may be passed to skip the power iteration. Emits fewer than k_candidates
    plans when the pair list runs out past the requested offset.
    """
    if scores is None:
        scores = eigencentrality(g)
    pairs = scores.ranking
    if budget.beta > len(pairs):
        raise BudgetExceedsPairs(f"beta={budget.beta} > {len(pairs)} pairs")
    n_plans = min(k_candidates, max(0, len(pairs) - budget.beta + 1 - offset))
    plans = []
    for i in range(n_plans):
        window = pairs[offset + i : offset + i + budget.beta]
        flips = tuple(_flip_for_pair(g, p) for p in window)
        plans.append(PerturbationPlan(flips, "eigencentrality"))
    return plans


def _walk_pairs(g: LabeledGraph, beta: int, walk_len: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Consecutive distinct pairs visited by a uniform teleporting walk."""
    nodes = rng.integers(0, g.n, size=walk_len + 1)
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
    budget: Budget,
    k_candidates: int = 1,
    seed: int = 0,
    walk_len: int | None = None,
) -> list[PerturbationPlan]:
    """Plans from a teleporting random walk (each step jumps to a uniform node,
    so disconnected and edgeless graphs still yield flips).

    The walk visits walk_len steps (default 4 * beta); the first beta distinct
    non-self pairs become flips. One plan per rng draw.
    """
    if budget.beta > g.n * (g.n - 1) // 2:
        raise BudgetExceedsPairs(f"beta={budget.beta} too large for n={g.n}")
    steps = 4 * budget.beta if walk_len is None else walk_len
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(k_candidates):
        pairs = _walk_pairs(g, budget.beta, steps, rng)
        flips = tuple(_flip_for_pair(g, p) for p in pairs)
        plans.append(PerturbationPlan(flips, "random_walk"))
    return plans


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
    budget: Budget,
    k_candidates: int = 1,
    seed: int = 0,
) -> list[PerturbationPlan]:
    """Plans that edit the weighted shortest path between sampled connected pairs.

    On an edgeless graph no connected pair exists, so the planner falls back to
    the teleporting-walk pair collection and tags the plan accordingly.
    """
    if budget.beta > g.n * (g.n - 1) // 2:
        raise BudgetExceedsPairs(f"beta={budget.beta} too large for n={g.n}")
    rng = np.random.default_rng(seed)
    if not g.edges:
        plans = []
        for _ in range(k_candidates):
            pairs = _walk_pairs(g, budget.beta, 4 * budget.beta, rng)
            flips = tuple(_flip_for_pair(g, p) for p in pairs)
            plans.append(PerturbationPlan(flips, "shortest_path:random_walk_fallback"))
        return plans
    adj = _adjacency(g.edge_weights, g.n)
    comp = _components(adj)
    return [PerturbationPlan(_shortest_path_flips(g, budget.beta, rng, adj, comp), "shortest_path")
            for _ in range(k_candidates)]
