"""Independent reference implementations used only to check the library.

Everything here is deliberately written from scratch against the definitions
(Jacobi rotations, direct two-graph WL kernel, per-node hashed WL
histograms, pairwise kernel values,
projected-gradient dual ascent, exhaustive path/permutation enumeration,
planners recomputed in full at every step) so
tests never share code with the paths they verify. The dict-keyed feature
paths (dense matrix, projection, per-vector naive Bayes, the linear margin
sum, unit normalisation) and the plain structural digest are the earlier
implementations those paths must match bit for bit.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import struct
from collections import Counter

import numpy as np


def jacobi_eigh(a, tol: float = 1e-14, max_sweeps: int = 200):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-18:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


def dominant_eigenspace_cosine(a, x, rel_tol: float = 1e-6) -> float:
    """Cosine between x and the eigenspace of a's algebraically largest
    eigenvalue, with eigenvalues within rel_tol of the top grouped together
    (a dominant eigenvector is only defined up to that subspace)."""
    evals, evecs = jacobi_eigh(a)
    top = evals[-1]
    scale = max(1.0, abs(top))
    basis = evecs[:, evals >= top - rel_tol * scale]
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    proj = basis @ (basis.T @ x)
    return float(np.linalg.norm(proj))


def wl_pair_kernel(g1, g2, iters: int) -> int:
    """Direct two-graph WL subtree kernel: sum over h = 0..iters of the dot
    product of the label histograms. Labels are tracked as tuples, no shared
    dictionary involved."""
    labels = [list(g.node_labels) for g in (g1, g2)]
    total = 0
    for h in range(iters + 1):
        c1, c2 = Counter(labels[0]), Counter(labels[1])
        total += sum(c1[key] * c2[key] for key in c1 if key in c2)
        if h == iters:
            break
        new_labels = []
        for g, labs in zip((g1, g2), labels):
            new_labels.append([
                (labs[v], tuple(sorted(labs[u] for u in g.neighbors[v])))
                for v in range(g.n)
            ])
        labels = new_labels
    return total


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def wl_histogram(g, iters: int) -> dict:
    """One graph's hashed WL histogram, node by node in plain integers:
    (h, label id) -> count, keys in first-seen node order within each h.
    Level 0 ids are 8-byte little-endian blake2b digests of the label; a step
    maps node v to splitmix64(own * golden + sum of splitmix64(neighbour))
    modulo 2**64."""
    labels = [int.from_bytes(hashlib.blake2b(lab.encode("utf-8"), digest_size=8).digest(),
                             "little") for lab in g.node_labels]
    counts: dict = {}
    for h in range(iters + 1):
        for lab in labels:
            counts[(h, lab)] = counts.get((h, lab), 0) + 1
        labels = [_splitmix64((labels[v] * 0x9E3779B97F4A7C15
                               + sum(_splitmix64(labels[u]) for u in g.neighbors[v])) & _MASK64)
                  for v in range(g.n)]
    return counts


def kernel_eval(spec, a, b) -> float:
    """Exact pairwise kernel value from the definitions, on two sparse maps or
    two dense vectors; sparse keys missing from one side count as zero."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        xa = [float(a.get(k, 0.0)) for k in keys]
        xb = [float(b.get(k, 0.0)) for k in keys]
    elif isinstance(a, dict) or isinstance(b, dict):
        raise ValueError("cannot mix sparse and dense vectors")
    else:
        xa = [float(t) for t in np.asarray(a, dtype=float).ravel()]
        xb = [float(t) for t in np.asarray(b, dtype=float).ravel()]
        if len(xa) != len(xb):
            raise ValueError(f"vector lengths {len(xa)} vs {len(xb)}")
    if spec.kind == "rbf":
        return math.exp(-spec.gamma * sum((p - q) ** 2 for p, q in zip(xa, xb)))
    dot = sum(p * q for p, q in zip(xa, xb))
    if spec.kind == "linear":
        return dot
    if spec.kind == "polynomial":
        return (dot + spec.coef0) ** spec.degree
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def are_isomorphic(g1, g2) -> bool:
    """Exhaustive isomorphism check (labels, tiers, and edges preserved); only
    sensible for n <= 7."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    e2 = {(u, v) for u, v, _ in g2.edges}
    for perm in itertools.permutations(range(g1.n)):
        if any(g1.node_labels[v] != g2.node_labels[perm[v]] for v in range(g1.n)):
            continue
        if any(g1.node_tiers[v] != g2.node_tiers[perm[v]] for v in range(g1.n)):
            continue
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v, _ in g1.edges}
        if mapped == e2:
            return True
    return False


def dual_objective(alpha, k, y) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * (ay @ k @ ay))


def dual_qp_projected_gradient(k, y, c, iters: int = 100_000, tol: float = 1e-12):
    """Projected-gradient ascent on the SVM dual over the feasible set
    {0 <= alpha <= C, sum alpha y = 0}; the projection solves a 1-D monotone
    root-find over the equality multiplier by bisection."""
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    q = k * np.outer(y, y)
    lam = max(np.linalg.eigvalsh(q).max(), 1e-9)
    lr = 1.0 / lam

    def project(a):
        lo, hi = -1e6, 1e6

        def constraint(nu):
            return float(np.sum(np.clip(a - nu * y, 0.0, c) * y))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if constraint(mid) > 0:
                lo = mid
            else:
                hi = mid
        return np.clip(a - 0.5 * (lo + hi) * y, 0.0, c)

    alpha = project(np.zeros(n))
    prev = dual_objective(alpha, k, y)
    for _ in range(iters):
        grad = 1.0 - q @ alpha
        alpha = project(alpha + lr * grad)
        cur = dual_objective(alpha, k, y)
        if abs(cur - prev) < tol:
            break
        prev = cur
    return alpha, dual_objective(alpha, k, y)


def all_simple_paths(weights: dict, n: int, s: int, t: int):
    """Every simple s-t path as (total weight, node tuple)."""
    adj = {v: [] for v in range(n)}
    for (u, v), w in weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = []

    def walk(node, dist, path):
        if node == t:
            out.append((dist, tuple(path)))
            return
        for nxt, w in adj[node]:
            if nxt not in path:
                path.append(nxt)
                walk(nxt, dist + w, path)
                path.pop()

    walk(s, 0.0, [s])
    return out


def brute_force_pair_ranking(x):
    """Unordered pairs sorted by centrality-score product descending, ties by
    (u, v); recomputed straight from the definition."""
    n = len(x)
    scored = []
    for u in range(n):
        for v in range(u + 1, n):
            scored.append((-(x[u] * x[v]), u, v))
    scored.sort()
    return [(u, v) for _, u, v in scored]


def power_iteration(a, tol: float = 1e-10, max_iter: int = 100_000):
    """The straightforward power iteration on A + I, step for step as the
    library defines it (np.linalg.norm, np.max of the absolute change):
    returns (x, Rayleigh eigenvalue of A, iterations), or None when it does
    not settle within max_iter."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    m = a + np.eye(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    for it in range(1, max_iter + 1):
        x_new = m @ x
        x_new /= np.linalg.norm(x_new)
        if float(np.max(np.abs(x_new - x))) < tol:
            lam = float(x_new @ a @ x_new)
            x_new = np.clip(x_new, 0.0, None)
            x_new /= np.linalg.norm(x_new)
            return x_new, lam, it
        x = x_new
    return None


def _lex_dijkstra(weights: dict, n: int, s: int, t: int):
    """Weighted shortest s-t path, lexicographically smallest node sequence
    among equal costs, rebuilding the adjacency on every call."""
    adj = [[] for _ in range(n)]
    for (u, v), w in weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    heap = [(0.0, (s,))]
    done = set()
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in done:
            continue
        done.add(v)
        if v == t:
            return dist, path
        in_path = set(path)
        for w, wt in adj[v]:
            if w not in done and w not in in_path:
                heapq.heappush(heap, (dist + wt, path + (w,)))
    return None


def _connected_pairs(weights: dict, n: int) -> list:
    """Every (u, v), u < v, in lexicographic order, whose ends share a
    component, by union-find over the whole edge set."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in weights:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [(u, v) for u in range(n) for v in range(u + 1, n) if find(u) == find(v)]


def shortest_path_plans(g, beta: int, k_candidates: int, rng) -> list:
    """The shortest-path planner recomputed in full on every attempt:
    union-find over all pairs before each (s, t) draw, a fresh adjacency for
    each Dijkstra. Returns one (flips, strategy) per plan, each flip a
    (u, v, direction, weight) tuple; an edgeless graph falls back to the
    pairs of a teleporting walk."""
    mean_w = g.mean_weight
    plans = []
    for _ in range(k_candidates):
        if not g.edges:
            nodes = rng.integers(0, g.n, size=4 * beta + 1)
            pairs, seen = [], set()
            for a, b in zip(nodes[:-1], nodes[1:]):
                p = (int(min(a, b)), int(max(a, b)))
                if a == b or p in seen:
                    continue
                seen.add(p)
                pairs.append(p)
                if len(pairs) == beta:
                    break
            plans.append((tuple((u, v, "add", mean_w) for u, v in pairs),
                          "shortest_path:random_walk_fallback"))
            continue
        weights = dict(g.edge_weights)
        flips, used, stuck = [], set(), set()
        attempts = 0
        while len(flips) < beta and attempts < 20 + 4 * beta:
            attempts += 1
            pool = [p for p in _connected_pairs(weights, g.n) if p not in stuck]
            if not pool:
                break
            s, t = pool[int(rng.integers(len(pool)))]
            progressed = False
            while len(flips) < beta:
                if (s, t) not in weights and (s, t) not in used:
                    flips.append((s, t, "add", mean_w))
                    weights[(s, t)] = mean_w
                    used.add((s, t))
                    progressed = True
                    continue
                sp = _lex_dijkstra(weights, g.n, s, t)
                if sp is None:
                    break
                path = sp[1]
                removable = [p for p in ((min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:]))
                             if p not in used]
                if not removable:
                    break
                target = max(removable, key=lambda p: (weights[p], -p[0], -p[1]))
                flips.append((target[0], target[1], "remove", None))
                del weights[target]
                used.add(target)
                progressed = True
            if not progressed:
                stuck.add((s, t))
        plans.append((tuple(flips), "shortest_path"))
    return plans


# --- dict-keyed feature paths ------------------------------------------------
# Sparse vectors here are dicts {(level, id): value}; keys sort as tuples.

def dict_matrix(vectors):
    """(dense matrix, sorted key tuple) over the union of the vectors' keys."""
    keys = sorted({k for v in vectors for k in v})
    index = {k: i for i, k in enumerate(keys)}
    x = np.zeros((len(vectors), len(keys)))
    for r, v in enumerate(vectors):
        for k, val in v.items():
            x[r, index[k]] = val
    return x, tuple(keys)


def dict_project(vectors, keys):
    """(matrix over keys, squared mass off keys) with the residual summed in
    each vector's key order."""
    index = {k: i for i, k in enumerate(keys)}
    x = np.zeros((len(vectors), len(keys)))
    res = np.zeros(len(vectors))
    for r, v in enumerate(vectors):
        for k, val in v.items():
            i = index.get(k)
            if i is None:
                res[r] += float(val) * float(val)
            else:
                x[r, i] = val
    return x, res


def _sigmoid(z):
    if z >= 0:
        ez = math.exp(-z)
        return ez / (1.0 + ez)
    return 1.0 / (1.0 + math.exp(z))


def nb_predict_one(means, variances, priors, row):
    """Naive Bayes (label, P(y=+1)) of one projected row, one class at a time."""
    ll = []
    for c in range(2):
        diff = row - means[c]
        var = variances[c]
        ll.append(float(np.log(priors[c])
                        - 0.5 * np.sum(np.log(2.0 * math.pi * var))
                        - 0.5 * np.sum(diff * diff / var)))
    p_plus = _sigmoid(ll[1] - ll[0])
    return (1 if p_plus >= 0.5 else -1), p_plus


def unit_counts(counts):
    """A count dict over its L2 norm."""
    norm = math.sqrt(sum(v * v for v in counts.values()))
    if norm == 0:
        return dict(counts)
    return {k: v / norm for k, v in counts.items()}


def linear_margin(support_vectors, coef, bias, query):
    """Linear-kernel decision value of a dict query: the weight vector
    coef @ X over the support vectors' sorted keys, then w_k * value_k
    summed over the query's keys in its order."""
    x, keys = dict_matrix(support_vectors)
    w = coef @ x
    weights = {k: float(w[i]) for i, k in enumerate(keys)}
    return sum(weights.get(k, 0.0) * val for k, val in query.items()) + bias


def structural_digest(g) -> str:
    """sha256 over the length-prefixed label and tier reprs, then the edge
    triples as little-endian doubles."""
    labels = repr(tuple(g.node_labels)).encode("utf-8")
    tiers = repr(tuple(g.node_tiers)).encode("utf-8")
    h = hashlib.sha256(struct.pack("<QQ", len(labels), len(tiers)) + labels + tiers)
    for u, v, w in g.edges:
        h.update(struct.pack("<ddd", u, v, w))
    return h.hexdigest()
