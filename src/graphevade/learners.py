"""Kernel functions, an SMO-trained soft-margin SVM with Platt calibration, and
a Gaussian naive Bayes baseline.

Feature vectors are SparseVector rows: three parallel arrays of (level, id)
keys and their values, as WL histograms come. Each entry point turns a dense
vector, on entry, into the row whose entry j sits at key (0, j); behind that
point there is one path. Rows are densified internally over the union of
training keys, in sorted (level, id) order; predictions on vectors with
unseen keys stay exact because the off-union mass only enters through the
squared-norm residual, which is carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph_core import json_value


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sparse feature vector: values[k] at key (levels[k], ids[k]); no key
    appears twice."""

    levels: np.ndarray  # int
    ids: np.ndarray  # uint64
    values: np.ndarray  # int or float


class DegenerateData(Exception):
    """The data admits no scale (all pairwise distances equal)."""


class DegenerateLabels(Exception):
    """Training requires at least one example of each class."""


class DidNotConverge(Exception):
    """An iterative solver hit its limit before converging: SMO with KKT
    violations remaining, or power iteration with its iterates still moving."""

    def __init__(self, solver: str, limit: int, unit: str):
        super().__init__(f"{solver} did not converge within {limit} {unit}")


KERNEL_KINDS = ("rbf", "linear", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel configuration. The linear kernel over WL histogram vectors is the
    WL subtree kernel."""

    kind: str
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not (math.isfinite(self.gamma) and self.gamma > 0):
                raise ValueError("rbf kernel requires finite gamma > 0")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


def _as_sparse(vectors: Sequence) -> list[SparseVector]:
    """Each vector as a SparseVector: a dense one becomes the row whose entry j
    sits at key (0, j)."""
    rows = []
    for v in vectors:
        if not isinstance(v, SparseVector):
            d = np.asarray(v, dtype=float).ravel()
            v = SparseVector(np.zeros(len(d), dtype=np.int64), np.arange(len(d), dtype=np.uint64), d)
        rows.append(v)
    return rows


class _KeySpace:
    """Sorted (level, id) keys of a model: column j holds key (levels[j], ids[j]),
    by level and, within a level, by id."""

    def __init__(self, levels: np.ndarray, ids: np.ndarray):
        self.levels = levels
        self.ids = ids
        # (level, first column, end column) of each level's slice of the keys
        present = np.unique(levels)
        self._slices = list(zip(present.tolist(), np.searchsorted(levels, present).tolist(),
                                np.searchsorted(levels, present, side="right").tolist()))

    def columns(self, levels: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Column of each key, or -1 for keys outside the space."""
        cols = np.full(len(ids), -1, dtype=np.intp)
        for h, a, b in self._slices:
            at = np.flatnonzero(levels == h)
            pos = a + np.minimum(np.searchsorted(self.ids[a:b], ids[at]), b - a - 1)
            cols[at] = np.where(self.ids[pos] == ids[at], pos, -1)
        return cols


def _stack(vectors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row, level, id, value) of every entry of sparse vectors, row by row."""
    rows = np.repeat(np.arange(len(vectors)), [len(v.ids) for v in vectors])
    return (rows, np.concatenate([v.levels for v in vectors]),
            np.concatenate([v.ids for v in vectors]),
            np.concatenate([v.values for v in vectors]))


def _as_matrix(vectors: Sequence[SparseVector]) -> tuple[np.ndarray, _KeySpace]:
    """Stack sparse vectors into a dense matrix over the sorted union of their
    keys; returns (matrix, keys)."""
    rows, levels, ids, values = _stack(vectors)
    order = np.lexsort((ids, levels))
    levels, ids = levels[order], ids[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (ids[1:] != ids[:-1]) | (levels[1:] != levels[:-1])
    heads = np.flatnonzero(opens)
    cols = np.empty(len(order), dtype=np.intp)
    cols[order] = np.cumsum(opens) - 1
    x = np.zeros((len(vectors), len(heads)))
    x[rows, cols] = values
    return x, _KeySpace(levels[heads], ids[heads])


def _project(vectors: Sequence[SparseVector], keys: _KeySpace) -> tuple[np.ndarray, np.ndarray]:
    """Project sparse vectors onto a model's key space.

    Returns (matrix over keys, residual squared norms) where the residual is
    the squared mass on keys outside the model space.
    """
    x = np.zeros((len(vectors), len(keys.ids)))
    if not vectors:
        return x, np.zeros(0)
    rows, levels, ids, values = _stack(vectors)
    cols = keys.columns(levels, ids)
    hit = cols >= 0
    x[rows[hit], cols[hit]] = values[hit]
    off = values[~hit].astype(float)
    res = np.bincount(rows[~hit], weights=off * off, minlength=len(vectors))
    return x, res


def _kernel(spec: KernelSpec, dots: np.ndarray, sq_rows: np.ndarray,
            sq_cols: np.ndarray) -> np.ndarray:
    """K of two sets of rows from their dot products and squared norms, which
    only rbf reads; training and scoring both come here."""
    if spec.kind == "linear":
        return dots
    if spec.kind == "polynomial":
        return (dots + spec.coef0) ** spec.degree
    d2 = np.clip(sq_rows[:, None] + sq_cols[None, :] - 2.0 * dots, 0.0, None)
    return np.exp(-spec.gamma * d2)


def _gram(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    g = x @ x.T
    return _kernel(spec, g, np.diag(g), np.diag(g))


def median_heuristic_gamma(vectors: Sequence) -> float:
    """gamma = 1 / (2 m^2) with m the median pairwise Euclidean distance.

    Exact over all pairs. Scaling by the median distance (not by the spread
    of distances) keeps gamma * distance^2 near 1 when the vectors cluster
    tightly, which is exactly the geometry of perturbed-graph features.
    """
    vectors = _as_sparse(vectors)
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
    x, _ = _as_matrix(vectors)
    sq = np.sum(x * x, axis=1)
    d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0, None)
    med = float(np.median(np.sqrt(d2[np.triu_indices(len(vectors), k=1)])))
    if med <= 0:
        raise DegenerateData("median pairwise distance is zero; supply gamma explicitly")
    return 1.0 / (2.0 * med * med)


@dataclass
class TrainedSvm:
    """Support vectors, dual coefficients, bias, kernel spec, and Platt calibration.

    The decision function is fully determined by the stored fields; _cache is
    derived from them on demand. For a linear kernel it holds only the key
    space and the weight of each key, with a trailing 0.0 that keys outside
    the space read; for any other kernel, the support vectors as a matrix over
    their keys, their squared norms and their dual coefficients.
    """

    support_vectors: tuple
    alphas: np.ndarray
    sv_labels: np.ndarray
    bias: float
    spec: KernelSpec
    C: float
    platt_a: float
    platt_b: float
    sv_indices: tuple[int, ...] | None = None
    n_train: int = 0
    objective_path: tuple[float, ...] = ()

    @cached_property
    def _cache(self) -> dict:
        x, keys = _as_matrix(self.support_vectors)
        coef = self.alphas * self.sv_labels
        if self.spec.kind == "linear":
            return {"keys": keys, "w": np.append(coef @ x, 0.0)}
        return {"x": x, "keys": keys, "sq": np.sum(x * x, axis=1), "coef": coef}

    def __getstate__(self):
        return {name: value for name, value in self.__dict__.items() if name != "_cache"}


# Up to this many examples SMO keeps the error cache as a Python list. A step
# reads a handful of entries and updates one O(n) error row, so at small n
# numpy's per-call cost outweighs its vector speed. Measured on linear Gram
# matrices of random subsets of a target's training vectors, 12 fits per size,
# best of 6, lists against arrays: 0.012 s against 0.014 s at n = 28, 0.018
# against 0.019 at n = 32, even at n = 36, 0.024 against 0.022 at n = 40,
# 0.032 against 0.026 at n = 48, 0.054 against 0.037 at n = 64, and 0.223
# against 0.075 (6 fits) at the target's n = 200.
_LIST_SMO_MAX_N = 36


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int,
         rng: np.random.Generator, lists: bool) -> tuple[np.ndarray, float, list[float]]:
    """Platt's SMO on the Gram matrix k. lists picks the form of the error
    cache, a Python list or a numpy array; both forms take the same steps in
    the same float operations, draw the same random numbers and compute the
    once-per-pass error refresh and objective with numpy alike, so they return
    the same bits."""
    n = len(y)
    kk = k.tolist()  # scalar reads
    ys = y.tolist()
    alpha = [0.0] * n
    # the error cache E_i = f(x_i) - y_i, which each pass refreshes; the array
    # form updates it in place through tmp and keeps the non-bound set as a
    # mask that take_step updates
    e = [0.0] * n if lists else np.zeros(n)
    read_e = e.__getitem__ if lists else e.item
    tmp = None if lists else np.empty(n)
    free = None if lists else np.zeros(n, dtype=bool)
    b = 0.0

    def nonbound():
        if lists:
            return [m for m in range(n) if 0.0 < alpha[m] < c]
        return np.flatnonzero(free)

    def objective() -> float:
        a = np.array(alpha)
        ay = a * y
        return float(a.sum() - 0.5 * (ay @ k @ ay))

    def take_step(i: int, j: int) -> bool:
        nonlocal b
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = ys[i], ys[j]
        s = yi * yj
        if s > 0:
            lo = max(0.0, ai + aj - c) if math.isfinite(c) else 0.0
            hi = min(c, ai + aj)
        else:
            lo = max(0.0, aj - ai)
            hi = min(c, c + aj - ai) if math.isfinite(c) else math.inf
        if lo >= hi:
            return False
        ki, kj = kk[i], kk[j]
        kii, kjj, kij = ki[i], kj[j], ki[j]
        eta = kii + kjj - 2.0 * kij
        ei, ej = read_e(i), read_e(j)
        if eta > 1e-12:
            aj_new = aj + yj * (ei - ej) / eta
            aj_new = min(max(aj_new, lo), hi)
        else:
            # flat direction: compare the objective at both clip bounds
            # (e - b isolates the kernel expansion sum y_k a_k K from f = sum + b)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                return False
            f1 = yi * (ei - b) - ai * kii - s * aj * kij
            f2 = yj * (ej - b) - s * ai * kij - aj * kjj
            l1 = ai + s * (aj - lo)
            h1 = ai + s * (aj - hi)
            psi_l = (l1 * f1 + lo * f2 + 0.5 * l1 * l1 * kii
                     + 0.5 * lo * lo * kjj + s * lo * l1 * kij)
            psi_h = (h1 * f1 + hi * f2 + 0.5 * h1 * h1 * kii
                     + 0.5 * hi * hi * kjj + s * hi * h1 * kij)
            if psi_l < psi_h - 1e-12:
                aj_new = lo
            elif psi_l > psi_h + 1e-12:
                aj_new = hi
            else:
                return False
        if abs(aj_new - aj) < 1e-12 * (aj_new + aj + 1e-12):
            return False
        ai_new = ai + s * (aj - aj_new)
        b1 = b - ei - yi * (ai_new - ai) * kii - yj * (aj_new - aj) * kij
        b2 = b - ej - yi * (ai_new - ai) * kij - yj * (aj_new - aj) * kjj
        if 0.0 < ai_new < c:
            b_new = b1
        elif 0.0 < aj_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        # e += di K_i + dj K_j + db, added in that order element by element
        di, dj, db = yi * (ai_new - ai), yj * (aj_new - aj), b_new - b
        if lists:
            e[:] = [em + di * p + dj * q + db for em, p, q in zip(e, ki, kj)]
        else:
            np.multiply(k[i], di, out=tmp)
            np.add(e, tmp, out=e)
            np.multiply(k[j], dj, out=tmp)
            np.add(e, tmp, out=e)
            np.add(e, db, out=e)
            free[i] = 0.0 < ai_new < c
            free[j] = 0.0 < aj_new < c
        alpha[i] = ai_new
        alpha[j] = aj_new
        b = b_new
        return True

    def examine(i: int) -> bool:
        ei = read_e(i)
        r = ei * ys[i]  # = y_i f(x_i) - 1
        if (r < -tol and alpha[i] < c) or (r > tol and alpha[i] > 0):
            nb = nonbound()
            if len(nb) > 1:
                if lists:
                    # the first of the largest |E_j - E_i|, as argmax picks it
                    j = max(nb, key=lambda m: abs(e[m] - ei))
                else:
                    j = int(nb[np.argmax(np.abs(e[nb] - ei))])
                if take_step(j, i):
                    return True
            for j in rng.permutation(nb).tolist():
                if take_step(j, i):
                    return True
            for j in rng.permutation(n).tolist():
                if take_step(j, i):
                    return True
        return False

    objective_path: list[float] = []
    passes = 0
    examine_all = True
    converged = False
    while passes < max_passes:
        # refresh the error cache once per pass to stop incremental drift
        fresh = (np.array(alpha) * y) @ k + b - y
        e[:] = fresh.tolist() if lists else fresh
        indices = range(n) if examine_all else nonbound()
        changed = 0
        for i in indices:
            changed += examine(i)
        passes += 1
        objective_path.append(objective())
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    if not converged:
        raise DidNotConverge("SMO", max_passes, "passes")
    return np.array(alpha, dtype=float), b, objective_path


def _fit_platt(decisions: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Newton fit of P(y=+1 | f) = 1 / (1 + exp(a f + b)) with Platt's smoothed
    targets and backtracking line search: at most 100 steps, each step down
    to 1e-10, and 1e-12 added to the Hessian's diagonal."""
    f = np.asarray(decisions, dtype=float)
    prior1 = int(np.sum(y > 0))
    prior0 = len(y) - prior1
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(y > 0, hi, lo)
    a = 0.0
    b = math.log((prior0 + 1.0) / (prior1 + 1.0))

    # each branch below needs exp(-z) where z >= 0 and exp(z) elsewhere, which
    # is exp(-|z|) on both sides
    def nll(av: float, bv: float) -> float:
        z = f * av + bv
        soft = np.log1p(np.exp(-np.abs(z)))
        return float(np.sum(np.where(z >= 0, t * z + soft, (t - 1.0) * z + soft)))

    fval = nll(a, b)
    for _ in range(100):
        z = f * a + b
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0, ez / (1.0 + ez), 1.0 / (1.0 + ez))
        w = p * (1.0 - p)
        h11 = 1e-12 + float(np.sum(f * f * w))
        h22 = 1e-12 + float(np.sum(w))
        h21 = float(np.sum(f * w))
        d1 = t - p
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= 1e-10:
            na, nb = a + step * da, b + step * db
            nf = nll(na, nb)
            if nf < fval + 1e-4 * step * gd:
                a, b, fval = na, nb, nf
                break
            step *= 0.5
        else:
            break
    return a, b


def svm_train(X: Sequence, y: Sequence, spec: KernelSpec, C: float = 1.0,
              tol: float = 1e-3, max_passes: int = 200, seed: int = 0) -> TrainedSvm:
    """Train a soft-margin binary SVM by sequential minimal optimization.

    Solves the dual (maximize sum alpha - 1/2 sum alpha_i alpha_j y_i y_j K_ij
    subject to sum alpha_i y_i = 0 and 0 <= alpha <= C) with pairwise updates,
    terminating when a full pass finds no multiplier violating its KKT
    condition by more than tol, then fits Platt calibration on the training
    decision values. C = math.inf gives the hard-margin problem.
    """
    vectors = _as_sparse(X)
    labels = np.asarray(list(y), dtype=float)
    if len(vectors) != len(labels):
        raise ValueError("X and y must have equal length")
    if not np.all(np.isin(labels, (1.0, -1.0))):
        raise ValueError("labels must be +1 or -1")
    if len(np.unique(labels)) < 2:
        raise DegenerateLabels("need at least one example of each class")
    if not (C > 0):
        raise ValueError("C must be positive")
    gram = _gram(spec, _as_matrix(vectors)[0])
    rng = np.random.default_rng(seed)
    alpha, bias, objective_path = _smo(gram, labels, C, tol, max_passes, rng,
                                       lists=len(labels) <= _LIST_SMO_MAX_N)
    margins = (alpha * labels) @ gram + bias
    platt_a, platt_b = _fit_platt(margins, labels)
    sv = np.nonzero(alpha > 0)[0]
    return TrainedSvm(
        support_vectors=tuple(vectors[i] for i in sv),
        alphas=alpha[sv].copy(),
        sv_labels=labels[sv].copy(),
        bias=float(bias),
        spec=spec,
        C=float(C),
        platt_a=float(platt_a),
        platt_b=float(platt_b),
        sv_indices=tuple(int(i) for i in sv),
        n_train=len(vectors),
        objective_path=tuple(objective_path),
    )


def _linear_sums(queries: list[SparseVector], keys: _KeySpace, w: np.ndarray) -> np.ndarray:
    """Per query, w_k * value_k summed left to right over its entries from
    0.0, with w[-1] = 0.0 the weight of keys outside the space.

    Row r of a zero-padded matrix holds 0.0 and then query r's terms, so a
    cumulative sum along it takes the same roundings, in the same order, as
    a Python loop over the terms; the padding after a row's last term adds
    0.0, which leaves a sum that started at 0.0 as it is."""
    if not queries:
        return np.zeros(0)
    rows, levels, ids, values = _stack(queries)
    sizes = np.bincount(rows, minlength=len(queries))
    starts = np.cumsum(sizes) - sizes
    terms = np.zeros((len(queries), int(sizes.max()) + 1))
    terms[rows, np.arange(len(rows)) - starts[rows] + 1] = w[keys.columns(levels, ids)] * values
    return np.cumsum(terms, axis=1)[:, -1]


def svm_margins(model: TrainedSvm, X: Sequence) -> np.ndarray:
    """Decision values sum_i alpha_i y_i K(x_i, x) + b for a batch of vectors."""
    queries = _as_sparse(X)
    if not model.support_vectors:
        return np.full(len(queries), model.bias)
    cache = model._cache
    if model.spec.kind == "linear":
        return _linear_sums(queries, cache["keys"], cache["w"]) + model.bias
    xq, res = _project(queries, cache["keys"])
    kmat = _kernel(model.spec, xq @ cache["x"].T, np.sum(xq * xq, axis=1) + res, cache["sq"])
    return kmat @ cache["coef"] + model.bias


def _sigmoid(z: float) -> float:
    if z >= 0:
        ez = math.exp(-z)
        return ez / (1.0 + ez)
    return 1.0 / (1.0 + math.exp(z))


def svm_probability(model: TrainedSvm, margin: float) -> float:
    """Calibrated P(y=+1 | x) = 1 / (1 + exp(platt_a * margin + platt_b))."""
    return _sigmoid(model.platt_a * margin + model.platt_b)


def svm_predict(model: TrainedSvm, x) -> tuple[int, float, float]:
    """Returns (label, P(y=+1 | x), margin); the label is sign(margin), zero
    margin mapping to +1."""
    margin = float(svm_margins(model, [x])[0])
    return (1 if margin >= 0 else -1), svm_probability(model, margin), margin


def kkt_max_residual(model: TrainedSvm, X: Sequence, y: Sequence) -> float:
    """Largest KKT violation over the full training set:
    alpha=0 wants y f >= 1, interior wants y f = 1, alpha=C wants y f <= 1."""
    if model.sv_indices is None:
        raise ValueError("model carries no training-set indices")
    labels = np.asarray(list(y), dtype=float)
    alpha = np.zeros(model.n_train)
    alpha[list(model.sv_indices)] = model.alphas
    yf = labels * svm_margins(model, list(X))
    c = model.C
    at_zero = alpha <= 1e-10
    at_c = np.isfinite(c) & (alpha >= c - 1e-10 * max(1.0, c if math.isfinite(c) else 1.0))
    res = np.where(at_zero, np.maximum(0.0, 1.0 - yf),
                   np.where(at_c, np.maximum(0.0, yf - 1.0), np.abs(yf - 1.0)))
    return float(res.max())


def svm_to_json(model: TrainedSvm) -> dict:
    return {
        "version": "svm-v1",
        "kernel": {
            "kind": model.spec.kind,
            "gamma": model.spec.gamma,
            "degree": model.spec.degree,
            "coef0": model.spec.coef0,
        },
        "C": None if math.isinf(model.C) else model.C,
        "bias": model.bias,
        "platt_a": model.platt_a,
        "platt_b": model.platt_b,
        "vector_format": "sparse",
        # each support vector's [[level, id], value] entries, by key
        "support_vectors": [[[[h, i], val] for (h, i), val in
                             sorted(zip(zip(v.levels.tolist(), v.ids.tolist()), v.values.tolist()))]
                            for v in model.support_vectors],
        "alphas": [float(a) for a in model.alphas],
        "sv_labels": [int(l) for l in model.sv_labels],
        "n_train": model.n_train,
    }


def svm_from_json(doc: dict) -> TrainedSvm:
    """Rebuild an svm-v1 model. A document that is not a JSON object, holds a
    field of the wrong JSON type or range, or whose support vectors, alphas
    and sv_labels differ in count, raises ValueError; a missing field raises
    KeyError."""
    json_value(doc, dict, "svm")
    if doc.get("version") != "svm-v1":
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    if doc["vector_format"] != "sparse":
        raise ValueError("vector_format must be 'sparse'")
    kernel = json_value(doc["kernel"], dict, "kernel")
    gamma = kernel["gamma"]
    spec = KernelSpec(kernel["kind"], None if gamma is None else json_value(gamma, float, "kernel gamma"),
                      json_value(kernel["degree"], int, "kernel degree", 1, 2**63),
                      json_value(kernel["coef0"], float, "kernel coef0"))
    vectors = []
    for pairs in json_value(doc["support_vectors"], list, "support_vectors"):
        if not all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], list) and len(p[0]) == 2
                   for p in json_value(pairs, list, "each support vector")):
            raise ValueError("each support vector entry must be [[level, id], value]")
        keys = [(json_value(h, int, "each level", 0, 2**63), json_value(i, int, "each id", 0, 2**64))
                for (h, i), _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError("a support vector holds a key twice")
        vectors.append(SparseVector(np.array([h for h, _ in keys], dtype=np.int64),
                                    np.array([i for _, i in keys], dtype=np.uint64),
                                    np.array([json_value(v, float, "each value") for _, v in pairs])))
    alphas = [json_value(a, float, "each alpha") for a in json_value(doc["alphas"], list, "alphas")]
    labels = [json_value(label, int, "each sv_label", -1, 2)
              for label in json_value(doc["sv_labels"], list, "sv_labels")]
    if 0 in labels:
        raise ValueError("each sv_label must be 1 or -1")
    model = TrainedSvm(
        support_vectors=tuple(vectors),
        alphas=np.array(alphas),
        sv_labels=np.array(labels, dtype=float),
        bias=json_value(doc["bias"], float, "bias"),
        spec=spec,
        C=math.inf if doc["C"] is None else json_value(doc["C"], float, "C"),
        platt_a=json_value(doc["platt_a"], float, "platt_a"),
        platt_b=json_value(doc["platt_b"], float, "platt_b"),
        n_train=json_value(doc.get("n_train", 0), int, "n_train"),
    )
    if not len(vectors) == len(model.alphas) == len(model.sv_labels):
        raise ValueError(f"svm-v1 model holds {len(vectors)} support vectors, "
                         f"{len(model.alphas)} alphas and {len(model.sv_labels)} sv_labels")
    return model


@dataclass
class TrainedNaiveBayes:
    """Per-class diagonal Gaussians over the training key space plus class priors."""

    keys: _KeySpace
    means: np.ndarray  # rows: class +1, class -1
    variances: np.ndarray
    priors: np.ndarray


def nb_train(X: Sequence, y: Sequence) -> TrainedNaiveBayes:
    """Gaussian naive Bayes; every variance gets += 1e-9 * max variance so
    zero-variance features stay usable."""
    vectors = _as_sparse(X)
    labels = np.asarray(list(y), dtype=float)
    if len(np.unique(labels)) < 2:
        raise DegenerateLabels("need at least one example of each class")
    xd, keys = _as_matrix(vectors)
    means, variances, priors = [], [], []
    for cls in (1.0, -1.0):
        rows = xd[labels == cls]
        means.append(rows.mean(axis=0))
        variances.append(rows.var(axis=0))
        priors.append(rows.shape[0] / xd.shape[0])
    means, variances = np.vstack(means), np.vstack(variances)
    max_var = float(variances.max())
    variances = variances + 1e-9 * (max_var if max_var > 0 else 1.0)
    return TrainedNaiveBayes(keys, means, variances, np.asarray(priors))


def nb_predict(model: TrainedNaiveBayes, X: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Returns (labels, P(y=+1 | x)) for a batch of vectors by log-posterior
    comparison."""
    xq, _ = _project(_as_sparse(X), model.keys)  # unseen keys carry no trained density
    ll = []
    for c in range(2):
        diff = xq - model.means[c]
        var = model.variances[c]
        ll.append(np.log(model.priors[c])
                  - 0.5 * np.sum(np.log(2.0 * math.pi * var))
                  - 0.5 * np.sum(diff * diff / var, axis=1))
    p_plus = np.array([_sigmoid(z) for z in (ll[1] - ll[0]).tolist()])
    return np.where(p_plus >= 0.5, 1, -1), p_plus
