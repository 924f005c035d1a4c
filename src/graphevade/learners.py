"""Kernel functions, an SMO-trained soft-margin SVM with Platt calibration, and
a Gaussian naive Bayes baseline.

Feature vectors are either dense sequences/arrays or SparseVector rows: three
parallel arrays of (level, id) keys and their values, as WL histograms come.
Sparse inputs are densified internally over the union of training keys, in
sorted (level, id) order; predictions on vectors with unseen keys stay exact
because the off-union mass only enters through the squared-norm residual,
which is carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sparse feature vector: values[k] at key (levels[k], ids[k]); no key
    appears twice."""

    levels: np.ndarray  # int
    ids: np.ndarray  # uint64
    values: np.ndarray  # int or float


class DimensionMismatch(Exception):
    """Two feature vectors cannot be aligned (dense lengths differ or sparse/dense mix)."""


class DegenerateData(Exception):
    """The data admits no scale (all pairwise distances equal)."""


class DegenerateLabels(Exception):
    """Training requires at least one example of each class."""


class DidNotConverge(Exception):
    """An iterative solver hit its limit before converging: SMO with KKT
    violations remaining, or power iteration with its iterates still moving."""

    def __init__(self, solver: str, limit: int, unit: str):
        super().__init__(f"{solver} did not converge within {limit} {unit}")
        self.limit = limit


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


def _is_sparse(v) -> bool:
    return isinstance(v, SparseVector)


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


def _as_matrix(vectors: Sequence) -> tuple[np.ndarray, _KeySpace | None]:
    """Stack feature vectors into a dense matrix; returns (matrix, keys) where
    keys is the sorted union of sparse keys, or None for dense input."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    if all(_is_sparse(v) for v in vectors):
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
    if any(_is_sparse(v) for v in vectors):
        raise DimensionMismatch("cannot mix sparse and dense feature vectors")
    rows = [np.asarray(v, dtype=float).ravel() for v in vectors]
    dim = rows[0].shape[0]
    for r in rows[1:]:
        if r.shape[0] != dim:
            raise DimensionMismatch(f"dense vectors of length {r.shape[0]} vs {dim}")
    return np.vstack(rows), None


def _project(vectors: Sequence, keys: _KeySpace | None) -> tuple[np.ndarray, np.ndarray]:
    """Project vectors onto a model's key space.

    Returns (matrix over keys, residual squared norms) where the residual is
    the squared mass on keys outside the model space (zero for dense input).
    """
    vectors = list(vectors)
    if keys is None:
        x, _ = _as_matrix(vectors)
        return x, np.zeros(len(vectors))
    if not all(_is_sparse(v) for v in vectors):
        raise DimensionMismatch("model was trained on sparse vectors")
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


def _gram(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    g = x @ x.T
    if spec.kind == "linear":
        return g
    if spec.kind == "polynomial":
        return (g + spec.coef0) ** spec.degree
    sq = np.diag(g)
    d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * g, 0.0, None)
    return np.exp(-spec.gamma * d2)


def _pairwise_distances(vectors: Sequence, max_exact: int, seed: int) -> np.ndarray:
    x, _ = _as_matrix(vectors)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")
    if n <= max_exact:
        sq = np.sum(x * x, axis=1)
        d2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0, None)
        iu = np.triu_indices(n, k=1)
        return np.sqrt(d2[iu])
    rng = np.random.default_rng(seed)
    m = max_exact * max_exact
    ii = rng.integers(0, n, size=m)
    jj = (ii + 1 + rng.integers(0, n - 1, size=m)) % n
    diff = x[ii] - x[jj]
    return np.sqrt(np.sum(diff * diff, axis=1))


def median_heuristic_gamma(vectors: Sequence, max_exact: int = 512, seed: int = 0) -> float:
    """gamma = 1 / (2 m^2) with m the median pairwise Euclidean distance.

    Exact over all pairs for N <= max_exact, otherwise over max_exact^2 pairs
    sampled with a fixed seed. Scaling by the median distance (not by the
    spread of distances) keeps gamma * distance^2 near 1 when the vectors
    cluster tightly, which is exactly the geometry of perturbed-graph
    features.
    """
    dists = _pairwise_distances(vectors, max_exact, seed)
    med = float(np.median(dists))
    if med <= 0:
        raise DegenerateData("median pairwise distance is zero; supply gamma explicitly")
    return 1.0 / (2.0 * med * med)


@dataclass
class TrainedSvm:
    """Support vectors, dual coefficients, bias, kernel spec, and Platt calibration.

    The decision function is fully determined by the stored fields; the dense
    cache is a derived convenience rebuilt on demand.
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
    passes: int = 0
    _cache: dict | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = None
        return state


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int,
         rng: np.random.Generator) -> tuple[np.ndarray, float, list[float], int]:
    n = len(y)
    alpha = np.zeros(n)
    b = 0.0
    e = -y.astype(float)  # error cache E_i = f(x_i) - y_i; f == 0 at the start

    def objective() -> float:
        ay = alpha * y
        return float(alpha.sum() - 0.5 * (ay @ k @ ay))

    def take_step(i: int, j: int) -> bool:
        nonlocal b
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        s = yi * yj
        if s > 0:
            lo = max(0.0, ai + aj - c) if math.isfinite(c) else 0.0
            hi = min(c, ai + aj)
        else:
            lo = max(0.0, aj - ai)
            hi = min(c, c + aj - ai) if math.isfinite(c) else math.inf
        if lo >= hi:
            return False
        kii, kjj, kij = k[i, i], k[j, j], k[i, j]
        eta = kii + kjj - 2.0 * kij
        ei, ej = e[i], e[j]
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
        e[:] = e + yi * (ai_new - ai) * k[i] + yj * (aj_new - aj) * k[j] + (b_new - b)
        alpha[i] = ai_new
        alpha[j] = aj_new
        b = b_new
        return True

    def examine(i: int) -> bool:
        r = e[i] * y[i]  # = y_i f(x_i) - 1
        if (r < -tol and alpha[i] < c) or (r > tol and alpha[i] > 0):
            nonbound = np.nonzero((alpha > 0) & (alpha < c))[0]
            if len(nonbound) > 1:
                j = int(nonbound[np.argmax(np.abs(e[nonbound] - e[i]))])
                if take_step(j, i):
                    return True
            for j in rng.permutation(nonbound):
                if take_step(int(j), i):
                    return True
            for j in rng.permutation(n):
                if take_step(int(j), i):
                    return True
        return False

    objective_path: list[float] = []
    passes = 0
    examine_all = True
    converged = False
    while passes < max_passes:
        # refresh the error cache once per pass to stop incremental drift
        e[:] = (alpha * y) @ k + b - y
        if examine_all:
            indices = range(n)
        else:
            indices = [int(i) for i in np.nonzero((alpha > 0) & (alpha < c))[0]]
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
    return alpha, b, objective_path, passes


def _fit_platt(decisions: np.ndarray, y: np.ndarray, max_iter: int = 100,
               min_step: float = 1e-10, hessian_eps: float = 1e-12) -> tuple[float, float]:
    """Newton fit of P(y=+1 | f) = 1 / (1 + exp(a f + b)) with Platt's smoothed
    targets and backtracking line search."""
    f = np.asarray(decisions, dtype=float)
    prior1 = int(np.sum(y > 0))
    prior0 = len(y) - prior1
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(y > 0, hi, lo)
    a = 0.0
    b = math.log((prior0 + 1.0) / (prior1 + 1.0))

    def nll(av: float, bv: float) -> float:
        z = f * av + bv
        return float(np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)),
                                     (t - 1.0) * z + np.log1p(np.exp(z)))))

    fval = nll(a, b)
    for _ in range(max_iter):
        z = f * a + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        w = p * (1.0 - p)
        h11 = hessian_eps + float(np.sum(f * f * w))
        h22 = hessian_eps + float(np.sum(w))
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
        while step >= min_step:
            na, nb = a + step * da, b + step * db
            nf = nll(na, nb)
            if nf < fval + 1e-4 * step * gd:
                a, b, fval = na, nb, nf
                break
            step *= 0.5
        else:
            break
    return a, b


def svm_train(X: Sequence, y: Sequence, spec: KernelSpec | None = None, C: float = 1.0,
              tol: float = 1e-3, max_passes: int = 200, seed: int = 0) -> TrainedSvm:
    """Train a soft-margin binary SVM by sequential minimal optimization.

    Solves the dual (maximize sum alpha - 1/2 sum alpha_i alpha_j y_i y_j K_ij
    subject to sum alpha_i y_i = 0 and 0 <= alpha <= C) with pairwise updates,
    terminating when a full pass finds no multiplier violating its KKT
    condition by more than tol, then fits Platt calibration on the training
    decision values. C = math.inf gives the hard-margin problem.
    """
    vectors = list(X)
    labels = np.asarray(list(y), dtype=float)
    if len(vectors) != len(labels):
        raise ValueError("X and y must have equal length")
    if not np.all(np.isin(labels, (1.0, -1.0))):
        raise ValueError("labels must be +1 or -1")
    if len(np.unique(labels)) < 2:
        raise DegenerateLabels("need at least one example of each class")
    if spec is None:
        spec = KernelSpec("linear")
    if not (C > 0):
        raise ValueError("C must be positive")
    xd, _ = _as_matrix(vectors)
    gram = _gram(spec, xd)
    rng = np.random.default_rng(seed)
    alpha, bias, objective_path, passes = _smo(gram, labels, C, tol, max_passes, rng)
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
        passes=passes,
    )


def _model_cache(model: TrainedSvm) -> dict:
    if model._cache is None:
        x, keys = _as_matrix(model.support_vectors) if model.support_vectors else (np.zeros((0, 0)), None)
        cache = {"x": x, "keys": keys, "sq": np.sum(x * x, axis=1)}
        cache["coef"] = model.alphas * model.sv_labels
        if model.spec.kind == "linear" and keys is not None:
            w = cache["coef"] @ x
            cache["w_sparse"] = dict(zip(zip(keys.levels.tolist(), keys.ids.tolist()), w.tolist()))
        model._cache = cache
    return model._cache


def svm_margins(model: TrainedSvm, X: Sequence) -> np.ndarray:
    """Decision values sum_i alpha_i y_i K(x_i, x) + b for a batch of vectors."""
    cache = _model_cache(model)
    sv = cache["x"]
    queries = list(X)
    if sv.shape[0] == 0:
        return np.full(len(queries), model.bias)
    if cache["keys"] is None and any(_is_sparse(v) for v in queries):
        raise DimensionMismatch("model was trained on dense vectors")
    if "w_sparse" in cache and all(_is_sparse(v) for v in queries):
        # linear kernel over sparse vectors: w_k * value_k summed left to right
        # over each query's entries
        weight = cache["w_sparse"].get
        bias = model.bias
        return np.array([
            sum(map(mul, map(weight, zip(q.levels.tolist(), q.ids.tolist()), repeat(0.0)),
                    q.values.tolist())) + bias
            for q in queries
        ])
    xq, res = _project(queries, cache["keys"])
    if cache["keys"] is None and xq.shape[1] != sv.shape[1]:
        raise DimensionMismatch(f"vector length {xq.shape[1]} vs model dimension {sv.shape[1]}")
    dots = xq @ sv.T
    kind = model.spec.kind
    if kind == "linear":
        kmat = dots
    elif kind == "polynomial":
        kmat = (dots + model.spec.coef0) ** model.spec.degree
    else:
        q_sq = np.sum(xq * xq, axis=1) + res
        d2 = np.clip(q_sq[:, None] + cache["sq"][None, :] - 2.0 * dots, 0.0, None)
        kmat = np.exp(-model.spec.gamma * d2)
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
    label = 1 if margin >= 0 else -1
    return label, svm_probability(model, margin), margin


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
    def encode_vec(v):
        if _is_sparse(v):
            order = np.lexsort((v.ids, v.levels))
            return [[[h, i], val] for h, i, val in zip(v.levels[order].tolist(), v.ids[order].tolist(),
                                                       v.values[order].tolist())]
        return [float(t) for t in np.asarray(v, dtype=float).ravel()]

    sparse = bool(model.support_vectors) and _is_sparse(model.support_vectors[0])
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
        "vector_format": "sparse" if sparse else "dense",
        "support_vectors": [encode_vec(v) for v in model.support_vectors],
        "alphas": [float(a) for a in model.alphas],
        "sv_labels": [int(l) for l in model.sv_labels],
        "n_train": model.n_train,
    }


def svm_from_json(doc: dict) -> TrainedSvm:
    if doc.get("version") != "svm-v1":
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec = KernelSpec(
        kind=doc["kernel"]["kind"],
        gamma=doc["kernel"]["gamma"],
        degree=doc["kernel"]["degree"],
        coef0=doc["kernel"]["coef0"],
    )
    if doc["vector_format"] == "sparse":
        vectors = tuple(
            SparseVector(np.array([k[0] for k, _ in pairs], dtype=np.int64),
                         np.array([k[1] for k, _ in pairs], dtype=np.uint64),
                         np.array([val for _, val in pairs]))
            for pairs in doc["support_vectors"]
        )
    else:
        vectors = tuple(np.asarray(v, dtype=float) for v in doc["support_vectors"])
    return TrainedSvm(
        support_vectors=vectors,
        alphas=np.asarray(doc["alphas"], dtype=float),
        sv_labels=np.asarray(doc["sv_labels"], dtype=float),
        bias=float(doc["bias"]),
        spec=spec,
        C=math.inf if doc["C"] is None else float(doc["C"]),
        platt_a=float(doc["platt_a"]),
        platt_b=float(doc["platt_b"]),
        n_train=int(doc.get("n_train", 0)),
    )


@dataclass
class TrainedNaiveBayes:
    """Per-class diagonal Gaussians over the training key space plus class priors."""

    keys: _KeySpace | None
    means: np.ndarray  # rows: class +1, class -1
    variances: np.ndarray
    priors: np.ndarray
    smoothing: float


def nb_train(X: Sequence, y: Sequence, smoothing: float = 1e-9) -> TrainedNaiveBayes:
    """Gaussian naive Bayes; every variance gets += smoothing * max variance so
    zero-variance features stay usable."""
    if not (smoothing > 0):
        raise ValueError("smoothing must be positive")
    vectors = list(X)
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
    means = np.vstack(means)
    variances = np.vstack(variances)
    max_var = float(variances.max())
    variances = variances + smoothing * (max_var if max_var > 0 else 1.0)
    return TrainedNaiveBayes(keys, means, variances, np.asarray(priors), smoothing)


def nb_predict(model: TrainedNaiveBayes, X: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Returns (labels, P(y=+1 | x)) for a batch of vectors by log-posterior
    comparison."""
    xq, res = _project(X, model.keys)
    del res  # unseen keys carry no trained density
    ll = []
    for c in range(2):
        diff = xq - model.means[c]
        var = model.variances[c]
        ll.append(np.log(model.priors[c])
                  - 0.5 * np.sum(np.log(2.0 * math.pi * var))
                  - 0.5 * np.sum(diff * diff / var, axis=1))
    p_plus = np.array([_sigmoid(z) for z in (ll[1] - ll[0]).tolist()])
    return np.where(p_plus >= 0.5, 1, -1), p_plus
