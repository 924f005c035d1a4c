"""The victim: a WL-kernel SVM graph classifier behind a counting black-box
query interface.

Nothing outside this module reads TargetModel fields; attackers interact only
through query()/BlackBoxQuery, which expose a predicted label and a calibrated
confidence, never parameters or gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph_core import GraphDataset, LabeledGraph, graph_hash, json_value
from .learners import (
    KernelSpec,
    SparseVector,
    TrainedSvm,
    svm_from_json,
    svm_margins,
    svm_probability,
    svm_to_json,
    svm_train,
)
from .wl_features import WlFeatureVector, wl_feature_vectors


class QueryBudgetExhausted(Exception):
    """The per-attack query budget is spent."""


@dataclass
class TargetModel:
    """Frozen WL-feature SVM and the WL depth it was trained with.

    WL label ids are hashes of the graph alone, so query-time extraction lands
    on the trained model's coordinates with nothing shared. Histograms are
    L2-normalized before the SVM (the normalized WL kernel), keeping the
    decision scale-free in the node count.
    """

    svm: TrainedSvm
    wl_iters: int
    train_accuracy: float
    test_accuracy: float | None


def _unit_rows(vecs: list[WlFeatureVector]) -> list[SparseVector]:
    """Each histogram over its L2 norm, taken from the exact integer sum of
    squares of its counts (at least 1: a graph has a node, so level 0 counts
    it), all in one batch; each row equals its histogram normalised alone."""
    if not vecs:
        return []
    sizes = [len(v.values) for v in vecs]
    counts = np.concatenate([v.values for v in vecs])
    rows = np.repeat(np.arange(len(vecs)), sizes)
    # float sums of integer squares stay exact below 2**53
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=len(vecs)))
    unit = counts / norms[rows]
    ends = np.cumsum(sizes).tolist()
    return [SparseVector(v.levels, v.ids, unit[b - len(v.values):b]) for v, b in zip(vecs, ends)]


def _unit_counts(v: WlFeatureVector) -> SparseVector:
    """One histogram over its L2 norm, as _unit_rows normalises it."""
    return _unit_rows([v])[0]


def evaluate(model: TargetModel, graphs) -> list[tuple[int, float]]:
    """Direct (non-counting) predictions: (label, confidence-of-that-label)
    per graph; the label is the calibrated probability thresholded at 0.5 so
    confidence is always >= 0.5."""
    vecs = wl_feature_vectors(list(graphs), model.wl_iters)
    margins = svm_margins(model.svm, _unit_rows(vecs))
    p_plus = [svm_probability(model.svm, float(m)) for m in margins]
    return [(1, p) if p >= 0.5 else (-1, 1.0 - p) for p in p_plus]


@dataclass(frozen=True)
class TargetConfig:
    """The victim's knobs: WL depth, the SVM's C and the SMO seed."""

    wl_iters: int = 3
    C: float = 10.0
    seed: int = 42

    def __post_init__(self):
        if self.wl_iters < 0:
            raise ValueError(f"target wl_iters must be >= 0, got {self.wl_iters}")
        if not self.C > 0:
            raise ValueError(f"target C must be positive, got {self.C}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def train_target(ds: GraphDataset, wl_iters: int = TargetConfig.wl_iters,
                 C: float = TargetConfig.C, seed: int = 0) -> TargetModel:
    """Train the loop-closure classifier: WL feature extraction over the train
    split, then a linear-kernel SVM on the histograms (the WL kernel machine,
    SMO to tolerance 1e-3 within 500 passes), reporting train and test
    accuracy."""
    train = ds.subset("train")
    test = ds.subset("test")
    vecs = wl_feature_vectors(list(train.graphs), wl_iters)
    svm = svm_train(
        _unit_rows(vecs),
        list(train.labels),
        KernelSpec("linear"),
        C=C,
        tol=1e-3,
        max_passes=500,
        seed=seed,
    )
    model = TargetModel(svm, wl_iters, 0.0, None)
    model.train_accuracy = _accuracy(model, train)
    if len(test):
        model.test_accuracy = _accuracy(model, test)
    return model


def _accuracy(model: TargetModel, ds: GraphDataset) -> float:
    preds = evaluate(model, ds.graphs)
    return sum(1 for (lab, _), y in zip(preds, ds.labels) if lab == y) / len(ds)


def query(model: TargetModel, ledger: BlackBoxQuery, g: LabeledGraph) -> tuple[int, float]:
    """One black-box query: returns (predicted label, confidence) and increments
    the ledger. Re-querying a structurally identical graph is served from the
    cache for free. In 'label' oracle mode the confidence collapses to 1.0."""
    digest = graph_hash(g)
    cached = ledger._cache.get(digest)
    if cached is not None:
        return cached
    if ledger.count >= ledger.max_queries:
        raise QueryBudgetExhausted(f"max_queries={ledger.max_queries} spent")
    answer = ledger._pending.pop(digest, None)
    if answer is None:
        answer, = evaluate(model, [g])
    label, conf = answer
    if ledger.oracle == "label":
        conf = 1.0
    ledger._cache[digest] = (label, conf)
    return label, conf


def attack_loss(observed: tuple[int, float], y: int) -> float:
    """Attack loss 1 - p(y | G') in [0, 1]; above 0.5 means the prediction flipped."""
    label, confidence = observed
    p_true = confidence if label == y else 1.0 - confidence
    return 1.0 - p_true


class BlackBoxQuery:
    """The only surface the attack engine sees: query(g) -> (label, confidence),
    plus its own budget accounting and prefetch(graphs), which batches the
    work of the queries to come (prefetch_many batches it across ledgers).
    It is its own append-only ledger: _cache
    holds one (label, confidence) per charged digest, and _pending the answers
    that prefetch computed ahead of their queries. Not thread-safe; callers
    serialize queries against one instance."""

    def __init__(self, model: TargetModel, max_queries: int, oracle: str = "score"):
        if max_queries < 0:
            raise ValueError("max_queries must be >= 0")
        if oracle not in ("score", "label"):
            raise ValueError(f"unknown oracle mode {oracle!r}")
        self._model = model
        self.max_queries = max_queries
        self.oracle = oracle
        self._cache: dict[str, tuple[int, float]] = {}
        self._pending: dict[str, tuple[int, float]] = {}

    def query(self, g: LabeledGraph) -> tuple[int, float]:
        return query(self._model, self, g)

    def prefetch(self, graphs) -> None:
        """Compute, in one batch, the answers that query() will give for graphs
        not yet answered, as many as the remaining budget can reveal. Nothing
        is charged or revealed, and each call replaces the previous batch; a
        speed hint only, query() answers the same with or without it."""
        BlackBoxQuery.prefetch_many([(self, graphs)])

    @staticmethod
    def prefetch_many(requests) -> None:
        """prefetch(graphs) for each (ledger, graphs) of requests, all ledgers
        on one model, in one target pass over the union of their batches;
        a digest that several batches hold is computed once."""
        requests = list(requests)
        if len({id(ledger._model) for ledger, _ in requests}) > 1:
            raise ValueError("prefetch_many needs ledgers on one model")
        union: dict[str, LabeledGraph] = {}
        batches = []
        for ledger, graphs in requests:
            todo: dict[str, LabeledGraph] = {}
            room = ledger.max_queries - ledger.count
            for g in graphs:
                if len(todo) >= room:
                    break
                digest = graph_hash(g)
                if digest not in ledger._cache and digest not in todo:
                    todo[digest] = union.setdefault(digest, g)
            batches.append(todo)
        answers = dict(zip(union, evaluate(requests[0][0]._model, union.values()))) if union else {}
        for (ledger, _), todo in zip(requests, batches):
            ledger._pending = {digest: answers[digest] for digest in todo}

    @property
    def count(self) -> int:
        return len(self._cache)

    queries_used = count


def target_to_json(model: TargetModel) -> dict:
    return {
        "version": "target-v2",
        "svm": svm_to_json(model.svm),
        "wl_iters": model.wl_iters,
        "train_accuracy": model.train_accuracy,
        "test_accuracy": model.test_accuracy,
    }


def target_from_json(doc: dict) -> TargetModel:
    """Rebuild a target-v2 model; a malformed document (a field missing or of
    the wrong JSON type or range, its svm's included) raises ValueError.
    target-v1 files keyed their histograms by a stored label dictionary whose
    ids mean nothing to hashed WL labels, so they must be retrained."""
    json_value(doc, dict, "model")
    if doc.get("version") != "target-v2":
        raise ValueError(f"unsupported target version {doc.get('version')!r}; "
                         "expected 'target-v2' (retrain target-v1 models)")
    try:
        return TargetModel(
            svm=svm_from_json(doc["svm"]),
            wl_iters=json_value(doc["wl_iters"], int, "wl_iters"),
            train_accuracy=json_value(doc["train_accuracy"], float, "train_accuracy"),
            test_accuracy=(None if doc["test_accuracy"] is None
                           else json_value(doc["test_accuracy"], float, "test_accuracy")),
        )
    except KeyError as exc:
        raise ValueError(f"model lacks field {exc}") from exc


def save_target(model: TargetModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(target_to_json(model), fh, separators=(",", ":"))


def load_target(path) -> TargetModel:
    with open(path, "r", encoding="utf-8") as fh:
        return target_from_json(json.load(fh))
