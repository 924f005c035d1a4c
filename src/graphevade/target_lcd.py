"""The victim: a WL-kernel SVM graph classifier behind a counting black-box
query interface.

Nothing outside this module reads TargetModel fields; attackers interact only
through query()/BlackBoxQuery, which expose a predicted label and a calibrated
confidence, never parameters or gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .graph_core import GraphDataset, LabeledGraph, graph_hash
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


def _unit_counts(v: WlFeatureVector) -> SparseVector:
    """The histogram over its L2 norm, taken from the exact integer sum of
    squares of the counts."""
    norm = math.sqrt(int(v.values @ v.values))
    if norm == 0:
        return v
    return SparseVector(v.levels, v.ids, v.values / norm)


@dataclass(frozen=True)
class QueryEntry:
    digest: str
    label: int
    confidence: float
    index: int


@dataclass
class QueryLedger:
    """Append-only query accounting. Duplicate graphs (same structural hash) are
    served from the cache without consuming budget. Not thread-safe; callers
    serialize queries against one ledger."""

    max_queries: int
    oracle: str = "score"
    entries: list[QueryEntry] = field(default_factory=list)
    _cache: dict[str, QueryEntry] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.max_queries < 0:
            raise ValueError("max_queries must be >= 0")
        if self.oracle not in ("score", "label"):
            raise ValueError(f"unknown oracle mode {self.oracle!r}")

    @property
    def count(self) -> int:
        return len(self.entries)


def _predict_graphs(model: TargetModel, graphs) -> list[tuple[int, float]]:
    """(label, confidence-of-that-label) per graph; the label is the calibrated
    probability thresholded at 0.5 so confidence is always >= 0.5."""
    vecs = wl_feature_vectors(list(graphs), model.wl_iters)
    margins = svm_margins(model.svm, [_unit_counts(v) for v in vecs])
    out = []
    for m in margins:
        p_plus = svm_probability(model.svm, float(m))
        if p_plus >= 0.5:
            out.append((1, p_plus))
        else:
            out.append((-1, 1.0 - p_plus))
    return out


def evaluate(model: TargetModel, graphs) -> list[tuple[int, float]]:
    """Direct (non-counting) predictions; evaluation harness use only."""
    return _predict_graphs(model, graphs)


def train_target(ds: GraphDataset, wl_iters: int = 3, C: float = 10.0,
                 tol: float = 1e-3, max_passes: int = 500, seed: int = 0) -> TargetModel:
    """Train the loop-closure classifier: WL feature extraction over the train
    split, then a linear-kernel SVM on the histograms (the WL kernel machine),
    reporting train and test accuracy."""
    train = ds.subset("train")
    test = ds.subset("test")
    vecs = wl_feature_vectors(list(train.graphs), wl_iters)
    svm = svm_train(
        [_unit_counts(v) for v in vecs],
        list(train.labels),
        KernelSpec("linear"),
        C=C,
        tol=tol,
        max_passes=max_passes,
        seed=seed,
    )
    model = TargetModel(svm, wl_iters, 0.0, None)
    preds = _predict_graphs(model, train.graphs)
    model.train_accuracy = sum(
        1 for (lab, _), y in zip(preds, train.labels) if lab == y
    ) / len(train)
    if len(test):
        preds = _predict_graphs(model, test.graphs)
        model.test_accuracy = sum(
            1 for (lab, _), y in zip(preds, test.labels) if lab == y
        ) / len(test)
    return model


def query(model: TargetModel, ledger: QueryLedger, g: LabeledGraph) -> tuple[int, float]:
    """One black-box query: returns (predicted label, confidence) and increments
    the ledger. Re-querying a structurally identical graph is served from the
    cache for free. In 'label' oracle mode the confidence collapses to 1.0."""
    digest = graph_hash(g)
    cached = ledger._cache.get(digest)
    if cached is not None:
        return cached.label, cached.confidence
    if ledger.count >= ledger.max_queries:
        raise QueryBudgetExhausted(f"max_queries={ledger.max_queries} spent")
    (label, conf), = _predict_graphs(model, [g])
    if ledger.oracle == "label":
        conf = 1.0
    entry = QueryEntry(digest, label, conf, ledger.count)
    ledger.entries.append(entry)
    ledger._cache[digest] = entry
    return label, conf


def attack_loss(observed: tuple[int, float], y: int) -> float:
    """Attack loss 1 - p(y | G') in [0, 1]; above 0.5 means the prediction flipped."""
    label, confidence = observed
    p_true = confidence if label == y else 1.0 - confidence
    return 1.0 - p_true


class BlackBoxQuery:
    """The only surface the attack engine sees: query(g) -> (label, confidence),
    plus its own budget accounting."""

    def __init__(self, model: TargetModel, max_queries: int, oracle: str = "score"):
        self._model = model
        self.ledger = QueryLedger(max_queries=max_queries, oracle=oracle)

    def query(self, g: LabeledGraph) -> tuple[int, float]:
        return query(self._model, self.ledger, g)

    @property
    def queries_used(self) -> int:
        return self.ledger.count

    @property
    def max_queries(self) -> int:
        return self.ledger.max_queries


def target_to_json(model: TargetModel) -> dict:
    return {
        "version": "target-v2",
        "svm": svm_to_json(model.svm),
        "wl_iters": model.wl_iters,
        "train_accuracy": model.train_accuracy,
        "test_accuracy": model.test_accuracy,
    }


def target_from_json(doc: dict) -> TargetModel:
    """Rebuild a target-v2 model. target-v1 files keyed their histograms by a
    stored label dictionary whose ids mean nothing to hashed WL labels, so
    they must be retrained."""
    if doc.get("version") != "target-v2":
        raise ValueError(f"unsupported target version {doc.get('version')!r}; "
                         "expected 'target-v2' (retrain target-v1 models)")
    return TargetModel(
        svm=svm_from_json(doc["svm"]),
        wl_iters=int(doc["wl_iters"]),
        train_accuracy=float(doc["train_accuracy"]),
        test_accuracy=None if doc["test_accuracy"] is None else float(doc["test_accuracy"]),
    )


def save_target(model: TargetModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(target_to_json(model), fh, separators=(",", ":"))


def load_target(path) -> TargetModel:
    with open(path, "r", encoding="utf-8") as fh:
        return target_from_json(json.load(fh))
