"""Synthetic multi-tier graph generator: semantic-object anchor nodes with
attached feature nodes, class-conditional edge densities and label skew."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph_core import GraphDataset, LabeledGraph


class InvalidConfig(Exception):
    """A generator or run configuration fails validation."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Controls for the two-tier generator.

    Objects interconnect with probability p_obj; each object anchors a star of
    feature nodes, whose within-star pairs connect with probability p_feat.
    The separability knob delta shifts class B's edge probabilities and skews
    the two classes' label distributions in opposite directions; delta = 0
    makes the classes identically distributed.
    """

    n_train_per_class: int = 100
    n_test_per_class: int = 50
    objects_range: tuple[int, int] = (8, 9)
    features_per_object_range: tuple[int, int] = (2, 3)
    vocab_size: int = 2
    p_obj: float = 0.25
    p_feat: float = 0.05
    weight_low: float = 0.1
    weight_high: float = 2.0
    delta: float = 0.7
    seed: int = 42

    def __post_init__(self):
        if self.n_train_per_class < 1 or self.n_test_per_class < 1:
            raise InvalidConfig("need at least one graph per class per split")
        lo, hi = self.objects_range
        if not (1 <= lo <= hi):
            raise InvalidConfig(f"bad objects_range {self.objects_range}")
        flo, fhi = self.features_per_object_range
        if not (0 <= flo <= fhi):
            raise InvalidConfig(f"bad features_per_object_range {self.features_per_object_range}")
        if self.vocab_size < 1:
            raise InvalidConfig("vocab_size must be >= 1")
        for name in ("p_obj", "p_feat"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise InvalidConfig(f"{name} must be in [0, 1], got {p}")
        if not (0.0 < self.weight_low <= self.weight_high):
            raise InvalidConfig("need 0 < weight_low <= weight_high")
        if not math.isfinite(0.5 * (self.weight_low + self.weight_high)):
            raise InvalidConfig("weight_high and the weights' midpoint must be finite")
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise InvalidConfig(f"delta must be finite and >= 0, got {self.delta}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def _clip01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _label_weights(cfg: GeneratorConfig, cls: int) -> np.ndarray:
    """Class-conditional categorical label distribution; delta mildly skews the
    two classes toward opposite ends of the vocabulary. The skew is kept weak
    on purpose: node labels are never perturbed, so a label-driven signal
    would be unattackable by edge flips."""
    v = cfg.vocab_size
    idx = np.arange(v, dtype=float)
    if cls > 0:
        w = np.exp(-0.15 * cfg.delta * idx)
    else:
        w = np.exp(-0.15 * cfg.delta * (v - 1 - idx))
    return w / w.sum()


def _label_cdf(weights: np.ndarray) -> list[float]:
    """The cumulative weights that rng.choice(len(weights), p=weights) searches:
    bisect_right(cdf, u) of one uniform u is the label it draws, draw for draw,
    without re-validating p on every call."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf.tolist()


def _class_edge_probs(cfg: GeneratorConfig, cls: int) -> tuple[float, float]:
    """Class B gets a denser object core: the separability signal lives in the
    anchor-level edge structure, the part of the graph a perturbation can reach."""
    if cls > 0:
        return cfg.p_obj, cfg.p_feat
    return _clip01(cfg.p_obj + 0.5 * cfg.delta), cfg.p_feat


def _one_graph(cfg: GeneratorConfig, vocab: list[str], cdf: list[float], p_obj: float,
               p_feat: float, graph_id: str, index: int) -> LabeledGraph:
    """Graph index of the dataset, from its own substream (seed, index), drawn
    in this order: the object count; one label per object; per object, its
    feature count, a (label, weight) pair per feature, then per within-star
    pair an accept test and, if accepted, a weight; last, per object pair, an
    accept test and, if accepted, a weight. A label is bisect_right(cdf, u),
    as rng.choice draws it, and a weight in [a, b) is a + (b - a) * u, as
    rng.uniform draws it."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    lo, hi = cfg.objects_range
    n_obj = int(rng.integers(lo, hi + 1))
    labels = [vocab[bisect_right(cdf, u)] for u in rng.random(n_obj).tolist()]
    tiers = ["object"] * n_obj
    edges: list[tuple[int, int, float]] = []

    # spatial realism: anchor objects sit far apart, features cluster near
    # their anchor, so object-object distances draw from the upper half of
    # the weight range and feature edges from the lower half
    low, high = cfg.weight_low, cfg.weight_high
    mid = 0.5 * (low + high)
    near, far = mid - low, high - mid

    flo, fhi = cfg.features_per_object_range
    for obj in range(n_obj):
        n_feat = int(rng.integers(flo, fhi + 1))
        first = len(labels)
        draws = rng.random(2 * n_feat).tolist()
        for node, u, w in zip(range(first, first + n_feat), draws[::2], draws[1::2]):
            labels.append(vocab[bisect_right(cdf, u)])
            edges.append((obj, node, low + near * w))
        tiers += ["feature"] * n_feat
        for a in range(first, len(labels)):
            for b in range(a + 1, len(labels)):
                if rng.random() < p_feat:
                    edges.append((a, b, low + near * rng.random()))
    # an object pair reads one uniform for its accept test and, if accepted,
    # one for its weight, so 2 * C(n_obj, 2) drawn at once cover every pair;
    # the ones left unread over-draw the stream, which is safe only because
    # nothing draws from this graph's generator afterwards
    pair_draws = iter(rng.random(n_obj * (n_obj - 1)).tolist())
    for a in range(n_obj):
        for b in range(a + 1, n_obj):
            if next(pair_draws) < p_obj:
                edges.append((a, b, mid + far * next(pair_draws)))
    edges.sort()
    return LabeledGraph._trusted(graph_id, tuple(labels), tuple(tiers), tuple(edges))


def generate(cfg: GeneratorConfig) -> GraphDataset:
    """Deterministic per seed: graph i draws from its own RNG substream
    (seed, i), so parallel generation would produce identical output."""
    vocab = [f"l{i:02d}" for i in range(cfg.vocab_size)]
    per_class = {cls: (_label_cdf(_label_weights(cfg, cls)), *_class_edge_probs(cfg, cls))
                 for cls in (1, -1)}
    graphs, labels, splits = [], [], []
    index = 0
    for split, n_per_class in (("train", cfg.n_train_per_class), ("test", cfg.n_test_per_class)):
        for cls in (1, -1):
            for _ in range(n_per_class):
                graphs.append(_one_graph(cfg, vocab, *per_class[cls], f"g{index:04d}", index))
                labels.append(cls)
                splits.append(split)
                index += 1
    return GraphDataset.from_graphs(graphs, labels, splits)
