"""Synthetic multi-tier graph generator: semantic-object anchor nodes with
attached feature nodes, class-conditional edge densities and label skew."""

from __future__ import annotations

import math
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


def _label_sampler(weights: np.ndarray, rng: np.random.Generator):
    """Draws rng.choice(len(weights), p=weights) makes, draw for draw and with
    the same generator state after, without re-validating p on every call:
    numpy's own algorithm, one uniform searched in the cumulative weights."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def _class_edge_probs(cfg: GeneratorConfig, cls: int) -> tuple[float, float]:
    """Class B gets a denser object core: the separability signal lives in the
    anchor-level edge structure, the part of the graph a perturbation can reach."""
    if cls > 0:
        return cfg.p_obj, cfg.p_feat
    return _clip01(cfg.p_obj + 0.5 * cfg.delta), cfg.p_feat


def _one_graph(cfg: GeneratorConfig, cls: int, graph_id: str, index: int) -> LabeledGraph:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    vocab = [f"l{i:02d}" for i in range(cfg.vocab_size)]
    draw_label = _label_sampler(_label_weights(cfg, cls), rng)
    p_obj, p_feat = _class_edge_probs(cfg, cls)
    lo, hi = cfg.objects_range
    n_obj = int(rng.integers(lo, hi + 1))
    labels: list[str] = []
    tiers: list[str] = []
    for _ in range(n_obj):
        labels.append(vocab[draw_label()])
        tiers.append("object")
    edges: list[tuple[int, int, float]] = []

    # spatial realism: anchor objects sit far apart, features cluster near
    # their anchor, so object-object distances draw from the upper half of
    # the weight range and feature edges from the lower half
    mid = 0.5 * (cfg.weight_low + cfg.weight_high)

    def w_near() -> float:
        return float(rng.uniform(cfg.weight_low, mid))

    def w_far() -> float:
        return float(rng.uniform(mid, cfg.weight_high))

    flo, fhi = cfg.features_per_object_range
    for obj in range(n_obj):
        n_feat = int(rng.integers(flo, fhi + 1))
        star: list[int] = []
        for _ in range(n_feat):
            node = len(labels)
            labels.append(vocab[draw_label()])
            tiers.append("feature")
            edges.append((obj, node, w_near()))
            star.append(node)
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                if rng.random() < p_feat:
                    edges.append((star[i], star[j], w_near()))
    for u in range(n_obj):
        for v in range(u + 1, n_obj):
            if rng.random() < p_obj:
                edges.append((u, v, w_far()))
    return LabeledGraph(graph_id, tuple(labels), tuple(tiers), tuple(edges))


def generate(cfg: GeneratorConfig) -> GraphDataset:
    """Deterministic per seed: graph i draws from its own RNG substream
    (seed, i), so parallel generation would produce identical output."""
    graphs, labels, splits = [], [], []
    index = 0
    for split, per_class in (("train", cfg.n_train_per_class), ("test", cfg.n_test_per_class)):
        for cls in (1, -1):
            for _ in range(per_class):
                gid = f"g{index:04d}"
                graphs.append(_one_graph(cfg, cls, gid, index))
                labels.append(cls)
                splits.append(split)
                index += 1
    return GraphDataset.from_graphs(graphs, labels, splits)
