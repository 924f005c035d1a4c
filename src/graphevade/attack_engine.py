"""Black-box evasion loop: generate candidate perturbations, query the target,
train a surrogate on the observed losses, and pick the strongest adversarial graph.

This module talks to the victim exclusively through the query interface
(BlackBoxQuery or anything with the same query/queries_used surface); it never
touches target model internals.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph_core import EdgeFlip, GraphDataset, LabeledGraph, apply_flips, graph_hash
from .learners import (
    DegenerateData,
    DegenerateLabels,
    DidNotConverge,
    KernelSpec,
    median_heuristic_gamma,
    nb_predict,
    nb_train,
    svm_margins,
    svm_probability,
    svm_train,
)
from .perturb import (
    Budget,
    BudgetExceedsPairs,
    eigencentrality,
    plan_eigencentrality,
    plan_random_walk,
    plan_shortest_path,
)
from .target_lcd import BlackBoxQuery, QueryBudgetExhausted, attack_loss, evaluate
from .wl_features import WlFeatureVector, wl_feature_vector, wl_feature_vectors

STRATEGIES = ("eigencentrality", "random_walk", "shortest_path")
SURROGATES = ("svm_rbf", "svm_linear", "svm_poly", "naive_bayes")


@dataclass(frozen=True)
class AttackConfig:
    """Knobs of one attack run. epochs caps the surrogate's internal training
    passes."""

    r: float = 3e-4
    strategy: str = "eigencentrality"
    surrogate: str = "svm_rbf"
    max_queries: int = 50
    k_candidates: int = 10
    rounds: int = 10
    epochs: int = 200
    wl_iters: int = 3
    oracle: str = "score"
    seed: int = 42

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.surrogate not in SURROGATES:
            raise ValueError(f"unknown surrogate {self.surrogate!r}")
        if self.oracle not in ("score", "label"):
            raise ValueError(f"unknown oracle mode {self.oracle!r}")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")
        if self.max_queries != 0 and self.max_queries < self.k_candidates:
            raise ValueError("max_queries must be 0 or >= k_candidates")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.r > 0:
            raise ValueError("perturbation ratio r must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.wl_iters < 0:
            raise ValueError("wl_iters must be >= 0")


@dataclass(frozen=True)
class AttackRecord:
    """One query's observation: what was asked and what came back."""

    digest: str
    flips: tuple[EdgeFlip, ...]
    label: int
    confidence: float
    loss: float
    success: bool
    query_index: int


@dataclass
class AttackOutcome:
    graph_id: str
    true_label: int
    beta: int
    best_graph: LabeledGraph
    best_flips: tuple[EdgeFlip, ...]
    best_loss: float
    success: bool
    queries_used: int
    records: tuple[AttackRecord, ...]
    diagnostics: tuple[dict, ...]


def _stream_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary parts; independent of interpreter hashing."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _strategy_plans(g: LabeledGraph, budget: Budget, cfg: AttackConfig,
                    round_idx: int, count: int, scores) -> list:
    seed = _stream_seed(cfg.seed, g.graph_id, "strategy", round_idx)
    if cfg.strategy == "eigencentrality":
        # rounds slide over fresh ranked-pair windows so candidates never repeat
        offset = cfg.k_candidates if round_idx > 0 else 0
        offset += max(0, round_idx - 1) * count
        return plan_eigencentrality(g, budget, count, seed, offset=offset,
                                    scores=scores)
    if cfg.strategy == "random_walk":
        return plan_random_walk(g, budget, count, seed)
    return plan_shortest_path(g, budget, count, seed)


_SINGLE_CLASS = "single-class records"


def _binarize(losses) -> list[int] | None:
    """Surrogate class labels of the attack losses, or None when they are
    single-class and leave nothing to fit.

    Losses binarize at 0.5 (the prediction-flip threshold). Early stopping
    means flipped records are rare while the attack is still running, so when
    that split is single-class the threshold falls back to the median loss:
    the surrogate then learns the direction of increasing loss from the
    score-mode confidences. Hard-label oracles yield constant losses here and
    legitimately leave nothing to fit.
    """
    labels = [1 if loss > 0.5 else -1 for loss in losses]
    if len(set(labels)) < 2:
        med = float(np.median(losses))
        labels = [1 if loss > med else -1 for loss in losses]
    if len(set(labels)) < 2:
        return None
    return labels


def _train_scorer(vectors, losses, cfg: AttackConfig, seed: int):
    """Fit the configured surrogate on binarized attack losses (see _binarize)
    and return a batch scoring callable (vectors -> P(high loss)), or
    (None, reason)."""
    labels = _binarize(losses)
    if labels is None:
        return None, _SINGLE_CLASS
    try:
        if cfg.surrogate == "naive_bayes":
            model = nb_train(vectors, labels)
            return (lambda vs: nb_predict(model, vs)[1]), "trained"
        if cfg.surrogate == "svm_rbf":
            # median-distance heuristic: attack records cluster within a few
            # flips of the original, where a gamma scaled by the spread of
            # distances collapses the Gram matrix toward the identity
            try:
                gamma = median_heuristic_gamma(vectors)
            except DegenerateData:
                gamma = 1.0
            spec = KernelSpec("rbf", gamma=gamma)
        elif cfg.surrogate == "svm_linear":
            spec = KernelSpec("linear")
        else:
            spec = KernelSpec("polynomial", degree=3, coef0=1.0)
        # C = 10: the surrogate has only a few dozen samples, so a hard margin
        # fits the observed loss geometry instead of regularizing it away
        model = svm_train(vectors, labels, spec, C=10.0, tol=1e-3,
                          max_passes=cfg.epochs, seed=seed)
        scorer = lambda vs: np.array(
            [svm_probability(model, float(m)) for m in svm_margins(model, vs)]
        )
        return scorer, "trained"
    except (DegenerateLabels, DidNotConverge) as exc:
        return None, f"{type(exc).__name__}"


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _mutations(g: LabeledGraph, best_graph: LabeledGraph,
               best_flips: tuple[EdgeFlip, ...], beta: int,
               rng: np.random.Generator, count: int,
               pairs: list[tuple[int, int]]) -> list[tuple[EdgeFlip, ...]]:
    """One-flip local mutations of the incumbent, staying within beta flips of
    the original (measured as edge-set symmetric difference); pairs is
    _all_pairs(g.n)."""
    diff = g.edge_pairs ^ best_graph.edge_pairs
    revert_only = sorted(diff)
    out = []
    for _ in range(count):
        if len(diff) >= beta:
            if not revert_only:
                break
            pair = revert_only[int(rng.integers(len(revert_only)))]
        else:
            pair = pairs[int(rng.integers(len(pairs)))]
        if best_graph.has_edge(*pair):
            flip = EdgeFlip(pair[0], pair[1], "remove")
        else:
            flip = EdgeFlip(pair[0], pair[1], "add", weight=g.mean_weight)
        out.append(best_flips + (flip,))
    return out


def attack_one(query_iface, g: LabeledGraph, y: int, cfg: AttackConfig,
               clean_observation: tuple[int, float] | None = None) -> AttackOutcome:
    """Attack a single graph through the black-box query interface.

    Round 0 queries the raw strategy candidates. Later rounds retrain the
    surrogate on everything observed so far, score a fresh pool (new strategy
    plans plus one-flip mutations of the incumbent), and spend queries on the
    top k candidates. Stops on the first prediction flip, when rounds are
    exhausted, or when the query budget runs out; returns the max-loss graph.

    clean_observation is the target's output on the unperturbed graph, which
    the attack module sees for free as it sits on the input stream; it anchors
    the surrogate's training set without consuming budget.

    A graph with no room for the flip budget (a single node, say) comes back
    unattacked: beta 0, no records, no queries.
    """
    try:
        budget = Budget(cfg.r, g.n)
    except BudgetExceedsPairs:
        return AttackOutcome(g.graph_id, int(y), 0, g, (), 0.0, False,
                             query_iface.queries_used, (), ())
    scores = eigencentrality(g) if cfg.strategy == "eigencentrality" else None
    pairs = _all_pairs(g.n)
    records: list[AttackRecord] = []
    # surrogate training set: one vector per loss, None until featurised
    record_vectors: list[WlFeatureVector | None] = []
    unfeaturised: list[tuple[int, LabeledGraph]] = []
    losses: list[float] = []
    queried: set[str] = set()
    diagnostics: list[dict] = []
    best_loss = 0.0
    best_graph = g
    best_flips: tuple[EdgeFlip, ...] = ()
    exhausted = False
    if clean_observation is not None:
        record_vectors.append(wl_feature_vector(g, cfg.wl_iters))
        losses.append(attack_loss(clean_observation, y))

    def consider(candidate: LabeledGraph, flips: tuple[EdgeFlip, ...], digest: str,
                 vector: WlFeatureVector | None) -> bool:
        """Query one candidate whose digest is not yet queried; vector holds its
        features when a scored pool computed them. Returns True on a
        prediction flip."""
        nonlocal best_loss, best_graph, best_flips, exhausted
        try:
            observed = query_iface.query(candidate)
        except QueryBudgetExhausted:
            exhausted = True
            return False
        queried.add(digest)
        loss = attack_loss(observed, y)
        success = observed[0] != y
        rec = AttackRecord(digest, flips, observed[0], observed[1], loss,
                           success, len(records))
        records.append(rec)
        if vector is None:
            unfeaturised.append((len(record_vectors), candidate))
        record_vectors.append(vector)
        losses.append(loss)
        if loss > best_loss:
            best_loss = loss
            best_graph = candidate
            best_flips = flips
        return success

    done = False
    for round_idx in range(cfg.rounds):
        if done or exhausted:
            break
        # round 0 queries raw strategy plans; guided rounds draw a wider pool
        # (3x strategy windows plus local mutations) for the surrogate to cull
        pool_k = cfg.k_candidates if round_idx == 0 else 3 * cfg.k_candidates
        # (base, step, flips): the candidate is apply_flips(base, step), and
        # flips takes g to it
        pool: list[tuple[LabeledGraph, tuple[EdgeFlip, ...], tuple[EdgeFlip, ...]]] = []
        for plan in _strategy_plans(g, budget, cfg, round_idx, pool_k, scores):
            if plan.flips:
                pool.append((g, plan.flips, plan.flips))
        if round_idx > 0 and records:
            mut_rng = np.random.default_rng(
                _stream_seed(cfg.seed, g.graph_id, "mutate", round_idx))
            for flips in _mutations(g, best_graph, best_flips, budget.beta,
                                    mut_rng, 2 * cfg.k_candidates, pairs):
                pool.append((best_graph, flips[-1:], flips))
        # (candidate, flips, features): an unscored pool builds each candidate
        # only when the loop below reaches it
        entries = ((apply_flips(base, step), flips, None) for base, step, flips in pool)
        note = "strategy-only"
        if round_idx > 0 and len(losses) >= 2:
            scorer, note = None, _SINGLE_CLASS
            # records that stay single-class (hard labels) are never featurised
            if _binarize(losses) is not None:
                if unfeaturised:
                    vecs = wl_feature_vectors([c for _, c in unfeaturised], cfg.wl_iters)
                    for (i, _), v in zip(unfeaturised, vecs):
                        record_vectors[i] = v
                    unfeaturised.clear()
                scorer, note = _train_scorer(
                    record_vectors, losses, cfg,
                    _stream_seed(cfg.seed, g.graph_id, "surrogate", round_idx))
            if scorer is not None and pool:
                cands = [apply_flips(base, step) for base, step, _ in pool]
                vecs = wl_feature_vectors(cands, cfg.wl_iters)
                order = np.argsort(-scorer(vecs), kind="stable")
                entries = [(cands[i], pool[i][2], vecs[i]) for i in order.tolist()]
            elif scorer is None:
                note = f"fallback:{note}"
        fresh = 0
        # the stop test comes after a query, so no entry is built past it
        for candidate, flips, vector in entries:
            digest = graph_hash(candidate)
            if digest in queried:
                continue
            fresh += 1
            if consider(candidate, flips, digest, vector):
                done = True
                break
            if fresh >= cfg.k_candidates or exhausted:
                break
        diagnostics.append({"round": round_idx, "surrogate": note,
                            "pool": len(pool), "queried": fresh,
                            "records": len(records)})
    return AttackOutcome(
        graph_id=g.graph_id,
        true_label=int(y),
        beta=budget.beta,
        best_graph=best_graph,
        best_flips=best_flips,
        best_loss=best_loss,
        success=any(r.success for r in records),
        queries_used=query_iface.queries_used,
        records=tuple(records),
        diagnostics=tuple(diagnostics),
    )


@dataclass
class GraphAttackResult:
    graph_id: str
    true_label: int
    clean_label: int
    clean_confidence: float
    attacked_label: int
    outcome: AttackOutcome


@dataclass
class AttackSummary:
    """Per-graph attack results plus the accuracy-decline aggregate."""

    results: tuple[GraphAttackResult, ...]
    clean_accuracy: float
    attacked_accuracy: float
    decline_pp: float
    success_rate: float
    mean_queries: float
    config: AttackConfig


def _attack_task(args) -> AttackOutcome:
    target, g, y, cfg, clean_observation = args
    iface = BlackBoxQuery(target, cfg.max_queries, cfg.oracle)
    return attack_one(iface, g, y, cfg, clean_observation=clean_observation)


def attack_testset(target, ds_test: GraphDataset, cfg: AttackConfig,
                   workers: int = 1) -> AttackSummary:
    """Attack every graph in ds_test with a fresh per-graph query budget.

    Reports clean accuracy, attacked accuracy (each graph replaced by its best
    perturbed version), the decline in percentage points (negative when
    accuracy drops), and the success rate over the graphs the target got right
    before any flip (0.0 when there are none). Per-graph RNG streams derive
    from (seed, graph id), so the worker count cannot change any result.
    """
    if len(ds_test) == 0:
        raise ValueError("test set is empty")
    graphs = list(ds_test.graphs)
    ys = list(ds_test.labels)
    clean = evaluate(target, graphs)
    if cfg.oracle == "label":
        clean_obs = [(lab, 1.0) for lab, _ in clean]
    else:
        clean_obs = clean
    tasks = [(target, g, y, cfg, obs) for g, y, obs in zip(graphs, ys, clean_obs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_attack_task, tasks, chunksize=8))
    else:
        outcomes = [_attack_task(t) for t in tasks]
    results = []
    clean_correct = 0
    attacked_correct = 0
    successes = 0
    for (clean_label, clean_conf), outcome, y in zip(clean, outcomes, ys):
        if outcome.records:
            best = max(outcome.records, key=lambda r: r.loss)
            attacked_label = best.label
        else:
            attacked_label = clean_label
        clean_correct += clean_label == y
        attacked_correct += attacked_label == y
        successes += clean_label == y and outcome.success
        results.append(GraphAttackResult(outcome.graph_id, y, clean_label,
                                         clean_conf, attacked_label, outcome))
    n = len(graphs)
    clean_acc = clean_correct / n
    attacked_acc = attacked_correct / n
    return AttackSummary(
        results=tuple(results),
        clean_accuracy=clean_acc,
        attacked_accuracy=attacked_acc,
        decline_pp=(attacked_acc - clean_acc) * 100.0,
        success_rate=successes / clean_correct if clean_correct else 0.0,
        mean_queries=sum(o.queries_used for o in outcomes) / n,
        config=cfg,
    )


def _flip_to_json(f: EdgeFlip) -> dict:
    return {"u": f.u, "v": f.v, "direction": f.direction, "weight": f.weight}


def summary_to_json(summary: AttackSummary, include_records: bool = True) -> dict:
    cfg = summary.config
    doc = {
        "config": {
            "r": cfg.r, "strategy": cfg.strategy, "surrogate": cfg.surrogate,
            "max_queries": cfg.max_queries, "k_candidates": cfg.k_candidates,
            "rounds": cfg.rounds, "epochs": cfg.epochs, "wl_iters": cfg.wl_iters,
            "oracle": cfg.oracle, "seed": cfg.seed,
        },
        "clean_accuracy": summary.clean_accuracy,
        "attacked_accuracy": summary.attacked_accuracy,
        "decline_pp": summary.decline_pp,
        "success_rate": summary.success_rate,
        "mean_queries": summary.mean_queries,
        "graphs": [],
    }
    for res in summary.results:
        o = res.outcome
        row = {
            "graph_id": res.graph_id,
            "true_label": res.true_label,
            "clean_label": res.clean_label,
            "clean_confidence": res.clean_confidence,
            "attacked_label": res.attacked_label,
            "beta": o.beta,
            "best_loss": o.best_loss,
            "success": o.success,
            "queries_used": o.queries_used,
            "best_flips": [_flip_to_json(f) for f in o.best_flips],
        }
        if include_records:
            row["records"] = [
                {
                    "digest": r.digest,
                    "flips": [_flip_to_json(f) for f in r.flips],
                    "label": r.label,
                    "confidence": r.confidence,
                    "loss": r.loss,
                    "success": r.success,
                    "query_index": r.query_index,
                }
                for r in o.records
            ]
        doc["graphs"].append(row)
    return doc
