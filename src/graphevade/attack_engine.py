"""Black-box evasion loop: generate candidate perturbations, query the target,
train a surrogate on the observed losses, and pick the strongest adversarial graph.

This module talks to the victim exclusively through the query interface
(BlackBoxQuery or anything with the same query/queries_used surface); it never
touches target model internals. An interface may also offer prefetch(graphs),
an optional speed hint: each round hands it the round's query list before
asking the queries one by one, and the attack decides the same either way.
attack_testset attacks a cell's graphs in lock-step, each through its own
BlackBoxQuery, and hands every round's lists of the whole cell to one
BlackBoxQuery.prefetch_many, so the target answers a round in one pass.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .graph_core import EdgeFlip, GraphDataset, LabeledGraph, apply_flips, graph_hash
from .learners import (
    DegenerateData,
    DidNotConverge,
    KernelSpec,
    SparseRows,
    median_heuristic_gamma,
    nb_predict,
    nb_train,
    svm_margins,
    svm_probability,
    svm_train,
)
from .perturb import (
    BudgetExceedsPairs,
    eigencentrality,
    flip_budget,
    plan_eigencentrality,
    plan_mutations,
    plan_random_walk,
    plan_shortest_path,
)
from .target_lcd import BlackBoxQuery, QueryBudgetExhausted, attack_loss, evaluate
from .wl_features import wl_feature_vector, wl_feature_vectors

STRATEGIES = ("eigencentrality", "random_walk", "shortest_path")
SURROGATES = ("svm_rbf", "svm_linear", "svm_poly", "naive_bayes")
ORACLES = ("score", "label")


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
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle mode {self.oracle!r}")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")
        if self.max_queries != 0 and self.max_queries < self.k_candidates:
            raise ValueError("max_queries must be 0 or >= k_candidates")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"perturbation ratio r must be positive and finite, got {self.r}")
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


def _pool_draws(g: LabeledGraph, beta: int, cfg: AttackConfig, round_idx: int, scores,
                incumbent: tuple[LabeledGraph, tuple[EdgeFlip, ...]] | None,
                ) -> Iterator[list[tuple[EdgeFlip, ...]]]:
    """A round's pool as successive draws (lists of plans), in draw order,
    each made only when the consumer reaches it.

    The strategy's plans come first: k per round 0, 3k per later round.
    Eigencentrality windows are deterministic, so they are drawn k at a time
    and the chunks concatenate to one draw of the round's count; a seeded
    planner draws the whole count in one call, as a second call would restart
    its rng. Then, when incumbent (best_graph, best_flips) is given, come 2k
    one-flip mutations of it.
    """
    k = cfg.k_candidates
    count = k if round_idx == 0 else 3 * k
    if cfg.strategy == "eigencentrality":
        # rounds slide over fresh ranked-pair windows so candidates never repeat
        offset = k if round_idx > 0 else 0
        offset += max(0, round_idx - 1) * count
        for start in range(0, count, k):
            yield plan_eigencentrality(g, beta, scores, k, offset=offset + start)
    else:
        seed = _stream_seed(cfg.seed, g.graph_id, "strategy", round_idx)
        planner = plan_random_walk if cfg.strategy == "random_walk" else plan_shortest_path
        yield planner(g, beta, count, seed)
    if incumbent is not None:
        yield plan_mutations(g, *incumbent, beta, 2 * k,
                             _stream_seed(cfg.seed, g.graph_id, "mutate", round_idx))


def _drawn(draws, pool: list) -> Iterator[tuple[EdgeFlip, ...]]:
    """Each non-empty plan of draws in draw order; a draw's plans join pool
    as the draw is made."""
    for draw in draws:
        plans = [flips for flips in draw if flips]
        pool += plans
        yield from plans


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
    if len(set(losses)) < 2:
        return None
    labels = [1 if loss > 0.5 else -1 for loss in losses]
    if len(set(labels)) < 2:
        med = float(np.median(losses))
        labels = [1 if loss > med else -1 for loss in losses]
    if len(set(labels)) < 2:
        return None
    return labels


def _train_scorer(graphs, losses, cfg: AttackConfig, seed: int):
    """Fit the configured surrogate on the WL vectors of graphs and their
    binarized losses (see _binarize) and return a batch scoring callable
    (graphs -> P(high loss)), or (None, reason). Nothing is featurised when
    the losses leave nothing to fit."""
    labels = _binarize(losses)
    if labels is None:
        return None, _SINGLE_CLASS
    featurise = lambda gs: wl_feature_vectors(gs, cfg.wl_iters)
    # gamma, training and the fitted model's margin cache share one matrix
    vectors = SparseRows(featurise(graphs))
    try:
        if cfg.surrogate == "naive_bayes":
            model = nb_train(vectors, labels)
            return (lambda gs: nb_predict(model, featurise(gs))[1]), "trained"
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
        scorer = lambda gs: np.array(
            [svm_probability(model, float(m)) for m in svm_margins(model, featurise(gs))]
        )
        return scorer, "trained"
    except DidNotConverge as exc:
        return None, f"{type(exc).__name__}"


def _round_picks(g: LabeledGraph, beta: int, cfg: AttackConfig, round_idx: int, scores,
                 graphs: list, losses: list, records: list, incumbent,
                 ) -> tuple[dict[str, tuple[LabeledGraph, tuple[EdgeFlip, ...]]], dict]:
    """One round's query list, as {digest: (candidate, flips)}, and the round's
    diagnostics so far; the pool, its candidates and the surrogate are
    dropped on return.

    Round 0 queries raw strategy plans; guided rounds draw a wider pool (3x
    strategy windows plus local mutations) for the surrogate to cull."""
    draws = _pool_draws(g, beta, cfg, round_idx, scores,
                        incumbent if round_idx > 0 and records else None)
    pool: list[tuple[EdgeFlip, ...]] = []  # the plans drawn, in draw order
    note = "strategy-only"
    scorer = None
    distinct = None  # counted where the pool is scored, and so deduped
    if round_idx > 0 and len(losses) >= 2:
        scorer, note = _train_scorer(
            graphs, losses, cfg,
            _stream_seed(cfg.seed, g.graph_id, "surrogate", round_idx))
        if scorer is None:
            note = f"fallback:{note}"
    if scorer is None:
        # (candidate, flips): an unscored pool draws each plan and builds
        # each candidate only when the loop below reaches it
        entries = ((apply_flips(g, flips), flips) for flips in _drawn(draws, pool))
    else:
        pool = list(_drawn(draws, []))  # the scorer sees the whole pool
        entries = []
        if pool:
            # one candidate per distinct plan, yet the scorer sees every
            # drawn plan in draw order: an rbf or polynomial margin
            # depends on its row in the batch
            slots: dict[tuple[EdgeFlip, ...], int] = {}
            rows = [slots.setdefault(flips, len(slots)) for flips in pool]
            plans = list(slots)
            distinct = len(plans)
            cands = [apply_flips(g, flips) for flips in plans]
            order = np.argsort(-scorer([cands[i] for i in rows]), kind="stable").tolist()
            # each plan once, at its best-scored row
            entries = [(cands[i], plans[i]) for i in dict.fromkeys(rows[j] for j in order)]
    # the first k entries not queried before, one per digest; no entry is
    # built past them
    queried = {rec.digest for rec in records}
    picked: dict[str, tuple[LabeledGraph, tuple[EdgeFlip, ...]]] = {}
    for candidate, flips in entries:
        digest = graph_hash(candidate)
        if digest not in queried and digest not in picked:
            picked[digest] = (candidate, flips)
            if len(picked) >= cfg.k_candidates:
                break
    return picked, {"round": round_idx, "surrogate": note, "pool": len(pool),
                    "distinct": distinct}


def _attack_rounds(query_iface, g: LabeledGraph, y: int, cfg: AttackConfig,
                   clean_observation: tuple[int, float] | None = None):
    """attack_one's attack as a generator: each round yields its query list
    (the candidates it is about to query, in order) before it asks them, and
    the generator returns the AttackOutcome. Whoever drives it may batch the
    target's work on a yielded list; the queries are asked the same either
    way. A graph that cannot be attacked returns before its first yield."""
    try:
        beta = flip_budget(cfg.r, g.n)
    except BudgetExceedsPairs:
        return AttackOutcome(g.graph_id, 0, g, (), 0.0, False,
                             query_iface.queries_used, (), ())
    try:
        scores = eigencentrality(g) if cfg.strategy == "eigencentrality" else None
    except DidNotConverge as exc:
        # without a ranking there is nothing to plan; the graph's cell goes on
        return AttackOutcome(g.graph_id, beta, g, (), 0.0, False, query_iface.queries_used,
                             (), ({"unattacked": f"{type(exc).__name__}: {exc}"},))
    records: list[AttackRecord] = []
    # the surrogate's training set: the anchor and each queried candidate,
    # parallel to losses; each graph keeps its own WL vector
    graphs: list[LabeledGraph] = []
    losses: list[float] = []
    diagnostics: list[dict] = []
    best_loss = 0.0
    best_graph = g
    best_flips: tuple[EdgeFlip, ...] = ()
    if clean_observation is not None:
        wl_feature_vector(g, cfg.wl_iters)  # memoised on g; attackbench traces this name
        graphs.append(g)
        losses.append(attack_loss(clean_observation, y))

    stop = False
    for round_idx in range(cfg.rounds):
        picked, diagnostic = _round_picks(g, beta, cfg, round_idx, scores, graphs, losses,
                                          records, (best_graph, best_flips))
        yield [candidate for candidate, _ in picked.values()]
        fresh = 0
        for digest, (candidate, flips) in picked.items():
            fresh += 1
            try:
                observed = query_iface.query(candidate)
            except QueryBudgetExhausted:
                stop = True
                break
            loss = attack_loss(observed, y)
            success = observed[0] != y
            records.append(AttackRecord(digest, flips, observed[0], observed[1], loss,
                                        success, len(records)))
            graphs.append(candidate)
            losses.append(loss)
            if loss > best_loss:
                best_loss = loss
                best_graph = candidate
                best_flips = flips
            if success:
                stop = True
                break
        diagnostics.append({**diagnostic, "queried": fresh, "records": len(records)})
        if stop:
            break
    return AttackOutcome(
        graph_id=g.graph_id,
        beta=beta,
        best_graph=best_graph,
        best_flips=best_flips,
        best_loss=best_loss,
        success=any(r.success for r in records),
        queries_used=query_iface.queries_used,
        records=tuple(records),
        diagnostics=tuple(diagnostics),
    )


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
    unattacked: beta 0, no records, no queries. So does a graph whose
    eigencentrality does not converge, with its beta and a diagnostic that
    names the reason.
    """
    rounds = _attack_rounds(query_iface, g, y, cfg, clean_observation)
    # an optional batching hint: one target pass over each round's query list
    prefetch = getattr(query_iface, "prefetch", None)
    while True:
        try:
            asked = next(rounds)
        except StopIteration as done:
            return done.value
        if prefetch is not None:
            prefetch(asked)


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


def _attack_share(target, tasks, cfg: AttackConfig) -> list[AttackOutcome]:
    """attack_one's outcome for each (graph, label, clean observation) task,
    each graph through its own ledger, with the graphs attacked in lock-step:
    each round, one target pass answers the query lists of every graph still
    attacking, then each graph resumes."""
    ledgers = [BlackBoxQuery(target, cfg.max_queries, cfg.oracle) for _ in tasks]
    runs = [_attack_rounds(ledger, g, y, cfg, obs) for ledger, (g, y, obs) in zip(ledgers, tasks)]
    outcomes: list[AttackOutcome | None] = [None] * len(tasks)
    live = range(len(tasks))
    while live:
        asks = []
        for i in live:
            try:
                asks.append((i, next(runs[i])))
            except StopIteration as done:
                outcomes[i] = done.value
        BlackBoxQuery.prefetch_many([(ledgers[i], asked) for i, asked in asks])
        live = [i for i, _ in asks]
    return outcomes


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
    tasks = list(zip(graphs, ys, clean_obs))
    if workers > 1:
        # each worker attacks one contiguous share in lock-step
        size = -(-len(tasks) // workers)
        shares = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for share in pool.map(_attack_share, repeat(target), shares, repeat(cfg))
                        for o in share]
    else:
        outcomes = _attack_share(target, tasks, cfg)
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


def summary_to_json(summary: AttackSummary) -> dict:
    doc = {
        "config": asdict(summary.config),
        "clean_accuracy": summary.clean_accuracy,
        "attacked_accuracy": summary.attacked_accuracy,
        "decline_pp": summary.decline_pp,
        "success_rate": summary.success_rate,
        "mean_queries": summary.mean_queries,
        "graphs": [],
    }
    for res in summary.results:
        o = res.outcome
        doc["graphs"].append({
            "graph_id": res.graph_id,
            "true_label": res.true_label,
            "clean_label": res.clean_label,
            "clean_confidence": res.clean_confidence,
            "attacked_label": res.attacked_label,
            "beta": o.beta,
            "best_loss": o.best_loss,
            "success": o.success,
            "queries_used": o.queries_used,
            "best_flips": [asdict(f) for f in o.best_flips],
            "records": [asdict(r) for r in o.records],
        })
    return doc
