"""Output checks made apart from the program.

Each check recomputes a claim of ``attack_testset`` from its inputs with the
benchmark's own arithmetic, and calls into the program only to build a graph
and to ask a fresh black-box query. Nothing is compared with a stored copy of
an earlier run's output.
"""

from __future__ import annotations

import math

_TOL = 1e-12


def flip_budget(r: float, n: int) -> int:
    """beta = max(1, ceil(r * n^2)), as the paper defines the flip budget."""
    return max(1, math.ceil(r * n * n))


def rebuild_edges(g, flips) -> dict:
    """Edge map {(u, v): weight} of g after applying flips in order.

    Raises ValueError when a flip does not apply to the running edge set.
    """
    edges = {(u, v): w for u, v, w in g.edges}
    for f in flips:
        pair = (f.u, f.v)
        if f.direction == "add":
            if pair in edges:
                raise ValueError(f"add on existing edge {pair}")
            if f.weight is not None:
                edges[pair] = f.weight
            else:
                edges[pair] = sum(edges.values()) / len(edges) if edges else 1.0
        elif f.direction == "remove":
            if pair not in edges:
                raise ValueError(f"remove on missing edge {pair}")
            del edges[pair]
        else:
            raise ValueError(f"unknown flip direction {f.direction!r}")
    return edges


def _loss(label: int, confidence: float, y: int) -> float:
    p_true = confidence if label == y else 1.0 - confidence
    return 1.0 - p_true


def _graph_problems(g, y, res, cfg, query_fresh, LabeledGraph) -> list[str]:
    o = res.outcome
    problems = []
    if res.graph_id != g.graph_id or res.true_label != y:
        return [f"result {res.graph_id} does not match graph {g.graph_id}"]
    beta = flip_budget(cfg.r, g.n)
    if o.beta != beta:
        problems.append(f"beta {o.beta} != {beta}")
    if not (len(o.records) <= o.queries_used <= cfg.max_queries):
        problems.append(f"{len(o.records)} records, {o.queries_used} queries, "
                        f"max {cfg.max_queries}")
    original = {(u, v) for u, v, _ in g.edges}
    for rec in o.records:
        try:
            edges = rebuild_edges(g, rec.flips)
        except ValueError as exc:
            problems.append(f"record {rec.query_index}: {exc}")
            continue
        if len(original ^ set(edges)) > beta:
            problems.append(f"record {rec.query_index}: "
                            f"{len(original ^ set(edges))} flips > beta {beta}")
        if not math.isclose(rec.loss, _loss(rec.label, rec.confidence, y),
                            rel_tol=0.0, abs_tol=_TOL):
            problems.append(f"record {rec.query_index}: loss {rec.loss} != 1 - p(y)")
        if rec.success != (rec.label != y):
            problems.append(f"record {rec.query_index}: success flag disagrees with label")
        if rec.success:
            adv = LabeledGraph(g.graph_id, g.node_labels, g.node_tiers,
                               tuple((u, v, w) for (u, v), w in edges.items()))
            if query_fresh(adv)[0] == y:
                problems.append(f"record {rec.query_index}: claimed success "
                                "does not flip the label on a fresh query")
    if o.success != any(rec.success for rec in o.records):
        problems.append("outcome success flag disagrees with its records")
    best = o.best_graph
    if best.node_labels != g.node_labels or best.node_tiers != g.node_tiers:
        problems.append("best graph changed node labels or tiers")
    try:
        best_edges = rebuild_edges(g, o.best_flips)
    except ValueError as exc:
        problems.append(f"best flips: {exc}")
    else:
        if {(u, v) for u, v, _ in best.edges} != set(best_edges):
            problems.append("best graph is not the original with its best flips")
        if len(original ^ set(best_edges)) > beta:
            problems.append(f"best graph has {len(original ^ set(best_edges))} "
                            f"flips > beta {beta}")
    clean_label, clean_conf = query_fresh(g)
    if clean_label != res.clean_label or (
            cfg.oracle == "score" and not math.isclose(
                clean_conf, res.clean_confidence, rel_tol=0.0, abs_tol=_TOL)):
        problems.append("clean prediction differs from a fresh query")
    return problems


def attacked_label(res) -> int:
    """Label of the first max-loss record; the clean label when nothing was queried."""
    records = res.outcome.records
    if not records:
        return res.clean_label
    best = records[0]
    for rec in records[1:]:
        if rec.loss > best.loss:
            best = rec
    return best.label


def check_cell(graphs, labels, target, cfg, summary, BlackBoxQuery, LabeledGraph):
    """Check one cell's summary against its inputs.

    Returns (per-graph problem lists, cell-level problems, accuracy drop in pp
    recomputed from the per-graph labels). A cell-level problem fails every
    graph of the cell.
    """
    def query_fresh(graph):
        return BlackBoxQuery(target, 1, cfg.oracle).query(graph)

    if len(summary.results) != len(graphs):
        return [], [f"{len(summary.results)} results for {len(graphs)} graphs"], None
    per_graph = [
        _graph_problems(g, y, res, cfg, query_fresh, LabeledGraph)
        for g, y, res in zip(graphs, labels, summary.results)
    ]
    n = len(graphs)
    clean_acc = sum(res.clean_label == y for res, y in zip(summary.results, labels)) / n
    attacked_acc = sum(attacked_label(res) == y
                       for res, y in zip(summary.results, labels)) / n
    cell = []
    for res in summary.results:
        if res.attacked_label != attacked_label(res):
            cell.append(f"{res.graph_id}: attacked label is not the max-loss record's")
    if not math.isclose(summary.clean_accuracy, clean_acc, rel_tol=0.0, abs_tol=_TOL):
        cell.append(f"clean accuracy {summary.clean_accuracy} != {clean_acc}")
    if not math.isclose(summary.attacked_accuracy, attacked_acc, rel_tol=0.0, abs_tol=_TOL):
        cell.append(f"attacked accuracy {summary.attacked_accuracy} != {attacked_acc}")
    drop_pp = (clean_acc - attacked_acc) * 100.0
    if not math.isclose(-summary.decline_pp, drop_pp, rel_tol=0.0, abs_tol=1e-9):
        cell.append(f"decline {summary.decline_pp} pp != -{drop_pp} pp")
    return per_graph, cell, drop_pp
