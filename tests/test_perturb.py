import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.graph_core import apply_flips
from graphevade.perturb import (
    Budget,
    BudgetExceedsPairs,
    CentralityScores,
    adjacency_matrix,
    eigencentrality,
    plan_eigencentrality,
    plan_random_walk,
    plan_shortest_path,
    ranked_pairs,
    _adjacency,
    _components,
    _dijkstra_lex,
    _shortest_path_flips,
)
from oracles import (
    all_simple_paths,
    brute_force_pair_ranking,
    dominant_eigenspace_cosine,
    power_iteration,
    shortest_path_plans,
)

from conftest import make_graph, random_graph


# --- budget ---------------------------------------------------------------

def test_budget_formula():
    b = Budget(r=3e-4, n=50)
    assert b.beta == 1  # 0.75 floors up to the minimum of one flip
    assert Budget(r=0.01, n=30).beta == 9
    assert Budget(r=2.0 / 900, n=30).beta == 2


def test_budget_exceeds_pairs():
    with pytest.raises(BudgetExceedsPairs):
        Budget(r=1.0, n=3)  # beta 9 > 3 pairs


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(r=0.0, n=5)
    with pytest.raises(ValueError):
        Budget(r=1e-4, n=0)


# --- eigencentrality --------------------------------------------------------

def test_complete_graph_scores():
    g = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    s = eigencentrality(g)
    assert np.allclose(s.x, 0.5, atol=1e-9)
    assert s.lambda_max == pytest.approx(3.0, abs=1e-9)


def test_star_center_dominates():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = eigencentrality(g)
    assert all(s.x[0] > s.x[leaf] for leaf in (1, 2, 3))
    assert s.lambda_max == pytest.approx(math.sqrt(3), abs=1e-6)


def test_matches_jacobi_oracle(rng):
    for _ in range(100):
        g = random_graph(8, 0.4, rng)
        s = eigencentrality(g, tol=1e-13, max_iter=200_000)
        cos = dominant_eigenspace_cosine(adjacency_matrix(g), s.x)
        assert cos >= 1 - 1e-8


def test_permutation_equivariance(rng):
    g = random_graph(7, 0.45, rng)
    perm = rng.permutation(g.n)
    inv = np.argsort(perm)
    relabeled = make_graph(
        g.n,
        [(min(perm[u], perm[v]), max(perm[u], perm[v]), w) for u, v, w in g.edges],
        labels=[g.node_labels[inv[i]] for i in range(g.n)],
        tiers=[g.node_tiers[inv[i]] for i in range(g.n)],
    )
    a = eigencentrality(g).x
    b = eigencentrality(relabeled).x
    assert np.max(np.abs(a - b[perm])) < 1e-9


def test_weight_invariance(rng):
    g = random_graph(8, 0.4, rng)
    reweighted = make_graph(
        g.n,
        [(u, v, w * 7.5 + 0.3) for u, v, w in g.edges],
        labels=g.node_labels,
        tiers=g.node_tiers,
    )
    assert np.allclose(eigencentrality(g).x, eigencentrality(reweighted).x, atol=1e-12)


def test_edgeless_graph_converges():
    g = make_graph(5, [])
    s = eigencentrality(g)
    assert s.lambda_max == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(s.x, 1 / math.sqrt(5))


def test_did_not_converge_raises():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    from graphevade.perturb import DidNotConverge
    with pytest.raises(DidNotConverge):
        eigencentrality(g, tol=1e-15, max_iter=1)


def test_one_did_not_converge_class_with_both_messages():
    from graphevade import learners, perturb
    assert perturb.DidNotConverge is learners.DidNotConverge
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(perturb.DidNotConverge,
                       match=r"^power iteration did not converge within 1 iterations$"):
        eigencentrality(g, tol=1e-15, max_iter=1)
    x = [np.array(p, dtype=float) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
    with pytest.raises(learners.DidNotConverge, match=r"^SMO did not converge within 1 passes$"):
        learners.svm_train(x, [-1, 1, 1, -1], learners.KernelSpec("rbf", gamma=1.0),
                           C=10.0, tol=1e-9, max_passes=1)


def test_centrality_scores_validation():
    with pytest.raises(ValueError):
        CentralityScores(np.array([1.0, 1.0]), 1.0, 1)
    with pytest.raises(ValueError):
        CentralityScores(np.array([-0.6, 0.8]), 1.0, 1)


# --- eigencentrality plans ---------------------------------------------------

def test_star_plan_touches_center():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    plans = plan_eigencentrality(g, Budget(r=1.0 / 16, n=4), k_candidates=1)
    (flip,) = plans[0].flips
    assert 0 in flip.pair


def test_triangle_tie_breaks_lexicographically():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    plans = plan_eigencentrality(g, Budget(r=1.0 / 9, n=3), k_candidates=1)
    (flip,) = plans[0].flips
    assert flip.pair == (0, 1)
    assert flip.direction == "remove"


def test_plans_match_reranking_oracle(rng):
    g = random_graph(10, 0.4, rng)
    budget = Budget(r=3.0 / 100, n=10)
    assert budget.beta == 3
    plans = plan_eigencentrality(g, budget, k_candidates=5)
    assert len(plans) == 5
    oracle_pairs = brute_force_pair_ranking(eigencentrality(g).x)
    for i, plan in enumerate(plans):
        assert len(plan.flips) == 3
        assert [f.pair for f in plan.flips] == oracle_pairs[i:i + 3]
        applied = apply_flips(g, plan.flips)  # applicable in order
        assert len(applied.edge_pairs ^ g.edge_pairs) == 3
    assert len({tuple(f.pair for f in p.flips) for p in plans}) == 5


def test_plan_determinism_and_offset(rng):
    g = random_graph(9, 0.3, rng)
    budget = Budget(r=2.0 / 81, n=9)
    a = plan_eigencentrality(g, budget, k_candidates=3, seed=1)
    b = plan_eigencentrality(g, budget, k_candidates=3, seed=99)
    assert [p.flips for p in a] == [p.flips for p in b]  # rng unused by ranking
    shifted = plan_eigencentrality(g, budget, k_candidates=3, offset=3)
    ranked = ranked_pairs(eigencentrality(g))
    assert [f.pair for f in shifted[0].flips] == ranked[3:3 + budget.beta]


def test_plan_count_clamps_at_pair_list_end():
    g = make_graph(3, [(0, 1)])
    plans = plan_eigencentrality(g, Budget(r=1.0 / 9, n=3), k_candidates=10)
    assert len(plans) == 3  # only 3 windows of size 1 exist


# --- random walk plans -------------------------------------------------------

def test_walk_uniform_over_triangle_edges():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    budget = Budget(r=1.0 / 9, n=3)
    counts = {}
    for seed in range(1000):
        (plan,) = plan_random_walk(g, budget, k_candidates=1, seed=seed)
        # a degenerate walk (all steps equal) legitimately yields no flips
        if plan.flips:
            counts[plan.flips[0].pair] = counts.get(plan.flips[0].pair, 0) + 1
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert abs(counts.get(pair, 0) / 1000 - 1 / 3) < 0.05


def test_walk_on_empty_graph_adds():
    g = make_graph(4, [])
    budget = Budget(r=2.0 / 16, n=4)
    (plan,) = plan_random_walk(g, budget, k_candidates=1, seed=3)
    assert len(plan.flips) == 2
    assert all(f.direction == "add" for f in plan.flips)
    apply_flips(g, plan.flips)


def test_walk_determinism():
    g = make_graph(5, [(0, 1), (2, 3)])
    budget = Budget(r=2.0 / 25, n=5)
    a = plan_random_walk(g, budget, k_candidates=3, seed=11)
    b = plan_random_walk(g, budget, k_candidates=3, seed=11)
    assert [p.flips for p in a] == [p.flips for p in b]


# --- shortest path plans -----------------------------------------------------

def test_dijkstra_lexicographic_ties():
    # two equal-cost routes 1->2: direct (9) and around (2+4+3); the
    # lexicographically smaller node sequence must win
    weights = {(0, 1): 2.0, (1, 2): 9.0, (2, 3): 3.0, (0, 3): 4.0}
    dist, path = _dijkstra_lex(_adjacency(weights, 4), 1, 2)
    assert dist == pytest.approx(9.0)
    assert path == (1, 0, 3, 2)


def test_dijkstra_matches_enumeration_oracle(rng):
    for trial in range(40):
        g = random_graph(7, 0.45, rng, graph_id=f"dj{trial}")
        weights = dict(g.edge_weights)
        s, t = rng.choice(7, size=2, replace=False)
        got = _dijkstra_lex(_adjacency(weights, 7), int(s), int(t))
        paths = all_simple_paths(weights, 7, int(s), int(t))
        if not paths:
            assert got is None
            continue
        best = min(paths)
        assert got is not None
        assert got[0] == pytest.approx(best[0], abs=1e-12)
        assert got[1] == best[1]


def _sp_flips(g, beta, rng):
    adj = _adjacency(g.edge_weights, g.n)
    return _shortest_path_flips(g, beta, rng, adj, _components(adj))


def test_path_graph_shortcut_is_only_flip():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    rng = np.random.default_rng(0)
    flips = _sp_flips(g, beta=1, rng=rng)
    # whichever (s, t) is drawn, a beta-1 plan on a path graph is a single
    # applicable flip; force the (0, 2) pair to check the shortcut branch
    class Fixed:
        def integers(self, n):
            return 1  # index of (0, 2) in the sorted connected-pair list

    flips = _sp_flips(g, beta=1, rng=Fixed())
    assert [f.pair for f in flips] == [(0, 2)]
    assert flips[0].direction == "add"


def test_removal_branch_takes_max_weight_edge_on_path():
    # 4-cycle, (s, t) adjacent via the heavy edge; brute-force enumeration
    # confirms which path is shortest and which edge tops it
    g = make_graph(4, [(0, 1, 2.0), (1, 2, 9.0), (2, 3, 3.0), (0, 3, 4.0)])

    class Fixed:
        def integers(self, n):
            return 3  # (1, 2) in sorted pair list of the 4-cycle

    pairs = sorted({(u, v) for u in range(4) for v in range(u + 1, 4)})
    assert pairs[3] == (1, 2)
    flips = _sp_flips(g, beta=1, rng=Fixed())
    paths = sorted(all_simple_paths(dict(g.edge_weights), 4, 1, 2))
    best_path = paths[0][1]
    heaviest = max(
        ((min(a, b), max(a, b)) for a, b in zip(best_path[:-1], best_path[1:])),
        key=lambda p: g.edge_weights[p],
    )
    assert [f.pair for f in flips] == [heaviest]
    assert flips[0].direction == "remove"


def test_shortest_path_fallback_on_edgeless_graph():
    g = make_graph(4, [])
    budget = Budget(r=1.0 / 16, n=4)
    (plan,) = plan_shortest_path(g, budget, k_candidates=1, seed=5)
    assert plan.strategy == "shortest_path:random_walk_fallback"
    assert all(f.direction == "add" for f in plan.flips)


def test_shortest_path_determinism(rng):
    g = random_graph(8, 0.5, rng)
    budget = Budget(r=3.0 / 64, n=8)
    a = plan_shortest_path(g, budget, k_candidates=4, seed=21)
    b = plan_shortest_path(g, budget, k_candidates=4, seed=21)
    assert [p.flips for p in a] == [p.flips for p in b]


# --- cross-strategy invariants ----------------------------------------------

@pytest.mark.parametrize("planner", [plan_eigencentrality, plan_random_walk, plan_shortest_path])
def test_plans_within_budget_and_applicable(planner, rng):
    for trial in range(10):
        g = random_graph(9, 0.35, rng, graph_id=f"t{trial}")
        budget = Budget(r=3.0 / 81, n=9)
        for plan in planner(g, budget, 4, trial):
            assert len(plan.flips) <= budget.beta
            assert len({(f.pair, f.direction) for f in plan.flips}) == len(plan.flips)
            apply_flips(g, plan.flips)  # raises if any flip is inapplicable


# --- equivalence with the reference planners ---------------------------------

@st.composite
def planner_cases(draw):
    """(graph, beta): 2-12 nodes, edgeless, complete, split in two or random,
    with all-equal, few-valued or arbitrary weights."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(["edgeless", "complete", "two_parts", "random"]))
    if shape == "edgeless":
        chosen = []
    elif shape == "complete":
        chosen = pairs
    elif shape == "two_parts":
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        within = [p for p in pairs if (p[0] < cut) == (p[1] < cut)]
        chosen = draw(st.lists(st.sampled_from(within), unique=True)) if within else []
    else:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    weight = draw(st.sampled_from([
        st.just(1.0),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ]))
    weights = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    g = make_graph(n, [(u, v, w) for (u, v), w in zip(sorted(chosen), weights)])
    beta = draw(st.integers(min_value=1, max_value=min(len(pairs), 8)))
    return g, beta


@settings(max_examples=150, deadline=None)
@given(planner_cases(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_shortest_path_plans_match_reference_planner(case, k, seed):
    g, beta = case
    budget = Budget(r=(beta - 0.5) / (g.n * g.n), n=g.n)
    assert budget.beta == beta
    made = []
    default_rng = np.random.default_rng

    def recorded_rng(s):
        made.append(default_rng(s))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recorded_rng)
        plans = plan_shortest_path(g, budget, k, seed)
    ref_rng = default_rng(seed)
    expected = shortest_path_plans(g, beta, k, ref_rng)
    got = [(tuple((f.u, f.v, f.direction, f.weight) for f in p.flips), p.strategy)
           for p in plans]
    assert got == expected
    (rng,) = made
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(planner_cases())
def test_eigencentrality_and_ranking_match_plain_power_iteration(case):
    g, _ = case
    a = np.zeros((g.n, g.n))
    for u, v, _w in g.edges:
        a[u, v] = a[v, u] = 1.0
    s = eigencentrality(g)
    x, lam, iterations = power_iteration(a)
    assert np.array_equal(s.x, x)  # bit for bit
    assert (s.lambda_max, s.iterations) == (lam, iterations)
    assert ranked_pairs(s) == brute_force_pair_ranking(list(s.x))


def test_ranking_ties_on_equal_scores():
    x = np.full(4, 0.5)
    assert ranked_pairs(CentralityScores(x, 3.0, 1)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1, 2.0), (1, 2, 9.0), (2, 3, 3.0), (0, 3, 4.0)],
                                   [(0, 1), (2, 3)]])
def test_spent_pairs_match_reference_planner(edges):
    # budgets near the pair count leave drawn pairs with nothing left to flip
    g = make_graph(1 + max(max(e[:2]) for e in edges), edges)
    pairs = g.n * (g.n - 1) // 2
    for beta in range(2, pairs + 1):
        budget = Budget(r=(beta - 0.5) / (g.n * g.n), n=g.n)
        for seed in range(25):
            plans = plan_shortest_path(g, budget, 3, seed)
            got = [(tuple((f.u, f.v, f.direction, f.weight) for f in p.flips), p.strategy)
                   for p in plans]
            assert got == shortest_path_plans(g, beta, 3, np.random.default_rng(seed))
