import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphevade.perturb as perturb_module
from graphevade.graph_core import apply_flips, graph_hash
from graphevade.perturb import (
    BudgetExceedsPairs,
    CentralityScores,
    DidNotConverge,
    adjacency_matrix,
    eigencentrality,
    flip_budget,
    plan_eigencentrality,
    plan_mutations,
    plan_random_walk,
    plan_shortest_path,
    _adjacency,
    _components,
    _dijkstra_lex,
    _flip_for_pair,
    _shortest_path_flips,
)
from oracles import (
    all_simple_paths,
    brute_force_pair_ranking,
    dominant_eigenspace_cosine,
    mutation_plans,
    power_iteration,
    shortest_path_plans,
)

from conftest import make_graph, random_graph


def flip_pair(flip):
    return (flip.u, flip.v)


# --- budget ---------------------------------------------------------------

def test_budget_formula():
    assert flip_budget(3e-4, 50) == 1  # 0.75 floors up to the minimum of one flip
    assert flip_budget(0.01, 30) == 9
    assert flip_budget(2.0 / 900, 30) == 2


def test_budget_exceeds_pairs():
    with pytest.raises(BudgetExceedsPairs):
        flip_budget(1.0, 3)  # beta 9 > 3 pairs


def test_budget_validation():
    with pytest.raises(ValueError):
        flip_budget(0.0, 5)
    with pytest.raises(ValueError):
        flip_budget(1e-4, 0)


# --- eigencentrality --------------------------------------------------------

def rayleigh(g, scores):
    """x·A·x of the unit centrality vector: A's dominant eigenvalue when x is
    its eigenvector."""
    return float(scores.x @ adjacency_matrix(g) @ scores.x)


def test_complete_graph_scores():
    g = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    s = eigencentrality(g)
    assert np.allclose(s.x, 0.5, atol=1e-9)
    assert rayleigh(g, s) == pytest.approx(3.0, abs=1e-9)


def test_star_center_dominates():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = eigencentrality(g)
    assert all(s.x[0] > s.x[leaf] for leaf in (1, 2, 3))
    assert rayleigh(g, s) == pytest.approx(math.sqrt(3), abs=1e-6)


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
    assert rayleigh(g, s) == pytest.approx(0.0, abs=1e-12)
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
        CentralityScores(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CentralityScores(np.array([-0.6, 0.8]))


def oracle_steps(a):
    """The step at which the oracle's power iteration converges: the least
    max_iter for which it returns a vector."""
    lo, hi = 1, 1
    while power_iteration(a, max_iter=hi) is None:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if power_iteration(a, max_iter=mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


def assert_matches_oracle_at(g, max_iter):
    expected = power_iteration(adjacency_matrix(g), max_iter=max_iter)
    if expected is None:
        with pytest.raises(DidNotConverge):
            eigencentrality(g, max_iter=max_iter)
    else:
        assert np.array_equal(eigencentrality(g, max_iter=max_iter).x, expected)


def test_blocked_iteration_matches_oracle_at_every_cut(rng):
    # block edges (31-33, 64-65) and the oracle's own convergence step k and k - 1
    for trial in range(12):
        g = random_graph(int(rng.integers(2, 16)), 0.3, rng, graph_id=f"t{trial}")
        k = oracle_steps(adjacency_matrix(g))
        for max_iter in (1, 31, 32, 33, 64, 65, k - 1, k):
            assert_matches_oracle_at(g, max_iter)


def test_near_tied_components_cross_many_blocks_bit_for_bit():
    # a 10-cycle (eigenvalue 2) beside a 20-node path (2 cos(pi/21)): the
    # second component decays by a ratio of about 0.993 per step
    cycle = [(i, i + 1) for i in range(9)] + [(0, 9)]
    path = [(10 + i, 11 + i) for i in range(19)]
    g = make_graph(30, cycle + path)
    k = oracle_steps(adjacency_matrix(g))
    assert k > 2000
    for max_iter in (k - 1, k, 100_000):
        assert_matches_oracle_at(g, max_iter)


# --- eigencentrality plans ---------------------------------------------------

def test_star_plan_touches_center():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    plans = plan_eigencentrality(g, 1, eigencentrality(g), k_candidates=1)
    (flip,) = plans[0]
    assert 0 in flip_pair(flip)


def test_triangle_tie_breaks_lexicographically():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    plans = plan_eigencentrality(g, 1, eigencentrality(g), k_candidates=1)
    (flip,) = plans[0]
    assert flip_pair(flip) == (0, 1)
    assert flip.direction == "remove"


def test_plans_match_reranking_oracle(rng):
    g = random_graph(10, 0.4, rng)
    beta = flip_budget(3.0 / 100, 10)
    assert beta == 3
    plans = plan_eigencentrality(g, beta, eigencentrality(g), k_candidates=5)
    assert len(plans) == 5
    oracle_pairs = brute_force_pair_ranking(eigencentrality(g).x)
    for i, plan in enumerate(plans):
        assert len(plan) == 3
        assert [flip_pair(f) for f in plan] == oracle_pairs[i:i + 3]
        applied = apply_flips(g, plan)  # applicable in order
        assert len(applied.edge_pairs ^ g.edge_pairs) == 3
    assert len({tuple(flip_pair(f) for f in p) for p in plans}) == 5


def test_plan_determinism_and_offset(rng):
    g = random_graph(9, 0.3, rng)
    beta = 2
    shifted = plan_eigencentrality(g, beta, eigencentrality(g), k_candidates=3, offset=3)
    ranked = eigencentrality(g).ranking
    assert [flip_pair(f) for f in shifted[0]] == list(ranked[3:3 + beta])


def test_plan_count_clamps_at_pair_list_end():
    g = make_graph(3, [(0, 1)])
    plans = plan_eigencentrality(g, 1, eigencentrality(g), k_candidates=10)
    assert len(plans) == 3  # only 3 windows of size 1 exist


@pytest.mark.parametrize("where", ["start", "middle", "end", "past_end"])
def test_plans_are_windows_over_one_flip_per_ranked_pair(where, rng):
    g = random_graph(9, 0.4, rng)
    scores = eigencentrality(g)
    ranking = scores.ranking
    beta, k = 3, 5
    offset = {"start": 0, "middle": len(ranking) // 2,
              "end": len(ranking) - beta - 1, "past_end": len(ranking) - beta + 1}[where]
    plans = plan_eigencentrality(g, beta, scores, k_candidates=k, offset=offset)
    assert len(plans) == {"start": k, "middle": k, "end": 2, "past_end": 0}[where]
    assert plans == [tuple(_flip_for_pair(g, p, g.mean_weight)
                           for p in ranking[offset + i : offset + i + beta])
                     for i in range(len(plans))]


# --- random walk plans -------------------------------------------------------

def test_walk_uniform_over_triangle_edges():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    counts = {}
    for seed in range(1000):
        (plan,) = plan_random_walk(g, 1, k_candidates=1, seed=seed)
        # a degenerate walk (all steps equal) legitimately yields no flips
        if plan:
            counts[flip_pair(plan[0])] = counts.get(flip_pair(plan[0]), 0) + 1
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert abs(counts.get(pair, 0) / 1000 - 1 / 3) < 0.05


def test_walk_on_empty_graph_adds():
    g = make_graph(4, [])
    (plan,) = plan_random_walk(g, 2, k_candidates=1, seed=3)
    assert len(plan) == 2
    assert all(f.direction == "add" for f in plan)
    apply_flips(g, plan)


def test_walk_determinism():
    g = make_graph(5, [(0, 1), (2, 3)])
    a = plan_random_walk(g, 2, k_candidates=3, seed=11)
    b = plan_random_walk(g, 2, k_candidates=3, seed=11)
    assert a == b


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
    assert [flip_pair(f) for f in flips] == [(0, 2)]
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
    assert [flip_pair(f) for f in flips] == [heaviest]
    assert flips[0].direction == "remove"


def test_shortest_path_fallback_on_edgeless_graph():
    g = make_graph(4, [])
    (plan,) = plan_shortest_path(g, 1, k_candidates=1, seed=5)
    assert [plan] == plan_random_walk(g, 1, k_candidates=1, seed=5)
    assert all(f.direction == "add" for f in plan)


def test_shortest_path_determinism(rng):
    g = random_graph(8, 0.5, rng)
    a = plan_shortest_path(g, 3, k_candidates=4, seed=21)
    b = plan_shortest_path(g, 3, k_candidates=4, seed=21)
    assert a == b


# --- mutations of the incumbent -----------------------------------------------

def test_mutations_extend_the_incumbent_by_one_flip(rng):
    g = random_graph(8, 0.4, rng)
    (best_flips,) = plan_eigencentrality(g, 1, eigencentrality(g))
    best = apply_flips(g, best_flips)
    muts = plan_mutations(g, best, best_flips, 3, 12, seed=4)
    assert len(muts) == 12
    assert muts == plan_mutations(g, best, best_flips, 3, 12, seed=4)
    for flips in muts:
        assert flips[:-1] == best_flips
        flip = flips[-1]
        assert flip.direction == ("remove" if best.has_edge(*flip_pair(flip)) else "add")
        if flip.direction == "add":
            assert flip.weight == g.mean_weight
        apply_flips(best, flips[-1:])  # applicable to the incumbent


def test_mutations_at_budget_only_revert(rng):
    g = random_graph(8, 0.4, rng)
    beta = 2
    (best_flips,) = plan_eigencentrality(g, beta, eigencentrality(g))
    best = apply_flips(g, best_flips)
    changed = g.edge_pairs ^ best.edge_pairs
    assert len(changed) == beta
    for flips in plan_mutations(g, best, best_flips, beta, 10, seed=9):
        assert flip_pair(flips[-1]) in changed
        assert len(apply_flips(g, flips).edge_pairs ^ g.edge_pairs) == beta - 1


# --- cross-strategy invariants ----------------------------------------------

@pytest.mark.parametrize("planner", [plan_eigencentrality, plan_random_walk, plan_shortest_path])
def test_plans_within_budget_and_applicable(planner, rng):
    for trial in range(10):
        g = random_graph(9, 0.35, rng, graph_id=f"t{trial}")
        beta = flip_budget(3.0 / 81, 9)
        plans = (planner(g, beta, eigencentrality(g), 4) if planner is plan_eigencentrality
                 else planner(g, beta, 4, trial))
        for plan in plans:
            assert len(plan) <= beta
            assert len({(flip_pair(f), f.direction) for f in plan}) == len(plan)
            apply_flips(g, plan)  # raises if any flip is inapplicable


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
    assert flip_budget((beta - 0.5) / (g.n * g.n), g.n) == beta
    made = []
    default_rng = np.random.default_rng

    def recorded_rng(s):
        made.append(default_rng(s))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recorded_rng)
        plans = plan_shortest_path(g, beta, k, seed)
    ref_rng = default_rng(seed)
    expected = shortest_path_plans(g, beta, k, ref_rng)
    got = [tuple((f.u, f.v, f.direction, f.weight) for f in p) for p in plans]
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
    assert np.array_equal(s.x, power_iteration(a))  # bit for bit
    assert list(s.ranking) == brute_force_pair_ranking(list(s.x))


def test_ranking_ties_on_equal_scores():
    x = np.full(4, 0.5)
    assert CentralityScores(x).ranking == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=1e-3, max_value=4.0),
                min_size=2, max_size=26).filter(any))
def test_ranking_orders_pairs_as_a_three_key_lexsort(raw):
    # exact ties (repeated values, zeros, and a zero times anything) must
    # break by (u, v) as in a sort on (-x_u * x_v, u, v)
    x = np.asarray(raw) / np.linalg.norm(raw)
    iu, iv = np.triu_indices(len(x), 1)
    order = np.lexsort((iv, iu, -x[iu] * x[iv]))
    assert CentralityScores(x).ranking == tuple(zip(iu[order].tolist(), iv[order].tolist()))


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1, 2.0), (1, 2, 9.0), (2, 3, 3.0), (0, 3, 4.0)],
                                   [(0, 1), (2, 3)]])
def test_spent_pairs_match_reference_planner(edges):
    # budgets near the pair count leave drawn pairs with nothing left to flip
    g = make_graph(1 + max(max(e[:2]) for e in edges), edges)
    pairs = g.n * (g.n - 1) // 2
    for beta in range(2, pairs + 1):
        assert flip_budget((beta - 0.5) / (g.n * g.n), g.n) == beta
        for seed in range(25):
            plans = plan_shortest_path(g, beta, 3, seed)
            got = [tuple((f.u, f.v, f.direction, f.weight) for f in p) for p in plans]
            assert got == shortest_path_plans(g, beta, 3, np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(planner_cases(), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=2**32), st.data())
def test_mutations_match_one_flip_per_draw(case, count, seed, data):
    # each distinct drawn pair's flip is built once and its mutation shared
    # by every draw of it; draws and plans stay those of one flip per draw
    g, beta = case
    spent = data.draw(st.integers(min_value=0, max_value=beta))  # beta: at budget
    best_flips = plan_eigencentrality(g, spent, eigencentrality(g))[0] if spent else ()
    best = apply_flips(g, best_flips)
    made, built = [], []
    default_rng, flip_for_pair = np.random.default_rng, perturb_module._flip_for_pair

    def recorded_rng(s):
        made.append(default_rng(s))
        return made[-1]

    def counted_flip(graph, pair, weight):
        built.append(pair)
        return flip_for_pair(graph, pair, weight)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recorded_rng)
        mp.setattr(perturb_module, "_flip_for_pair", counted_flip)
        muts = plan_mutations(g, best, best_flips, beta, count, seed)
    ref_rng = default_rng(seed)
    assert muts == mutation_plans(g, best, best_flips, beta, count, ref_rng)
    (rng,) = made
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert built == list(dict.fromkeys((f[-1].u, f[-1].v) for f in muts))
    for a in muts:
        assert all(b is a for b in muts if b == a)  # a repeat is the same plan


@settings(max_examples=100, deadline=None)
@given(planner_cases(), st.integers(min_value=0, max_value=2**32), st.data())
def test_mutation_from_the_original_equals_one_flip_on_the_incumbent(case, seed, data):
    # the attack builds each mutation as apply_flips(g, flips); over a chain
    # of incumbents that graph must be the incumbent plus the last flip
    g, beta = case
    best, best_flips = g, ()
    for step in range(4):
        muts = plan_mutations(g, best, best_flips, beta, 3, seed + step)
        for flips in muts:
            assert flips[:-1] == best_flips
            direct = apply_flips(g, flips)
            stepped = apply_flips(apply_flips(g, flips[:-1]), flips[-1:])
            assert ([(u, v, w.hex()) for u, v, w in direct.edges]
                    == [(u, v, w.hex()) for u, v, w in stepped.edges])
            assert graph_hash(direct) == graph_hash(stepped)
        best_flips = data.draw(st.sampled_from(muts))
        best = apply_flips(best, best_flips[-1:])
