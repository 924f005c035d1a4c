import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.learners import (
    DegenerateData,
    DegenerateLabels,
    DimensionMismatch,
    KernelSpec,
    kkt_max_residual,
    median_heuristic_gamma,
    nb_predict,
    nb_train,
    svm_from_json,
    svm_margins,
    svm_predict,
    svm_to_json,
    svm_train,
)
from graphevade.learners import _as_matrix, _project
from oracles import (
    dict_matrix,
    dict_project,
    dual_objective,
    dual_qp_projected_gradient,
    jacobi_eigh,
    kernel_eval,
    nb_predict_one,
)

from conftest import as_dict, sparse

RBF1 = KernelSpec("rbf", gamma=1.0)
XOR_X = [np.array(p, dtype=float) for p in ((0, 0), (0, 1), (1, 0), (1, 1))]
XOR_Y = [-1, 1, 1, -1]


# --- kernel evaluation --------------------------------------------------------

def test_rbf_same_vector_is_one():
    a = {"u": 1.0, "v": 2.0}
    assert kernel_eval(KernelSpec("rbf", gamma=0.7), a, dict(a)) == 1.0


def test_rbf_closed_form():
    spec = KernelSpec("rbf", gamma=0.5)
    a, b = np.array([0.0]), np.array([math.sqrt(2.0)])
    assert kernel_eval(spec, a, b) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_kernels_match_dense_oracle(rng):
    keys = list("abcdefgh")
    for _ in range(50):
        a = {k: float(rng.normal()) for k in rng.choice(keys, size=4, replace=False)}
        b = {k: float(rng.normal()) for k in rng.choice(keys, size=4, replace=False)}
        da = np.array([a.get(k, 0.0) for k in keys])
        db = np.array([b.get(k, 0.0) for k in keys])
        for spec in (KernelSpec("linear"), KernelSpec("polynomial", degree=3, coef0=1.0),
                     KernelSpec("rbf", gamma=0.3)):
            sparse_val = kernel_eval(spec, a, b)
            dense_val = kernel_eval(spec, da, db)
            assert sparse_val == pytest.approx(dense_val, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        svm_train([np.array([1.0, 2.0]), np.array([1.0])], [1, -1])
    with pytest.raises(DimensionMismatch):
        svm_train([sparse({(0, 1): 1.0}), np.array([1.0])], [1, -1])
    dense = svm_train([np.array([0.0, 1.0]), np.array([1.0, 0.0])], [1, -1])
    with pytest.raises(DimensionMismatch):
        svm_margins(dense, [np.array([1.0])])
    with pytest.raises(DimensionMismatch):
        svm_margins(dense, [sparse({(0, 1): 1.0})])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf")
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("sigmoid")
    with pytest.raises(ValueError):
        KernelSpec("polynomial", degree=0)


# --- median heuristic -----------------------------------------------------------

def test_median_heuristic(rng):
    vectors = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    assert median_heuristic_gamma(vectors) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DegenerateData):
        median_heuristic_gamma([sparse({(0, 1): 0.0}) for _ in range(3)])
    with pytest.raises(ValueError):
        median_heuristic_gamma([np.array([1.0])])


def test_median_scaling_homogeneity(rng):
    vectors = [rng.normal(size=3) for _ in range(8)]
    g1 = median_heuristic_gamma(vectors)
    g2 = median_heuristic_gamma([4.0 * v for v in vectors])
    assert g2 == pytest.approx(g1 / 16.0, rel=1e-9)


def test_median_sampled_branch_deterministic(rng):
    vectors = [np.array([float(v)]) for v in rng.normal(size=600)]
    a = median_heuristic_gamma(vectors, max_exact=512)
    b = median_heuristic_gamma(vectors, max_exact=512)
    assert a == b
    exact = median_heuristic_gamma(vectors, max_exact=600)
    assert a == pytest.approx(exact, rel=0.05)


# --- SVM training ----------------------------------------------------------------

def test_two_point_symmetric_problem():
    model = svm_train([np.array([0.0]), np.array([2.0])], [-1, 1],
                      KernelSpec("linear"), C=10.0, tol=1e-6)
    # boundary at x = 1: f(x) = x - 1
    assert svm_margins(model, [np.array([1.0])])[0] == pytest.approx(0.0, abs=1e-6)
    assert len(model.alphas) == 2
    assert model.alphas[0] == pytest.approx(model.alphas[1], rel=1e-9)
    for x, y in ((np.array([0.0]), -1), (np.array([2.0]), 1)):
        label, _, margin = svm_predict(model, x)
        assert label == y
        assert abs(margin) == pytest.approx(1.0, abs=1e-5)


def test_xor_rbf_separates_linear_cannot():
    rbf = svm_train(XOR_X, XOR_Y, RBF1, C=10.0, tol=1e-5)
    preds = [svm_predict(rbf, x)[0] for x in XOR_X]
    assert preds == XOR_Y
    lin = svm_train(XOR_X, XOR_Y, KernelSpec("linear"), C=10.0)
    lin_preds = [svm_predict(lin, x)[0] for x in XOR_X]
    assert lin_preds != XOR_Y


def _random_problem(rng, n=20, separable=True):
    half = n // 2
    if separable:
        a = rng.normal(loc=-2.0, size=(half, 3))
        b = rng.normal(loc=2.0, size=(n - half, 3))
    else:
        a = rng.normal(size=(half, 3))
        b = rng.normal(loc=0.5, size=(n - half, 3))
    x = [row for row in np.vstack([a, b])]
    y = [-1] * half + [1] * (n - half)
    return x, y


@pytest.mark.parametrize("separable", [True, False])
@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_dual_objective_matches_pg_oracle(kind, separable, rng):
    x, y = _random_problem(rng, separable=separable)
    spec = KernelSpec(kind, gamma=0.5) if kind == "rbf" else KernelSpec(kind)
    model = svm_train(x, y, spec, C=1.0, tol=1e-5, max_passes=500)
    xd = np.vstack(x)
    if kind == "rbf":
        sq = np.sum(xd * xd, axis=1)
        k = np.exp(-0.5 * np.clip(sq[:, None] + sq[None, :] - 2 * xd @ xd.T, 0, None))
    else:
        k = xd @ xd.T
    alpha = np.zeros(len(y))
    alpha[list(model.sv_indices)] = model.alphas
    smo_obj = dual_objective(alpha, k, np.asarray(y, float))
    _, pg_obj = dual_qp_projected_gradient(k, np.asarray(y, float), 1.0)
    assert smo_obj == pytest.approx(pg_obj, abs=1e-4)
    assert model.objective_path[-1] == pytest.approx(smo_obj, abs=1e-9)


def test_kkt_residuals_and_feasibility(rng):
    for separable in (True, False):
        x, y = _random_problem(rng, n=24, separable=separable)
        model = svm_train(x, y, RBF1, C=1.0, tol=1e-3, max_passes=500)
        assert kkt_max_residual(model, x, y) <= 1e-3 + 1e-9
        assert abs(float(np.sum(model.alphas * model.sv_labels))) <= 1e-9
        assert np.all(model.alphas >= 0)
        assert np.all(model.alphas <= 1.0 + 1e-12)


def test_objective_nondecreasing(rng):
    x, y = _random_problem(rng, n=30, separable=False)
    model = svm_train(x, y, RBF1, C=1.0, tol=1e-4, max_passes=500)
    path = np.array(model.objective_path)
    assert np.all(np.diff(path) >= -1e-9)


def test_training_determinism(rng):
    x, y = _random_problem(rng, n=16, separable=False)
    a = svm_train(x, y, RBF1, C=1.0, seed=5)
    b = svm_train(x, y, RBF1, C=1.0, seed=5)
    assert a.bias == b.bias
    assert np.array_equal(a.alphas, b.alphas)
    assert (a.platt_a, a.platt_b) == (b.platt_a, b.platt_b)


def test_hard_margin_infinite_c():
    x = [np.array([-2.0]), np.array([-1.0]), np.array([1.0]), np.array([2.0])]
    y = [-1, -1, 1, 1]
    model = svm_train(x, y, KernelSpec("linear"), C=math.inf, tol=1e-6)
    assert all(svm_predict(model, xi)[0] == yi for xi, yi in zip(x, y))
    assert math.isinf(model.C)


def test_duplicate_points_flat_direction():
    # identical vectors with equal labels exercise the eta <= 0 branch
    x = [np.array([0.0]), np.array([0.0]), np.array([2.0]), np.array([2.0])]
    y = [-1, -1, 1, 1]
    model = svm_train(x, y, KernelSpec("linear"), C=5.0, tol=1e-6)
    assert all(svm_predict(model, xi)[0] == yi for xi, yi in zip(x, y))


def test_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        svm_train([np.array([0.0]), np.array([1.0])], [1, 1], KernelSpec("linear"))
    with pytest.raises(ValueError):
        svm_train([np.array([0.0]), np.array([1.0])], [0, 1], KernelSpec("linear"))


def test_svm_did_not_converge_raises():
    from graphevade.learners import DidNotConverge
    with pytest.raises(DidNotConverge):
        svm_train(XOR_X, XOR_Y, RBF1, C=10.0, tol=1e-9, max_passes=1)


def test_probability_monotone_in_margin(rng):
    x, y = _random_problem(rng, n=20, separable=False)
    model = svm_train(x, y, RBF1, C=1.0)
    margins = np.linspace(-3, 3, 31)
    probs = [svm_predict(model, xi)[1] for xi in x]
    assert all(0.0 <= p <= 1.0 for p in probs)
    from graphevade.learners import svm_probability
    ps = [svm_probability(model, m) for m in margins]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))


def test_rbf_gram_psd(rng):
    x = [rng.normal(size=4) for _ in range(20)]
    sq = np.array([v @ v for v in x])
    xd = np.vstack(x)
    k = np.exp(-0.8 * np.clip(sq[:, None] + sq[None, :] - 2 * xd @ xd.T, 0, None))
    evals, _ = jacobi_eigh(k)
    assert evals.min() >= -1e-8


def test_sparse_training_and_unseen_keys(rng):
    # keys (level, id); id 7 sits at two levels
    ka, kb, kc, kd, kz = (0, 7), (0, 3), (1, 7), (2, 5), (3, 99)
    x = [sparse(v) for v in ({ka: 1.0, kb: 0.5}, {ka: 0.9, kb: 0.7}, {kc: 1.2}, {kc: 1.0, kd: 0.2})]
    y = [1, 1, -1, -1]
    model = svm_train(x, y, KernelSpec("rbf", gamma=0.5), C=10.0)
    assert all(svm_predict(model, xi)[0] == yi for xi, yi in zip(x, y))
    # unseen keys only add squared distance; exact per kernel_eval
    probe = sparse({ka: 1.0, kz: 3.0})
    expected = sum(
        a * yl * kernel_eval(model.spec, as_dict(sv), as_dict(probe))
        for sv, a, yl in zip(model.support_vectors, model.alphas, model.sv_labels)
    ) + model.bias
    assert svm_margins(model, [probe])[0] == pytest.approx(expected, rel=1e-12)


def _json_roundtrip(model):
    return svm_from_json(json.loads(json.dumps(svm_to_json(model))))


def test_model_persistence_roundtrip(rng):
    x, y = _random_problem(rng, n=14, separable=True)
    model = svm_train(x, y, KernelSpec("rbf", gamma=0.4), C=2.0)
    loaded = _json_roundtrip(model)
    probes = [rng.normal(size=3) for _ in range(10)]
    assert np.array_equal(svm_margins(model, probes), svm_margins(loaded, probes))
    assert loaded.spec == model.spec
    a, b = (0, 2**64 - 1), (1, 5)
    sparse_model = svm_train([sparse(v) for v in ({a: 1.0}, {b: 1.0}, {a: 0.5, b: 0.5}, {b: 2.0})],
                             [1, -1, 1, -1], KernelSpec("linear"), C=1.0)
    again = _json_roundtrip(sparse_model)
    probe = sparse({a: 0.3, b: 0.4})
    assert svm_margins(again, [probe])[0] == pytest.approx(
        svm_margins(sparse_model, [probe])[0], rel=1e-12)


# --- naive Bayes -----------------------------------------------------------------

def test_nb_separated_clusters():
    x = [np.array([v]) for v in (-3.0, -2.5, -3.5, 3.0, 2.5, 3.5)]
    y = [-1, -1, -1, 1, 1, 1]
    model = nb_train(x, y, smoothing=1e-9)
    assert all(label == yi for label, yi in zip(nb_predict(model, x)[0], y))


def test_nb_symmetric_probability():
    x = [np.array([-1.0]), np.array([1.0])]
    model = nb_train(x, [1, -1], smoothing=1e-6)
    (label,), (p,) = nb_predict(model, [np.array([0.0])])
    assert p == pytest.approx(0.5, abs=1e-9)


def test_nb_matches_hand_bayes():
    # class +1 at {0, 2} (mean 1, var 1), class -1 at {5, 7} (mean 6, var 1)
    x = [np.array([0.0]), np.array([2.0]), np.array([5.0]), np.array([7.0])]
    y = [1, 1, -1, -1]
    smoothing = 1e-9
    model = nb_train(x, y, smoothing=smoothing)
    var = 1.0 + smoothing * 1.0
    probe = 2.5

    def dens(mu):
        return math.exp(-((probe - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    expected = 0.5 * dens(1.0) / (0.5 * dens(1.0) + 0.5 * dens(6.0))
    (label,), (p,) = nb_predict(model, [np.array([probe])])
    assert p == pytest.approx(expected, rel=1e-9)
    assert label == 1


def test_nb_validation():
    with pytest.raises(DegenerateLabels):
        nb_train([np.array([0.0])], [1])
    with pytest.raises(ValueError):
        nb_train([np.array([0.0]), np.array([1.0])], [1, -1], smoothing=0.0)


def test_nb_priors_and_variances():
    x = [np.array([0.0]), np.array([1.0]), np.array([9.0])]
    model = nb_train(x, [1, 1, -1], smoothing=1e-3)
    assert model.priors.sum() == pytest.approx(1.0)
    assert np.all(model.variances > 0)


# --- sparse rows against the dict-keyed code ------------------------------------

# ids include both ends of the uint64 range; id 7 can sit at several levels
_KEYS = st.tuples(st.integers(0, 3), st.sampled_from([0, 7, 8, 2**63, 2**64 - 1]))
_VALUES = st.integers(1, 9) | st.floats(-4.0, 4.0, allow_nan=False, width=32)


def _sparse_dicts(min_size):
    return st.lists(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=8),
                    min_size=min_size, max_size=6)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(_sparse_dicts(1), _sparse_dicts(0))
def test_matrix_and_projection_match_dict_code(train, queries):
    x, keys = _as_matrix([sparse(d) for d in train])
    want_x, want_keys = dict_matrix(train)
    assert list(zip(keys.levels.tolist(), keys.ids.tolist())) == list(want_keys)
    assert _bits(x) == _bits(want_x)
    for batch in (train, queries):
        xq, res = _project([sparse(d) for d in batch], keys)
        want_xq, want_res = dict_project(batch, want_keys)
        assert xq.shape == want_xq.shape
        assert _bits(xq) == _bits(want_xq)
        assert _bits(res) == _bits(want_res)


def test_projection_with_an_id_at_two_levels():
    # id 5 at levels 0 and 1 forces the lookup off the single sorted-id search
    _, shared = _as_matrix([sparse({(0, 5): 1, (2, 9): 1}), sparse({(1, 5): 1})])
    probe = {(1, 5): 2, (3, 5): 1, (0, 9): 4, (0, 5): 3}
    xq, res = _project([sparse(probe)], shared)
    want_xq, want_res = dict_project([probe], ((0, 5), (1, 5), (2, 9)))
    assert _bits(xq) == _bits(want_xq) and _bits(res) == _bits(want_res)
    assert xq.tolist() == [[3.0, 2.0, 0.0]] and res.tolist() == [17.0]
    # unique ids: a known id at a level the model never saw is unseen
    _, unique = _as_matrix([sparse({(0, 5): 1, (2, 9): 1})])
    xq, res = _project([sparse(probe)], unique)
    assert xq.tolist() == [[3.0, 0.0]] and res.tolist() == [4.0 + 1.0 + 16.0]


@settings(max_examples=100, deadline=None)
@given(_sparse_dicts(2), _sparse_dicts(1), st.booleans())
def test_batched_nb_predict_matches_per_vector_formula(train, queries, dense):
    y = [1 if i % 2 == 0 else -1 for i in range(len(train))]
    if dense:
        width = max(len(d) for d in train)
        train_x = [np.array(list(d.values()) + [0.0] * (width - len(d)), dtype=float)
                   for d in train]
        query_x = train_x + [np.resize(np.array(list(d.values()), dtype=float), width)
                             for d in queries]
        rows = np.vstack(query_x)
    else:
        train_x = [sparse(d) for d in train]
        query_x = [sparse(d) for d in train + queries]
        rows, _ = dict_project(train + queries, dict_matrix(train)[1])
    model = nb_train(train_x, y)
    labels, probs = nb_predict(model, query_x)
    want = [nb_predict_one(model.means, model.variances, model.priors, row) for row in rows]
    assert labels.tolist() == [lab for lab, _ in want]
    assert _bits(probs) == _bits([p for _, p in want])
