import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphevade.learners import (
    DegenerateData,
    DegenerateLabels,
    KernelSpec,
    SparseRows,
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
import graphevade.learners as learners_module
from graphevade.learners import DidNotConverge, TrainedSvm, _as_matrix, _project
from graphevade.synth_data import GeneratorConfig, generate
from graphevade.target_lcd import _unit_counts
from graphevade.wl_features import wl_feature_vectors
from oracles import (
    dict_matrix,
    dict_project,
    dual_objective,
    dual_qp_projected_gradient,
    jacobi_eigh,
    kernel_eval,
    linear_margin,
    nb_predict_one,
    platt_fit,
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


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.4),
                                  KernelSpec("polynomial", degree=3, coef0=1.0)])
def test_dense_vector_is_the_sparse_row_at_level_zero(spec, rng):
    """Every entry point reads a dense vector as the SparseVector whose entry j
    sits at key (0, j), bit for bit."""
    x, y = _random_problem(rng, n=14, separable=False)
    probes = [rng.normal(size=3) for _ in range(6)]

    def row(v):
        return sparse({(0, j): float(t) for j, t in enumerate(v)})

    dense, rows = svm_train(x, y, spec, C=2.0), svm_train([row(v) for v in x], y, spec, C=2.0)
    assert _bits(dense.alphas) == _bits(rows.alphas)
    assert ([v.hex() for v in (dense.bias, dense.platt_a, dense.platt_b)]
            == [v.hex() for v in (rows.bias, rows.platt_a, rows.platt_b)])
    want = _bits(svm_margins(rows, [row(v) for v in probes]))
    assert _bits(svm_margins(dense, probes)) == want
    assert _bits(svm_margins(rows, probes)) == want
    nb_dense, nb_rows = nb_train(x, y), nb_train([row(v) for v in x], y)
    for got, wanted in zip(nb_predict(nb_dense, probes), nb_predict(nb_rows, [row(v) for v in probes])):
        assert _bits(got) == _bits(wanted)
    assert median_heuristic_gamma(x).hex() == median_heuristic_gamma([row(v) for v in x]).hex()


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


def _smo_run(lists, k, y, c, max_passes, seed):
    """Everything a run of one _smo form leaves behind, floats as hex."""
    rng = np.random.default_rng(seed)
    try:
        alpha, b, path = learners_module._smo(k, y, c, 1e-3, max_passes, rng, lists)
    except DidNotConverge as exc:
        out = ("DidNotConverge", str(exc))
    else:
        out = ([float(a).hex() for a in alpha], float(b).hex(), [v.hex() for v in path])
    return out, rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_list_and_array_smo_take_the_same_steps(data):
    switch = learners_module._SMALL_FIT_MAX_N
    n = data.draw(st.integers(min_value=2, max_value=24)
                  | st.integers(min_value=switch - 2, max_value=switch + 12))
    r = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # WL-like rows: small counts, most of them zero, some rows repeated
    d = int(r.integers(1, 12))
    x = r.integers(1, 4, size=(n, d)) * (r.random((n, d)) < 0.3)
    x[r.random(n) < 0.2] = x[0]
    y = np.where(r.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    spec = data.draw(st.sampled_from([KernelSpec("linear"),
                                      KernelSpec("polynomial", degree=3, coef0=1.0),
                                      KernelSpec("rbf", gamma=0.05), RBF1]))
    k = learners_module._gram(spec, SparseRows(x).dots)
    c = data.draw(st.sampled_from([0.5, 10.0, math.inf]))
    max_passes = data.draw(st.just(200) | st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=1000))
    assert _smo_run(True, k, y, c, max_passes, seed) == _smo_run(False, k, y, c, max_passes, seed)


@pytest.fixture(scope="module")
def target_gram():
    """The linear Gram matrix and labels of a default target's n = 200
    training split: generated graphs, WL histograms, unit-normalised."""
    train = generate(GeneratorConfig(seed=42)).subset("train")
    rows = SparseRows([_unit_counts(v) for v in wl_feature_vectors(list(train.graphs), 3)])
    return learners_module._gram(KernelSpec("linear"), rows.dots), np.array(train.labels, dtype=float)


@pytest.mark.parametrize("max_passes", [500, 2])
def test_list_and_array_smo_agree_at_the_targets_size(target_gram, max_passes):
    k, y = target_gram
    assert len(y) == 200 > learners_module._SMALL_FIT_MAX_N
    out = _smo_run(True, k, y, 10.0, max_passes, 0)
    assert out == _smo_run(False, k, y, 10.0, max_passes, 0)
    assert (out[0][0] == "DidNotConverge") == (max_passes == 2)


@pytest.mark.parametrize("n, lists", [(learners_module._SMALL_FIT_MAX_N, True),
                                      (learners_module._SMALL_FIT_MAX_N + 1, False)])
def test_svm_train_picks_the_smo_form_and_the_cache_fill_by_size(n, lists, monkeypatch):
    forms = []
    smo = learners_module._smo

    def spy(*args, lists):
        forms.append(lists)
        return smo(*args, lists=lists)

    monkeypatch.setattr(learners_module, "_smo", spy)
    x = [np.array([float(i % 7), float(i % 3)]) for i in range(n)]
    model = svm_train(x, [1 if i % 2 else -1 for i in range(n)], KernelSpec("linear"), C=1.0)
    assert forms == [lists]
    # a small fit fills the margin cache from its training matrix; a larger
    # one leaves it to be built from the support vectors on first use
    assert ("_cache" in model.__dict__) == lists


# WL-like keys: ids at several levels, 2**63 among them
_ROW_KEYS = [(level, i) for level in range(3) for i in (1, 5, 2**63)]
_OFF_KEYS = [(3, 5), (0, 2**64 - 1), (1, 9), (0, 40)]


@st.composite
def _fits(draw):
    """(training rows, labels, probes): WL-like sparse rows with repeats, or
    dense float rows with a zero column; every row a copy of the first
    sometimes, which leaves the median heuristic no scale."""
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=12))
    repeat = draw(st.sampled_from([0.0, 0.3, 1.0]))
    if draw(st.booleans()):
        rows = []
        for _ in range(n):
            picks = r.choice(len(_ROW_KEYS), size=int(r.integers(1, 5)), replace=False)
            rows.append({_ROW_KEYS[j]: int(r.integers(1, 4)) for j in picks})
        rows = [rows[0] if r.random() < repeat else d for d in rows]
        x = [sparse(d) for d in rows]
    else:
        d = int(r.integers(2, 5))
        dense = r.normal(size=(n, d))
        dense[:, int(r.integers(d))] = 0.0
        x = [dense[0] if r.random() < repeat else v for v in dense]
    y = np.where(r.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    keys = _ROW_KEYS + _OFF_KEYS
    probes = [sparse({keys[j]: float(r.normal()) for j in
                      r.choice(len(keys), size=int(r.integers(0, 6)), replace=False)})
              for _ in range(4)]
    return x, y.tolist(), probes


def _cache_state(cache: dict) -> list:
    """Every entry of a margin cache, arrays as dtype, shape, strides and bytes."""
    def state(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.strides, value.tobytes()
        return state(value.levels), state(value.ids), value._slices
    return [(name, state(value)) for name, value in cache.items()]


@settings(max_examples=120, deadline=None)
@given(_fits(), st.sampled_from(["rbf", "linear", "polynomial"]), st.sampled_from([10.0, math.inf]))
def test_cache_and_gamma_from_the_training_matrix_equal_their_rebuilt_forms(fit, kind, c):
    """svm_train fills the margin cache from the training matrix's support
    rows; it equals the cache built from the support vectors alone, and so do
    the margins. Gamma reads one SparseRows as it reads a plain list."""
    x, y, probes = fit
    try:
        gamma = median_heuristic_gamma(SparseRows(x))
    except DegenerateData:
        with pytest.raises(DegenerateData):
            median_heuristic_gamma(list(x))
        gamma = 1.0
    else:
        assert gamma.hex() == median_heuristic_gamma(list(x)).hex()
    spec = {"rbf": KernelSpec("rbf", gamma=gamma), "linear": KernelSpec("linear"),
            "polynomial": KernelSpec("polynomial", degree=3, coef0=1.0)}[kind]
    try:
        model = svm_train(x, y, spec, C=c, max_passes=50)
    except DidNotConverge:
        return
    if not model.support_vectors:  # every alpha at 0: margins read no cache
        assert "_cache" not in model.__dict__
        return
    assert "_cache" in model.__dict__
    built = _cache_state(model._cache)
    margins = _bits(svm_margins(model, probes))
    del model.__dict__["_cache"]
    assert _cache_state(model._cache) == built
    assert _bits(svm_margins(model, probes)) == margins


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_platt_fit_matches_the_one_sum_per_sum_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=250))
    r = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = data.draw(st.sampled_from(["spread", "constant", "huge"]))
    if kind == "constant":
        f = np.full(n, data.draw(st.floats(-3.0, 3.0)))
    elif kind == "huge":
        f = np.where(r.random(n) < 0.5, 1e8, -1e8) * np.where(r.random(n) < 0.2, r.random(n), 1.0)
    else:
        f = r.normal(scale=data.draw(st.sampled_from([0.1, 1.0, 30.0])), size=n)
    y = np.where(r.random(n) < data.draw(st.sampled_from([0.1, 0.5, 0.9])), 1.0, -1.0)
    y[r.choice(n, size=2, replace=False)] = (1.0, -1.0)
    got = learners_module._fit_platt(f, y)
    assert [v.hex() for v in map(float, got)] == [v.hex() for v in map(float, platt_fit(f, y))]


def test_sparse_linear_margin_adds_left_to_right():
    # ten terms of 0.1 add up to 0.9999999999999999 left to right; the builtin
    # sum compensates from Python 3.12 on and gives 1.0
    keys = {(0, i): 1.0 for i in range(10)}
    model = TrainedSvm(support_vectors=(sparse(keys),), alphas=np.array([0.1]),
                       sv_labels=np.array([1.0]), bias=0.0, spec=KernelSpec("linear"),
                       C=1.0, platt_a=-1.0, platt_b=0.0)
    margin = float(svm_margins(model, [sparse(keys)])[0])
    assert margin.hex() == (0.9999999999999999).hex()
    assert margin.hex() == float(linear_margin([keys], np.array([0.1]), 0.0, keys)).hex()


def test_probability_monotone_in_margin(rng):
    x, y = _random_problem(rng, n=20, separable=False)
    model = svm_train(x, y, RBF1, C=1.0)
    margins = np.linspace(-3, 3, 31)
    probs = [svm_predict(model, xi)[1] for xi in x]
    assert all(0.0 <= p <= 1.0 for p in probs)
    from graphevade.learners import svm_probability
    ps = [svm_probability(model, m) for m in margins]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("kind", ["rbf", "polynomial"])
def test_margins_on_training_vectors_are_the_training_decisions(kind):
    # scoring projects onto the support vectors' keys and carries the rest in
    # the residual; training reads the Gram matrix over every training key
    train = generate(GeneratorConfig(n_train_per_class=12, n_test_per_class=1, seed=3)).subset("train")
    x = [_unit_counts(v) for v in wl_feature_vectors(list(train.graphs), 2)]
    y = np.array(train.labels, dtype=float)
    spec = (KernelSpec("rbf", gamma=median_heuristic_gamma(x)) if kind == "rbf"
            else KernelSpec("polynomial", degree=3, coef0=1.0))
    model = svm_train(x, y, spec, C=10.0)
    assert 0 < len(model.support_vectors) < len(x)
    alpha = np.zeros(len(x))
    alpha[list(model.sv_indices)] = model.alphas
    decisions = (alpha * y) @ learners_module._gram(spec, SparseRows(x).dots) + model.bias
    np.testing.assert_allclose(svm_margins(model, x), decisions, rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.4),
                                  KernelSpec("polynomial", degree=2)])
def test_cache_keeps_a_matrix_only_where_margins_read_one(spec, rng):
    """After svm_margins a linear model's _cache holds only its key space and
    one weight per key, and no 2-D array; the other kernels keep the support
    vectors as a matrix. Every margin is the oracle's."""
    keys = [(level, i) for level in range(3) for i in (0, 5, 2**63)]

    def draw():
        return {keys[j]: float(rng.normal()) for j in rng.choice(len(keys), size=4, replace=False)}

    model = svm_train([sparse(draw()) for _ in range(16)], [1, -1] * 8, spec, C=2.0)
    probes = [draw() for _ in range(8)]
    got = svm_margins(model, [sparse(p) for p in probes])
    arrays = sorted(name for name, value in model._cache.items() if isinstance(value, np.ndarray))
    coef = model.alphas * model.sv_labels
    support = [as_dict(sv) for sv in model.support_vectors]
    if spec.kind == "linear":
        assert list(model._cache) == ["keys", "w"] and arrays == ["w"]
        keys, w = model._cache["keys"], model._cache["w"]
        assert w.shape == (len(keys.ids) + 1,) and w[-1] == 0.0
        want = [linear_margin(support, coef, model.bias, p) for p in probes]
        assert [float(m).hex() for m in got] == [float(m).hex() for m in want]
    else:
        assert arrays == ["coef", "sq", "x"]
        assert np.array_equal(model._cache["x"], _as_matrix(model.support_vectors)[0])
        want = [sum(c * kernel_eval(spec, sv, p) for sv, c in zip(support, coef)) + model.bias
                for p in probes]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_linear_margin_of_a_row_alone_equals_its_row_in_a_batch(rng):
    """Bit for bit, whatever rows share the batch: an empty row, a row of
    keys outside the model's space only, and rows of mixed length, int and
    float values alike."""
    keys = [(level, i) for level in range(2) for i in (3, 7, 2**63 + 1)]
    model = svm_train([sparse({keys[j]: float(rng.normal()) for j in rng.choice(6, size=3, replace=False)})
                       for _ in range(10)], [1, -1] * 5, KernelSpec("linear"), C=2.0)
    rows = [sparse({}), sparse({(5, 1): 2.0, (0, 4): -1.5})]
    for size in (1, 2, 4, 6, 8):
        picks = rng.choice(len(keys) + 2, size=size, replace=False)
        pool = keys + [(0, 4), (9, 9)]
        rows.append(sparse({pool[j]: float(rng.normal()) for j in picks}))
    rows.append(sparse({keys[0]: 3, keys[4]: 1, (2, 2): 2}))  # integer counts
    batch = svm_margins(model, rows)
    alone = [svm_margins(model, [row])[0] for row in rows]
    assert [float(m).hex() for m in batch] == [float(m).hex() for m in alone]
    assert batch[0] == batch[1] == model.bias  # nothing in the space: the bias
    coef = model.alphas * model.sv_labels
    support = [as_dict(sv) for sv in model.support_vectors]
    assert [float(m).hex() for m in batch] == [
        float(linear_margin(support, coef, model.bias, as_dict(row))).hex() for row in rows]


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
    model = nb_train(x, y)
    assert all(label == yi for label, yi in zip(nb_predict(model, x)[0], y))


def test_nb_symmetric_probability():
    x = [np.array([-1.0]), np.array([1.0])]
    model = nb_train(x, [1, -1])
    (label,), (p,) = nb_predict(model, [np.array([0.0])])
    assert p == pytest.approx(0.5, abs=1e-9)


def test_nb_matches_hand_bayes():
    # class +1 at {0, 2} (mean 1, var 1), class -1 at {5, 7} (mean 6, var 1)
    x = [np.array([0.0]), np.array([2.0]), np.array([5.0]), np.array([7.0])]
    y = [1, 1, -1, -1]
    model = nb_train(x, y)
    var = 1.0 + 1e-9 * 1.0  # every variance gets 1e-9 * the largest one
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


def test_nb_priors_and_variances():
    x = [np.array([0.0]), np.array([1.0]), np.array([9.0])]
    model = nb_train(x, [1, 1, -1])
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
