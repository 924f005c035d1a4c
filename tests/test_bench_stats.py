import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import graphevade
from graphevade import bench_stats
from graphevade.attack_engine import AttackConfig
from graphevade.bench_stats import (
    MethodSpec,
    RankReport,
    ResultTable,
    TooFewBlocks,
    cd_diagram_text,
    friedman_nemenyi,
    nemenyi_critical_difference,
    rank_descriptives,
    run_benchmark,
)
from graphevade.synth_data import GeneratorConfig


def table_from(values, methods=None, rows=None):
    arr = np.asarray(values, dtype=float)
    methods = methods or tuple(f"m{i}" for i in range(arr.shape[1]))
    rows = rows or tuple(f"r{i}" for i in range(arr.shape[0]))
    return ResultTable(tuple(rows), tuple(methods), arr)


def test_result_table_shape_validation():
    with pytest.raises(ValueError):
        ResultTable(("a",), ("x", "y"), np.zeros((1, 3, 2)))
    t = table_from(np.zeros((2, 2, 3)))
    assert t.repetitions == 3


def test_cd_hand_fixture():
    # q_{0.05,4} = 2.569; CD = 2.569 * sqrt(4*5 / (6*5)) = 2.0977
    assert nemenyi_critical_difference(4, 5, 0.05) == pytest.approx(2.0977, abs=1e-3)


def test_cd_unsupported_inputs():
    with pytest.raises(ValueError):
        nemenyi_critical_difference(4, 5, alpha=0.01)
    with pytest.raises(ValueError):
        nemenyi_critical_difference(12, 5)


def test_cd_monotone_in_blocks():
    cds = [nemenyi_critical_difference(4, n, 0.05) for n in (5, 10, 20, 50)]
    assert all(b < a for a, b in zip(cds, cds[1:]))


def test_identical_columns_all_tied():
    vals = np.zeros((3, 2, 4))
    vals[:, 0, :] = -10.0
    vals[:, 1, :] = -10.0
    rep = friedman_nemenyi(table_from(vals))
    assert rep.mean_ranks == (1.5, 1.5)
    assert rep.friedman_p == pytest.approx(1.0)
    assert not any(any(row) for row in rep.significant)


def test_dominant_method_hand_computed_friedman():
    # method A strictly best (most negative) in every block, C strictly worst:
    # within-block ranks are always (3, 2, 1)
    vals = np.zeros((2, 3, 5))
    vals[:, 0, :] = -30.0
    vals[:, 1, :] = -20.0
    vals[:, 2, :] = -10.0
    rep = friedman_nemenyi(table_from(vals, methods=("A", "B", "C")))
    assert rep.mean_ranks == (3.0, 2.0, 1.0)
    n, k = 10, 3
    expected = 12.0 * n / (k * (k + 1)) * ((9 + 4 + 1) - k * (k + 1) ** 2 / 4.0)
    assert rep.friedman_chi2 == pytest.approx(expected)
    assert rep.friedman_p < 0.01


def test_rank_direction_most_negative_gets_highest_rank():
    vals = np.zeros((1, 2, 3))
    vals[0, 0, :] = (-30.0, -31.0, -29.0)
    vals[0, 1, :] = (-10.0, -11.0, -9.0)
    rep = friedman_nemenyi(table_from(vals, methods=("strong", "weak")))
    assert rep.mean_ranks[0] == 2.0
    assert rep.mean_ranks[1] == 1.0


def test_rank_sums_invariant(rng):
    for k in (2, 3, 4, 6):
        vals = rng.normal(size=(3, k, 4))
        rep = friedman_nemenyi(table_from(vals))
        assert sum(rep.mean_ranks) == pytest.approx(k * (k + 1) / 2, abs=1e-9)


def test_friedman_invariant_to_row_constant_shifts(rng):
    vals = rng.normal(size=(4, 3, 5))
    base = friedman_nemenyi(table_from(vals))
    shifted = vals + rng.normal(size=(4, 1, 5))  # same shift for every method in a block
    rep = friedman_nemenyi(table_from(shifted))
    assert rep.friedman_chi2 == pytest.approx(base.friedman_chi2)
    assert rep.mean_ranks == base.mean_ranks


def test_ties_use_average_ranks():
    vals = np.zeros((1, 3, 2))
    vals[0, :, 0] = (-5.0, -5.0, -1.0)
    vals[0, :, 1] = (-5.0, -5.0, -1.0)
    rep = friedman_nemenyi(table_from(vals))
    assert rep.mean_ranks == (2.5, 2.5, 1.0)


def test_check_rankable_is_friedman_nemenyis_precondition():
    from graphevade.bench_stats import check_rankable

    check_rankable(2, 2, 0.05)
    check_rankable(10, 2, 0.10)
    for k, n_blocks, alpha, exc in ((2, 2, 0.01, ValueError), (11, 2, 0.05, ValueError),
                                    (1, 2, 0.05, TooFewBlocks), (2, 1, 0.05, TooFewBlocks)):
        with pytest.raises(exc):
            check_rankable(k, n_blocks, alpha)
        table = table_from(np.zeros((1, k, n_blocks)))
        with pytest.raises(exc):
            friedman_nemenyi(table, alpha=alpha)


def test_too_few_blocks():
    with pytest.raises(TooFewBlocks):
        friedman_nemenyi(table_from(np.zeros((1, 3, 1))))


def test_descriptives_fixtures():
    t = table_from(np.array([[-27.0, -27.0, -27.0]]).reshape(1, 1, 3), methods=("m",))
    desc = rank_descriptives(t)["m"]
    assert desc["median"] == -27.0
    assert desc["mad"] == 0.0
    t2 = table_from(np.array([-13.0, -14.0, -16.0]).reshape(1, 1, 3), methods=("m",))
    desc2 = rank_descriptives(t2)["m"]
    assert desc2["median"] == -14.0
    assert desc2["mad"] == 1.0


def test_single_value_ci_collapses():
    t = table_from(np.array([-20.0]).reshape(1, 1, 1), methods=("m",))
    desc = rank_descriptives(t)["m"]
    assert desc["ci_low"] == desc["ci_high"] == -20.0


def test_csv_roundtrip(rng):
    vals = rng.normal(size=(2, 3, 4))
    for methods, rows in ((("alpha", "beta", "gamma"), ("c1", "c2")),
                          (("a,b", 'say "hi"', "m"), ("x\ny", "c2"))):
        t = table_from(vals, methods=methods, rows=rows)
        back = ResultTable.from_csv(t.to_csv())
        assert back.row_names == t.row_names
        assert back.method_names == t.method_names
        assert np.array_equal(back.values, t.values)


# names hold any text but \r, which a file read with universal newlines turns
# into \n, and lone surrogates, which UTF-8 cannot encode (bench rejects both)
_names = st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\r"), max_size=6),
                  min_size=1, max_size=3, unique=True)
_declines = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(_names, _names, st.integers(min_value=1, max_value=3), st.data())
def test_csv_file_round_trip_property(tmp_path_factory, rows, methods, reps, data):
    values = data.draw(st.lists(_declines, min_size=len(rows) * len(methods) * reps,
                                max_size=len(rows) * len(methods) * reps))
    t = ResultTable(tuple(rows), tuple(methods),
                    np.array(values).reshape(len(rows), len(methods), reps))
    path = tmp_path_factory.mktemp("csv") / "results.csv"
    path.write_text(t.to_csv(), encoding="utf-8")  # as bench writes it
    back = ResultTable.from_csv(path.read_text(encoding="utf-8"))  # as rank reads it
    assert back.row_names == t.row_names
    assert back.method_names == t.method_names
    assert back.values.tobytes() == t.values.tobytes()  # -0.0 keeps its sign
    assert back.to_csv() == t.to_csv()


def test_csv_plain_names_unquoted(rng):
    vals = rng.normal(size=(1, 2, 2))
    t = table_from(vals, methods=("alpha", "beta"), rows=("c1",))
    assert t.to_csv() == "row,method,rep,decline\n" + "".join(
        f"c1,{m},{k},{float(vals[0, j, k])!r}\n"
        for j, m in enumerate(("alpha", "beta")) for k in range(2))


def test_csv_rejects_malformed_tables():
    header = "row,method,rep,decline\n"
    for body in ("c,a,0,-1.0\nc,a,2,-2.0\n",          # rep gap
                 "c,a,1,-1.0\n",                        # reps not from 0
                 "c,a,0,-1.0,extra\n",                  # too many fields
                 "c,a,0,-1.0\nd,b,0,-1.0\n",           # methods differ per row
                 ""):                                     # no data rows
        with pytest.raises(ValueError):
            ResultTable.from_csv(header + body)


@pytest.mark.parametrize("decline", ["nan", "inf", "-inf"])
def test_csv_rejects_a_non_finite_decline(decline):
    with pytest.raises(ValueError, match=rf"\['a', 'm2', '0', '{decline}'\] is not finite"):
        ResultTable.from_csv(f"row,method,rep,decline\na,m1,0,-1.0\na,m2,0,{decline}\n")


def test_csv_rejects_a_repeated_cell():
    with pytest.raises(ValueError, match=r"repeated cell \('a', 'm1', 0\)"):
        ResultTable.from_csv("row,method,rep,decline\na,m1,0,-1.0\na,m2,0,-2.0\na,m1,0,-99.0\n")


def test_cd_diagram_text_mentions_cliques():
    vals = np.zeros((2, 3, 5))
    vals[:, 0, :] = -30.0
    vals[:, 1, :] = -29.5
    vals[:, 2, :] = -5.0
    rep = friedman_nemenyi(table_from(vals, methods=("A", "B", "C")))
    text = cd_diagram_text(rep)
    assert "CD =" in text
    assert "A" in text and "C" in text
    assert "{A, B}" in text


def _ranked_blocks(blocks, methods):
    """One-row table whose block b gives method j the rank blocks[b][j] (its
    decline is minus that rank, so rank k is the strongest attack)."""
    return table_from(-np.array(blocks, dtype=float).T[None], methods=methods, rows=("c",))


def test_cd_diagram_text_when_every_difference_exceeds_cd():
    text = cd_diagram_text(friedman_nemenyi(_ranked_blocks([(3, 2, 1)] * 20, ("A", "B", "C"))))
    assert text == (
        "critical difference diagram (alpha=0.05, k=3, N=20)\n"
        "CD = 0.7411 (higher mean rank = stronger attack)\n"
        "\n"
        "  MR=3.0000  A\n"
        "  MR=2.0000  B\n"
        "  MR=1.0000  C\n"
        "\n"
        "  all pairwise differences exceed CD\n")


def test_cd_diagram_text_drops_a_clique_inside_another():
    # mean ranks 3.8, 3.0, 1.6, 1.6 against CD 1.4832: {A, B} and {B, C, D}
    # overlap in B, and {C, D} lies inside {B, C, D}
    blocks = [(4, 3, 2, 1)] * 6 + [(4, 2, 1, 3)] * 2 + [(3, 4, 1, 2)] * 2
    text = cd_diagram_text(friedman_nemenyi(_ranked_blocks(blocks, ("A", "B", "C", "D"))))
    assert text == (
        "critical difference diagram (alpha=0.05, k=4, N=10)\n"
        "CD = 1.4832 (higher mean rank = stronger attack)\n"
        "\n"
        "  MR=3.8000  A\n"
        "  MR=3.0000  B\n"
        "  MR=1.6000  C\n"
        "  MR=1.6000  D\n"
        "\n"
        "  no significant difference within: {A, B}\n"
        "  no significant difference within: {B, C, D}\n")


def test_run_benchmark_shape_and_pairing():
    gen = GeneratorConfig(n_train_per_class=10, n_test_per_class=5)
    base = AttackConfig(r=2.0 / 900, max_queries=6, k_candidates=3, rounds=2, seed=0)
    methods = [MethodSpec("eig", "eigencentrality", "svm_rbf"),
               MethodSpec("rw", "random_walk", "svm_rbf")]
    res = run_benchmark(methods, {"tiny": gen}, base, repetitions=2, seed=0)
    assert res.table.values.shape == (1, 2, 2)
    # paired design: identical clean accuracy per (config, rep) across methods
    for rep in range(2):
        cleans = {res.summaries[("tiny", m.name, rep)].clean_accuracy for m in methods}
        assert len(cleans) == 1


def test_run_benchmark_budget_sweep_rows():
    gen = GeneratorConfig(n_train_per_class=10, n_test_per_class=5)
    base = AttackConfig(r=3.0 / 900, max_queries=6, k_candidates=3, rounds=2, seed=0)
    methods = [MethodSpec("eig", "eigencentrality", "svm_rbf")]
    res = run_benchmark(methods, {"tiny": gen}, base, repetitions=2,
                        budgets=[1.0 / 900, 2.0 / 900], seed=0)
    assert res.table.values.shape == (2, 1, 2)
    assert res.table.row_names == ("tiny:r=0.00111111", "tiny:r=0.00222222")


@pytest.mark.parametrize("budgets", [None, [1.0 / 900, 2.0 / 900]], ids=["configs", "budgets"])
def test_run_benchmark_worker_invariance(budgets):
    gen = GeneratorConfig(n_train_per_class=10, n_test_per_class=5)
    base = AttackConfig(r=2.0 / 900, max_queries=6, k_candidates=3, rounds=2, seed=0)
    methods = [MethodSpec("eig", "eigencentrality", "svm_rbf"),
               MethodSpec("rw", "random_walk", "svm_rbf")]
    a = run_benchmark(methods, {"tiny": gen}, base, repetitions=2, budgets=budgets, seed=0,
                      workers=1)
    b = run_benchmark(methods, {"tiny": gen}, base, repetitions=2, budgets=budgets, seed=0,
                      workers=2)
    assert np.array_equal(a.table.values, b.table.values)
    assert a.table.to_csv() == b.table.to_csv()


def test_a_budget_sweep_sets_up_each_block_once(monkeypatch):
    seeds = {"generate": [], "train_target": []}
    generate, train_target = bench_stats.generate, bench_stats.train_target
    monkeypatch.setattr(bench_stats, "generate",
                        lambda cfg: seeds["generate"].append(cfg.seed) or generate(cfg))
    monkeypatch.setattr(bench_stats, "train_target",
                        lambda ds, **kw: seeds["train_target"].append(kw["seed"])
                        or train_target(ds, **kw))
    gen = GeneratorConfig(n_train_per_class=10, n_test_per_class=5)
    base = AttackConfig(r=2.0 / 900, max_queries=6, k_candidates=3, rounds=2, seed=0)
    methods = [MethodSpec("eig", "eigencentrality", "svm_rbf"),
               MethodSpec("rw", "random_walk", "svm_rbf")]
    calls = []
    # five repetitions, so a cache of the last four targets could not serve the second row
    res = run_benchmark(methods, {"tiny": gen}, base, repetitions=5,
                        budgets=[1.0 / 900, 2.0 / 900], seed=3, workers=1,
                        progress=lambda done, total: calls.append((done, total)))
    assert seeds == {"generate": [3, 4, 5, 6, 7], "train_target": [3, 4, 5, 6, 7]}
    for rep in range(5):
        cleans = {s.clean_accuracy for (_, _, r), s in res.summaries.items() if r == rep}
        assert len(cleans) == 1
    assert calls == [(i, 20) for i in range(1, 21)]


def test_rank_report_bytes():
    """to_csv and canonical to_json of a table with two tied methods; the JSON
    as recorded before RankReport kept one record per method."""
    vals = [[[-12.5, -30.0, -7.25], [-12.5, -30.0, -7.25], [-3.0, 1.5, -40.0]],
            [[-20.0, -0.5, -15.75], [-20.0, -0.5, -15.75], [-2.0, -4.0, 2.0]]]
    report = friedman_nemenyi(table_from(vals, methods=("adv", "twin", "rw")))
    assert report.to_csv() == (
        "method,mean_rank,median,mad,ci_low,ci_high\n"
        "adv,2.1666666666666665,-14.125,6.375,-20.817210101428877,-7.432789898571124\n"
        "twin,2.1666666666666665,-14.125,6.375,-20.817210101428877,-7.432789898571124\n"
        "rw,1.6666666666666667,-2.5,2.75,-5.322016307831454,0.32201630783145374\n")
    doc = report.to_json()
    assert doc.pop("friedman_p") == pytest.approx(0.6065306597126345, rel=1e-12, abs=0)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == (
        '{"alpha":0.05,"critical_difference":1.3531364032499948,'
        '"friedman_chi2":0.9999999999999964,"methods":['
        '{"ci":[-20.817210101428877,-7.432789898571124],"mad":6.375,'
        '"mean_rank":2.1666666666666665,"median":-14.125,"name":"adv"},'
        '{"ci":[-20.817210101428877,-7.432789898571124],"mad":6.375,'
        '"mean_rank":2.1666666666666665,"median":-14.125,"name":"twin"},'
        '{"ci":[-5.322016307831454,0.32201630783145374],"mad":2.75,'
        '"mean_rank":1.6666666666666667,"median":-2.5,"name":"rw"}],'
        '"n_blocks":6,"significant":[[false,false,false],[false,false,false],'
        '[false,false,false]]}')


def test_attack_path_imports_no_scipy():
    """Generating, training and attacking load no scipy module; the Friedman
    test imports it when it runs and returns scipy's p-value bit for bit."""
    code = textwrap.dedent("""
        import json, sys
        import graphevade, graphevade.cli
        from graphevade.attack_engine import AttackConfig, attack_testset
        from graphevade.bench_stats import ResultTable, friedman_nemenyi
        from graphevade.synth_data import GeneratorConfig, generate
        from graphevade.target_lcd import train_target

        ds = generate(GeneratorConfig(n_train_per_class=4, n_test_per_class=2, objects_range=(2, 3),
                                      features_per_object_range=(1, 2), seed=7))
        target = train_target(ds, wl_iters=1, seed=7)
        attack_testset(target, ds.subset("test"), AttackConfig(max_queries=4, k_candidates=2, rounds=1))
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        values = [[[-3.0, 0.5, -1.0], [-2.0, -2.0, 1.5]], [[-1.0, 0.0, -4.0], [2.0, -0.5, -0.5]]]
        report = friedman_nemenyi(ResultTable(("r0", "r1"), ("m0", "m1"), values))
        from scipy.stats import chi2
        want = float(chi2.sf(report.friedman_chi2, df=1))
        print(json.dumps({"loaded": loaded, "p": report.friedman_p.hex(), "want": want.hex()}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(graphevade.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    assert doc["p"] == doc["want"]
