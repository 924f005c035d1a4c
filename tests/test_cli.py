import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from graphevade.attack_engine import AttackConfig
from graphevade.bench_stats import ResultTable
from graphevade.cli import _config_from_args, build_parser, main
from graphevade.synth_data import GeneratorConfig
from graphevade.target_lcd import TargetConfig


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run(["gen", "--out", out, "--seed", "42",
                "--n-train", "15", "--n-test", "8"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("model")
    code = run(["train-target", "--dataset", gen_dir / "dataset.jsonl", "--out", out])
    assert code == 0
    return out


def test_gen_outputs_and_manifest(gen_dir):
    assert (gen_dir / "dataset.jsonl").exists()
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["n_graphs"] == 46
    assert manifest["non_separable"] is False
    echo = json.loads((gen_dir / "run_config.json").read_text())
    assert echo["command"] == "gen"
    assert "config_hash" in echo


def test_gen_rerun_byte_identical(tmp_path, gen_dir):
    again = tmp_path / "again"
    assert run(["gen", "--out", again, "--seed", "42",
                "--n-train", "15", "--n-test", "8"]) == 0
    assert (again / "dataset.jsonl").read_bytes() == (gen_dir / "dataset.jsonl").read_bytes()
    assert (again / "manifest.json").read_bytes() == (gen_dir / "manifest.json").read_bytes()


def test_gen_delta_zero_flagged(tmp_path):
    out = tmp_path / "flat"
    assert run(["gen", "--out", out, "--delta", "0", "--n-train", "2", "--n-test", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["non_separable"] is True


def test_gen_invalid_config_exit_2(tmp_path, capsys):
    assert run(["gen", "--out", tmp_path / "x", "--n-train", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_train_target_metrics(model_dir):
    metrics = json.loads((model_dir / "metrics.json").read_text())
    assert metrics["train_accuracy"] >= 0.9
    assert (model_dir / "model.json").exists()


def test_train_target_missing_file_exit_2(tmp_path, capsys):
    assert run(["train-target", "--dataset", tmp_path / "nope.jsonl",
                "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "nope.jsonl" in err


def test_train_target_one_class_train_split_exit_2(tmp_path, gen_dir, capsys):
    lines = (gen_dir / "dataset.jsonl").read_text().splitlines()
    keep = [line for line in lines
            if json.loads(line).get("split", "train") != "train" or json.loads(line)["y"] == 1]
    one_class = tmp_path / "one_class.jsonl"
    one_class.write_text("\n".join(keep) + "\n")
    assert run(["train-target", "--dataset", one_class, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "one_class.jsonl" in err


def test_train_target_schema_error_names_its_line(tmp_path, gen_dir, capsys):
    lines = (gen_dir / "dataset.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["edges"][0]["u"] = "a"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:3] + [json.dumps(rec)] + lines[4:]) + "\n")
    assert run(["train-target", "--dataset", bad, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        f"config error: dataset {bad}: line 4: field 'u': must be a JSON integer in [0, inf)\n")


def test_train_target_infinite_c_echoes_null(tmp_path, gen_dir):
    out = tmp_path / "hard"
    assert run(["train-target", "--dataset", gen_dir / "dataset.jsonl", "--out", out,
                "--C", "inf"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    echo = json.loads((out / "run_config.json").read_text(), parse_constant=reject)
    assert metrics["C"] is None and echo["config"]["C"] is None
    assert json.loads((out / "model.json").read_text())["svm"]["C"] is None


@pytest.mark.parametrize("flags", [["--wl-iters", "-1"], ["--C", "0"], ["--seed", "-1"]])
def test_train_target_invalid_value_exit_2(tmp_path, gen_dir, capsys, flags):
    out = tmp_path / "out"
    assert run(["train-target", "--dataset", gen_dir / "dataset.jsonl",
                "--out", out, *flags]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (out / "model.json").exists()


def test_gen_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["gen", "--out", out, "--seed", "-1", "--n-train", "2", "--n-test", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (out / "dataset.jsonl").exists()


def test_train_target_rerun_identical_metrics(tmp_path, gen_dir, model_dir):
    out = tmp_path / "retrain"
    assert run(["train-target", "--dataset", gen_dir / "dataset.jsonl", "--out", out]) == 0
    assert (out / "metrics.json").read_bytes() == (model_dir / "metrics.json").read_bytes()


def test_attack_summary_and_determinism(tmp_path, gen_dir, model_dir):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    args = ["attack", "--model", model_dir / "model.json",
            "--dataset", gen_dir / "dataset.jsonl",
            "--strategy", "eigencentrality", "--r", "3e-3", "--seed", "42",
            "--max-queries", "10", "--k-candidates", "5", "--rounds", "2"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    doc = json.loads((out1 / "summary.json").read_text())
    assert doc["config"]["strategy"] == "eigencentrality"
    assert len(doc["graphs"]) == 16


def test_attack_zero_queries_zero_decline(tmp_path, gen_dir, model_dir, capsys):
    out = tmp_path / "zero"
    assert run(["attack", "--model", model_dir / "model.json",
                "--dataset", gen_dir / "dataset.jsonl", "--out", out,
                "--max-queries", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decline_pp"] == 0.0


def test_attack_label_oracle_runs(tmp_path, gen_dir, model_dir):
    out = tmp_path / "lab"
    assert run(["attack", "--model", model_dir / "model.json",
                "--dataset", gen_dir / "dataset.jsonl", "--out", out,
                "--oracle", "label", "--max-queries", "10",
                "--k-candidates", "5", "--rounds", "2"]) == 0
    doc = json.loads((out / "summary.json").read_text())
    confs = [r["confidence"] for g in doc["graphs"] for r in g["records"]]
    assert confs and all(c == 1.0 for c in confs)


def test_attack_stale_model_version_exit_2(tmp_path, gen_dir, model_dir, capsys):
    doc = json.loads((model_dir / "model.json").read_text())
    doc["version"] = "target-v1"
    doc["dictionary"] = ["l00"]
    stale = tmp_path / "v1.json"
    stale.write_text(json.dumps(doc))
    assert run(["attack", "--model", stale, "--dataset", gen_dir / "dataset.jsonl",
                "--out", tmp_path / "out", "--max-queries", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "target-v1" in err


def _first_entry(doc, edit):
    """doc with the first [[level, id], value] entry of its first support
    vector replaced by edit(entry)."""
    vector = doc["svm"]["support_vectors"][0]
    vector[0] = edit(vector[0])
    return doc


@pytest.mark.parametrize("edit,message", [
    (lambda doc: {k: v for k, v in doc.items() if k != "svm"}, "'svm'"),
    (lambda doc: [doc], "JSON object"),
    (lambda doc: dict(doc, svm=[]), "JSON object"),
    (lambda doc: dict(doc, svm={k: v for k, v in doc["svm"].items() if k != "bias"}),
     "'bias'"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], alphas=doc["svm"]["alphas"][:-1])),
     "alphas"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], sv_labels=doc["svm"]["sv_labels"] + [1])),
     "sv_labels"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], kernel=[])), "field 'kernel': must be a JSON object"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], support_vectors=[[1.0, 2.0]] * len(doc["svm"]["alphas"]))),
     "[[level, id], value]"),
    (lambda doc: _first_entry(doc, lambda entry: [entry[0]]), "[[level, id], value]"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], bias=[1])), "field 'bias': must be a finite JSON number"),
    (lambda doc: _first_entry(doc, lambda entry: [[entry[0][0], -1], entry[1]]), "each id"),
    (lambda doc: _first_entry(doc, lambda entry: [[entry[0][0], 2**64], entry[1]]), "each id"),
    (lambda doc: dict(doc, svm=dict(doc["svm"], vector_format="dense")), "vector_format"),
    (lambda doc: dict(doc, wl_iters=-1), "field 'wl_iters': must be a JSON integer"),
    (lambda doc: dict(doc, wl_iters=1.5), "field 'wl_iters': must be a JSON integer"),
], ids=["no-svm", "array", "svm-array", "no-bias", "short-alphas", "long-sv-labels",
        "kernel-array", "bare-number-vectors", "entry-without-value", "bias-array",
        "negative-id", "id-past-uint64", "dense-vectors", "negative-wl-iters", "fractional-wl-iters"])
def test_attack_malformed_model_file_exit_2(tmp_path, gen_dir, model_dir, capsys, edit, message):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(edit(json.loads((model_dir / "model.json").read_text()))))
    assert run(["attack", "--model", bad, "--dataset", gen_dir / "dataset.jsonl",
                "--out", tmp_path / "out", "--max-queries", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model {bad}: ")
    assert message in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_attack_defaults_come_from_attack_config(tmp_path, model_dir):
    from dataclasses import asdict

    from graphevade.attack_engine import AttackConfig

    tiny = tmp_path / "tiny"
    assert run(["gen", "--out", tiny, "--n-train", "1", "--n-test", "1"]) == 0
    out = tmp_path / "out"
    assert run(["attack", "--model", model_dir / "model.json",
                "--dataset", tiny / "dataset.jsonl", "--out", out]) == 0
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["config"] == asdict(AttackConfig())


def test_attack_empty_dataset_exit_2(tmp_path, model_dir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["attack", "--model", model_dir / "model.json", "--dataset", empty,
                "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "empty.jsonl" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_attack_and_bench_workers_below_one_exit_2(tmp_path, gen_dir, model_dir,
                                                  capsys, workers):
    assert run(["attack", "--model", model_dir / "model.json",
                "--dataset", gen_dir / "dataset.jsonl", "--out", tmp_path / "a",
                "--max-queries", "0", "--workers", workers]) == 2
    spec = write_spec(tmp_path / "spec.json")
    assert run(["bench", "--spec", spec, "--out", tmp_path / "b",
                "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("config error") and "--workers" in line for line in err)
    assert not (tmp_path / "a" / "summary.json").exists()
    assert not (tmp_path / "b" / "results.csv").exists()


BENCH_SPEC = {
    "seed": 42,
    "repetitions": 2,
    "alpha": 0.05,
    "configs": {
        "tiny": {"n_train_per_class": 10, "n_test_per_class": 5},
    },
    "methods": [
        {"name": "eig", "strategy": "eigencentrality", "surrogate": "svm_rbf"},
        {"name": "rw", "strategy": "random_walk", "surrogate": "svm_rbf"},
    ],
    "attack": {"r": 0.0033, "max_queries": 8, "k_candidates": 4, "rounds": 2},
}


def write_spec(path, spec=BENCH_SPEC):
    path.write_text(json.dumps(spec))
    return path


def test_bench_outputs_and_worker_determinism(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert run(["bench", "--spec", spec, "--out", out1, "--workers", "1"]) == 0
    assert run(["bench", "--spec", spec, "--out", out2, "--workers", "2"]) == 0
    for name in ("results.csv", "results.json", "rank_report.json",
                 "rank_report.csv", "cd_diagram.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "rank_report.json").read_text())
    ranks = [m["mean_rank"] for m in report["methods"]]
    assert sum(ranks) == pytest.approx(2 * 3 / 2)


def test_bench_empty_spec_exit_2(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text("{}")
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2


def test_bench_unknown_key_exit_2(tmp_path):
    bad = dict(BENCH_SPEC)
    bad["mystery"] = 1
    spec = write_spec(tmp_path / "bad.json", bad)
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("section,value", [
    ("configs", ["desk"]),
    ("configs", {"desk": 5}),
    ("configs", {"tiny": {"objects_range": 7}}),
    ("attack", [1]),
    ("methods", ["abc"]),
    ("target", [1]),
    ("budgets", {"r": 0.001}),
    ("budgets", ["0.001"]),
    ("seed", "x"),
    ("repetitions", "2"),
    ("alpha", "a"),
])
def test_bench_section_of_wrong_json_type_exit_2(tmp_path, capsys, section, value):
    spec = write_spec(tmp_path / "bad.json", dict(BENCH_SPEC, **{section: value}))
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "unknown key" not in err


@pytest.mark.parametrize("section,value", [
    ("methods", [{"name": "m", "strategy": 5}]),
    ("methods", [{"name": "m", "surrogate": "gnn"}]),
    ("methods", [{"name": "m", "r": 0}]),
    ("methods", [{"name": "m", "r": "x"}]),
    ("repetitions", 0),
    ("budgets", [0.001, 0]),
    ("budgets", [-0.001]),
    ("target", {"wl_iters": -1}),
    ("target", {"wl_iters": 1.5}),
    ("target", {"C": 0}),
    ("target", {"C": "x"}),
    ("methods", [{"strategy": "random_walk"}]),
    ("methods", [{"name": "m", "mystery": 1}]),
    ("methods", [{"name": "m"}, {"name": "m", "strategy": "random_walk"}]),
    ("budgets", [0.002, 0.002]),
    ("budgets", [0.002, 0.0020000001]),
    ("seed", -1),
    # tables that friedman_nemenyi cannot rank: no q table for the alpha,
    # more than 10 methods, fewer than 2 blocks
    ("alpha", 0.01),
    ("methods", [{"name": f"m{i}"} for i in range(11)]),
    ("repetitions", 1),
    # each block is seeded by the spec's seed plus its repetition
    ("configs", {"tiny": {"n_train_per_class": 10, "n_test_per_class": 5, "seed": 1}}),
    # non-finite values (json writes Infinity)
    ("attack", {"r": float("inf")}),
    ("budgets", [0.001, float("inf")]),
    ("methods", [{"name": "m", "r": float("inf")}]),
    # results.csv cannot keep a \r (rank reads it with universal newlines)
    # or a lone surrogate (it is UTF-8)
    ("methods", [{"name": "adv\rlcd"}, {"name": "rw", "strategy": "random_walk"}]),
    ("configs", {"ti\rny": {"n_train_per_class": 10, "n_test_per_class": 5}}),
    ("methods", [{"name": "adv\ud800"}, {"name": "rw", "strategy": "random_walk"}]),
    # values of a JSON type that their config field does not take
    ("configs", {"tiny": {"n_train_per_class": 10, "n_test_per_class": 5, "vocab_size": 2.5}}),
    ("attack", {"rounds": 2.5}),
    ("attack", {"max_queries": 10.5}),
    ("attack", {"epochs": True}),
    ("methods", [{"name": "m", "r": True}, {"name": "rw", "strategy": "random_walk"}]),
    ("target", {"C": float("inf")}),
    # a generator range is an array of exactly two values
    ("configs", {"tiny": {"n_train_per_class": 10, "n_test_per_class": 5, "objects_range": [3]}}),
    ("configs", {"tiny": {"n_train_per_class": 10, "n_test_per_class": 5,
                          "objects_range": [1, 2, 3]}}),
    # a block's target seed is the spec's seed plus its repetition
    ("target", {"seed": 1}),
])
def test_bench_invalid_value_exit_2(tmp_path, capsys, section, value):
    # values of the right JSON type that no run accepts are config errors
    # too, caught before the first cell runs (no progress line)
    spec = write_spec(tmp_path / "bad.json", dict(BENCH_SPEC, **{section: value}))
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,message", [
    ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
    (json.dumps(dict(BENCH_SPEC, seeds=[1])), "field 'seeds': unknown key in bench spec"),
])
def test_bench_spec_that_breaks_its_format_names_the_file(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"config error: bench spec {spec}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["objects_range", "features_per_object_range"])
@pytest.mark.parametrize("length", [1, 3])
def test_bench_range_of_wrong_length_names_its_field(tmp_path, capsys, field, length):
    config = {"n_train_per_class": 10, "n_test_per_class": 5, field: [2] * length}
    spec = write_spec(tmp_path / "bad.json", dict(BENCH_SPEC, configs={"tiny": config}))
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (f"config error: field 'configs.tiny.{field}': "
                                       "must be a JSON array of 2 values\n")


def test_bench_negative_seed_override_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json")
    assert run(["bench", "--spec", spec, "--out", tmp_path / "o", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "o" / "results.csv").exists()


def test_bench_one_method_writes_results_without_ranks(tmp_path, capsys):
    spec = write_spec(tmp_path / "one.json", dict(BENCH_SPEC, methods=BENCH_SPEC["methods"][:1]))
    out = tmp_path / "o"
    assert run(["bench", "--spec", spec, "--out", out, "--json"]) == 0
    stdout, err = capsys.readouterr()
    doc = json.loads(stdout)
    assert doc["friedman_p"] is None and doc["critical_difference"] is None
    assert list(doc["mean_decline_pp"]) == ["eig"]
    assert sorted(p.name for p in out.iterdir()) == [
        "results.csv", "results.json", "run_config.json"]
    assert "nothing to rank" in err.splitlines()[-1]
    table = ResultTable.from_csv((out / "results.csv").read_text())
    assert table.method_names == ("eig",) and table.values.shape == (1, 1, 2)


@pytest.mark.parametrize("n_methods", [1, 2])
def test_bench_one_block_is_ranked_only_with_two_methods(tmp_path, capsys, n_methods):
    spec = write_spec(tmp_path / "one.json", dict(
        BENCH_SPEC, repetitions=1, methods=BENCH_SPEC["methods"][:n_methods]))
    out = tmp_path / "o"
    code = run(["bench", "--spec", spec, "--out", out])
    err = capsys.readouterr().err
    if n_methods == 2:
        assert code == 2
        assert err == "config error: need >= 2 methods and >= 2 blocks, got k=2, N=1\n"
        assert not (out / "results.csv").exists()
    else:
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "results.csv", "results.json", "run_config.json"]
        assert "nothing to rank" in err.splitlines()[-1]


def test_bench_target_section_at_the_defaults_changes_nothing(tmp_path):
    one_block = dict(BENCH_SPEC, repetitions=1, methods=BENCH_SPEC["methods"][:1])
    tables = []
    for name, doc in (("bare", one_block),
                      ("target", dict(one_block, target={"wl_iters": 3, "C": 10.0}))):
        out = tmp_path / name
        assert run(["bench", "--spec", write_spec(tmp_path / f"{name}.json", doc),
                    "--out", out]) == 0
        tables.append((out / "results.csv").read_bytes())
    assert tables[0] == tables[1]


def test_bench_target_section_and_seed_reach_run_benchmark(monkeypatch):
    import graphevade.cli as cli_module
    from graphevade.cli import _bench_from_spec

    def reached(**kw):
        raise RuntimeError(kw["target"])

    monkeypatch.setattr(cli_module, "run_benchmark", reached)
    with pytest.raises(RuntimeError) as exc:
        _bench_from_spec(dict(BENCH_SPEC, target={"wl_iters": 1, "C": 2.5}), 7, 1)
    assert exc.value.args[0] == TargetConfig(wl_iters=1, C=2.5, seed=7)


def test_bench_reports_progress_on_stderr(tmp_path, capsys):
    spec = Path(__file__).resolve().parent.parent / "benchmarks" / "smoke.json"
    assert run(["bench", "--spec", spec, "--out", tmp_path / "a", "--json"]) == 0
    out, err = capsys.readouterr()
    cells = 1 * 3 * 2  # configs x methods x repetitions
    lines = err.splitlines()
    assert [line.split(" cells")[0] for line in lines] == [
        f"bench: {i}/{cells}" for i in range(1, cells + 1)]
    assert all("elapsed" in line and "ETA" in line for line in lines)
    assert sorted(json.loads(out)) == [  # stdout stays one JSON document
        "critical_difference", "friedman_p", "mean_decline_pp", "out"]


def test_bench_budget_sweep_shape(tmp_path):
    spec_doc = dict(BENCH_SPEC)
    spec_doc["budgets"] = [1e-3, 2e-3, 3e-3]
    spec = write_spec(tmp_path / "sweep.json", spec_doc)
    out = tmp_path / "sweep"
    assert run(["bench", "--spec", spec, "--out", out]) == 0
    csv = (out / "results.csv").read_text().splitlines()
    rows = {line.split(",")[0] for line in csv[1:]}
    assert rows == {"tiny:r=0.001", "tiny:r=0.002", "tiny:r=0.003"}


def test_rank_command_roundtrip(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    bench_out = tmp_path / "bench"
    assert run(["bench", "--spec", spec, "--out", bench_out]) == 0
    rank_out = tmp_path / "rank"
    assert run(["rank", "--table", bench_out / "results.csv",
                "--out", rank_out, "--json"]) == 0
    assert (rank_out / "rank_report.json").read_bytes() == \
        (bench_out / "rank_report.json").read_bytes()


def test_rank_quoted_names_roundtrip(tmp_path):
    table = ResultTable(("a,b", 'say "hi"'), ("m,1", "m2"),
                        np.arange(8, dtype=float).reshape(2, 2, 2) - 4.0)
    path = tmp_path / "results.csv"
    path.write_text(table.to_csv(), encoding="utf-8")
    out = tmp_path / "rank"
    assert run(["rank", "--table", path, "--out", out]) == 0
    back = ResultTable.from_csv((out / "results.csv").read_text(encoding="utf-8"))
    assert back.row_names == table.row_names
    assert back.method_names == table.method_names
    assert np.array_equal(back.values, table.values)
    assert (out / "results.csv").read_bytes() == path.read_bytes()


def test_rank_rep_gap_exit_2(tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_text("row,method,rep,decline\n"
                    "c,a,0,-1.0\nc,a,2,-2.0\nc,b,0,-1.5\nc,b,2,-0.5\n")
    assert run(["rank", "--table", path, "--out", tmp_path / "rank"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "c,a,0,-1.0\nc,a,1,nan\nc,b,0,-1.5\nc,b,1,-0.5\n",
    "c,a,0,-1.0\nc,a,1,-2.0\nc,b,0,-1.5\nc,b,1,-0.5\nc,a,0,-99.0\n",
], ids=["nan-decline", "repeated-cell"])
def test_rank_non_finite_or_repeated_decline_exit_2(tmp_path, capsys, body):
    path = tmp_path / "results.csv"
    path.write_text("row,method,rep,decline\n" + body)
    assert run(["rank", "--table", path, "--out", tmp_path / "rank"]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "rank").exists()


@pytest.mark.parametrize("alpha,methods,reps", [
    ("0.01", ("a", "b"), 2),  # no embedded q table
    ("0.05", ("a",), 2),      # one method
    ("0.05", ("a", "b"), 1),  # one block
])
def test_rank_unrankable_table_exit_2(tmp_path, capsys, alpha, methods, reps):
    table = ResultTable(("c",), methods, np.zeros((1, len(methods), reps)))
    path = tmp_path / "results.csv"
    path.write_text(table.to_csv(), encoding="utf-8")
    assert run(["rank", "--table", path, "--out", tmp_path / "rank", "--alpha", alpha]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "rank").exists()


def _replace_at(doc, path, value):
    """Set the value at path (keys and indexes) in doc to value."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# (command, path of the value in its JSON input, mistyped value, field the
# error names): true where an integer is due, 1.5 for an integer, a string
# for a number, an array for an object and an integer out of range
@pytest.mark.parametrize("command,path,value,field", [
    ("train-target", ("y",), True, "y"),
    ("train-target", ("edges", 0, "v"), 1.5, "v"),
    ("train-target", ("edges", 0, "w"), "1.0", "w"),
    ("train-target", ("nodes", 0), [], "node"),
    ("train-target", ("nodes", 0, "id"), 10**6, "id"),
    ("attack", ("wl_iters",), True, "wl_iters"),
    ("attack", ("svm", "n_train"), 1.5, "n_train"),
    ("attack", ("svm", "platt_a"), "1.0", "platt_a"),
    ("attack", ("svm", "kernel"), [], "kernel"),
    ("attack", ("svm", "kernel", "degree"), 0, "kernel degree"),
    ("bench", ("attack", "epochs"), True, "attack.epochs"),
    ("bench", ("configs", "tiny", "vocab_size"), 1.5, "configs.tiny.vocab_size"),
    ("bench", ("attack", "r"), "0.01", "attack.r"),
    ("bench", ("attack",), [], "attack"),
    ("bench", ("seed",), -1, "seed"),
])
def test_mistyped_value_exit_2_names_its_field(tmp_path, gen_dir, model_dir, capsys,
                                               command, path, value, field):
    bad = tmp_path / "bad.json"
    if command == "train-target":
        lines = (gen_dir / "dataset.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        _replace_at(rec, path, value)
        bad.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        args = ["--dataset", bad]
    elif command == "attack":
        doc = json.loads((model_dir / "model.json").read_text())
        _replace_at(doc, path, value)
        bad.write_text(json.dumps(doc))
        args = ["--model", bad, "--dataset", gen_dir / "dataset.jsonl", "--max-queries", "0"]
    else:
        spec = json.loads(json.dumps(BENCH_SPEC))
        _replace_at(spec, path, value)
        args = ["--spec", write_spec(bad, spec)]
    assert run([command, *args, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"field '{field}': " in err


def test_shipped_bench_specs_pass_every_check(monkeypatch):
    import graphevade.cli as cli_module
    from graphevade.cli import _bench_from_spec, _load_bench_spec

    def reached(**kw):
        raise RuntimeError("checks passed")

    monkeypatch.setattr(cli_module, "run_benchmark", reached)
    root = Path(__file__).resolve().parent.parent / "benchmarks"
    for name in ("reference.json", "budgets.json", "smoke.json"):
        with pytest.raises(RuntimeError, match="checks passed"):
            _bench_from_spec(_load_bench_spec(root / name), None, 1)


def test_json_mode_stdout_is_pure_json(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["gen", "--out", out, "--n-train", "2", "--n-test", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_graphs"] == 6


def test_shipped_bench_specs_are_valid():
    from graphevade.cli import _load_bench_spec

    root = Path(__file__).resolve().parent.parent / "benchmarks"
    for name in ("reference.json", "budgets.json", "smoke.json"):
        spec = _load_bench_spec(root / name)
        assert spec["configs"] and spec["methods"]


def test_spec_omitting_ranges_uses_generator_defaults():
    from graphevade.cli import _bench_from_spec
    from graphevade.synth_data import GeneratorConfig
    import graphevade.cli as cli_module

    captured = {}

    def fake_run_benchmark(methods, configs, **kw):
        captured["configs"] = configs
        raise RuntimeError("stop")

    original = cli_module.run_benchmark
    cli_module.run_benchmark = fake_run_benchmark
    try:
        spec = {"configs": {"c": {"n_train_per_class": 5, "n_test_per_class": 2}},
                "methods": [{"name": "m"}]}
        with pytest.raises(RuntimeError):
            _bench_from_spec(spec, None, 1)
    finally:
        cli_module.run_benchmark = original
    cfg = captured["configs"]["c"]
    defaults = GeneratorConfig()
    assert cfg.objects_range == defaults.objects_range
    assert cfg.features_per_object_range == defaults.features_per_object_range


# --- non-finite and mistyped values are config errors ------------------------

@pytest.mark.parametrize("r", ["inf", "nan"])
def test_attack_non_finite_r_exit_2_before_reading_inputs(tmp_path, capsys, r):
    # the model and dataset do not exist: the ratio is checked first
    assert run(["attack", "--model", tmp_path / "missing.json",
                "--dataset", tmp_path / "missing.jsonl", "--out", tmp_path / "a",
                "--r", r]) == 2
    assert capsys.readouterr().err.startswith("config error: perturbation ratio")
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("flags", [
    ["--weight-high", "inf"],
    ["--weight-low", "1e308", "--weight-high", "1.7e308"],  # the midpoint overflows
    ["--delta", "inf"],
    ["--delta", "nan"],
])
def test_gen_non_finite_value_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "g"
    assert run(["gen", "--out", out, "--n-train", "2", "--n-test", "1", *flags]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (out / "dataset.jsonl").exists()


@pytest.mark.parametrize("y", [True, -1.0, 1.0])
def test_train_target_non_integer_label_names_its_line(tmp_path, gen_dir, capsys, y):
    lines = (gen_dir / "dataset.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["y"] = y
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:3] + [json.dumps(rec)] + lines[4:]) + "\n")
    assert run(["train-target", "--dataset", bad, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: dataset {bad}: line 4: field 'y': ")
    assert not (tmp_path / "out" / "model.json").exists()


# --- a file that is not UTF-8 text is a config error -------------------------

@pytest.mark.parametrize("command", ["train-target", "attack", "bench"])
def test_non_utf8_dataset_or_spec_exit_2_names_the_file(tmp_path, gen_dir, model_dir,
                                                        capsys, command):
    bad = tmp_path / "latin1.bin"
    bad.write_bytes(b"\xff" + (gen_dir / "dataset.jsonl").read_bytes())
    args = {"train-target": ["--dataset", bad],
            "attack": ["--model", model_dir / "model.json", "--dataset", bad],
            "bench": ["--spec", bad]}[command]
    assert run([command, *args, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err
    assert not (tmp_path / "out").exists()


# --- gen's, train-target's and attack's flags are their config's fields -----

@pytest.mark.parametrize("command, cls, required", [
    ("gen", GeneratorConfig, ["--out", "x"]),
    ("attack", AttackConfig, ["--model", "m", "--dataset", "d", "--out", "o"]),
    ("train-target", TargetConfig, ["--dataset", "d", "--out", "o"]),
])
def test_config_flags_default_to_the_config(command, cls, required):
    parser = build_parser()
    assert _config_from_args(cls, parser.parse_args([command, *required])) == cls()
    sub = next(a for a in parser._actions if a.dest == "command")
    dests = [a.dest for a in sub.choices[command]._actions]
    for f in fields(cls):
        assert dests.count(f.name) == 1, f.name


@pytest.mark.parametrize("command", ["gen", "attack", "train-target"])
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    golden = Path(__file__).parent / "data" / f"help_{command.replace('-', '_')}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
