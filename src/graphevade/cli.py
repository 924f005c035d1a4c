"""Command-line entry point wiring generation, training, attacking, benchmarking,
and re-ranking. Every command echoes its resolved configuration beside its
outputs so reruns are reproducible byte for byte."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .attack_engine import (ORACLES, STRATEGIES, SURROGATES, AttackConfig, attack_testset,
                            summary_to_json)
from .bench_stats import (
    BenchResult,
    MethodSpec,
    ResultTable,
    bench_rows,
    cd_diagram_text,
    check_rankable,
    friedman_nemenyi,
    method_config,
    run_benchmark,
)
from .graph_core import ParseError, SchemaError, json_fields, json_value, read_dataset, write_dataset
from .learners import DegenerateLabels
from .synth_data import GeneratorConfig, InvalidConfig, generate
from .target_lcd import TargetConfig, load_target, save_target, train_target

_CONFIG_ERRORS = (InvalidConfig, SchemaError, FileNotFoundError, IsADirectoryError)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_json(path: Path, obj) -> None:
    path.write_text(_canonical_json(obj) + "\n", encoding="utf-8")


def _echo_config(out_dir: Path, command: str, config: dict) -> dict:
    doc = {"command": command, "config": config,
           "config_hash": hashlib.sha256(_canonical_json(config).encode()).hexdigest()}
    _write_json(out_dir / "run_config.json", doc)
    return doc


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        sys.stdout.write(_canonical_json(payload) + "\n")
    else:
        sys.stdout.write(human)


def _dataclass_from_dict(cls, data, what: str, exclude=()):
    """cls from the JSON object data, each value typed by its field: an
    integer, a finite number, a string or, for a tuple, an array of its
    length whose elements are typed likewise; null only where the field
    defaults to None. A field without a default is required."""
    hints = get_type_hints(cls)
    own = {f.name: f.default for f in fields(cls) if f.name not in exclude}
    json_fields(data, own, [name for name, default in own.items() if default is MISSING], what)
    values = {}
    for key, value in data.items():
        if value is None and own[key] is None:
            continue
        kind, name = hints[key], f"{what}.{key}"
        element = (get_args(kind) or (kind,))[0]  # int of tuple[int, int], float of float | None
        if get_origin(kind) is tuple:
            items = json_value(value, list, name)
            if len(items) != len(get_args(kind)):
                raise SchemaError(name, f"must be a JSON array of {len(get_args(kind))} values")
            values[key] = tuple(json_value(x, element, name) for x in items)
        else:
            values[key] = json_value(value, element, name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise InvalidConfig(f"bad {what}: {exc}") from exc


def _config_from_args(cls, args):
    """cls built from the parsed flags, whose destinations are its field names
    (a two-value flag gives a tuple)."""
    values = {f.name: getattr(args, f.name) for f in fields(cls)}
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc


def _read(what: str, path, reader):
    """reader(path); a file that is not UTF-8 text, or whose text breaks its
    format, is a config error naming it."""
    try:
        return reader(path)
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except (ParseError, SchemaError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"{what} {path}: {exc}") from exc


def cmd_gen(args) -> int:
    cfg = _config_from_args(GeneratorConfig, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = generate(cfg)
    write_dataset(ds, out_dir / "dataset.jsonl")
    echo = _echo_config(out_dir, "gen", asdict(cfg))
    manifest = {
        "seed": cfg.seed,
        "config_hash": echo["config_hash"],
        "n_graphs": len(ds),
        "n_train": sum(1 for s in ds.splits if s == "train"),
        "n_test": sum(1 for s in ds.splits if s == "test"),
        "non_separable": cfg.delta == 0,
    }
    _write_json(out_dir / "manifest.json", manifest)
    _emit(args, f"wrote {len(ds)} graphs to {out_dir / 'dataset.jsonl'}\n",
          {"dataset": str(out_dir / "dataset.jsonl"), **manifest})
    return 0


def cmd_train_target(args) -> int:
    knobs = asdict(_config_from_args(TargetConfig, args))
    echo = dict(knobs, C=None if math.isinf(args.C) else args.C)  # as model.json keeps it
    ds = _read("dataset", args.dataset, read_dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        model = train_target(ds, **knobs)
    except DegenerateLabels as exc:
        raise InvalidConfig(f"dataset {args.dataset}: train split: {exc}") from exc
    save_target(model, out_dir / "model.json")
    metrics = {"train_accuracy": model.train_accuracy,
               "test_accuracy": model.test_accuracy, **echo}
    _write_json(out_dir / "metrics.json", metrics)
    _echo_config(out_dir, "train-target", {"dataset": str(args.dataset), **echo})
    _emit(args,
          f"train accuracy {model.train_accuracy:.4f}, "
          f"test accuracy {model.test_accuracy if model.test_accuracy is not None else 'n/a'}\n",
          {"model": str(out_dir / "model.json"), **metrics})
    return 0


def cmd_attack(args) -> int:
    cfg = _config_from_args(AttackConfig, args)
    try:
        model = load_target(args.model)
    except ValueError as exc:  # an unsupported model version or a malformed field
        raise InvalidConfig(f"model {args.model}: {exc}") from exc
    ds = _read("dataset", args.dataset, read_dataset)
    if len(ds) == 0:
        raise InvalidConfig(f"dataset {args.dataset} holds no graphs")
    test = ds.subset("test")
    if len(test) == 0:
        test = ds
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = attack_testset(model, test, cfg, workers=args.workers)
    doc = summary_to_json(summary)
    _write_json(out_dir / "summary.json", doc)
    _echo_config(out_dir, "attack", doc["config"])
    _emit(args,
          (f"clean accuracy {summary.clean_accuracy:.4f} -> attacked "
           f"{summary.attacked_accuracy:.4f} (decline {summary.decline_pp:+.2f} pp, "
           f"success rate {summary.success_rate:.2f}, "
           f"mean queries {summary.mean_queries:.1f})\n"),
          {"summary": str(out_dir / "summary.json"),
           "clean_accuracy": summary.clean_accuracy,
           "attacked_accuracy": summary.attacked_accuracy,
           "decline_pp": summary.decline_pp,
           "success_rate": summary.success_rate,
           "mean_queries": summary.mean_queries})
    return 0


_SECTION_TYPES = {"seed": int, "repetitions": int, "alpha": float, "configs": dict,
                  "methods": list, "budgets": list, "attack": dict, "target": dict}


def _load_bench_spec(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json_fields(json.load(fh), _SECTION_TYPES, ("configs", "methods"), "bench spec")
    for key, value in spec.items():
        json_value(value, _SECTION_TYPES[key], key)
    for r in spec.get("budgets", ()):
        json_value(r, float, "budgets")
    if not (spec["configs"] and spec["methods"]):
        raise InvalidConfig("bench spec needs a non-empty 'configs' map and 'methods' list")
    return spec


def _bench_from_spec(spec: dict, seed_override: int | None, workers: int,
                     checked=lambda: None) -> tuple[BenchResult, dict]:
    """Check every value of spec, call checked(), then run the bench."""
    seed = spec.get("seed", 42) if seed_override is None else seed_override
    repetitions = spec.get("repetitions", 10)
    alpha = spec.get("alpha", 0.05)
    # a block's seed is the spec's seed plus its repetition
    configs = {name: _dataclass_from_dict(GeneratorConfig, raw, f"configs.{name}", exclude=("seed",))
               for name, raw in spec["configs"].items()}
    methods = [_dataclass_from_dict(MethodSpec, raw, f"methods[{i}]")
               for i, raw in enumerate(spec["methods"])]
    # the attack section sets every knob but a method's and the seed
    base = replace(_dataclass_from_dict(AttackConfig, spec.get("attack", {}), "attack",
                                        exclude=("strategy", "surrogate", "seed")), seed=seed)
    target = _dataclass_from_dict(TargetConfig, spec.get("target", {}), "target", exclude=("seed",))
    budgets = spec.get("budgets")
    # every cell's attack config, the target's seed and the ranking are
    # checked here, so a bad value fails before the first cell runs
    rows = bench_rows(configs, budgets)
    try:
        target = replace(target, seed=seed)
        for method in methods:
            for r in budgets or (None,):
                method_config(base, method, r)
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for what, names in (("method name", [m.name for m in methods]),
                            ("row", [row for row, _, _ in rows])):
            repeats = [x for i, x in enumerate(names) if x in names[:i]]
            if repeats:
                raise ValueError(f"repeated {what} {repeats[0]!r}")
            # results.csv is UTF-8 (no lone surrogates) and is read back with
            # universal newlines, which turn \r into \n
            unwritable = [x for x in names if re.search("[\r\ud800-\udfff]", x)]
            if unwritable:
                raise ValueError(f"{what} {unwritable[0]!r} holds a carriage return "
                                 "or a lone surrogate, which results.csv cannot keep")
        # one method is run and tabled but not ranked
        if len(methods) > 1:
            check_rankable(len(methods), len(rows) * repetitions, alpha)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc
    checked()
    started = time.monotonic()

    def progress(done: int, total: int) -> None:
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done)
        sys.stderr.write(f"bench: {done}/{total} cells, {elapsed:.1f} s elapsed, "
                         f"ETA {eta:.1f} s\n")

    result = run_benchmark(
        methods=methods,
        configs=configs,
        base=base,
        repetitions=repetitions,
        budgets=budgets,
        seed=seed,
        target=target,
        workers=workers,
        progress=progress,
    )
    return result, {"alpha": alpha, "seed": seed, "repetitions": repetitions}


def _write_rank_outputs(out_dir: Path, table: ResultTable, alpha: float) -> dict:
    (out_dir / "results.csv").write_text(table.to_csv(), encoding="utf-8")
    _write_json(out_dir / "results.json", table.to_json())
    if len(table.method_names) < 2:
        sys.stderr.write("bench: one method, nothing to rank: no rank_report.json, "
                         "rank_report.csv or cd_diagram.txt\n")
        return {}
    report = friedman_nemenyi(table, alpha=alpha)
    _write_json(out_dir / "rank_report.json", report.to_json())
    (out_dir / "rank_report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out_dir / "cd_diagram.txt").write_text(cd_diagram_text(report), encoding="utf-8")
    return report.to_json()


def cmd_bench(args) -> int:
    spec = _read("bench spec", args.spec, _load_bench_spec)
    out_dir = Path(args.out)
    # --out is made once the spec's values pass, before the first cell runs
    result, meta = _bench_from_spec(spec, args.seed, args.workers,
                                    checked=lambda: out_dir.mkdir(parents=True, exist_ok=True))
    report_doc = _write_rank_outputs(out_dir, result.table, meta["alpha"])
    _echo_config(out_dir, "bench", {"spec": spec, "seed": meta["seed"]})
    means = {
        m: float(result.table.method_values(m).mean())
        for m in result.table.method_names
    }
    human = "mean decline per method (pp):\n" + "".join(
        f"  {m}: {means[m]:+.3f}\n" for m in result.table.method_names)
    _emit(args, human, {"out": str(out_dir), "mean_decline_pp": means,
                        "friedman_p": report_doc.get("friedman_p"),
                        "critical_difference": report_doc.get("critical_difference")})
    return 0


def cmd_rank(args) -> int:
    try:
        table = ResultTable.from_csv(Path(args.table).read_text(encoding="utf-8"))
        check_rankable(len(table.method_names), len(table.row_names) * table.repetitions,
                       args.alpha)
    except ValueError as exc:
        raise InvalidConfig(f"cannot rank results table {args.table}: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_doc = _write_rank_outputs(out_dir, table, args.alpha)
    _echo_config(out_dir, "rank", {"table": str(args.table), "alpha": args.alpha})
    _emit(args, f"friedman p = {report_doc['friedman_p']:.6g}, "
                f"CD = {report_doc['critical_difference']:.4f}\n",
          {"out": str(out_dir), **report_doc})
    return 0


# Config fields whose flags are not --<field-name>: (flag, metavar, help).
_RENAMED = {
    "n_train_per_class": ("--n-train", "N_TRAIN", "train graphs per class"),
    "n_test_per_class": ("--n-test", "N_TEST", "test graphs per class"),
    "objects_range": ("--objects", None, None),
    "features_per_object_range": ("--features", None, "feature nodes per object"),
}
_CHOICES = {"strategy": STRATEGIES, "surrogate": SURROGATES, "oracle": ORACLES}


def _add_config_flags(parser, cls, first: str | None = None) -> None:
    """One flag per field of cls, typed and defaulted by it (LO HI for a tuple,
    the known values for _CHOICES), in field order with first leading."""
    hints = get_type_hints(cls)
    for f in sorted(fields(cls), key=lambda f: f.name != first):
        flag, meta, text = _RENAMED.get(f.name, ("--" + f.name.replace("_", "-"), None, None))
        kind, nargs = hints[f.name], None
        if get_origin(kind) is tuple:
            kind, nargs, meta = get_args(kind)[0], len(get_args(kind)), ("LO", "HI")
        parser.add_argument(flag, dest=f.name, type=kind, nargs=nargs, default=f.default,
                            choices=_CHOICES.get(f.name), metavar=meta, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphevade",
                                     description="Evasion attacks on graph-kernel "
                                                 "loop-closure classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True)
    _add_config_flags(gen, GeneratorConfig, first="seed")

    tt = sub.add_parser("train-target", help="train the victim classifier")
    tt.add_argument("--dataset", required=True)
    tt.add_argument("--out", required=True)
    _add_config_flags(tt, TargetConfig)

    atk = sub.add_parser("attack", help="attack a trained target over a test set")
    atk.add_argument("--model", required=True)
    atk.add_argument("--dataset", required=True)
    atk.add_argument("--out", required=True)
    _add_config_flags(atk, AttackConfig)
    atk.add_argument("--workers", type=int, default=1)

    bench = sub.add_parser("bench", help="run a benchmark spec")
    bench.add_argument("--spec", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed")
    bench.add_argument("--workers", type=int, default=1)

    rank = sub.add_parser("rank", help="re-rank an existing results.csv")
    rank.add_argument("--table", required=True)
    rank.add_argument("--out", required=True)
    rank.add_argument("--alpha", type=float, default=0.05)

    for name, func in (("gen", cmd_gen), ("train-target", cmd_train_target),
                       ("attack", cmd_attack), ("bench", cmd_bench), ("rank", cmd_rank)):
        sub.choices[name].add_argument("--json", action="store_true")
        sub.choices[name].set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise InvalidConfig(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
