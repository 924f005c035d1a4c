"""The attack benchmark's tracer at run time: it wraps target_lcd.query as
query(model, ledger, g) and reads ledger.count to tell a charged query from a
cache hit, so a change to either would drop or miscount the query layer."""

import importlib.util
from pathlib import Path

from graphevade import attack_engine, graph_core, synth_data, target_lcd
from graphevade.attack_engine import AttackConfig
from graphevade.synth_data import GeneratorConfig

TRACING = Path(__file__).resolve().parent.parent / "attackbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("attackbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attack_charges_every_query_it_measures():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install({"attack_engine": attack_engine, "graph_core": graph_core,
                    "synth_data": synth_data, "target_lcd": target_lcd})
    try:
        ds = synth_data.generate(GeneratorConfig(n_train_per_class=8, n_test_per_class=4,
                                                 seed=5))
        target = target_lcd.train_target(ds, seed=5)
        cfg = AttackConfig(r=3.0 / 900, max_queries=6, k_candidates=3, rounds=2, seed=5)
        summary = attack_engine.attack_testset(target, ds.subset("test"), cfg)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == []
    assert target_lcd.query.__name__ == "query"  # uninstalled
    totals = tracer.totals()[tracing.QUERY_SPAN]
    charged = sum(r.outcome.queries_used for r in summary.results)
    assert charged > 0
    assert totals["charged"] == charged
    assert totals["exhausted"] == 0
    assert totals["calls"] == totals["charged"] + totals["hits"]
