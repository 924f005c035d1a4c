"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped at the name its caller imports them
under (``attack_engine.wl_feature_vector`` is attacker-side WL,
``target_lcd.wl_feature_vectors`` is target-side WL), so no program file
changes. Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import time

# (module, attribute as that module names it, span name)
WRAPPED = (
    ("synth_data", "generate", "synth_data.generate"),
    ("target_lcd", "train_target", "target_lcd.train_target"),
    ("target_lcd", "svm_train", "learners.target_fit"),
    ("target_lcd", "wl_feature_vectors", "wl_features.target"),
    ("target_lcd", "svm_margins", "learners.target_margins"),
    ("target_lcd", "graph_hash", "graph_core.graph_hash"),
    ("target_lcd", "query", "target_lcd.query"),
    ("attack_engine", "attack_testset", "attack_engine.attack_testset"),
    ("attack_engine", "evaluate", "target_lcd.evaluate"),
    ("attack_engine", "wl_feature_vector", "wl_features.attacker"),
    ("attack_engine", "graph_hash", "graph_core.graph_hash"),
    ("attack_engine", "apply_flips", "graph_core.apply_flips"),
    ("attack_engine", "eigencentrality", "perturb.eigencentrality"),
    ("attack_engine", "plan_eigencentrality", "perturb.plan_eigencentrality"),
    ("attack_engine", "plan_random_walk", "perturb.plan_random_walk"),
    ("attack_engine", "plan_shortest_path", "perturb.plan_shortest_path"),
    ("attack_engine", "svm_train", "learners.surrogate_fit"),
    ("attack_engine", "nb_train", "learners.surrogate_fit"),
    ("attack_engine", "median_heuristic_gamma", "learners.surrogate_fit.gamma"),
    ("attack_engine", "svm_margins", "learners.surrogate_score"),
    ("attack_engine", "svm_probability", "learners.surrogate_score"),
    ("attack_engine", "nb_predict", "learners.surrogate_score"),
)

ATTACK_SPAN = "attack_engine.attack_testset"
QUERY_SPAN = "target_lcd.query"
# target-side spans count only under attack_testset: train_target runs the
# same functions during set-up, which setup_s already covers
ATTACK_ONLY = {"wl_features.target", "learners.target_margins"}

# Span outcomes of target_lcd.query, kept in the span's amount field.
HIT, CHARGED, EXHAUSTED = 0, 1, -1


class Tracer:
    """Flat span store: parallel lists indexed by span id, parent -1 at top level."""

    def __init__(self):
        self.names: list[str] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.parent: list[int] = []
        self.amount: list[int] = []
        self.scale: list[float] = []
        self._stack: list[int] = []
        self.paused = False
        self.unmeasured: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(1)
        self.scale.append(1.0)
        self.end_ns.append(0)
        self._stack.append(i)
        self.start_ns.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end_ns[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, amount=None):
        """Span every call of fn; amount(args) sets the span's amount (default 1)."""
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self._open(name)
            if amount is not None:
                self.amount[i] = amount(args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def wrap_query(self, name: str, fn, exhausted_exc):
        def traced(model, ledger, g):
            if self.paused:
                return fn(model, ledger, g)
            i = self._open(name)
            before = ledger.count
            try:
                return fn(model, ledger, g)
            except exhausted_exc:
                before = None
                raise
            finally:
                self._close(i)
                self.amount[i] = (EXHAUSTED if before is None
                                  else CHARGED if ledger.count > before else HIT)
        return traced

    def rescale(self, first: int, factor: float) -> None:
        """Express spans first.. in reference-speed seconds (see speed.py)."""
        for i in range(first, len(self.scale)):
            self.scale[i] = factor

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED; a name that is gone is noted as unmeasured."""
        for mod_name, attr, span in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unmeasured.append(f"{mod_name}.{attr}")
                continue
            if span == QUERY_SPAN:
                exhausted = getattr(module, "QueryBudgetExhausted", None)
                if exhausted is None:
                    self.unmeasured.append(f"{mod_name}.QueryBudgetExhausted")
                    continue
                wrapper = self.wrap_query(span, fn, exhausted)
            elif span == "wl_features.target":
                wrapper = self.wrap(span, fn, amount=lambda args: len(args[0]))
            else:
                wrapper = self.wrap(span, fn)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def missing_spans(self) -> set[str]:
        lost = set(self.unmeasured)
        return {span for mod, attr, span in WRAPPED
                if f"{mod}.{attr}" in lost
                or (span == QUERY_SPAN and f"{mod}.QueryBudgetExhausted" in lost)}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: reference-speed seconds, calls and summed amount;
        plus attack_testset self time (its spans minus their child spans)."""
        in_attack: list[bool] = []
        out: dict[str, dict[str, float]] = {}
        self_ns = 0.0
        for i, name in enumerate(self.names):
            p = self.parent[i]
            dur = (self.end_ns[i] - self.start_ns[i]) * self.scale[i]
            in_attack.append(name == ATTACK_SPAN or (p >= 0 and in_attack[p]))
            if name == ATTACK_SPAN:
                self_ns += dur
            elif p >= 0 and self.names[p] == ATTACK_SPAN:
                self_ns -= dur
            if name in ATTACK_ONLY and not in_attack[i]:
                continue
            t = out.setdefault(name, {"s": 0.0, "calls": 0, "amount": 0,
                                      "charged": 0, "hits": 0, "exhausted": 0})
            t["s"] += dur / 1e9
            t["calls"] += 1
            t["amount"] += self.amount[i]
            if name == QUERY_SPAN:
                key = {CHARGED: "charged", HIT: "hits", EXHAUSTED: "exhausted"}[self.amount[i]]
                t[key] += 1
        out["attack_engine.self"] = {"s": self_ns / 1e9}
        return out

    def write(self, path, extra: dict) -> None:
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.start_ns[0] if self.start_ns else 0
        doc = dict(extra)
        doc["span_names"] = names
        doc["spans"] = {
            "name": [index[n] for n in self.names],
            "start_ns": [s - t0 for s in self.start_ns],
            "dur_ns": [e - s for s, e in zip(self.start_ns, self.end_ns)],
            "parent": self.parent,
            "amount": self.amount,
            "scale": self.scale,
        }
        doc["unmeasured"] = self.unmeasured
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-layer metrics: name -> (unit, spans it needs, value from totals).
def _s(span):
    return lambda t: t.get(span, {}).get("s", 0.0)


def _calls(span):
    return lambda t: t.get(span, {}).get("calls", 0)


def _charged(t):
    return t.get(QUERY_SPAN, {}).get("charged", 0)


def _per_query(span):
    return lambda t: (t.get(span, {}).get("calls", 0) / _charged(t)) if _charged(t) else None


LAYER_METRICS = {
    "wl_features.attacker.s": ("s", ["wl_features.attacker"], _s("wl_features.attacker")),
    "wl_features.attacker.calls": ("count", ["wl_features.attacker"], _calls("wl_features.attacker")),
    "wl_features.attacker.calls_per_query": (
        "calls/query", ["wl_features.attacker", QUERY_SPAN], _per_query("wl_features.attacker")),
    "graph_core.graph_hash.s": ("s", ["graph_core.graph_hash"], _s("graph_core.graph_hash")),
    "graph_core.graph_hash.calls": ("count", ["graph_core.graph_hash"], _calls("graph_core.graph_hash")),
    "graph_core.graph_hash.calls_per_query": (
        "calls/query", ["graph_core.graph_hash", QUERY_SPAN], _per_query("graph_core.graph_hash")),
    "graph_core.apply_flips.s": ("s", ["graph_core.apply_flips"], _s("graph_core.apply_flips")),
    "graph_core.apply_flips.calls": ("count", ["graph_core.apply_flips"], _calls("graph_core.apply_flips")),
    "perturb.plan_shortest_path.s": ("s", ["perturb.plan_shortest_path"], _s("perturb.plan_shortest_path")),
    "perturb.plan_random_walk.s": ("s", ["perturb.plan_random_walk"], _s("perturb.plan_random_walk")),
    "perturb.plan_eigencentrality.s": (
        "s", ["perturb.plan_eigencentrality"], _s("perturb.plan_eigencentrality")),
    "perturb.eigencentrality.s": ("s", ["perturb.eigencentrality"], _s("perturb.eigencentrality")),
    "learners.surrogate_fit.s": (
        "s", ["learners.surrogate_fit", "learners.surrogate_fit.gamma"],
        lambda t: _s("learners.surrogate_fit")(t) + _s("learners.surrogate_fit.gamma")(t)),
    "learners.surrogate_fit.calls": ("count", ["learners.surrogate_fit"], _calls("learners.surrogate_fit")),
    "learners.surrogate_score.s": ("s", ["learners.surrogate_score"], _s("learners.surrogate_score")),
    "wl_features.target.s": ("s", ["wl_features.target"], _s("wl_features.target")),
    "wl_features.target.graphs": (
        "count", ["wl_features.target"], lambda t: t.get("wl_features.target", {}).get("amount", 0)),
    "learners.target_margins.s": ("s", ["learners.target_margins"], _s("learners.target_margins")),
    "target_lcd.query.s": ("s", [QUERY_SPAN], _s(QUERY_SPAN)),
    "target_lcd.query.calls": ("count", [QUERY_SPAN], _calls(QUERY_SPAN)),
    "target_lcd.queries_charged": ("count", [QUERY_SPAN], _charged),
    "target_lcd.query.cache_hits": ("count", [QUERY_SPAN], lambda t: t.get(QUERY_SPAN, {}).get("hits", 0)),
    "target_lcd.query.exhausted": (
        "count", [QUERY_SPAN], lambda t: t.get(QUERY_SPAN, {}).get("exhausted", 0)),
    "target_lcd.evaluate.s": ("s", ["target_lcd.evaluate"], _s("target_lcd.evaluate")),
    "synth_data.generate.s": ("s", ["synth_data.generate"], _s("synth_data.generate")),
    "target_lcd.train_target.s": ("s", ["target_lcd.train_target"], _s("target_lcd.train_target")),
    "learners.target_fit.s": ("s", ["learners.target_fit"], _s("learners.target_fit")),
    "attack_engine.attack_testset.s": ("s", [ATTACK_SPAN], _s(ATTACK_SPAN)),
    "attack_engine.self_s": ("s", [ATTACK_SPAN], lambda t: t["attack_engine.self"]["s"]),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric; one whose wrapped name is gone reads null."""
    totals = tracer.totals()
    missing = tracer.missing_spans()
    out = {}
    for name, (unit, spans, value) in LAYER_METRICS.items():
        v = None if missing.intersection(spans) else value(totals)
        out[name] = {"value": v, "unit": unit}
    return out
