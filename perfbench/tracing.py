"""The traced run: spans recorded from outside the program.

Each traced operation runs once untraced, once inside a span, and then
again stage by stage: every public entry point the operation reaches is
called directly, in the state the per-layer table in README.md names,
inside a span of its own. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from fairaudit import classifier, explain, fairness, model, satcheck

# (name, unit); a time is the median over operations that call the
# stage of that operation's summed self time; a count covers one round
PER_LAYER = (
    ("model.parse_ms", "ms"),
    ("model.enumerate_ms", "ms"),
    ("model.value_masks_ms", "ms"),
    ("model.labels_ms", "ms"),
    ("model.full_size", "count"),
    ("model.constrained_size", "count"),
    ("explain.axps_ms", "ms"),
    ("explain.pi_filter_ms", "ms"),
    ("explain.decisions", "count"),
    ("explain.axps_total", "count"),
    ("explain.axps_max", "count"),
    ("explain.pis_total", "count"),
    ("fairness.classifier_verdict_ms", "ms"),
    ("fairness.decision_verdict_ms", "ms"),
    ("fairness.ftu_exhaustive_ms", "ms"),
    ("fairness.loose_ms", "ms"),
    ("fairness.disentangled_ms", "ms"),
    ("satcheck.encode_ms", "ms"),
    ("satcheck.search_ms", "ms"),
    ("satcheck.decode_ms", "ms"),
    ("satcheck.cnf_vars", "count"),
    ("satcheck.cnf_clauses", "count"),
    ("satcheck.dpll_nodes", "count"),
    ("cli.main_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

# library stages that cli.main runs for each command
_CLI_STAGES = {
    "audit": ("model.parse", "model.enumerate", "fairness.classifier_verdict"),
    "explain": (
        "model.parse", "model.enumerate", "model.value_masks", "model.labels",
        "explain.axps", "explain.pi_filter", "fairness.decision_verdict",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.cli_overhead: list[float] = []
        self.trace_overhead: list[float] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def count_max(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def _self_ms(self) -> dict[int, dict[str, float]]:
        """Per root span: summed self time in ms of each span name."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] += (s["end"] - s["start"]) * 1000.0
        roots: dict[int, dict[str, float]] = {}
        root_of: list[int] = []
        for s in self.spans:
            root = s["id"] if s["parent"] is None else root_of[s["parent"]]
            root_of.append(root)
            own = (s["end"] - s["start"]) * 1000.0 - child_ms[s["id"]]
            by_name = roots.setdefault(root, {})
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + own
        return roots

    def metrics(self) -> dict[str, dict]:
        per_root = self._self_ms().values()
        out = {}
        for name, unit in PER_LAYER:
            if unit == "count":
                value = self.counts.get(name, 0)
            elif name == "cli.overhead_ms":
                value = _median(self.cli_overhead)
            elif name == "trace.overhead_ms":
                value = _median(self.trace_overhead)
            else:
                stage = name[: -len("_ms")]
                value = _median([r[stage] for r in per_root if stage in r])
            out[name] = {"value": value, "unit": unit}
        return out


def _median(values) -> float:
    """0.0 when the workload never calls the stage."""
    return statistics.median(values) if values else 0.0


def _ms(record: dict) -> float:
    return (record["end"] - record["start"]) * 1000.0


def build(tracer: Tracer, text: str):
    """Parse a document and enumerate its space, each in a span."""
    with tracer.span("model.parse"):
        space, constraints = model.parse_model(text)
        k = classifier.parse_classifier(json.loads(text)["classifier"], space)
    with tracer.span("model.enumerate"):
        cs = model.enumerate_space(space, constraints)
    return space, constraints, k, cs


def _model_stages(tracer: Tracer, text: str, counting: bool):
    space, constraints, k, cs = build(tracer, text)
    with tracer.span("model.value_masks"):
        cs.value_mask(0, space.features[0].domain[0])
    with tracer.span("model.labels"):
        for label in range(k.class_count):
            cs.label_mask(k, label)
    if counting:
        tracer.count("model.full_size", space.full_size())
        tracer.count("model.constrained_size", len(cs))
    return space, constraints, k, cs


def _explain_stages(tracer: Tracer, cs, d, counting: bool) -> None:
    with tracer.span("explain.axps"):
        axps = explain.all_axps(cs, d)
    with tracer.span("explain.pi_filter"):
        pis = explain.pi_explanations(cs, d)
    if counting:
        tracer.count("explain.decisions", 1)
        tracer.count("explain.axps_total", len(axps))
        tracer.count_max("explain.axps_max", len(axps))
        tracer.count("explain.pis_total", len(pis))


def replay_audit(tracer: Tracer, text: str, counting: bool) -> None:
    space, constraints, k, cs = _model_stages(tracer, text, counting)
    decisions = [explain.make_decision(cs, k, x) for x in cs.instances]
    for d in decisions:
        _explain_stages(tracer, cs, d, counting)
    with tracer.span("fairness.decision_verdict"):
        for d in decisions:
            fairness.decision_verdict(cs, d)
    with tracer.span("fairness.ftu_exhaustive"):
        fairness.check_ftu(cs, k, "exhaustive")
    with tracer.span("fairness.loose"):
        fairness.check_loose(cs)
    with tracer.span("fairness.disentangled"):
        fairness.check_disentangled(cs, k)
    fresh = model.enumerate_space(space, constraints)
    with tracer.span("fairness.classifier_verdict"):
        fairness.classifier_verdict(fresh, k)


def replay_explain(tracer: Tracer, text: str, x, counting: bool) -> None:
    _, _, k, cs = _model_stages(tracer, text, counting)
    d = explain.make_decision(cs, k, x)
    _explain_stages(tracer, cs, d, counting)
    with tracer.span("fairness.decision_verdict"):
        fairness.decision_verdict(cs, d)


def replay_ftu(tracer: Tracer, cs, k, counting: bool) -> None:
    with tracer.span("satcheck.encode"):
        formula = satcheck.encode_ftu_counterexample(cs, k)
    with tracer.span("satcheck.search"):
        result = satcheck.search(formula)
    if result.satisfiable:
        with tracer.span("satcheck.decode"):
            satcheck.decode_model(formula, result.model, cs, k)
    if counting:
        tracer.count("satcheck.cnf_vars", formula.variable_count)
        tracer.count("satcheck.cnf_clauses", len(formula.clauses))
        tracer.count("satcheck.dpll_nodes", result.nodes)


def record_overheads(tracer: Tracer, op_root: dict, call: dict, untraced_s: float,
                     command: str | None) -> None:
    """After one traced operation: what tracing added to the call, and
    what cli.main spent outside the library stages it runs."""
    tracer.trace_overhead.append(_ms(call) - untraced_s * 1000.0)
    if command is None:
        return
    stages = _CLI_STAGES[command]
    lib_ms = sum(
        _ms(s) for s in tracer.spans[op_root["id"] + 1:]
        if s["name"] in stages and s["parent"] == op_root["id"]
    )
    tracer.cli_overhead.append(_ms(call) - lib_ms)
