"""Command-line audits: load a model document, check fairness notions,
emit JSON (default) or text reports.

Exit codes: 0 when the requested notion holds, 1 when it is violated,
2 on usage, parse, or capacity errors and on internal errors. Reports
are byte-stable for identical inputs and flags; pass --timing to
include wall-clock milliseconds (which breaks byte-stability, so it is
off by default).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
import time
import traceback
from dataclasses import replace
from typing import Sequence

from . import boolexpr
from . import classifier as classifier_mod
from . import explain, fairness, model, satcheck
from .classifier import Classifier
from .errors import DocumentError, FairauditError
from .explain import Explanation
from .model import ConstrainedSpace, ConstraintSet, FeatureSpace, Instance


def entrypoint() -> None:
    sys.exit(main())


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FairauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a failed cross-check is a bug, never a verdict: 1 would read "unfair"
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairaudit",
        description="Audit classifier fairness over constrained feature spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="model document (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--ignore-constraints",
            action="store_true",
            help="audit as if the constraint list were empty",
        )
        p.add_argument("--timing", action="store_true", help="include timing_ms")

    def audit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--notion",
            choices=("ftu", "existential", "universal"),
            default="existential",
            help="headline fairness notion (default: existential)",
        )
        p.add_argument("--per-decision", action="store_true")
        p.add_argument("--engine", choices=("exhaustive", "search"), default="exhaustive")

    p_audit = sub.add_parser("audit", help="classifier-level fairness verdicts")
    common(p_audit)
    audit_flags(p_audit)
    p_audit.set_defaults(handler=_cmd_audit)

    p_explain = sub.add_parser("explain", help="explanations for one decision")
    common(p_explain)
    p_explain.add_argument(
        "--instance", required=True, help="comma-separated feature values"
    )
    p_explain.set_defaults(handler=_cmd_explain)

    p_check = sub.add_parser("check", help="structural checks on the model")
    common(p_check)
    p_check.add_argument(
        "--what",
        required=True,
        choices=("loose", "disentangled", "decomposable", "scope"),
    )
    p_check.set_defaults(handler=_cmd_check)

    p_export = sub.add_parser("export-cnf", help="write the FTU query as DIMACS CNF")
    common(p_export)
    p_export.add_argument("out", help="output path for the DIMACS file")
    p_export.set_defaults(handler=_cmd_export_cnf)

    p_ftci = sub.add_parser(
        "ftci", help="extend the protected set along a causal graph, then audit"
    )
    common(p_ftci)
    p_ftci.add_argument("graph", help="causal graph document (JSON)")
    audit_flags(p_ftci)
    p_ftci.set_defaults(handler=_cmd_ftci)
    return parser


# ---------------------------------------------------------------------------
# Loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def _load(args) -> tuple[FeatureSpace, ConstraintSet, Classifier, str]:
    space, constraints, k_obj = model.parse_document(_read(args.model))
    if k_obj is None:
        raise DocumentError("model document has no 'classifier' section")
    k = classifier_mod.parse_classifier(k_obj, space)
    if args.ignore_constraints:
        constraints = ConstraintSet()
    digest = _digest(space, constraints, k)
    return space, constraints, k, digest


def _digest(space: FeatureSpace, constraints: ConstraintSet, k: Classifier) -> str:
    canonical = model.canonical_document(
        space, constraints, classifier_mod.classifier_to_json(k, space)
    )
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Rendering helpers


def _instance_json(space: FeatureSpace, x: Instance) -> dict:
    return {f.name: v for f, v in zip(space.features, x)}


def _explanation_json(space: FeatureSpace, e: Explanation, x: Instance) -> dict:
    return {
        "features": [space.features[i].name for i in e.features],
        "assignment": {space.features[i].name: x[i] for i in e.features},
        "fair": e.fair,
        "coverage": e.coverage_size,
    }


def _decision_witness(space: FeatureSpace, d: explain.Decision) -> dict:
    return {"instance": _instance_json(space, d.instance), "label": d.label}


def _loose_witness(space: FeatureSpace, violation: tuple[Instance, int]) -> dict:
    x, p = violation
    return {
        "instance": _instance_json(space, x),
        "protected_feature": space.features[p].name,
    }


def _pi_pair(space: FeatureSpace, dv: fairness.DecisionVerdict) -> dict:
    x = dv.decision.instance
    return {
        "fair_pi": _explanation_json(space, dv.fair_pi, x) if dv.fair_pi else None,
        "unfair_pi": _explanation_json(space, dv.unfair_pi, x) if dv.unfair_pi else None,
    }


def _base_report(space: FeatureSpace, cs: ConstrainedSpace, digest: str) -> dict:
    return {
        "model_digest": digest,
        "space": {
            "features": space.n,
            "size_unconstrained": space.full_size(),
            "size_constrained": len(cs),
        },
        "scope_profile": model.constraint_scope_profile(space, cs.constraints).value,
    }


def _emit(args, report: dict, text_lines: list[str], started: float) -> None:
    report["timing_ms"] = (
        round((time.perf_counter() - started) * 1000.0, 3) if args.timing else None
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
        if args.timing:
            print(f"timing: {report['timing_ms']} ms")


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args) -> int:
    started = time.perf_counter()
    space, constraints, k, digest = _load(args)
    cs = model.enumerate_space(space, constraints)
    report, lines, code = _audit_body(args, space, cs, k, digest)
    _emit(args, report, lines, started)
    return code


def _audit_body(args, space, cs, k, digest, extra: dict | None = None):
    every = tuple(fairness.decision_verdicts(cs, k)) if args.per_decision else None
    verdict = fairness.classifier_verdict(cs, k)
    if args.engine == "search":
        holds, pair = fairness.check_ftu(cs, k, "search")
        if holds != verdict.ftu:
            raise AssertionError("FTU engines disagree")
        if pair is not None:
            verdict = replace(verdict, ftu_counterexample=pair)
    warnings = list(fairness.space_warnings(cs))
    witnesses: dict = {}
    if verdict.ftu_counterexample is not None:
        x, y = verdict.ftu_counterexample
        witnesses["ftu"] = {
            "x": _instance_json(space, x),
            "y": _instance_json(space, y),
            "labels": [cs.label_at(k, x), cs.label_at(k, y)],
        }
    if verdict.existential_failure is not None:
        witnesses["existential"] = _decision_witness(space, verdict.existential_failure)
    if verdict.universal_failure is not None:
        d = verdict.universal_failure
        witnesses["universal"] = {
            **_decision_witness(space, d),
            "unfair_explanation": _explanation_json(
                space, verdict.universal_unfair_pi, d.instance
            ),
        }
    if verdict.loose_violation is not None:
        witnesses["loose"] = _loose_witness(space, verdict.loose_violation)
    if verdict.disentangled_failure is not None:
        witnesses["disentangled"] = _decision_witness(space, verdict.disentangled_failure)
    headline = {
        "ftu": verdict.ftu,
        "existential": verdict.existential,
        "universal": verdict.universal,
    }[args.notion]
    report = _base_report(space, cs, digest)
    if extra:
        report.update(extra)
    report["verdicts"] = {
        "notion": args.notion,
        "fair": headline,
        "ftu": verdict.ftu,
        "existential": verdict.existential,
        "universal": verdict.universal,
        "loose": verdict.loose,
        "disentangled": verdict.disentangled,
    }
    report["witnesses"] = witnesses
    if every is not None:
        report["per_decision"] = [_decision_json(space, dv) for dv in every]
    report["warnings"] = warnings
    lines = [
        f"model {args.model} (digest {digest[:12]})",
        f"space: {space.n} features, |F| = {space.full_size()}, "
        f"|F[C]| = {len(cs)}",
        f"scope profile: {report['scope_profile']}",
        f"constrained FTU: {_word(verdict.ftu)}",
        f"existential fairness: {_word(verdict.existential)}",
        f"universal fairness: {_word(verdict.universal)}",
        f"loose constraints: {_word(verdict.loose)}",
        f"disentangled: {_word(verdict.disentangled)}",
        f"headline [{args.notion}]: {'FAIR' if headline else 'NOT FAIR'}",
    ]
    for w in warnings:
        lines.append(f"warning: {w}")
    return report, lines, 0 if headline else 1


def _decision_json(space, dv) -> dict:
    return {
        **_decision_witness(space, dv.decision),
        "status": dv.status.value,
        **_pi_pair(space, dv),
    }


def _word(flag: bool) -> str:
    return "holds" if flag else "violated"


# ---------------------------------------------------------------------------
# explain


# an --instance integer: ASCII digits with an optional sign, so no "1_0"
# and no digits of other scripts, which int() would both take
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_instance(space: FeatureSpace, text: str) -> Instance:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != space.n:
        raise DocumentError(
            f"--instance has {len(parts)} values, the space has {space.n} features"
        )
    values = []
    for feat, raw in zip(space.features, parts):
        if feat.is_boolean:
            if raw in ("true", "1"):
                values.append(True)
            elif raw in ("false", "0"):
                values.append(False)
            else:
                raise DocumentError(
                    f"feature {feat.name!r} is boolean, got {raw!r}"
                )
        elif _INTEGER.fullmatch(raw):
            values.append(int(raw))
        else:
            raise DocumentError(f"feature {feat.name!r} is integer-valued, got {raw!r}")
    return space.validate_instance(values)


def _cmd_explain(args) -> int:
    started = time.perf_counter()
    space, constraints, k, digest = _load(args)
    cs = model.enumerate_space(space, constraints)
    x = _parse_instance(space, args.instance)
    violated = cs.constraints.first_violated(x)
    if violated is not None:
        raise DocumentError(
            "instance violates constraint "
            f"{boolexpr.pretty(violated.expr, space.names)!r}"
        )
    dv = fairness.decision_verdict(cs, explain.make_decision(cs, k, x))
    report = _base_report(space, cs, digest)
    report["instance"] = _instance_json(space, x)
    report["label"] = dv.decision.label
    report["axps"] = [_explanation_json(space, e, x) for e in dv.axps]
    report["pi_explanations"] = [_explanation_json(space, e, x) for e in dv.pis]
    report["verdict"] = {"status": dv.status.value, **_pi_pair(space, dv)}
    report["warnings"] = list(fairness.space_warnings(cs))
    lines = [
        f"decision: {_instance_json(space, x)} -> {dv.decision.label}",
        "axps: " + _render_sets(space, dv.axps),
        "pi explanations: " + _render_sets(space, dv.pis),
        f"status: {dv.status.value}",
    ]
    _emit(args, report, lines, started)
    return 0 if dv.status is not fairness.DecisionStatus.UNFAIR else 1


def _render_sets(space, explanations) -> str:
    if not explanations:
        return "(none)"
    rendered = []
    for e in explanations:
        names = ",".join(space.features[i].name for i in e.features)
        tag = "fair" if e.fair else "unfair"
        rendered.append("{" + names + "}" + f" [{tag}]")
    return " ".join(rendered)


# ---------------------------------------------------------------------------
# check


def _cmd_check(args) -> int:
    started = time.perf_counter()
    space, constraints, k, digest = _load(args)
    cs = model.enumerate_space(space, constraints)
    report = _base_report(space, cs, digest)
    report["check"] = args.what
    witnesses: dict = {}
    where = ""
    if args.what == "scope":
        holds = True
    elif args.what == "loose":
        holds, violation = fairness.check_loose(cs)
        if violation is not None:
            w = witnesses["loose"] = _loose_witness(space, violation)
            where = f" at {w['instance']} via {w['protected_feature']}"
    elif args.what == "decomposable":
        holds = fairness.check_decomposable(cs)
    else:  # disentangled
        holds, failure = fairness.check_disentangled(cs, k)
        if failure is not None:
            w = witnesses["disentangled"] = _decision_witness(space, failure)
            where = f" at {w['instance']}"
    scope = args.what == "scope"
    report["result"] = report["scope_profile"] if scope else holds
    line = f"{args.what}: {report['result'] if scope else _word(holds)}{where}"
    report["witnesses"] = witnesses
    report["warnings"] = list(fairness.space_warnings(cs))
    _emit(args, report, [line], started)
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# export-cnf


def _cmd_export_cnf(args) -> int:
    space, constraints, k, digest = _load(args)
    cs = model.enumerate_space(space, constraints)
    formula = satcheck.encode_ftu_counterexample(cs, k)
    text = satcheck.export_dimacs(formula)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {args.out}: {formula.variable_count} variables, "
          f"{len(formula.clauses)} clauses")
    for var, name in sorted(formula.comment_map.items()):
        print(f"  {var} {name}")
    return 0


# ---------------------------------------------------------------------------
# ftci


def _cmd_ftci(args) -> int:
    started = time.perf_counter()
    space, constraints, k, digest = _load(args)
    graph = fairness.parse_causal_graph(model.load_json(_read(args.graph)))
    extended = fairness.extend_protected_ftci(space, graph)
    newly = sorted(
        extended.features[i].name for i in extended.protected - space.protected
    )
    cs = model.enumerate_space(extended, constraints)
    extra = None
    if newly:
        extra = {
            "ftci": {
                "newly_protected": newly,
                "protected": sorted(
                    extended.features[i].name for i in extended.protected
                ),
            }
        }
    report, lines, code = _audit_body(args, extended, cs, k, digest, extra)
    if newly:
        lines.insert(1, "newly protected: " + ", ".join(newly))
    _emit(args, report, lines, started)
    return code


if __name__ == "__main__":
    entrypoint()
