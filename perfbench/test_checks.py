"""Tests of the benchmark's output checks and model families.

    python3 -m pytest perfbench

Each check must accept fairaudit's answers on the fixtures and on small
generated models, and reject a corrupted answer. The fixtures carry only
S-expression text, so their predicates come from a small evaluator
written here, apart from fairaudit's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import models  # noqa: E402
from checks import CheckFailed, Reference  # noqa: E402
from fairaudit import classifier, cli, fairness, model  # noqa: E402

FIXTURES = sorted(
    p for p in (HERE.parent / "fixtures").glob("*.json")
    if "classifier" in json.loads(p.read_text())
)


# ---------------------------------------------------------------------------
# Fixture documents as predicates


def _tokens(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _tree(tokens: list):
    tok = tokens.pop(0)
    if tok != "(":
        return tok
    out = []
    while tokens[0] != ")":
        out.append(_tree(tokens))
    tokens.pop(0)
    return out


def _const(tok: str):
    return tok == "true" if tok in ("true", "false") else int(tok)


def _compile(node, index: dict):
    """Predicate over instance tuples for one parsed expression."""
    if isinstance(node, str):
        if node in ("true", "false"):
            value = node == "true"
            return lambda x: value
        i = index[node]
        return lambda x: x[i] is True
    op, *args = node
    if op in ("=", "le", "lt"):
        i, c = index[args[0]], _const(args[1])
        return {
            "=": lambda x: x[i] == c,
            "le": lambda x: x[i] <= c,
            "lt": lambda x: x[i] < c,
        }[op]
    subs = [_compile(a, index) for a in args]
    if op == "not":
        return lambda x: not subs[0](x)
    if op == "and":
        return lambda x: all(s(x) for s in subs)
    if op == "or":
        return lambda x: any(s(x) for s in subs)
    if op == "implies":
        return lambda x: not subs[0](x) or subs[1](x)
    if op == "iff":
        return lambda x: subs[0](x) == subs[1](x)
    raise ValueError(op)


def _names_in(node) -> set:
    if isinstance(node, str):
        return {node}
    return set().union(*(_names_in(a) for a in node[1:])) if node[1:] else set()


def fixture_model(path: Path) -> models.Model:
    doc = json.loads(path.read_text())
    names = tuple(f["name"] for f in doc["features"])
    index = {name: i for i, name in enumerate(names)}
    constraints = []
    for text in doc.get("constraints", []):
        node = _tree(_tokens(text))
        scope = frozenset(index[n] for n in _names_in(node) if n in index)
        constraints.append(models.Constraint(text, scope, _compile(node, index)))
    k = doc["classifier"]
    if k["form"] == "expression":
        pred = _compile(_tree(_tokens(k["expr"])), index)
        label = lambda x: int(pred(x))
    elif k["form"] == "table":
        rows = {tuple(r[:-1]): r[-1] for r in k["rows"]}
        label = lambda x: rows[x]
    else:
        nodes = {node["id"]: node for node in k["nodes"]}
        root = k["nodes"][0]["id"]

        def label(x):
            node = nodes[root]
            while "label" not in node:
                hit = x[index[node["feature"]]] == node["value"]
                node = nodes[node["if_true"] if hit else node["if_false"]]
            return node["label"]

    return models.Model(
        path.stem, names, tuple(tuple(f["domain"]) for f in doc["features"]),
        frozenset(i for i, f in enumerate(doc["features"]) if f.get("protected")),
        tuple(constraints), k, label,
    )


# ---------------------------------------------------------------------------
# Running the program


def run_cli(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def write(tmp_path: Path, m: models.Model) -> Path:
    path = tmp_path / "model.json"
    path.write_text(m.document())
    return path


def instance_arg(x) -> str:
    return ",".join(str(int(v)) for v in x)


def explain(path: Path, x) -> tuple[int, dict]:
    return run_cli(["explain", str(path), "--instance", instance_arg(x)])


def search(text: str):
    space, constraints = model.parse_model(text)
    k = classifier.parse_classifier(json.loads(text)["classifier"], space)
    return fairness.check_ftu(model.enumerate_space(space, constraints), k, "search")


def small_models() -> list[models.Model]:
    """Generated models small enough for a test: every family, fewer
    features."""
    rng = random.Random(7)
    return (
        models.audit_fair(3, n=8)
        + [models.onehot(3, 9), models.loose(3, 10)]
        + [models._ftu_model(rng, f"ftu/{form}-{fair}", 9, form, fair)
           for form in ("table", "tree") for fair in (True, False)]
    )


# ---------------------------------------------------------------------------
# The checks accept the program's answers


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_checks_accept_fixture_answers(path):
    m = fixture_model(path)
    ref = Reference(m)
    checks.check_audit(ref, *run_cli(["audit", str(path), "--notion", "universal"]))
    for x in ref.instances:
        checks.check_explain(ref, x, *explain(path, x))
    checks.check_ftu(ref, *search(path.read_text()))


@pytest.mark.parametrize("m", small_models(), ids=lambda m: m.name)
def test_checks_accept_generated_answers(m, tmp_path):
    ref = Reference(m)
    path = write(tmp_path, m)
    if m.ftu is not None:
        assert ref.ftu() == m.ftu  # the construction holds
        checks.check_ftu(ref, *search(m.document()))
    if not m.crossing:
        checks.check_audit(ref, *run_cli(["audit", str(path), "--notion", "universal"]))
    for x in [m.instance] if m.instance else ref.instances[:8]:
        checks.check_explain(ref, x, *explain(path, x))


def test_audit_fair_models_are_fair_by_construction(tmp_path):
    for m in models.audit_fair(5, n=8):
        assert not m.crossing and m.ftu
        code, report = run_cli(["audit", str(write(tmp_path, m)), "--notion", "universal"])
        assert code == 0 and report["verdicts"]["universal"]


def test_seed_changes_documents_but_not_sizes():
    for family in (lambda s: models.audit_fair(s, n=8), lambda s: [models.onehot(s, 9)]):
        a, b, c = family(1), family(1), family(2)
        assert [m.document() for m in a] == [m.document() for m in b]
        assert [m.document() for m in a] != [m.document() for m in c]
        assert [len(Reference(m).instances) for m in a] == [
            len(Reference(m).instances) for m in c
        ]


# ---------------------------------------------------------------------------
# The checks reject corrupted answers


def _explained_with_axps(at_least: int):
    """A fixture decision whose report lists at least that many AXps."""
    for path in FIXTURES:
        ref = Reference(fixture_model(path))
        for x in ref.instances:
            code, report = explain(path, x)
            if len(report["axps"]) >= at_least:
                return ref, x, code, report
    raise AssertionError("no fixture decision has enough AXps")


def test_explain_rejects_non_minimal_axp():
    ref, x, code, report = _explained_with_axps(1)
    m = ref.model
    axp = next(e for e in report["axps"] if len(e["features"]) < m.n)
    extra = next(name for name in m.names if name not in axp["features"])
    feats = [name for name in m.names if name in axp["features"] or name == extra]
    idx = [m.names.index(name) for name in feats]
    axp.update(
        features=feats,
        assignment={name: x[i] for name, i in zip(feats, idx)},
        fair=all(i not in m.protected for i in idx),
        coverage=ref.coverage(x, idx).bit_count(),
    )
    with pytest.raises(CheckFailed, match="not minimal"):
        checks.check_explain(ref, x, code, report)


def test_explain_rejects_dropped_axp():
    ref, x, code, report = _explained_with_axps(2)
    dropped = report["axps"].pop()
    report["pi_explanations"] = [
        e for e in report["pi_explanations"] if e["features"] != dropped["features"]
    ]
    with pytest.raises(CheckFailed, match="missing|sampled set"):
        checks.check_explain(ref, x, code, report)


def test_explain_rejects_wrong_status():
    ref, x, code, report = _explained_with_axps(1)
    statuses = {"UNIVERSALLY_FAIR", "EXISTENTIALLY_FAIR_ONLY", "UNFAIR"}
    report["verdict"]["status"] = sorted(statuses - {report["verdict"]["status"]})[0]
    with pytest.raises(CheckFailed, match="status"):
        checks.check_explain(ref, x, code, report)


def _searched(fair: bool):
    m = models._ftu_model(random.Random(1), "ftu", 9, "tree", fair)
    return m, Reference(m), search(m.document())


@pytest.mark.parametrize("fair", (True, False))
def test_ftu_rejects_flipped_verdict(fair):
    _, ref, (holds, pair) = _searched(fair)
    checks.check_ftu(ref, holds, pair)
    with pytest.raises(CheckFailed, match="FTU verdict"):
        checks.check_ftu(ref, not holds, pair)


def test_ftu_rejects_witness_differing_off_the_protected_features():
    m, ref, (holds, (x, y)) = _searched(False)
    for i in m.unprotected:
        z = tuple(not v if j == i else v for j, v in enumerate(y))
        if m.satisfied(z):
            break
    with pytest.raises(CheckFailed, match="differs on an unprotected feature"):
        checks.check_ftu(ref, holds, (x, z))


def test_audit_rejects_wrong_size_and_verdict(tmp_path):
    m = models.audit_fair(2, n=8)[0]
    ref = Reference(m)
    code, report = run_cli(["audit", str(write(tmp_path, m)), "--notion", "universal"])
    report["space"]["size_constrained"] += 1
    with pytest.raises(CheckFailed, match="size_constrained"):
        checks.check_audit(ref, code, report)
    report["space"]["size_constrained"] -= 1
    report["verdicts"]["universal"] = False
    with pytest.raises(CheckFailed, match="universal"):
        checks.check_audit(ref, code, report)
