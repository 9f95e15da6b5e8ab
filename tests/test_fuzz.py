"""Mutated fixture documents against the exit-code contract.

Every document, however broken, must exit 0 (the notion holds) or 1 (it
is violated) with a well-formed report, or 2 with a user-facing error;
never with an internal error. explain is asked about the instance of
each feature's first domain value; it exits 1 exactly when that decision
is unfair.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCUMENTS = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}


def _strings(obj) -> set[str]:
    """Every key and string value in a document."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_strings, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_strings, obj))
    return {obj} if isinstance(obj, str) else set()


STRINGS = sorted(set().union(*map(_strings, DOCUMENTS.values())))
KEYS = sorted({k for doc in DOCUMENTS.values() for k in _strings(doc) if k.isidentifier()})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.sampled_from(STRINGS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)
RETYPE = (str, lambda v: [v], lambda v: {"value": v}, bool, lambda v: None)
OPS = ("drop", "replace", "retype", "tweak", "tweak", "tweak")

COMMANDS = (
    ("audit",),
    ("audit", "--notion", "universal", "--per-decision"),
    ("audit", "--engine", "search"),
    ("check", "--what", "loose"),
    ("check", "--what", "disentangled"),
)


def _first_values(doc) -> str:
    """An --instance of the document's arity: each feature's first
    domain value, 0 where a feature has no list to take it from."""
    features = doc.get("features") if isinstance(doc, dict) else None
    values = []
    for f in features if isinstance(features, list) else ():
        domain = f.get("domain") if isinstance(f, dict) else None
        value = domain[0] if isinstance(domain, list) and domain else 0
        values.append(str(int(value)) if isinstance(value, bool) else str(value))
    return ",".join(values)


def _paths(obj, prefix=()):
    """Every position below the root, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutants(draw):
    doc = json.loads(json.dumps(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        op, value = draw(st.sampled_from(OPS)), parent[key]
        if op == "drop":
            del parent[key]
        elif op == "replace":
            parent[key] = draw(JSON)
        elif op == "retype":
            parent[key] = draw(st.sampled_from(RETYPE))(value)
        elif isinstance(value, bool):  # a tweak keeps the type
            parent[key] = not value
        elif isinstance(value, int):
            parent[key] = value + draw(st.sampled_from((-2, -1, 1, 2)))
        elif isinstance(value, str):
            parent[key] = draw(st.sampled_from(STRINGS))
        elif isinstance(value, list):
            parent[key] = value[::-1]
    return doc


@given(mutants())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_documents_keep_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(doc))
        for command in (*COMMANDS, ("explain", "--instance", _first_values(doc))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert "internal error:" not in err.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            if code == 2:
                assert err.getvalue().startswith("error: ")
                continue
            report = json.loads(out.getvalue())
            if command[0] == "explain":
                holds = report["verdict"]["status"] != "UNFAIR"
            else:
                holds = report["verdicts"]["fair"] if command[0] == "audit" else report["result"]
            assert code == (0 if holds else 1)
