#!/usr/bin/env python3
"""Audit every fixture model and compare against (or refresh) the
report snapshots in fixtures/snapshots/, and pin the bytes of the FTU
query's CNF by their sha256: the file `fairaudit export-cnf` writes for
each fixture in fixtures/snapshots/export_cnf.sha256, and the DIMACS
text of 300 seeded random models (up to 7 features, domains up to 5) in
fixtures/snapshots/encode_random.sha256. The explain command is pinned
the same way in fixtures/snapshots/explain.sha256: per fixture, the
sha256 of its exit codes and standard output at every instance of the
full space, with and without --ignore-constraints, in JSON and in text.
Before any digest is compared, the search on each of those FTU queries,
and on those of 50 seeded tables and trees whose label reads a
protected feature on some projections only (not pinned), is checked
against exhaustive FTU, and a satisfying model must decode to a witness
pair; a disagreement fails the run.

    python3 scripts/audit_all_fixtures.py            # compare
    python3 scripts/audit_all_fixtures.py --write    # regenerate
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from fairaudit.classifier import parse_classifier
from fairaudit.cli import main as cli_main
from fairaudit.fairness import check_ftu
from fairaudit.model import enumerate_space, parse_document, unconstrained
from fairaudit.randmodels import random_model, random_partly_protected
from fairaudit.satcheck import (
    decode_model,
    encode_ftu_counterexample,
    export_dimacs,
    search,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SNAPSHOTS = FIXTURES / "snapshots"
CNF_DIGESTS = SNAPSHOTS / "export_cnf.sha256"
RANDOM_DIGESTS = SNAPSHOTS / "encode_random.sha256"
EXPLAIN_DIGESTS = SNAPSHOTS / "explain.sha256"
RANDOM_MODELS = 300
PARTLY_PROTECTED_MODELS = 50


def audit_report(path: Path) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["audit", str(path), "--notion", "existential"])
    if code not in (0, 1):
        raise RuntimeError(f"audit of {path.name} exited {code}")
    return buffer.getvalue()


def export_cnf_digest(path: Path) -> str:
    """sha256 of the DIMACS file `export-cnf` writes for the fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "query.cnf"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["export-cnf", str(path), str(out)])
        if code != 0:
            raise RuntimeError(f"export-cnf of {path.name} exited {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def search_fault(cs, k, formula) -> str | None:
    """What is wrong with the search's answer to the FTU query: a
    verdict other than exhaustive FTU's, or a model that does not decode
    to a witness pair; None when nothing is."""
    holds = check_ftu(cs, k, "exhaustive")[0]
    result = search(formula)
    if result.satisfiable == holds:
        return f"search satisfiable={result.satisfiable}, exhaustive FTU holds={holds}"
    if result.satisfiable:
        try:
            decode_model(formula, result.model, cs, k)
        except AssertionError as exc:
            return f"decode_model: {exc}"
    return None


def fixture_search_fault(path: Path) -> str | None:
    space, constraints, k_obj = parse_document(path.read_text())
    cs = enumerate_space(space, constraints)
    k = parse_classifier(k_obj, space)
    return search_fault(cs, k, encode_ftu_counterexample(cs, k))


def explain_digest(path: Path) -> str:
    """sha256 over the exit code and standard output of `explain` at
    every instance of the fixture's full space; an instance outside the
    constraints exits 2 with nothing on standard output."""
    space = parse_document(path.read_text())[0]
    digest = hashlib.sha256()
    for x in unconstrained(space).instances:
        instance = ",".join(str(int(v)) for v in x)
        for flags in ((), ("--ignore-constraints",)):
            for fmt in ("json", "text"):
                argv = ["explain", str(path), "--instance", instance, "--format", fmt]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main([*argv, *flags])
                digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def random_encoding_digests(faults: list[str]) -> str:
    """One line per seed: the sha256 of the DIMACS text of the FTU query
    of `random_model(random.Random(seed))`. Random models reach what the
    fixtures barely do: `le`/`lt`/`implies`/`iff`, multi-valued domains
    and subformulas shared by a constraint and a class formula. Each
    query's search_fault goes into faults."""
    lines = []
    for seed in range(RANDOM_MODELS):
        m = random_model(random.Random(seed), max_features=7, max_domain=5)
        cs = enumerate_space(m.space, m.constraints)
        formula = encode_ftu_counterexample(cs, m.classifier)
        fault = search_fault(cs, m.classifier, formula)
        if fault:
            faults.append(f"random model seed {seed}: {fault}")
        text = export_dimacs(formula)
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  seed {seed}\n")
    return "".join(lines)


def partly_protected_faults() -> list[str]:
    """search_fault on the FTU query of each seeded
    `random_partly_protected` model: its cover has both cubes with no
    label, where no protected change alters the label, and labelled
    ones, so the check meets both."""
    faults = []
    for seed in range(PARTLY_PROTECTED_MODELS):
        m = random_partly_protected(random.Random(seed))
        cs = enumerate_space(m.space, m.constraints)
        fault = search_fault(cs, m.classifier, encode_ftu_counterexample(cs, m.classifier))
        if fault:
            faults.append(f"partly protected model seed {seed}: {fault}")
    return faults


def compare_digests(
    path: Path, text: str, write: bool, stale: list[str], what: str = "CNF output"
) -> None:
    if write:
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")
    elif not path.exists():
        stale.append(f"{path.name}: missing (run with --write)")
    elif path.read_text() != text:
        stale.append(f"{path.name}: {what} drifted")
    else:
        print(f"ok {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="refresh snapshots")
    args = parser.parse_args()

    SNAPSHOTS.mkdir(exist_ok=True)
    fixtures = sorted(FIXTURES.glob("*.json"))
    faults = [f"{p.name}: {fault}" for p in fixtures if (fault := fixture_search_fault(p))]
    random_digests = random_encoding_digests(faults)
    faults += partly_protected_faults()
    if faults:  # nothing is compared, or written, over a wrong answer
        for line in faults:
            print(f"WRONG {line}")
        return 1
    print(
        f"ok search agrees with exhaustive FTU on every fixture, {RANDOM_MODELS} random "
        f"models and {PARTLY_PROTECTED_MODELS} partly protected models"
    )

    stale = []
    digests = []
    explained = []
    for path in fixtures:
        report = audit_report(path)
        digests.append(f"{export_cnf_digest(path)}  {path.name}\n")
        explained.append(f"{explain_digest(path)}  {path.name}\n")
        snap = SNAPSHOTS / f"{path.stem}.audit.json"
        if args.write:
            snap.write_text(report)
            print(f"wrote {snap.relative_to(ROOT)}")
        elif not snap.exists():
            stale.append(f"{snap.name}: missing (run with --write)")
        elif snap.read_text() != report:
            stale.append(f"{snap.name}: drifted from the current report")
        else:
            print(f"ok {snap.relative_to(ROOT)}")
    compare_digests(CNF_DIGESTS, "".join(digests), args.write, stale)
    compare_digests(RANDOM_DIGESTS, random_digests, args.write, stale)
    compare_digests(EXPLAIN_DIGESTS, "".join(explained), args.write, stale, "explain output")
    for line in stale:
        print(f"STALE {line}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
