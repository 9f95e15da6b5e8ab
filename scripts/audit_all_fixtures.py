#!/usr/bin/env python3
"""Audit every fixture model and compare against (or refresh) the
report snapshots in fixtures/snapshots/, and pin the bytes that
`fairaudit export-cnf` writes for each fixture by their sha256 in
fixtures/snapshots/export_cnf.sha256.

    python3 scripts/audit_all_fixtures.py            # compare
    python3 scripts/audit_all_fixtures.py --write    # regenerate
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fairaudit.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SNAPSHOTS = FIXTURES / "snapshots"
CNF_DIGESTS = SNAPSHOTS / "export_cnf.sha256"


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="refresh snapshots")
    args = parser.parse_args()

    SNAPSHOTS.mkdir(exist_ok=True)
    stale = []
    digests = []
    for path in sorted(FIXTURES.glob("*.json")):
        report = audit_report(path)
        digests.append(f"{export_cnf_digest(path)}  {path.name}\n")
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
    digest_text = "".join(digests)
    if args.write:
        CNF_DIGESTS.write_text(digest_text)
        print(f"wrote {CNF_DIGESTS.relative_to(ROOT)}")
    elif not CNF_DIGESTS.exists():
        stale.append(f"{CNF_DIGESTS.name}: missing (run with --write)")
    elif CNF_DIGESTS.read_text() != digest_text:
        stale.append(f"{CNF_DIGESTS.name}: export-cnf output drifted")
    else:
        print(f"ok {CNF_DIGESTS.relative_to(ROOT)}")
    for line in stale:
        print(f"STALE {line}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
