#!/usr/bin/env python3
"""Run every benchmark workload once and record the results as one point
of the performance trajectory:

    python3 scripts/bench.py --out BENCH_<n>.json --seed 1 --seconds 30

Each workload named in BENCHMARK.json runs as

    perfbench/run.py --workload W --seed S --seconds T --trace 0

in a process of its own, from the root of this checkout. The output file
holds each workload's final JSON line, the seed, the seconds, the Python
version and platform, and the line count of every src/fairaudit/*.py
file (what `wc -l` prints). Exits 1 when a workload fails or prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def line_counts() -> dict[str, int]:
    counts = {
        str(path.relative_to(ROOT)): path.read_bytes().count(b"\n")
        for path in sorted((ROOT / "src" / "fairaudit").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def run_workload(workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output path, e.g. BENCH_<n>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    results, worst = {}, 0
    for workload in (w["name"] for w in declared):
        code, result = run_workload(workload, args.seed, args.seconds)
        worst = max(worst, code)
        results[workload] = result
        print(f"{workload}: exit {code}", file=sys.stderr)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "workloads": results,
        "wc_l": line_counts(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if worst or None in results.values() else 0


if __name__ == "__main__":
    sys.exit(main())
