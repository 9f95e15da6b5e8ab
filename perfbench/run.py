"""fairaudit benchmark: three workloads, each stressing one layer.

    python3 perfbench/run.py --workload audit-fair --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. Without --workload, every workload runs in turn, each in its own
process. The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
Exits 1 when an output check fails. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 3

if not (SRC / "fairaudit" / "__init__.py").is_file():
    sys.exit(f"error: {SRC} holds no fairaudit sources; run from a checkout")
sys.path.insert(0, str(SRC))
_import_start = time.perf_counter()
from fairaudit import cli, explain, fairness  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

import checks  # noqa: E402
import models  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(models.WORKLOADS)


# the fairaudit command each workload runs; ftu-search calls check_ftu
COMMANDS = {"audit-fair": "audit", "explain-onehot": "explain", "ftu-search": None}


class Op:
    """One operation of a round: a CLI command on a document file, or an
    FTU search on a space built during set-up."""

    def __init__(self, model: models.Model, command: str | None, path: Path,
                 tracer: tracing.Tracer):
        self.model = model
        self.command = command
        self.text = model.document()
        if command == "audit":
            self.argv = ["audit", str(path), "--notion", "universal"]
        elif command == "explain":
            self.argv = ["explain", str(path), "--instance", model.instance_arg()]
        else:
            with tracer.span("build"):
                space, _, self.k, self.cs = tracing.build(tracer, self.text)
            tracer.count("model.full_size", space.full_size())
            tracer.count("model.constrained_size", len(self.cs))
            return
        path.write_text(self.text, encoding="utf-8")

    def run(self):
        if self.command is None:
            return fairness.check_ftu(self.cs, self.k, "search")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        if code == 2:
            raise RuntimeError("exit code 2")
        return code, out.getvalue()

    def replay(self, tracer: tracing.Tracer, counting: bool) -> None:
        if self.command == "audit":
            tracing.replay_audit(tracer, self.text, counting)
        elif self.command == "explain":
            tracing.replay_explain(tracer, self.text, self.model.instance, counting)
        else:
            tracing.replay_ftu(tracer, self.cs, self.k, counting)


class Verifier:
    """Checks each result once per distinct answer; a repeated answer to
    the same model has already been judged."""

    def __init__(self, seed: int):
        self.seed = seed
        self.refs: dict[str, checks.Reference] = {}
        self.judged: dict[tuple, str | None] = {}

    def __call__(self, op: Op, result) -> str | None:
        key = (op.model.name, repr(result))
        if key not in self.judged:
            self.judged[key] = self._judge(op, result)
        return self.judged[key]

    def _judge(self, op: Op, result) -> str | None:
        name = op.model.name
        if name not in self.refs:
            self.refs[name] = checks.Reference(op.model)
        ref = self.refs[name]
        try:
            if op.command is None:
                checks.check_ftu(ref, *result)
                return None
            code, out = result
            report = json.loads(out)
            if op.command == "audit":
                checks.check_audit(ref, code, report)
            else:
                checks.check_explain(ref, op.model.instance, code, report, self.seed)
        except checks.CheckFailed as exc:
            return f"{name}: {exc}"
        except (KeyError, TypeError, ValueError) as exc:
            return f"{name}: malformed output ({exc!r})"
        return None


def _set_up(workload: str, seed: int, workdir: Path, tracer: tracing.Tracer):
    """Generate the documents, write them, build the FTU spaces, and run
    the first operation once. A fresh process pays the lattice subset
    order that explain caches process-wide, so each set-up pays it too."""
    orders = getattr(explain, "_subset_orders", None)
    if isinstance(orders, dict):
        orders.clear()
    ops = [
        Op(m, COMMANDS[workload], workdir / f"{i}.json", tracer)
        for i, m in enumerate(models.WORKLOADS[workload](seed))
    ]
    return ops, ops[0].run()


def _run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    tracer = tracing.Tracer()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        ops, warm = _set_up(workload, seed, workdir, tracer)
        setups.append(time.perf_counter() - started)
    verify = Verifier(seed)
    problems = []
    if (problem := verify(ops[0], warm)) is not None:
        problems.append(problem)

    attempted = failed = 0
    times: list[float] = []
    rounds = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < seconds:
        for op in ops:
            gc.collect()
            attempted += 1
            started = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # raised, or exited 2
                print(f"{op.model.name}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            times.append(time.perf_counter() - started)
            problem = verify(op, result)
            if problem is not None:
                failed += 1
                problems.append(problem)
                print(problem, file=sys.stderr)
            if trace:
                gc.collect()
                with tracer.span("op") as root:
                    with tracer.span("cli.main" if op.command else "fairness.check_ftu") as call:
                        op.run()
                    op.replay(tracer, counting=rounds == 0)
                tracing.record_overheads(tracer, root, call, times[-1], op.command)
        rounds += 1

    if not times:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": IMPORT_S + statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(f"{workload}: seed {seed}, {rounds} rounds of {len(ops)} operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in dict.fromkeys(problems):
        print(f"  check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    worst = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    return _run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
