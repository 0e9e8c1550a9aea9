"""Benchmark command for leadquote.

    python3 bench/run.py --workload finite_buffer_solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

One process runs one workload as a closed loop with one caller: each
operation starts when the previous one has returned, with no process pool.
A run sets up a fresh interpreter several times (setup_s), warms up,
then runs passes over the workload's operations for --seconds, checks
every output, and prints its metrics by name and unit.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  Full results, the environment and
the spans of a traced run go to .bench_results/ at the repository root.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leadquote"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("finite_buffer_solve", "gain_tables", "simulate_validate", "certify_battery")

SETUP_RUNS = 3      # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3      # each measured phase runs at least this many passes
SELF_TIME_SLACK = 1e-9

# End-to-end metrics every workload reports in its contract line.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


@dataclass
class Record:
    op: object
    seconds: float
    output: object
    error: str | None = None


@dataclass
class Pass:
    records: list = field(default_factory=list)
    seconds: float = 0.0
    outcomes: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    first_span: int = 0
    stop_span: int = 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each, and print all their metrics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.all or args.workload or args.setup_probe):
        parser.error("give --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import leadquote from this checkout's src/, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no leadquote package at {PACKAGE}; run from a full checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import leadquote

    if Path(leadquote.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported leadquote from {leadquote.__file__}, not {PACKAGE}")
    return leadquote


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(leadquote) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "leadquote": leadquote.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def measure_setup(name: str) -> list:
    """Wall time of fresh interpreters that import leadquote and run the
    workload's warm-up operation, from spawn to exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_op(op, tracer) -> Record:
    output, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = op.run()
        else:
            with tracer.operation(op.label) as root:
                output = op.run()
    except Exception:  # an operation that raises is a failed output, not a crash
        error = traceback.format_exc()
        sys.stderr.write(f"operation {op.label} raised:\n{error}")
    seconds = time.perf_counter() - t0
    if tracer is not None:
        seconds = root[tracing.END] - root[tracing.START]
    return Record(op, seconds, output, error)


def run_pass(workload, index: int, tracer=None) -> Pass:
    """One pass over the workload's operations, checked after the timed
    calls.  Outputs are dropped once checked, so that peak memory is the
    program's and does not grow with the number of passes."""
    p = Pass(first_span=len(tracer.spans) if tracer else 0)
    for op in workload.ops(index):
        p.records.append(run_op(op, tracer))
    p.stop_span = len(tracer.spans) if tracer else 0
    p.seconds = sum(r.seconds for r in p.records)
    p.outcomes = workload.outcomes(p.records)
    p.counters = workload.counters(p.records)
    for r in p.records:
        r.output = None
    return p


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Passes over the workload until each kind of pass has run at least
    MIN_PASSES times and another round, as long as the last one, would end
    past `seconds`.  With a tracer, untraced and traced passes alternate,
    so drift in machine speed hits both alike."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(workload, len(untraced) + len(traced)))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, len(untraced) + len(traced), tracer))
            finally:
                tracer.restore()
        now = time.perf_counter()
        if len(untraced) >= MIN_PASSES and now + (now - round_start) - start > seconds:
            return untraced, traced


def traced_metrics(tracer, untraced: list, traced: list) -> tuple:
    """Per-layer medians over the traced passes, plus tracing overhead."""
    spans = tracer.spans
    own = tracing.self_times(spans)
    residual = tracing.self_time_residual(spans, own)
    if residual > SELF_TIME_SLACK:
        raise RuntimeError(f"self times miss an operation's duration by {residual} s")
    layers = tracing.median_metrics(
        [tracing.layer_metrics(spans, own, p.first_span, p.stop_span) for p in traced])
    layers["trace.overhead_frac"] = (statistics.median(p.seconds for p in traced)
                                     / statistics.median(p.seconds for p in untraced) - 1.0)
    return {name: (layers[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}, residual


def run_workload(args, leadquote) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(leadquote)}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    else:
        result["setup_runs_s"] = measure_setup(args.workload)
    workload.warmup()
    untraced, traced = measure(workload, args.seconds, tracer)
    outcomes = [o for p in untraced + traced for o in p.outcomes]
    failed, correct = workloads.grade(outcomes)
    if tracer is None:
        passes = untraced
        shown = {
            "setup_s": (statistics.median(result["setup_runs_s"]), "s"),
            "wall_s": (statistics.median(p.seconds for p in passes), "s"),
            "error_rate": (len(failed) / len(outcomes), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **workload.summary(passes),
        }
        contract = {name: shown[name] for name in END_TO_END}
    else:
        passes = traced
        contract, result["self_time_max_residual_s"] = traced_metrics(tracer, untraced, traced)
        shown = contract
        result["untraced_pass_s"] = [p.seconds for p in untraced]

    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    result.update({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "pass_s": [p.seconds for p in passes],
        "op_s": [[[r.op.label, r.seconds] for r in p.records] for p in passes],
        "counters_per_pass": [p.counters for p in passes],
        "failed_outputs": [{"output": o.output, "detail": o.detail,
                            "known": workloads.KNOWN_FAILURES.get(o.output)} for o in failed],
    })
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"environment={json.dumps(result['environment'], sort_keys=True)}")
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} attempted {len(outcomes)} failed {len(failed)} correct {correct}")
    counts = collections.Counter(o.output for o in failed)
    for o in {o.output: o for o in failed}.values():
        tag = "known" if o.output in workloads.KNOWN_FAILURES else "unexpected"
        print(f"{args.workload} FAIL ({tag}, {counts[o.output]}x) {o.output}: {o.detail}")
    return {"correct": correct, "attempted": len(outcomes), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in contract.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        import_package()
        return run_all(args)
    leadquote = import_package()
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.setup_probe](0).warmup()
        return 0
    line = run_workload(args, leadquote)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
