"""Run one efftc benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload sphere-certify --seed 1 --seconds 25 --trace 0

Run from the repository root; efftc is imported from `src/`.  A run sets up
the workload, then makes whole passes over its operations (at least one,
and no more than fit in `--seconds`), checks every output, and prints one
JSON line: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end: the median pass time, the
median over passes of the slowest operation, the peak resident memory of
this process or any child (forked certification workers included) through
set-up and the first pass, and the median set-up time of this process and
four fresh ones.  With `--trace 1`
every pass runs under `tracing.traced` and the metrics are per layer, per
pass; the spans go to `benchmarks/out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("sphere-certify", "sphere-refute", "torus-exact",
                  "generated-actions")
SETUP_SAMPLES = 5
# the recorded sampling seed efftc uses for its randomized checks
EFFTC_SEED = "20250810"


def setup(workload: str, seed: int, work_dir: str):
    """Import efftc and build the workload's operations; (ops, seconds)."""
    os.environ["EFFTC_SEED"] = EFFTC_SEED
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads
    ops = workloads.build(workload, seed, work_dir)
    elapsed = time.perf_counter() - start
    import efftc
    if os.path.dirname(os.path.dirname(os.path.abspath(efftc.__file__))) != SRC:
        raise SystemExit(f"efftc was imported from {efftc.__file__}, not {SRC}")
    return ops, elapsed


def run_pass(ops):
    """Run every operation once; (pass seconds, op seconds, outputs, errors)."""
    times, outputs, errors = [], [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception:
            outputs.append(None)
            errors.append(f"{op.name}: {traceback.format_exc()}")
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, outputs, errors


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0      # ru_maxrss is in KiB on Linux


def fresh_setup_seconds(workload: str, seed: int, work_dir: str) -> float:
    """Set-up time measured inside a new interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--work", work_dir],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, work_dir: str) -> dict:
    ops, setup_s = setup(args.workload, args.seed, work_dir)
    tracer = None
    if args.trace:
        import tracing
        spool = os.path.join(work_dir, "spool")
        os.makedirs(spool)
        tracer = tracing.Tracer(spool)
    pass_times, slowest, spans, counts, rss = [], [], [], Counter(), None
    attempted = failed = 0
    errors_seen, problems = [], []
    started = time.perf_counter()
    while True:
        with tracing.traced(tracer) if tracer else nullcontext():
            pass_s, op_times, outputs, errors = run_pass(ops)
        attempted += len(ops)
        failed += len(errors)
        errors_seen += errors
        for op, out in zip(ops, outputs):
            if out is not None:
                problems += op.check(out)
        pass_times.append(pass_s)
        slowest.append(max(op_times))
        if rss is None:
            # later passes only reuse freed memory, but not exactly: a
            # second pass would make the figure depend on the pass count
            rss = peak_rss_mb()
        if tracer:
            more_spans, more_counts = tracer.take()
            spans += more_spans
            counts.update(more_counts)
        if time.perf_counter() - started + pass_s > args.seconds:
            break
    for p in errors_seen + problems:
        print(p, file=sys.stderr)
    if tracer:
        metrics = tracing.summarize(spans, counts, len(pass_times),
                                    statistics.median(pass_times))
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": spans, "counts": dict(counts)}, fh)
    else:
        setups = [setup_s] + [
            fresh_setup_seconds(args.workload, args.seed,
                                os.path.join(work_dir, f"setup{i}"))
            for i in range(1, SETUP_SAMPLES)]
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "slowest_op_s": {"value": statistics.median(slowest), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="efftc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time set-up in this process (used internally)")
    ap.add_argument("--work", help="input directory for --setup-only")
    args = ap.parse_args(argv)
    if args.setup_only:
        os.makedirs(args.work)
        _, seconds = setup(args.workload, args.seed, args.work)
        print(json.dumps({"setup_s": seconds}))
        return 0
    work_dir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
