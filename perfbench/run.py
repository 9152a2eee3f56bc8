"""Benchmark of the susyq package: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; susyq is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from a second, traced pass over one round) with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

import os

# BLAS/OpenMP pools are held to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
WORK = Path(__file__).resolve().parent / ".work"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median with this run's own


def set_up(workload: str, seed: int, workdir: Path):
    """Import susyq from ./src and build the workload's inputs; (susyq, workload, seconds)."""
    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import susyq
    import susyq.cli

    if Path(susyq.__file__).resolve().parent != (src / "susyq").resolve():
        raise ImportError(f"susyq imported from {susyq.__file__}, not from {src}")
    from workloads import WORKLOADS

    workdir.mkdir(parents=True)
    wl = WORKLOADS[workload](susyq, seed, workdir)
    return susyq, wl, perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_rounds(ops, seconds, rounds=None, tracer=None):
    """Run whole rounds, closed loop: until `rounds` are done, or while another round fits in `seconds`.

    Returns (rounds run, elapsed s, [(name, seconds, ok)]).
    """
    samples = []
    done = 0
    start = perf_counter()
    while True:
        for name, op in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                ok = op()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            samples.append((name, perf_counter() - t0, ok))
        done += 1
        elapsed = perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed * (done + 1) / done > seconds:
            break
    return done, elapsed, samples


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "spectrum_sweep", "point_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            susyq, wl, own_setup = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot import susyq from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(own_setup)
            return 0
        setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

        ops = wl.round_ops()
        rounds, elapsed, samples = timed_rounds(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(samples)
        failed = sum(1 for _, _, ok in samples if not ok)
        ok_times = [t * 1000 for _, t, ok in samples if ok]

        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(susyq)
            try:
                _, traced, _ = timed_rounds(ops, args.seconds, rounds=1, tracer=tracer)
            finally:
                tracer.restore()
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
            metrics = tracer.metrics(rounds=1)
            metrics["trace.overhead_pct"] = (100 * (traced / (elapsed / rounds) - 1), "%")
        else:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": ((attempted - failed) / elapsed, "1/s"),
                "op_p50_ms": (statistics.median(ok_times), "ms"),
                "op_p99_ms": (percentile(ok_times, 0.99), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }

        failed_names = {name for name, _, ok in samples if not ok}
        passed = {name for name, _, ok in samples} - failed_names
        problems = wl.check(passed)
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        if failed_names:
            print(f"failed operations: {sorted(map(str, failed_names))}", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
