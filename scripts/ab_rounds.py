"""In-process A/B of two source trees: rounds of one benchmark workload, interleaved in one process.

    python scripts/ab_rounds.py OLD_SRC NEW_SRC --workload point_queries --seed 67 --rounds 60

Each tree's `susyq` package is copied under its own name (susyq_old,
susyq_new) into a temporary directory and imported from there, so both
live in one interpreter.  Each side builds the workload from
perfbench/workloads.py (which is only read) with the same seed, in its own
work directory, and runs one untimed round (first-call costs such as an
import).  Then each of the N rounds runs both sides, in an order shuffled
by the seed, so that the drift of the machine falls on both sides alike.

It prints each side's median round time with its quartiles, the ratio of
the medians (old / new, above 1 when the new tree is faster) and the
rounds in which the new side was faster.  After the timed rounds each side
runs one more round under tracemalloc, untimed, whose peak traced
allocation it prints: numpy's arrays and Python's objects allocated in that
round beyond what the side already held, so a memory change is A/B'd as a
speed change is.  On point_queries it also says
whether every query's result is bitwise equal on both sides.  It exits 1
when an operation of either side does not end as the workload expects,
otherwise 0.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are held to one thread before numpy is imported, as perfbench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def load(src: Path, name: str, tmp: Path):
    """The susyq package of the tree src, imported as `name` from a copy under tmp."""
    shutil.copytree(src / "susyq", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    return package


def run_round(ops) -> tuple[float, int]:
    """(seconds, failed ops) of one round; the CLI's prints are dropped."""
    failed = 0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        for _, op in ops:
            failed += not op()
        elapsed = perf_counter() - t0
    return elapsed, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, help="source tree holding the old susyq package")
    parser.add_argument("new_src", type=Path, help="source tree holding the new susyq package")
    parser.add_argument("--workload", required=True, choices=("pipeline", "spectrum_sweep", "point_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("need at least one round")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import WORKLOADS

        workloads, ops = {}, {}
        for side, src in zip(SIDES, (args.old_src, args.new_src)):
            package = load(src.resolve(), f"susyq_{side}", tmp)
            workdir = tmp / f"work_{side}"
            workdir.mkdir()
            workloads[side] = WORKLOADS[args.workload](package, args.seed, workdir)
            ops[side] = workloads[side].round_ops()

        failed = {side: run_round(ops[side])[1] for side in SIDES}  # untimed
        times = {side: [] for side in SIDES}
        rng = np.random.default_rng(args.seed)
        for _ in range(args.rounds):
            for i in rng.permutation(len(SIDES)):
                side = SIDES[i]
                elapsed, bad = run_round(ops[side])
                times[side].append(elapsed)
                failed[side] += bad
        peaks = {}
        for side in SIDES:  # untimed: tracing slows every allocation
            tracemalloc.start()
            try:
                failed[side] += run_round(ops[side])[1]
                peaks[side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    print(f"{args.workload}, seed {args.seed}: {args.rounds} rounds a side after one untimed round, "
          f"the order of the sides shuffled in each")
    for side, src in zip(SIDES, (args.old_src, args.new_src)):
        q1, med, q3 = 1000 * np.percentile(times[side], [25, 50, 75])
        print(f"{side} {src}: median {med:.2f} ms a round (quartiles {q1:.2f}-{q3:.2f}), "
              f"peak traced allocation {peaks[side] / 1e6:.2f} MB in one more round, "
              f"{failed[side]} failed ops")
    old, new = (np.median(times[side]) for side in SIDES)
    won = sum(n < o for o, n in zip(times["old"], times["new"]))
    print(f"old / new = {old / new:.3f}; new faster in {won} of {args.rounds} rounds")
    if args.workload == "point_queries":
        results = [workloads[side].results for side in SIDES]
        same = sum(np.asarray(results[0][i]).tobytes() == np.asarray(results[1][i]).tobytes()
                   for i in results[0])
        print(f"point-query results bitwise equal: {same} of {len(results[0])}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
