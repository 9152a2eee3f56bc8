"""Wall time and peak memory of one `susyq` command, each run in a fresh interpreter.

    python scripts/cold_start.py --src src --command spectrum

Writes an order-4 plan on the default grid (n = 4000) to a temporary
directory and runs `susyq.cli.main` on it RUNS times, each time in a
new interpreter with SRC on PYTHONPATH.  It prints the median wall time of
the runs and the largest peak RSS among them (each child's ru_maxrss), so
that the cost every invocation pays for imports and first calls shows.
perfbench/run.py imports once and times many operations in one process,
so it cannot show that cost.  It exits 1 when a run does not exit 0.
Unix only (os.wait4).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PLAN = "order = 4\nepsilons = -11/2, -9/2, -7/2, -5/2\ngrid_n = 4000\n"
RUNS = 5
CALL = "import sys; from susyq.cli import main; sys.exit(main(sys.argv[1:]))"


def cold_runs(src: Path, command: str) -> tuple[list[float], list[float]]:
    """Wall seconds and peak RSS (MB) of RUNS fresh interpreters running `susyq command`."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    walls, peaks = [], []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "plan.cfg"
        config.write_text(PLAN + f"output_dir = {Path(tmp) / 'out'}\n")
        for _ in range(RUNS):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-c", CALL, command, str(config)], env=env,
                                     stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage, unlike Popen.wait
            walls.append(time.perf_counter() - start)
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen never waits on it
            if child.returncode != 0:
                raise SystemExit(f"susyq {command} exited {child.returncode}")
            peaks.append(usage.ru_maxrss / 1024)  # kB on Linux
    return walls, peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=Path("src"), help="the tree that holds susyq")
    parser.add_argument("--command", default="spectrum", choices=["run", "spectrum"])
    args = parser.parse_args(argv)
    walls, peaks = cold_runs(args.src, args.command)
    print(f"susyq {args.command} from {args.src}, {RUNS} fresh interpreters: "
          f"median wall {statistics.median(walls):.3f} s, largest peak RSS {max(peaks):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
