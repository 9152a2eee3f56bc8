"""Rounding gate: outputs of the benchmark's configs and point queries, and a comparison of two such trees.

    python scripts/rounding_gate.py write OUT --seeds 3 7 11 [--src SRC]
    python scripts/rounding_gate.py compare OLD NEW [--tol TOL]

`write` runs `susyq run` on the 11 `pipeline` plans of each seed (the base
problem, valid orders 1-6, three rule-breaking plans and the order-8
known-failure plan) and `susyq spectrum` on its 6 `spectrum_sweep` configs
(the base problem and two order-4 partners, on 4000 and 8000 points, 20
levels), and evaluates its `point_queries` pool (partner_v, added_state
and transformed_eigenfunction at 1-64 points on its plans of order 1-6), as
perfbench/workloads.py draws them; that file is only read.  susyq is
imported from SRC (default: this checkout's src), so the same script writes
the trees of two source trees.  OUT/<seed>/<plan>/ holds each run's
report.json, potential.csv and states.csv (a spectrum config's report.json
only), OUT/<seed>/point_queries.npz each query's result, and
OUT/exit_codes.json every exit code.

`compare` prints, per plan, any difference in exit code, `validation` block
(`wronskian_zeros` included), `predicted_added` or states.csv header, and
the largest differences of the oracle levels (the spectrum reports'
included), of Vtilde in potential.csv, of the states in states.csv
(relative to each column's largest magnitude), of the residuals and of the
point queries (relative to each query's largest magnitude).  It also counts
the report.json, potential.csv and states.csv files and the point-query
arrays that are byte-identical.  It exits 1 when an exit code, a
`validation` block, `predicted_added`, a states.csv header or a point
query's shape differs, or, with --tol, when a level, Vtilde, a state or a
point query differs by more than TOL, and with --tol 0 also when a
report.json, potential.csv, states.csv or point-query array written on both
sides is not byte-identical, so that no field of a report (`error`,
`checks`, `oracle.grid`, the residuals) may differ; otherwise 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def write(out: Path, seeds, src: Path) -> int:
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import susyq
    import susyq.cli
    from workloads import Pipeline, PointQueries, SpectrumSweep

    codes = {}
    for seed in seeds:
        workdir = out / str(seed)
        workdir.mkdir(parents=True)
        wl = Pipeline(susyq, seed, workdir)
        runs = [("run", case) for case in wl.valid + wl.breaking + [wl.failure]]
        runs += [("spectrum", case) for case in SpectrumSweep(susyq, seed, workdir).cases]
        for command, case in runs:
            with contextlib.redirect_stderr(io.StringIO()):
                codes[f"{seed}/{case.name}"] = susyq.cli.main([command, str(case.config)])
        queries = PointQueries(susyq, seed, workdir).queries
        results = {f"q{i:03d}_{func}": np.atleast_1d(getattr(susyq, func)(*args))
                   for i, (func, *_, args) in enumerate(queries)}
        np.savez(workdir / "point_queries.npz", **results)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} runs and {len(seeds)} point-query pools under {out} "
          f"with susyq from {Path(susyq.__file__).parent}")
    return 0


def _vtilde(run: Path):
    path = run / "potential.csv"
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 2] if path.exists() else None


def _states(run: Path):
    """(header, values) of states.csv; None when the run wrote none."""
    path = run / "states.csv"
    if not path.exists():
        return None
    return path.read_text().split("\n", 1)[0], np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _largest(diffs):
    """(value, plan) of the largest difference; (0.0, '-') when nothing differs."""
    value, where = max(diffs, key=lambda d: d[0], default=(0.0, "-"))
    return (value, where) if value else (0.0, "-")


def _point_queries(old: Path, new: Path, seeds, mismatches, identical):
    """(largest difference, query) of each seed's point queries; counts the byte-identical arrays."""
    diffs = []
    for seed in seeds:
        with np.load(old / seed / "point_queries.npz") as qa, np.load(new / seed / "point_queries.npz") as qb:
            for name in qa.files:
                a, b = qa[name], qb[name]
                identical[1] += 1
                if a.dtype != b.dtype or a.shape != b.shape:
                    mismatches.append(f"{seed}/{name}: {a.dtype} {a.shape} -> {b.dtype} {b.shape}")
                    continue
                identical[0] += a.tobytes() == b.tobytes()
                scale = np.abs(a).max(initial=0.0)
                diffs.append((float(np.abs(a - b).max(initial=0.0) / (scale if scale > 0 else 1.0)),
                              f"{seed}/{name}"))
    return diffs


def compare(old: Path, new: Path, tol) -> int:
    codes_old = json.loads((old / "exit_codes.json").read_text())
    codes_new = json.loads((new / "exit_codes.json").read_text())
    mismatches = []
    if sorted(codes_old) != sorted(codes_new):
        mismatches.append(f"plans differ: {sorted(set(codes_old) ^ set(codes_new))}")
    levels, vtilde, states, residuals = [], [], [], []
    # [byte-identical, both written]
    identical = {"report.json": [0, 0], "potential.csv": [0, 0], "states.csv": [0, 0]}
    for plan in sorted(set(codes_old) & set(codes_new)):
        if codes_old[plan] != codes_new[plan]:
            mismatches.append(f"{plan}: exit code {codes_old[plan]} -> {codes_new[plan]}")
        a = json.loads((old / plan / "report.json").read_text())
        b = json.loads((new / plan / "report.json").read_text())
        for key in ("validation", "predicted_added"):
            if a.get(key) != b.get(key):
                mismatches.append(f"{plan}: {key} {a.get(key)} -> {b.get(key)}")
        if "oracle" in a and "oracle" in b:
            la, lb = a["oracle"]["eigenvalues"], b["oracle"]["eigenvalues"]
            if len(la) == len(lb):
                levels.append((float(np.max(np.abs(np.subtract(la, lb)), initial=0.0)), plan))
            else:
                mismatches.append(f"{plan}: {len(la)} -> {len(lb)} oracle levels")
        va, vb = _vtilde(old / plan), _vtilde(new / plan)
        if va is not None and vb is not None:
            vtilde.append((float(np.max(np.abs(va - vb) / np.maximum(1, np.abs(va)))), plan))
        sa, sb = _states(old / plan), _states(new / plan)
        if sa is not None and sb is not None:
            if sa[0] != sb[0] or sa[1].shape != sb[1].shape:
                mismatches.append(f"{plan}: states.csv {sa[0]} ({sa[1].shape}) -> {sb[0]} ({sb[1].shape})")
            else:
                scale = np.abs(sa[1]).max(axis=0)
                diff = np.abs(sa[1] - sb[1]) / np.where(scale > 0, scale, 1.0)
                states.append((float(diff.max(initial=0.0)), plan))
        for name, count in identical.items():
            fa, fb = old / plan / name, new / plan / name
            if fa.exists() and fb.exists():
                count[0] += fa.read_bytes() == fb.read_bytes()
                count[1] += 1
        ra, rb = a.get("residuals", {}), b.get("residuals", {})
        residuals += [(abs(ra[e] - rb[e]), f"{plan} {e}") for e in ra.keys() & rb.keys()]
    identical["point-query array"] = [0, 0]
    seeds = sorted({plan.split("/")[0] for plan in codes_old.keys() & codes_new.keys()})
    queries = _point_queries(old, new, seeds, mismatches, identical["point-query array"])
    for line in mismatches:
        print(f"mismatch: {line}")
    print(f"{len(codes_new)} plans; exit codes, validation blocks, predicted_added, "
          f"states.csv headers and point-query shapes: {len(mismatches)} mismatches")
    for name, (same, both) in identical.items():
        print(f"{name}: {same} of {both} byte-identical")
    for name, diffs in (("oracle level (absolute)", levels),
                        ("Vtilde (relative to max(1, |Vtilde|))", vtilde),
                        ("state (relative to its column's max)", states),
                        ("residual (absolute)", residuals),
                        ("point query (relative to its largest magnitude)", queries)):
        value, where = _largest(diffs)
        print(f"largest {name} difference: {value:.3g} ({where})")
    over = tol is not None and max(_largest(d)[0] for d in (levels, vtilde, states, queries)) > tol
    if over:
        print(f"a level, Vtilde, a state or a point query differs by more than {tol:g}")
    # equal values can still print differently, and a report holds more than the values compared
    # above, so at --tol 0 the files and arrays must match byte for byte
    unequal = tol == 0 and any(same != both for same, both in identical.values())
    if unequal:
        print("a report.json, potential.csv, states.csv or point-query array is not byte-identical")
    return 1 if mismatches or over or unequal else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the run outputs and point-query results of the given seeds")
    w.add_argument("out", type=Path)
    w.add_argument("--seeds", type=int, nargs="+", required=True)
    w.add_argument("--src", type=Path, default=ROOT / "src", help="the source tree susyq is imported from")
    c = sub.add_parser("compare", help="compare two trees that write produced")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    c.add_argument("--tol", type=float, default=None,
                   help="also fail when an oracle level, Vtilde, a state or a point query differs by "
                        "more than this; at 0, also when a report.json, potential.csv, states.csv or "
                        "point-query array is not byte-identical")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.out, args.seeds, args.src.resolve())
    return compare(args.old, args.new, args.tol)


if __name__ == "__main__":
    sys.exit(main())
