"""Command-line pipeline: validate a plan, build the partner, verify with the oracle.

    susyq run <config>        full pipeline, writes report.json / potential.csv / states.csv
    susyq validate <config>   rule checks only, writes report.json
    susyq spectrum <config>   oracle eigenvalues only, writes report.json

All three commands run one pipeline, `run`, which stops where the command ends;
every report.json has a `plan` block (order, epsilons, parities).  Config files
are line-oriented `key = value`; lists are comma-separated and numbers may be
decimals or exact fractions like -11/2.  Exit codes: 0 ok, 2 rule violations,
3 numerical failure (report.json then holds `error`), 64 config error (checked
before the output directory is made, so it wins over 74), 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .design import TransformationPlan, make_plan, validate
from .errors import ConfigError, SusyqError
from .oracle import MAX_LEVELS, Grid, discretize, eigenvalues_low, residual
from .partner import BaseState, SeedTable, normalize, partner_v, truncated_oscillator_v

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 64
EXIT_IO = 74

SPECTRUM_TOL = 5e-3
N_ISO_STATES = 4  # isospectral branch states written to states.csv (n = 0..3)


@dataclass
class PlanConfig:
    order: int
    epsilons: list[float]
    parities: list[int] | None = None
    x_max: float = 10.0
    grid_n: int = 4000
    levels_to_report: int = 8
    output_dir: Path = field(default_factory=lambda: Path("."))


def _parse_number(text: str, line: int) -> float:
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {text!r}: {exc}", line=line) from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite", line=line)
    return value


def _parse_int(text: str, line: int) -> int:
    value = _parse_number(text, line)
    if not value.is_integer():
        raise ConfigError(f"expected an integer, got {text.strip()!r}", line=line)
    return int(value)


def parse_config(text) -> PlanConfig:
    """Parse `key = value` lines into a PlanConfig; unknown keys are errors."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if key in ("order", "grid_n", "levels_to_report"):
            values[key] = _parse_int(rhs, lineno)
        elif key == "epsilons":
            values[key] = [_parse_number(v, lineno) for v in rhs.split(",")] if rhs else []
        elif key == "parities":
            pars = [_parse_int(v, lineno) for v in rhs.split(",")] if rhs else []
            if any(p not in (-1, 1) for p in pars):
                raise ConfigError("parities must be +1 or -1", line=lineno)
            values[key] = pars
        elif key == "x_max":
            values[key] = _parse_number(rhs, lineno)
        elif key == "output_dir":
            if "\0" in rhs:  # no file system takes it; mkdir would raise ValueError
                raise ConfigError("output_dir contains a NUL byte", line=lineno)
            values[key] = Path(rhs)
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
    if "order" not in values:
        raise ConfigError("missing required key 'order'")
    if "epsilons" not in values:
        raise ConfigError("missing required key 'epsilons'")
    cfg = PlanConfig(**values)
    if len(cfg.epsilons) != cfg.order:
        raise ConfigError(
            f"'epsilons' has {len(cfg.epsilons)} entries but order = {cfg.order}"
        )
    if cfg.parities is not None and len(cfg.parities) != cfg.order:
        raise ConfigError(
            f"'parities' has {len(cfg.parities)} entries but order = {cfg.order}"
        )
    return cfg


def _fmt(v: float) -> str:
    return f"{v:.11e}"


def _round12(obj):
    """Round floats to 12 significant digits recursively for stable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


CSV_ROWS = 1024  # rows _write_csv formats at a time: its temporaries take about 100 bytes a cell


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), CSV_ROWS):  # the text of a block of rows at a time
            out.write(_format_rows(table[start : start + CSV_ROWS]))


# _format_rows prints "%.11e" with numpy.  The 12 digits of |v| are round(s), s = |v| 10^(11 - e) with
# e = floor(log10 |v|), all in float64.  s carries two roundings, the power of ten's and the product's,
# together below 2.3e-4 under 1e12, so round(s) is "%.11e"'s rounding wherever s lies TIE_BAND or more
# from a tie.  A cell takes Python's own "%.11e" where that is not certain: within TIE_BAND of a tie,
# where s falls outside [1e11, 1e12) (log10 rounded across a power of ten), and for 0, inf, nan and
# |v| outside [10^-E_LIMIT, 10^E_LIMIT], subnormals included.  So every byte is the one "%.11e" prints.
TIE_BAND = 2e-3
E_LIMIT = 290
POW10 = np.array([float(f"1e{p}") for p in range(11 - E_LIMIT, 12 + E_LIMIT)])  # 10^(11-e) at E_LIMIT-e
# A cell is 20 bytes, written as one uint32, uint32, uint32, uint16, uint16, uint32 from these tables:
# [sign d0 . d1][d2..d5][d6..d9][d10 d11][e ±][hundreds tens units ,].  A positive sign and the
# hundreds of a two-digit exponent are NULs, which one translate deletes from the whole table
LEADS = np.frombuffer(b"".join(sign + f"{d // 10}.{d % 10}".encode()
                               for sign in (b"\0", b"-") for d in range(100)), dtype=np.uint32)
QUADS = np.frombuffer(b"".join(f"{d:04d}".encode() for d in range(10_000)), dtype=np.uint32)
PAIRS = np.frombuffer(b"".join(f"{d:02d}".encode() for d in range(100)), dtype=np.uint16)
E_SIGNS = np.frombuffer(b"e+e-", dtype=np.uint16)
EXPONENTS = np.frombuffer(b"".join(f"{e:02d},".encode().rjust(4, b"\0")
                                   for e in range(E_LIMIT + 2)), dtype=np.uint32)  # to E_LIMIT + 1, a carry


def _format_rows(table: np.ndarray) -> bytes:
    """The rows of a float64 (rows, columns) table as "%.11e" prints them, comma-separated, one per line."""
    v = table.ravel()
    a = np.abs(v)
    fast = (a >= 10.0 ** -E_LIMIT) & (a <= 10.0 ** E_LIMIT)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)), -E_LIMIT, E_LIMIT).astype(np.int64)
    s = a * POW10.take(E_LIMIT - e)
    m = np.rint(s)
    fast &= (np.abs(np.abs(s - m) - 0.5) >= TIE_BAND) & (s >= 1e11) & (s < 1e12)
    carry = m == 1e12  # 9.999999999995e5 prints as 1.00000000000e+06
    m[carry] = 1e11
    e += carry
    m[~fast] = 1e11  # keeps every table index in range; these cells are overwritten below
    digits = m.astype(np.int64)
    cells = np.empty((v.size, 20), dtype=np.uint8)
    u16, u32 = cells.view(np.uint16), cells.view(np.uint32)
    lead = digits // 10**10
    rest = digits - lead * 10**10
    u32[:, 0] = LEADS.take(lead + 100 * np.signbit(v))
    quad = rest // 10**6
    rest -= quad * 10**6
    u32[:, 1] = QUADS.take(quad)
    quad = rest // 100
    u32[:, 2] = QUADS.take(quad)
    u16[:, 6] = PAIRS.take(rest - 100 * quad)
    u16[:, 7] = E_SIGNS.take(e < 0)
    u32[:, 4] = EXPONENTS.take(np.abs(e))
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 19 characters, "-d.ddddddddddde-ddd", NUL-padded
        text = np.array(["%.11e" % x for x in v[slow].tolist()], dtype="S19")
        cells[slow, :19] = text.view(np.uint8).reshape(-1, 19)
    cells.reshape(table.shape + (20,))[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def _branch_states(branch: str, exclude: tuple[float, ...]) -> list[BaseState]:
    kind = "odd" if branch == "odd-base" else "even"
    states = []
    n = 0
    while len(states) < N_ISO_STATES:
        s = BaseState(branch=kind, n=n)
        n += 1
        if s.energy in exclude:
            continue
        states.append(s)
    return states


def run(cfg: PlanConfig, command: str = "run") -> int:
    """Load -> validate -> construct -> verify, stopping where `command` ends.

    The one error-to-exit map of every command: bad config 64, a SusyqError
    after loading 3 (with `error` in report.json), an OSError 74.
    """
    try:
        if not 1 <= cfg.levels_to_report <= MAX_LEVELS:
            raise ValueError(f"levels_to_report must lie in 1..{MAX_LEVELS}")
        plan = make_plan(cfg.epsilons, cfg.parities)
        grid = Grid(x_max=cfg.x_max, n=cfg.grid_n)
    except ValueError as exc:  # the SusyqErrors a bad plan raises are ValueErrors too
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {
        "plan": {
            "order": plan.order,
            "epsilons": list(plan.epsilons),
            "parities": [int(p) for p in plan.parities],
        }
    }
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        try:
            code = _stages(cfg, command, plan, grid, payload)
        except SusyqError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            payload["error"] = str(exc)
            code = EXIT_NUMERICAL
        _write_json(cfg.output_dir / "report.json", payload)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def _stages(cfg: PlanConfig, command: str, plan: TransformationPlan, grid: Grid, payload) -> int:
    """The stages of `command` after loading; fills payload and returns the exit code.

    validate: the rule checks.  spectrum: the oracle on Vt.  run: the rule
    checks, potential.csv and states.csv, the oracle and the residuals.
    """
    if command != "spectrum":
        report = validate(plan, grid)
        payload["validation"] = {
            "ok": report.ok,
            "violations": [list(v) for v in report.violations],
            "wronskian_zeros": list(report.wronskian_zeros),
            "isospectral_branch": report.predicted_isospectral_branch,
        }
        payload["predicted_added"] = [[j, e] for j, e in report.predicted_added]
        if command == "validate" or not report.ok:
            return EXIT_OK if report.ok else EXIT_VIOLATIONS

    # the partner object of validate's table, so that a run decides its table precision once
    p = plan.partner() if command == "spectrum" else report.seed_table.p
    xs = grid.points
    states = []  # (energy, normalized state function) of every state in states.csv
    tables = {}  # the residuals' point sets, each evaluated once for Vt and every state

    def seed_table(x):
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if key not in tables:
            tables[key] = SeedTable(p, x)
        return tables[key]

    if command == "spectrum":
        # spectrum needs only Vt: it evaluates the seeds on grid.closed_points and holds no table
        vt = partner_v(p, grid.closed_points)[1:-1]
    else:
        # run reads the seeds, and W's factors, that validate evaluated on grid.closed_points
        on_grid = report.seed_table
        vt = on_grid.potential()[1:-1]
        out = cfg.output_dir
        _write_csv(out / "potential.csv", ["x", "V", "Vtilde"],
                   [xs, truncated_oscillator_v(xs), vt])
        reads = [(s.energy, lambda t, s=s: t.state(s))
                 for s in _branch_states(report.predicted_isospectral_branch, plan.epsilons)]
        reads += [(eps, lambda t, j=j: t.added(j)) for j, eps in report.predicted_added]
        columns = [xs]
        for energy, read in reads:
            vals = read(on_grid)
            scale = normalize(vals, grid)
            columns.append(scale * vals[1:-1])
            states.append((energy, lambda x, read=read, scale=scale: scale * read(seed_table(x))))
        _write_csv(out / "states.csv", ["x"] + [f"E={_fmt(e)}" for e, _ in states], columns)

    predicted = sorted(e for e, _ in states)
    # one level past the predicted spectrum, so that a missing or extra level shows
    count = min(max(cfg.levels_to_report, len(predicted) + 1), MAX_LEVELS)
    oracle_levels = eigenvalues_low(discretize(vt, grid), count)
    if command == "run":
        sample = np.linspace(0.4, min(4.0, cfg.x_max - 1.0), 8)
        payload["residuals"] = {f"E={_fmt(e)}": residual(lambda x: seed_table(x).potential(), f, e,
                                                         sample)
                                for e, f in states}
    payload["oracle"] = {
        "eigenvalues": oracle_levels,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
    }
    if command == "spectrum":
        return EXIT_OK
    payload["predicted_spectrum"] = predicted
    payload["checks"] = checks = _spectrum_checks(predicted, oracle_levels)
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_NUMERICAL


def _spectrum_checks(predicted, oracle_levels):
    """The predicted levels paired one to one, in order, with the oracle's below top + SPECTRUM_TOL.

    A predicted level left without an oracle level observes None and fails;
    oracle levels left over fail oracle.no-extra-levels.
    """
    if not predicted:
        return []
    predicted = sorted(predicted)
    below = sorted(v for v in oracle_levels if v < predicted[-1] + SPECTRUM_TOL)
    paired = below + [None] * (len(predicted) - len(below))
    checks = [{"rule": "oracle.level", "expected": level, "observed": seen,
               "pass": seen is not None and bool(abs(seen - level) <= SPECTRUM_TOL)}
              for level, seen in zip(predicted, paired)]
    extras = below[len(predicted):]
    checks.append({"rule": "oracle.no-extra-levels", "expected": [], "observed": extras,
                   "pass": not extras})
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="susyq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "spectrum"):
        sp = sub.add_parser(name)
        sp.add_argument("config", type=Path)
    args = parser.parse_args(argv)
    try:
        text = args.config.read_bytes()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, args.command)


if __name__ == "__main__":
    sys.exit(main())
