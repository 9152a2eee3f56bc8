"""Command-line pipeline: validate a plan, build the partner, verify with the oracle.

    susyq run <config>        full pipeline, writes report.json / potential.csv / states.csv
    susyq validate <config>   rule checks only, writes report.json
    susyq spectrum <config>   oracle eigenvalues only, writes report.json

Config files are line-oriented `key = value`; lists are comma-separated and
numbers may be decimals or exact fractions like -11/2.  Exit codes: 0 ok,
2 rule violations, 3 numerical failure, 64 config error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .design import TransformationPlan, make_plan, predict_added, validate
from .errors import ConfigError, SusyqError
from .oracle import Grid, discretize, eigenvalues_low, residual
from .partner import (
    BaseState,
    PartnerPotential,
    added_state,
    normalize,
    partner_v,
    transformed_eigenfunction,
    truncated_oscillator_v,
)

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
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {text!r}: {exc}", line=line) from None


def parse_config(text) -> PlanConfig:
    """Parse `key = value` lines into a PlanConfig; unknown keys are errors."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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
        if key == "order":
            values[key] = int(_parse_number(rhs, lineno))
        elif key == "epsilons":
            values[key] = [_parse_number(v, lineno) for v in rhs.split(",")] if rhs else []
        elif key == "parities":
            pars = [int(_parse_number(v, lineno)) for v in rhs.split(",")] if rhs else []
            if any(p not in (-1, 1) for p in pars):
                raise ConfigError("parities must be +1 or -1", line=lineno)
            values[key] = pars
        elif key == "x_max":
            values[key] = _parse_number(rhs, lineno)
        elif key in ("grid_n", "levels_to_report"):
            values[key] = int(_parse_number(rhs, lineno))
        elif key == "output_dir":
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


def _plan_and_grid(cfg: PlanConfig) -> tuple[TransformationPlan, Grid]:
    """The plan and grid of a config; raises ValueError (or SusyqError) for a bad config."""
    if cfg.levels_to_report < 1:
        raise ValueError("levels_to_report must be at least 1")
    if cfg.order == 0:
        plan = TransformationPlan(epsilons=(), parities=())
    else:
        plan = make_plan(cfg.epsilons, cfg.parities)
    return plan, Grid(x_max=cfg.x_max, n=cfg.grid_n)


def _validated(plan: TransformationPlan, grid: Grid):
    """Rule checks of the plan, and the report.json payload that records them."""
    report = validate(plan, grid)
    payload = {
        "plan": {
            "order": plan.order,
            "epsilons": list(plan.epsilons),
            "parities": [int(p) for p in plan.parities],
        },
        "validation": {
            "ok": report.ok,
            "violations": [list(v) for v in report.violations],
            "wronskian_zeros": list(report.wronskian_zeros),
            "isospectral_branch": report.predicted_isospectral_branch,
        },
        "predicted_added": [[j, e] for j, e in report.predicted_added],
    }
    return report, payload


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


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


def run(cfg: PlanConfig) -> int:
    """Validation -> construction -> oracle verification; writes all artifacts."""
    out = cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        plan, grid = _plan_and_grid(cfg)
    except (ValueError, SusyqError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report, payload = _validated(plan, grid)
    try:
        if not report.ok:
            _write_json(out / "report.json", payload)
            return EXIT_VIOLATIONS

        p = plan.partner()
        xs = grid.points
        try:
            vt = partner_v(p, xs) if plan.order else truncated_oscillator_v(xs)
            _write_csv(
                out / "potential.csv",
                ["x", "V", "Vtilde"],
                [xs, truncated_oscillator_v(xs), np.broadcast_to(vt, xs.shape)],
            )

            states = _branch_states(report.predicted_isospectral_branch, plan.epsilons)
            columns, labels, predicted_levels, funcs, residuals = [xs], ["x"], [], [], {}
            for s in states:
                fn = lambda x, s=s: transformed_eigenfunction(p, s, x)
                scale = normalize(fn, grid)
                columns.append(scale * np.asarray(fn(xs)))
                labels.append(f"E={_fmt(s.energy)}")
                predicted_levels.append(s.energy)
                funcs.append(lambda x, fn=fn, scale=scale: scale * np.asarray(fn(x)))
            for j, eps in report.predicted_added:
                fn = lambda x, j=j: added_state(p, j, x)
                scale = normalize(fn, grid)
                columns.append(scale * np.asarray(fn(xs)))
                labels.append(f"E={_fmt(eps)}")
                predicted_levels.append(eps)
                funcs.append(lambda x, fn=fn, scale=scale: scale * np.asarray(fn(x)))
            _write_csv(out / "states.csv", labels, columns)

            vfun = (lambda x: partner_v(p, x)) if plan.order else truncated_oscillator_v
            tri = discretize(vfun, grid)
            # one level past the predicted spectrum, so that a missing or extra level shows
            count = min(max(cfg.levels_to_report, len(predicted_levels) + 1), 20)
            oracle_levels = eigenvalues_low(tri, count)
            sample = np.linspace(0.4, min(4.0, cfg.x_max - 1.0), 8)
            for label, level, fn in zip(labels[1:], predicted_levels, funcs):
                residuals[label] = residual(vfun, fn, level, sample)
        except SusyqError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            payload["error"] = str(exc)
            _write_json(out / "report.json", payload)
            return EXIT_NUMERICAL

        predicted_sorted = sorted(predicted_levels)
        checks = _spectrum_checks(predicted_sorted, oracle_levels)
        payload["oracle"] = {
            "eigenvalues": oracle_levels,
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
        }
        payload["predicted_spectrum"] = predicted_sorted
        payload["residuals"] = residuals
        payload["checks"] = checks
        _write_json(out / "report.json", payload)
        return EXIT_OK if all(c["pass"] for c in checks) else EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def _spectrum_checks(predicted, oracle_levels):
    checks = []
    for level in predicted:
        if not oracle_levels:
            break
        nearest = min(oracle_levels, key=lambda v: abs(v - level))
        checks.append(
            {
                "rule": "oracle.level",
                "expected": level,
                "observed": nearest,
                "pass": bool(abs(nearest - level) <= SPECTRUM_TOL),
            }
        )
    if predicted:
        top = max(predicted)
        extras = [
            v
            for v in oracle_levels
            if v < top + SPECTRUM_TOL
            and all(abs(v - q) > SPECTRUM_TOL for q in predicted)
        ]
        checks.append(
            {
                "rule": "oracle.no-extra-levels",
                "expected": [],
                "observed": extras,
                "pass": not extras,
            }
        )
    return checks


def cmd_validate(cfg: PlanConfig) -> int:
    try:
        plan, grid = _plan_and_grid(cfg)
    except (ValueError, SusyqError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report, payload = _validated(plan, grid)
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        _write_json(cfg.output_dir / "report.json", payload)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_spectrum(cfg: PlanConfig) -> int:
    try:
        plan, grid = _plan_and_grid(cfg)
    except (ValueError, SusyqError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        p = plan.partner()
        vfun = (lambda x: partner_v(p, x)) if plan.order else truncated_oscillator_v
        tri = discretize(vfun, grid)
        levels = eigenvalues_low(tri, min(cfg.levels_to_report, 20))
    except SusyqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "plan": {"order": plan.order, "epsilons": list(plan.epsilons)},
        "oracle": {
            "eigenvalues": levels,
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
        },
    }
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        _write_json(cfg.output_dir / "report.json", payload)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


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
    handler = {"run": run, "validate": cmd_validate, "spectrum": cmd_spectrum}[args.command]
    return handler(cfg)


if __name__ == "__main__":
    sys.exit(main())
