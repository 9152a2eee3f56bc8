import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from susyq import cli, seeds
from susyq.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VIOLATIONS,
    PlanConfig,
    main,
    parse_config,
    run,
)
from susyq.design import make_plan
from susyq.errors import ConfigError
from susyq.oracle import Grid
from susyq.partner import PROBE_X, BaseState, added_state, normalize, transformed_eigenfunction

# the package re-exports a function named `wronskian`, so the module comes from importlib
wronskian = importlib.import_module("susyq.wronskian")


def test_parse_minimal_config():
    cfg = parse_config("order = 1\nepsilons = 1.0\n")
    assert cfg.order == 1
    assert cfg.epsilons == [1.0]
    assert cfg.parities is None
    assert cfg.x_max == 10.0
    assert cfg.grid_n == 4000
    # a '#' at a line's start or after whitespace starts a comment; one inside a value is part of it
    cfg = parse_config("order = 1\t# k\n  # note\nepsilons = 1.0 #e\noutput_dir = runs#3 # where\n")
    assert (cfg.order, cfg.epsilons, cfg.output_dir) == (1, [1.0], Path("runs#3"))


def test_parse_full_config_with_fractions():
    text = """
    # fourth-order class-A example
    order = 4
    epsilons = -11/2, -9/2, -7/2, -5/2
    parities = -1, 1, -1, 1
    x_max = 8.0
    grid_n = 1500
    levels_to_report = 6
    output_dir = out/deep
    """
    cfg = parse_config(text)
    assert cfg.epsilons == [-5.5, -4.5, -3.5, -2.5]
    assert cfg.parities == [-1, 1, -1, 1]
    assert cfg.x_max == 8.0
    assert cfg.levels_to_report == 6
    assert cfg.output_dir == Path("out/deep")
    # the same keys saved with a UTF-8 byte-order mark before the first one, and CRLF line ends
    lines = [line.strip() for line in text.splitlines() if "=" in line]
    assert parse_config(b"\xef\xbb\xbf" + "\r\n".join(lines).encode()) == cfg


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("order = 1\nwhat\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config("order = 1\norder = 2\nepsilons = 1.0\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config("order = x\nepsilons = 1.0\n")
    assert err.value.line == 1


def test_parse_rejects_structural_mistakes():
    with pytest.raises(ConfigError):
        parse_config("epsilons = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config("order = 1\n")
    with pytest.raises(ConfigError):
        parse_config("order = 2\nepsilons = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config("order = 1\nepsilons = 1.0\nparities = 1, -1\n")
    with pytest.raises(ConfigError):
        parse_config("order = 1\nepsilons = 1.0\nparities = 2\n")
    with pytest.raises(ConfigError):
        parse_config("order = 1\nepsilons = 1.0\ncolor = blue\n")


def small_cfg(tmp_path, **kw):
    base = dict(
        order=2,
        epsilons=[0.7, 1.2],
        x_max=8.0,
        grid_n=600,
        levels_to_report=5,
        output_dir=tmp_path,
    )
    base.update(kw)
    return PlanConfig(**base)


def test_run_writes_artifacts_and_passes_checks(tmp_path):
    code = run(small_cfg(tmp_path))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["validation"]["ok"] is True
    assert report["predicted_added"] == [[1, 0.7]]
    assert all(c["pass"] for c in report["checks"])
    assert any(abs(v - 0.7) < 5e-3 for v in report["oracle"]["eigenvalues"])

    pot = (tmp_path / "potential.csv").read_text().splitlines()
    assert pot[0] == "x,V,Vtilde"
    assert len(pot) == 601
    states = (tmp_path / "states.csv").read_text().splitlines()
    header = states[0].split(",")
    assert header[0] == "x"
    # four isospectral levels plus the added one
    assert len(header) == 6
    energies = sorted(float(h.split("=")[1]) for h in header[1:])
    np.testing.assert_allclose(energies, [0.7, 1.5, 3.5, 5.5, 7.5])


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(small_cfg(a, output_dir=a)) == EXIT_OK
    assert run(small_cfg(b, output_dir=b)) == EXIT_OK
    for name in ("report.json", "potential.csv", "states.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_order_zero_reports_base_problem(tmp_path):
    cfg = PlanConfig(order=0, epsilons=[], grid_n=600, x_max=8.0, output_dir=tmp_path)
    assert run(cfg) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["predicted_added"] == []
    got = report["oracle"]["eigenvalues"][:3]
    np.testing.assert_allclose(got, [1.5, 3.5, 5.5], atol=5e-3)
    pot = (tmp_path / "potential.csv").read_text().splitlines()
    x, v, vt = pot[1].split(",")
    assert v == vt


def test_run_exits_2_on_rule_violations(tmp_path):
    cfg = small_cfg(tmp_path, epsilons=[2.6, 3.6], parities=[-1, -1])
    assert run(cfg) == EXIT_VIOLATIONS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["validation"]["ok"] is False
    assert report["validation"]["violations"]
    assert not (tmp_path / "potential.csv").exists()


def test_run_exits_64_on_bad_plan(tmp_path):
    cfg = small_cfg(tmp_path, epsilons=[1.2, 0.7])
    assert run(cfg) == EXIT_CONFIG


COMMANDS = ("run", "validate", "spectrum")
# non-integral or non-finite numbers, each rejected with the line it is on;
# with parities given, a non-finite energy reaches no interval classification
BAD_NUMBERS = (
    "order = 2.5",
    "grid_n = 4000.9",
    "parities = 1.7, -1",
    "grid_n = nan",
    "order = 1e400",
    "levels_to_report = inf",
    "x_max = nan",
    "x_max = inf",
    "epsilons = nan, 1.2\nparities = 1, -1",
)


@pytest.mark.parametrize(
    "command, line",
    [
        ("run", "grid_n = 50"),
        ("validate", "grid_n = 50"),
        ("spectrum", "grid_n = 50"),
        ("run", "x_max = -1"),
        ("validate", "x_max = -1"),
        ("spectrum", "x_max = -1"),
        ("run", "levels_to_report = 0"),
        ("spectrum", "levels_to_report = 0"),
        ("run", "levels_to_report = 21"),
        ("spectrum", "levels_to_report = 21"),
    ]
    + [(command, line) for line in BAD_NUMBERS for command in COMMANDS]
    # rejected by Grid before any array of that size is made
    + [(command, "grid_n = 100000000000") for command in COMMANDS],
)
def test_commands_exit_64_on_bad_grid_or_level_count(tmp_path, command, line):
    keys = {"order": "2", "epsilons": "0.7, 1.2", "output_dir": str(tmp_path)}
    for item in line.split("\n"):
        key, _, value = item.partition(" = ")
        keys[key] = value
    config = tmp_path / "plan.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main([command, str(config)]) == EXIT_CONFIG


@pytest.mark.parametrize("command", COMMANDS)
def test_numerical_failure_inside_any_stage_exits_3_with_report(tmp_path, command):
    # at x_max = 100 the 1F1 series of the seed cannot converge: validate's scan
    # (run, validate) or the partner potential (spectrum) raises ConvergenceError
    config = tmp_path / "plan.cfg"
    config.write_text(f"order = 1\nepsilons = 0.2\nx_max = 100\noutput_dir = {tmp_path}\n")
    assert main([command, str(config)]) == EXIT_NUMERICAL
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report) == ["error", "plan"]
    assert "did not converge" in report["error"]
    assert report["plan"] == {"order": 1, "epsilons": [0.2], "parities": [1]}


TWELVE_DIGITS = st.integers(10**11, 10**12 - 1)
DOUBLES = st.one_of(
    # any 64-bit pattern: +-0, subnormals, +-inf, nan payloads, exponents of three digits
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
    # (d + 1/2) 2^j and (d + 1/2) / 10^m: at or next to a tie of the 12-digit rounding
    st.builds(lambda d, j, sign: sign * (d + 0.5) * 2.0**j, TWELVE_DIGITS, st.integers(-1100, 980),
              st.sampled_from([1, -1])),
    st.builds(lambda d, m, sign: sign * (d + 0.5) / 10**m, TWELVE_DIGITS, st.integers(0, 300),
              st.sampled_from([1, -1])),
    # powers of ten and their neighbours, where log10 can round across the decade and 9.99...95 carries
    st.builds(lambda m, side: float(np.nextafter(float(f"1e{m}"), side * np.inf)),
              st.integers(-323, 308), st.sampled_from([-1, 1])),
    st.integers(-323, 308).map(lambda m: float(f"1e{m}")),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(DOUBLES, min_size=1, max_size=40), width=st.integers(1, 4))
def test_csv_rows_equal_the_per_value_format(tmp_path, drawn, width):
    rng = np.random.default_rng(5)
    columns = list(rng.normal(scale=1e3, size=(3, 200)))
    columns.append(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308] * 25))
    width = min(width, len(drawn))
    tables = [columns, list(np.array(drawn[: len(drawn) // width * width]).reshape(-1, width).T)]
    for table in tables:
        path = tmp_path / "t.csv"  # each example overwrites it
        header = "abcd"[: len(table)]
        cli._write_csv(path, list(header), table)
        lines = [",".join(header)] + [",".join(f"{v:.11e}" for v in row) for row in zip(*table)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_states_csv_holds_normalized_states_on_the_grid(tmp_path, monkeypatch):
    # the columns handed to the CSV writer, at full precision
    written, write_csv = {}, cli._write_csv

    def capture(path, header, columns):
        written[path.name] = columns
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", capture)
    cfg = small_cfg(tmp_path)
    assert run(cfg) == EXIT_OK
    grid = Grid(x_max=cfg.x_max, n=cfg.grid_n)
    rows = [line.split(",") for line in (tmp_path / "states.csv").read_text().splitlines()]
    assert [row[0] for row in rows[1:]] == [cli._fmt(x) for x in grid.points]
    x, *columns = written["states.csv"]
    np.testing.assert_array_equal(x, grid.points)

    # four odd-branch levels, then the added one; a slice off by one point fails
    assert rows[0][1:] == [f"E={cli._fmt(e)}" for e in (1.5, 3.5, 5.5, 7.5, 0.7)]
    p = make_plan(cfg.epsilons).partner()
    states = [lambda x, n=n: transformed_eigenfunction(p, BaseState("odd", n), x) for n in range(4)]
    states.append(lambda x: added_state(p, 1, x))
    for f, column in zip(states, columns, strict=True):
        scale = normalize(f(grid.closed_points), grid)
        np.testing.assert_allclose(column, scale * f(grid.points), rtol=1e-12, atol=0)


def test_run_evaluates_each_seed_once_per_stage_on_the_closed_grid(tmp_path, monkeypatch):
    # the scan, the candidates, potential.csv, the oracle and every state of run
    # read one batched evaluation of the k seeds on grid.closed_points (n + 2 points);
    # nothing evaluates them on grid.points (n points).  The residuals read one more
    # on their 8 sample points (Vt) and one on their 5 x 8 stencil points (every state).
    # Every command decides the table precision once: one probe, which evaluates the
    # seeds on PROBE_X once in float64 and once in longdouble
    evaluated, batch = [], seeds.kummer_frame

    def counted(batch_seeds, x, max_order, dtype=np.float64):
        evaluated.extend((u, np.size(x), np.dtype(dtype)) for u in batch_seeds)
        return batch(batch_seeds, x, max_order, dtype=dtype)

    # tables reach the seeds through wronskian.scaled_stack, single seeds through
    # SeedSolution.scaled_derivatives
    monkeypatch.setattr(seeds, "kummer_frame", counted)
    monkeypatch.setattr(wronskian, "kummer_frame", counted)
    cfg = small_cfg(tmp_path, order=4, epsilons=[0.6, 0.9, 1.0, 1.3], x_max=10.0)
    plan_seeds = make_plan(cfg.epsilons).seeds()
    for command in ("run", "validate", "spectrum"):
        evaluated.clear()
        assert run(cfg, command) == EXIT_OK
        if command == "run":
            report = json.loads((tmp_path / "report.json").read_text())
            assert len(report["predicted_added"]) == 2
            assert len(report["residuals"]) == cli.N_ISO_STATES + 2
        for size in (cfg.grid_n + 2,) + ((8, 5 * 8) if command == "run" else ()):
            on_points = [u for u, n, _ in evaluated if n == size]
            assert sorted(on_points, key=plan_seeds.index) == list(plan_seeds)
        assert not [u for u, size, _ in evaluated if size == cfg.grid_n]
        probes = [(u, work) for u, size, work in evaluated if size == PROBE_X.size]
        assert sorted(probes, key=lambda e: (plan_seeds.index(e[0]), e[1].itemsize)) == [
            (u, np.dtype(work)) for u in plan_seeds for work in (np.float64, np.longdouble)]


def test_run_reads_states_and_candidates_by_solves_against_one_lu(tmp_path, monkeypatch):
    # on grid.closed_points: one solve against e_k, read by Vt and by every candidate in
    # validate's normalizability check and in states.csv, one against e_{k-1} for Vt, one
    # solve per state, and W's k x k matrix as the only matrix eliminated there (no
    # (k + 1) numerator, no (k - 1) minor, no shifted determinant of Vt).  The unit solves
    # build P e_j themselves (_solve_unit), every other one goes through solve
    solves, units, sizes = [], [], []
    lu_class = wronskian.WronskianLU
    solve, solve_unit, factor = lu_class.solve, lu_class._solve_unit, lu_class.__init__

    def counted_solve(self, b):
        solves.append(np.asarray(b))
        return solve(self, b)

    def counted_unit(self, j):  # (j, points) of each unit solve
        units.append((j, self._lu.shape[2]))
        return solve_unit(self, j)

    def counted_factor(self, stack):  # (k, points) of each matrix eliminated
        sizes.append((stack.shape[1], np.prod(stack.shape[2:], dtype=int)))
        factor(self, stack)

    monkeypatch.setattr(lu_class, "solve", counted_solve)
    monkeypatch.setattr(lu_class, "_solve_unit", counted_unit)
    monkeypatch.setattr(lu_class, "__init__", counted_factor)
    cfg = small_cfg(tmp_path, order=4, epsilons=[0.6, 0.9, 1.0, 1.3], x_max=10.0)
    assert run(cfg) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["predicted_added"]) == 2
    assert sorted(j for j, npts in units if npts == cfg.grid_n + 2) == [3, 4]  # e_{k-1} and e_k
    assert len([b for b in solves if b.shape == (4, cfg.grid_n + 2)]) == cli.N_ISO_STATES
    assert [k for k, npts in sizes if npts == cfg.grid_n + 2] == [4]


# order-8 and order-6 class-B plans whose partners lost their digits at large x in the plain
# frame: the oracle then found a level off by 0.099 and an extra level at 1.263 (order 8), and
# an extra level at 1.324 (order 6), and run exited 3
@pytest.mark.parametrize("eps", [(0.616, 0.805, 0.92, 1.124, 1.215, 1.233, 1.4, 1.405),
                                 (0.61, 0.88, 0.987, 1.212, 1.318, 1.422)])
def test_run_confirms_plans_that_need_the_whole_grid(tmp_path, eps):
    cfg = PlanConfig(order=len(eps), epsilons=list(eps), output_dir=tmp_path)
    assert run(cfg) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    levels = [c for c in report["checks"] if c["rule"] == "oracle.level"]
    assert len(levels) == cli.N_ISO_STATES + len(eps) // 2
    assert all(abs(c["observed"] - c["expected"]) <= cli.SPECTRUM_TOL for c in levels)
    assert all(c["pass"] for c in report["checks"])


def test_spectrum_checks_pair_levels_one_to_one():
    # the oracle has two levels below the top where three are predicted: 1.2015 lies within the
    # tolerance of both 1.2 and 1.203, but it may stand for only one of them
    checks = cli._spectrum_checks([1.2, 1.203, 1.5], [1.2015, 1.5, 3.5])
    assert [c["rule"] for c in checks] == ["oracle.level"] * 3 + ["oracle.no-extra-levels"]
    assert [c["observed"] for c in checks[:3]] == [1.2015, 1.5, None]
    assert [c["pass"] for c in checks] == [True, False, False, True]
    # an extra oracle level below the top is left over after the pairing
    checks = cli._spectrum_checks([1.5, 1.2], [1.2, 1.35, 1.5, 3.5])
    assert [c["observed"] for c in checks] == [1.2, 1.35, [1.5]]
    assert [c["pass"] for c in checks] == [True, False, False]
    assert cli._spectrum_checks([], [1.5]) == []


def test_validate_reports_only_the_genuine_wronskian_zero(tmp_path):
    # energies above 3/2 and about 0.03 apart: in the plain frame W's sign flipped 262 times on
    # the default grid, 261 of them rounding noise beyond x = 8.  mpmath puts the one zero at
    # 0.7804239060 (40 digits)
    eps = [1.852, 2.027, 2.051, 2.17, 2.217, 2.253, 2.422]
    cfg = PlanConfig(order=7, epsilons=eps, output_dir=tmp_path)
    assert run(cfg, "validate") == EXIT_VIOLATIONS  # odd order above 3/2
    zeros = json.loads((tmp_path / "report.json").read_text())["validation"]["wronskian_zeros"]
    assert len(zeros) == 1
    assert abs(zeros[0] - 0.7804239060) <= 1e-6


@pytest.mark.parametrize("grid_n", [600, 4000])
def test_run_accepts_genuine_states_on_a_short_domain(tmp_path, grid_n):
    # at x_max = 8 the E = 15/2 state of this plan keeps |f(x_max)| = 1.4e-6 max|f|
    cfg = small_cfg(tmp_path, order=4, epsilons=[0.6, 0.9, 1.0, 1.3], grid_n=grid_n)
    assert run(cfg) == EXIT_OK
    assert run(cfg, "validate") == EXIT_OK


def test_run_asks_oracle_past_the_predicted_spectrum(tmp_path):
    # order 6 predicts 4 isospectral + 3 added levels, more than the 6 reported
    cfg = PlanConfig(
        order=6,
        epsilons=[0.6, 0.75, 0.9, 1.0, 1.2, 1.4],
        grid_n=1500,
        levels_to_report=6,
        output_dir=tmp_path,
    )
    assert run(cfg) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["predicted_spectrum"]) == 7
    assert len(report["oracle"]["eigenvalues"]) == 8


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_commands_report_up_to_20_levels(tmp_path, command):
    # 20 is the largest accepted level count (21 exits 64), and every level is reported
    cfg = small_cfg(tmp_path, levels_to_report=20)
    assert run(cfg, command) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["oracle"]["eigenvalues"]) == 20


def test_run_exits_74_when_output_dir_is_a_file(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    cfg = small_cfg(tmp_path, output_dir=blocker / "sub")
    assert run(cfg) == EXIT_IO


def test_main_subcommands(tmp_path):
    config = tmp_path / "plan.cfg"
    config.write_text(
        "order = 2\nepsilons = 0.7, 1.2\nx_max = 8.0\ngrid_n = 600\n"
        f"levels_to_report = 5\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["validate", str(config)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["validation"]["ok"] is True
    assert "oracle" not in report

    assert main(["spectrum", str(config)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "validation" not in report
    assert any(abs(v - 0.7) < 5e-3 for v in report["oracle"]["eigenvalues"])

    assert main(["run", str(config)]) == EXIT_OK


def test_main_missing_config_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_IO


def test_main_bad_config_is_config_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("order = 1\n")
    assert main(["run", str(config)]) == EXIT_CONFIG


def test_main_config_bytes_that_no_key_can_hold_are_config_errors(tmp_path):
    # a file that is not UTF-8, and an output_dir that no file system takes
    for name, text in (("latin1.cfg", b"order = 1\nepsilons = 0.3\xff\n"),
                       ("nul.cfg", b"order = 1\nepsilons = -1.3\noutput_dir = out\x00dir\n")):
        config = tmp_path / name
        config.write_bytes(text)
        assert main(["run", str(config)]) == EXIT_CONFIG


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs every process and every CLI call ~0.3 s and ~24 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, susyq, susyq.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    assert out.stdout.strip() == "False"


def test_pointwise_reads_and_validate_never_import_scipy():
    # scipy serves the oracle's stebz alone, so it loads on the first eigenvalues_low call: not
    # on import, nor on the pointwise reads or validate; and then only its LAPACK extension,
    # never the scipy.linalg package (~25 MB and ~0.16 s)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = """if True:
        import sys
        import numpy as np
        import susyq, susyq.cli
        from susyq import (BaseState, Grid, added_state, discretize, eigenvalues_low, make_plan,
                           partner_v, transformed_eigenfunction, truncated_oscillator_v, validate)
        plan = make_plan((-5.5, -4.5, -3.5, -2.5))
        p, x = plan.partner(), np.array([0.3, 1.0, 2.5, 7.0])
        partner_v(p, x), partner_v(p, 1.0), added_state(p, 2, x)
        transformed_eigenfunction(p, BaseState("odd", 1), x)
        validate(plan, Grid())
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        g = Grid()
        levels = eigenvalues_low(discretize(truncated_oscillator_v(g.points), g), 6)
        assert "scipy.linalg" not in sys.modules
        assert all(abs(e - (2 * n + 1.5)) <= 1e-3 for n, e in enumerate(levels)), levels
    """
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_run_and_spectrum_leave_scipy_linalg_to_a_later_import(tmp_path, command):
    # in a fresh interpreter neither command imports scipy.linalg; importing it afterwards, as the
    # benchmark's LAPACK check does after its timed loop, works, and its eigh_tridiagonal gives
    # the oracle's levels bit for bit on the matrix the oracle was given
    config = tmp_path / "plan.cfg"
    config.write_text(f"order = 4\nepsilons = -5.5, -4.5, -3.5, -2.5\noutput_dir = {tmp_path}\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    code = """if True:
        import sys
        from susyq import cli, oracle
        calls = []
        eigenvalues_low = cli.eigenvalues_low
        cli.eigenvalues_low = lambda t, count: calls.append((t, eigenvalues_low(t, count))) or calls[-1][1]
        assert cli.main(sys.argv[1:]) == 0
        assert "scipy.linalg" not in sys.modules
        from scipy.linalg import eigh_tridiagonal
        ((t, levels),) = calls
        want = eigh_tridiagonal(t.diag, t.off, eigvals_only=True, select="i",
                                select_range=(0, len(levels) - 1), tol=oracle.BRACKET_WIDTH / 4)
        assert want.tolist() == levels, (want.tolist(), levels)
    """
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code, command,
                          str(config)], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
