"""The three workloads: inputs drawn from the seed, one round of operations, output checks.

A workload object is built during set-up (plans, config files, query pool),
hands out ``round_ops`` (the operations of one round, each returning True
when it ended as expected) and, after the timed loop, ``check`` returns the
problems found in the outputs by the independent references.
"""

from __future__ import annotations

import json

import numpy as np

import rules

# class, interval index -> open energy interval used for drawing (A0 is cut at -6)
INTERVALS = {("A", 0): (-6.0, 0.5), ("B", 0): (0.5, 1.5), ("A", 1): (1.5, 2.5), ("B", 1): (2.5, 3.5)}
# interval of the valid plan of each order 1-6.  It is fixed, not drawn, so that
# every seed gives a round of the same cost; odd orders follow the rules only
# below 3/2, and together the plans cover all four intervals.  Order 6 is not
# drawn in B0: there the partner loses enough digits at large x that the oracle
# misses an added level by more than 5e-3 on some seeds (2 plans in 40).
VALID_INTERVALS = {1: ("A", 0), 2: ("A", 1), 3: ("B", 0), 4: ("B", 0), 5: ("A", 0), 6: ("B", 1)}
EDGE = 0.05  # distance kept from interval endpoints
MIN_GAP = 0.1  # smallest spacing between energies of one plan
SPECTRUM_TOL = 5e-3  # the program's own tolerance for oracle levels
BASE_TOL = 1e-3  # measured base-oscillator error is below 8e-4 on (1e-4, 10) for the 20 lowest levels
LAPACK_TOL = 1e-6
# pointwise checks against mpmath stay where the reported states live: the
# package's Wronskians lose digits as x and the order grow (a deep order-5
# class-A plan is off by 2e-7 relative at x = 2.7, an order-6 class-B plan by
# 5e-3 at x = 6 and 0.1 at x = 8)
CHECK_X_MAX = 4.0
RTOL = 1e-5

# order-8 class-B plan that validates but whose partner loses its digits near x = 9.8
KNOWN_FAILURE = (0.616, 0.805, 0.92, 1.124, 1.215, 1.233, 1.4, 1.405)


def draw_energies(rng, k, interval):
    """k energies in the interval, at least MIN_GAP apart, rounded to 1e-3."""
    lo, hi = INTERVALS[interval]
    lo, hi = lo + EDGE, hi - EDGE
    free = hi - lo - (k - 1) * (MIN_GAP + 1e-3)
    base = np.sort(rng.uniform(0, free, k))
    return tuple(round(float(lo + b + i * (MIN_GAP + 1e-3)), 3) for i, b in enumerate(base))


def valid_plan(rng, k, interval=None):
    """(energies, class) of a plan of order k that follows the rules."""
    interval = interval or VALID_INTERVALS[k]
    return draw_energies(rng, k, interval), interval[0]


def _fmt(values):
    return ", ".join(repr(v) for v in values)


class Case:
    """One config file and the outcome the benchmark expects from it."""

    def __init__(self, workdir, name, eps, parities=None, kind=None, grid_n=None, levels=None):
        self.name, self.eps, self.kind = name, tuple(eps), kind
        self.out = workdir / name
        lines = [f"order = {len(eps)}", f"epsilons = {_fmt(eps)}"]
        if parities is None:
            self.parities = rules.rule_parities(len(eps), kind) if eps else []
        else:
            self.parities = list(parities)
            lines.append(f"parities = {_fmt(self.parities)}")
        if grid_n is not None:
            lines.append(f"grid_n = {grid_n}")
        if levels is not None:
            lines.append(f"levels_to_report = {levels}")
        lines.append(f"output_dir = {self.out}")
        self.config = workdir / f"{name}.cfg"
        self.config.write_text("\n".join(lines) + "\n")
        self.violations = rules.derived_violations(self.eps, self.parities) if eps else set()

    def report(self):
        return json.loads((self.out / "report.json").read_text())


def _cli_op(susyq, command, case, expected):
    def op():
        return susyq.cli.main([command, str(case.config)]) == expected

    return op


def _spectrum_problems(case, levels, tol):
    """Oracle levels against the spectrum the rules predict."""
    want = rules.expected_spectrum(case.eps, case.kind, len(levels)) if case.eps else [
        1.5 + 2 * n for n in range(len(levels))]
    off = max(abs(a - b) for a, b in zip(levels, want))
    return [] if off <= tol else [f"{case.name}: oracle levels off the predicted spectrum by {off:.3g}"]


def _lapack_problems(case, v_grid, report, levels):
    import reference as ref

    g = report["oracle"]["grid"]
    h = (g["x_max"] - g["x_min"]) / (g["n"] + 1)
    lap = ref.lapack_levels(v_grid, h, len(levels))
    off = float(np.max(np.abs(lap - np.asarray(levels))))
    return [] if off <= LAPACK_TOL else [f"{case.name}: oracle differs from LAPACK by {off:.3g}"]


def _potential_problems(case, xs, vt):
    import reference as ref

    bad = []
    for x, got in zip(xs, vt):
        want = ref.partner_v(case.eps, case.parities, x)
        if abs(got - want) > RTOL * max(1.0, abs(want)):
            bad.append(f"{case.name}: Vtilde({x:.6g}) = {got!r}, mpmath gives {want!r}")
    return bad


class Pipeline:
    """`susyq run` on one round of plans: the base problem, valid plans of order 1-6,
    three rule-breaking plans and the known-failure plan."""

    def __init__(self, susyq, seed, workdir):
        self.susyq, self.rng = susyq, np.random.default_rng([seed, 1])
        rng = self.rng
        self.valid = [Case(workdir, "base", ())]
        for k in range(1, 7):
            eps, kind = valid_plan(rng, k)
            self.valid.append(Case(workdir, f"valid{k}", eps, kind=kind))
        self.breaking = [self._mixed(workdir), self._mismatch(workdir), self._odd_above(workdir)]
        self.failure = Case(workdir, "known_failure", KNOWN_FAILURE, kind="B")

    def _mixed(self, workdir):
        eps = draw_energies(self.rng, 2, ("B", 0)) + draw_energies(self.rng, 1, ("A", 1))
        return Case(workdir, "mixed", eps, parities=rules.rule_parities(3, "A"))

    def _mismatch(self, workdir):
        eps, kind = valid_plan(self.rng, 4, ("A", 0))
        parities = rules.rule_parities(4, kind)
        flip = self.rng.integers(4)
        parities[flip] = -parities[flip]
        return Case(workdir, "mismatch", eps, parities=parities)

    def _odd_above(self, workdir):
        return Case(workdir, "odd_above", draw_energies(self.rng, 3, ("B", 1)), kind="B")

    def round_ops(self):
        cases = [(c, 0) for c in self.valid] + [(c, 2) for c in self.breaking] + [(self.failure, 0)]
        order = self.rng.permutation(len(cases))
        return [(cases[i][0].name, _cli_op(self.susyq, "run", cases[i][0], cases[i][1])) for i in order]

    def check(self, passed):
        bad = []
        for case in self.valid + [self.failure]:
            if case.name in passed:
                bad += self._check_valid(case)
        for case in self.breaking:
            if case.name in passed:
                got = {v[0] for v in case.report()["validation"]["violations"]} & set(rules.RULE_FAMILIES)
                if got != case.violations:
                    bad.append(f"{case.name}: rules {sorted(got)}, derived {sorted(case.violations)}")
        return bad

    def _check_valid(self, case):
        report = case.report()
        k = len(case.eps)
        added = [tuple(a) for a in report["predicted_added"]]
        if k and added != rules.expected_added(case.eps, case.kind):
            return [f"{case.name}: predicted added {added}"]
        if len(added) != k // 2 or any(e not in case.eps for _, e in added):
            return [f"{case.name}: {len(added)} added levels for order {k}"]
        levels = report["oracle"]["eigenvalues"]
        table = np.loadtxt(case.out / "potential.csv", delimiter=",", skiprows=1)
        xs, vt = table[:, 0], table[:, 2]
        bad = _spectrum_problems(case, levels, SPECTRUM_TOL if k else BASE_TOL)
        bad += _lapack_problems(case, vt, report, levels)
        near = np.nonzero(xs <= CHECK_X_MAX)[0]
        idx = np.sort(self.rng.choice(near, 4, replace=False))
        return bad + _potential_problems(case, xs[idx], vt[idx])


class SpectrumSweep:
    """`susyq spectrum` at 20 levels on grids of 4000 and 8000 points, for the base
    oscillator and for one valid order-4 partner of each class."""

    GRIDS = (4000, 8000)
    LEVELS = 20
    PARTNERS = (("A", 0), ("B", 1))

    def __init__(self, susyq, seed, workdir):
        self.susyq = susyq
        rng = np.random.default_rng([seed, 2])
        plans = [((), None)] + [valid_plan(rng, 4, interval) for interval in self.PARTNERS]
        self.cases = [
            Case(workdir, f"p{i}_n{n}", eps, kind=kind, grid_n=n, levels=self.LEVELS)
            for i, (eps, kind) in enumerate(plans)
            for n in self.GRIDS
        ]
        self.order = rng.permutation(len(self.cases))
        self.rng = rng

    def round_ops(self):
        return [(self.cases[i].name, _cli_op(self.susyq, "spectrum", self.cases[i], 0)) for i in self.order]

    def check(self, passed):
        bad = []
        for case in self.cases:
            if case.name not in passed:
                continue
            report = case.report()
            levels = report["oracle"]["eigenvalues"]
            g = report["oracle"]["grid"]
            xs = g["x_min"] + (g["x_max"] - g["x_min"]) / (g["n"] + 1) * np.arange(1, g["n"] + 1)
            if case.eps:
                p = self.susyq.make_plan(case.eps).partner()
                v_grid = self.susyq.partner_v(p, xs)
                idx = np.sort(self.rng.choice(np.nonzero(xs <= CHECK_X_MAX)[0], 3, replace=False))
                bad += _potential_problems(case, xs[idx], v_grid[idx])
            else:
                v_grid = xs * xs / 2
            bad += _spectrum_problems(case, levels, SPECTRUM_TOL if case.eps else BASE_TOL)
            bad += _lapack_problems(case, v_grid, report, levels)
        return bad


def _strata(rng, n):
    """n sorted points in (0, 1), one uniform draw in each of n equal strata."""
    return (np.arange(n) + rng.uniform(size=n)) / n


class PointQueries:
    """Batches of 1-64 points sent to partner_v, added_state and transformed_eigenfunction
    on a pool of valid plans of order 1-6."""

    BATCHES = (1, 4, 16, 64)
    X_RANGE = (0.02, 9.5)
    FUNCS = ("partner_v", "added_state", "transformed_eigenfunction")

    def __init__(self, susyq, seed, workdir):
        self.susyq = susyq
        rng = np.random.default_rng([seed, 3])
        self.queries = []
        # points are stratified over X_RANGE (the cost of a point grows with x), within
        # each batch and, for the single points, across the pool
        singles = iter(rng.permutation(_strata(rng, 6 * len(self.FUNCS))))
        lo, hi = self.X_RANGE
        for k in range(1, 7):
            eps, kind = valid_plan(rng, k)
            plan = susyq.make_plan(eps)
            partner = plan.partner()
            branch = "even" if (k % 2 and kind == "A") else "odd"
            for func in self.FUNCS:
                for size in self.BATCHES:
                    u = _strata(rng, size) if size > 1 else np.array([next(singles)])
                    x = lo + (hi - lo) * u
                    if func == "added_state":
                        extra = int(rng.integers(1, k + 1))
                        args = (partner, extra, x)
                    elif func == "transformed_eigenfunction":
                        extra = (branch, int(rng.integers(4)))
                        args = (partner, susyq.BaseState(*extra), x)
                    else:
                        extra = None
                        args = (partner, x)
                    self.queries.append((func, eps, plan.parities, extra, args))
        self.order = rng.permutation(len(self.queries))
        self.results = {}

    def _op(self, i):
        func, args = self.queries[i][0], self.queries[i][4]

        def op():
            out = getattr(self.susyq, func)(*args)
            self.results.setdefault(i, out)
            return True

        return op

    def round_ops(self):
        return [(i, self._op(i)) for i in self.order]

    def check(self, passed):
        import reference as ref

        bad = []
        for i, (func, eps, parities, extra, args) in enumerate(self.queries):
            if i not in passed:
                continue
            x, got = args[-1], np.atleast_1d(self.results[i])
            if got.shape != x.shape or not np.all(np.isfinite(got)):
                bad.append(f"query {i}: {func} returned {got!r}")
                continue
            pars = [int(p) for p in parities]
            for j in np.nonzero(x <= CHECK_X_MAX)[0][:2]:
                if func == "partner_v":
                    want = ref.partner_v(eps, pars, x[j])
                elif func == "added_state":
                    want = ref.added_state(eps, pars, extra, x[j])
                else:
                    want = ref.transformed_state(eps, pars, *extra, x[j])
                if abs(got[j] - want) > RTOL * max(abs(want), 1e-6):
                    bad.append(f"query {i}: {func}({x[j]:.6g}) = {got[j]!r}, mpmath gives {want!r}")
        return bad


WORKLOADS = {"pipeline": Pipeline, "spectrum_sweep": SpectrumSweep, "point_queries": PointQueries}
