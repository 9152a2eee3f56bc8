"""Spectral-design rules: which factorization energies become new levels.

The energy axis splits into alternating open intervals between the odd-
and even-branch oscillator levels:

    class A:  (-inf, 1/2), (3/2, 5/2), (7/2, 9/2), ...
    class B:  (1/2, 3/2), (5/2, 7/2), ...

All k factorization energies of a plan must sit in one such interval, with
seed parities alternating so the last seed is even in class A and odd in
class B.  At most floor(k/2) of the epsilons survive as genuine levels of
the partner Hamiltonian.  Which ones, and which base branch stays, one count
decides for any parity vector: the origin exponent of the partner, read from
how many seeds are even and how many odd (see predict_added).  The levels it
names are then checked behaviorally (decay probing near the origin and
normalizability) on plans whose Wronskian the singularity scan finds free of
zeros.  One check of the interval, odd-order and parity rules
(_rule_violations) serves validate and predict_added, and the origin probe
is the public read, added_state on PROBE_POINTS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryEnergyError, NonNormalizableError, SingularWronskianError
from .oracle import Grid
from .partner import PartnerPotential, SeedTable, added_state, normalize
from .seeds import Parity, SeedSolution, make_seed
from .wronskian import scaled_stack, sign_log_det_orders

GROUND_ENERGY = 1.5  # lowest physical level of the truncated oscillator

# stable rule identifiers reported in validation violations
RULE_INTERVAL_MIXED = "interval.mixed"
RULE_INTERVAL_BOUNDARY = "interval.boundary"
RULE_ODD_ABOVE_E0 = "order.odd-above-E0"
RULE_PARITY_MISMATCH = "parity.mismatch"
RULE_WRONSKIAN_ZERO = "wronskian.zero"
RULE_NONPHYSICAL = "candidate.nonphysical"
RULE_NONNORMALIZABLE = "candidate.nonnormalizable"


@dataclass(frozen=True)
class IntervalClass:
    """One open interval of the class-A / class-B alternation."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValueError("interval kind must be 'A' or 'B'")
        if self.index < 0:
            raise ValueError("interval index must be non-negative")

    @property
    def bounds(self) -> tuple[float, float]:
        if self.kind == "A":
            if self.index == 0:
                return (-np.inf, 0.5)
            return ((4 * self.index - 1) / 2, (4 * self.index + 1) / 2)
        return ((4 * self.index + 1) / 2, (4 * self.index + 3) / 2)


def classify_interval(epsilon: float) -> IntervalClass:
    """The unique interval containing epsilon; half-integer boundaries are rejected."""
    if not np.isfinite(epsilon):
        raise ValueError("factorization energy must be finite")
    t = epsilon - 0.5
    if t < 0:
        return IntervalClass("A", 0)
    if t == int(t):
        raise BoundaryEnergyError(
            f"epsilon = {epsilon} lies on an interval boundary (half-integer)"
        )
    j = int(np.floor(t))
    if j % 2 == 0:
        return IntervalClass("B", j // 2)
    return IntervalClass("A", (j + 1) // 2)


def parity_assignment(k: int, kind: str) -> list[Parity]:
    """Alternating parities ending even for class A, odd for class B."""
    if k < 1:
        raise ValueError("transformation order must be at least 1")
    if kind not in ("A", "B"):
        raise ValueError("interval kind must be 'A' or 'B'")
    flip = 0 if kind == "A" else 1
    return [Parity((-1) ** (k - j + flip)) for j in range(1, k + 1)]


@dataclass(frozen=True)
class TransformationPlan:
    """Ordered factorization energies with definite seed parities."""

    epsilons: tuple[float, ...]
    parities: tuple[Parity, ...]

    def __post_init__(self):
        if len(self.epsilons) != len(self.parities):
            raise ValueError("need one parity per factorization energy")
        if any(e2 <= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("factorization energies must be strictly increasing")
        object.__setattr__(self, "parities", tuple(Parity(p) for p in self.parities))

    @property
    def order(self) -> int:
        return len(self.epsilons)

    def seeds(self) -> tuple[SeedSolution, ...]:
        return tuple(make_seed(e, p) for e, p in zip(self.epsilons, self.parities))

    def partner(self) -> PartnerPotential:
        return PartnerPotential(seeds=self.seeds())


def make_plan(epsilons, parities=None) -> TransformationPlan:
    """Build a plan; with parities omitted they follow the interval-class rule."""
    epsilons = tuple(float(e) for e in epsilons)
    if parities is None:
        classes = {classify_interval(e) for e in epsilons}
        if len(classes) > 1:
            raise ValueError(
                "cannot auto-assign parities: energies span several intervals"
            )
        parities = parity_assignment(len(epsilons), classes.pop().kind) if classes else ()
    return TransformationPlan(epsilons=epsilons, parities=tuple(parities))


def _rule_violations(plan: TransformationPlan):
    """[(rule, message)] of the interval, odd-order-above-E0 and parity rules that plan breaks.

    The parity rule is checked only when every energy lies in one interval,
    whose class names the rule's parities.
    """
    k = plan.order
    violations, classes = [], set()
    for e in plan.epsilons:
        try:
            classes.add(classify_interval(e))
        except BoundaryEnergyError as exc:
            violations.append((RULE_INTERVAL_BOUNDARY, str(exc)))
    if not violations and len(classes) > 1:
        violations.append(
            (RULE_INTERVAL_MIXED, f"energies {plan.epsilons} span several intervals; choose one"))
    interval = classes.pop() if k and not violations else None
    if k % 2 == 1 and max(plan.epsilons) > GROUND_ENERGY:
        violations.append((RULE_ODD_ABOVE_E0, "odd-order transformations require all energies below 3/2"))
    if interval is not None:
        expected = parity_assignment(k, interval.kind)
        if list(plan.parities) != expected:
            violations.append((
                RULE_PARITY_MISMATCH,
                f"parities {[int(p) for p in plan.parities]} deviate from the "
                f"class-{interval.kind} rule {[int(p) for p in expected]}",
            ))
    return violations


def _odd_seeds_added(parities) -> bool:
    """True when even seeds outnumber odd ones, d = n_e - n_o >= 1 (see predict_added)."""
    return 2 * sum(p is Parity.EVEN for p in parities) > len(parities)


def predict_added(plan: TransformationPlan):
    """[(j, eps_j)] predicted to join the spectrum, 1-based: min(n_e, n_o) <= floor(k/2) of them.

    Near x = 0 an even seed goes as x^0 and an odd one as x^1.  Reducing
    same-parity seeds against each other leaves the n_e even seeds the
    leading powers 0, 2, 4, ... and the n_o odd ones 1, 3, 5, ..., and a
    Wronskian of leading powers p_i goes as x^(sum p_i - k(k-1)/2).  With
    d = n_e - n_o that is W ~ x^(d(d-1)/2), so Vtilde = x^2/2 - (ln W)''
    ~ d(d-1)/(2 x^2) and a solution regular at 0 goes as x^max(d, 1-d).

    Deleting an odd seed takes d to d + 1, so the candidate W(minor_j)/W
    goes as x^d; deleting an even one takes d to d - 1 and leaves x^(1-d).
    Appending a base state to W moves d the other way: an even one goes as
    x^d, an odd one as x^(1-d).  So when n_e > n_o (d >= 1) the odd seeds
    are added and the even base branch stays; otherwise (d <= 0) the even
    seeds are added and the odd branch stays.  Either way min(n_e, n_o)
    seeds are added, which is at most floor(k/2) for any parity vector.

    An odd order above E0, or energies off one interval, predict nothing:
    any broken rule but the parity rule (_rule_violations).
    """
    return _added(plan, _rule_violations(plan))


def _added(plan: TransformationPlan, violations):
    """predict_added(plan), given the rule violations of plan."""
    if any(rule != RULE_PARITY_MISMATCH for rule, _ in violations):
        return []
    added = Parity.ODD if _odd_seeds_added(plan.parities) else Parity.EVEN
    return [
        (j, e)
        for j, (e, p) in enumerate(zip(plan.epsilons, plan.parities), start=1)
        if p is added
    ]


def scan_singularities(plan: TransformationPlan, grid: Grid):
    """Zeros of W(u_1..u_k) in (x_min, x_max), bisected to 1e-10; one SeedTable holds the seeds."""
    return _wronskian_zeros(SeedTable(plan.partner(), grid.closed_points), grid)


def _wronskian_zeros(on_grid: SeedTable, grid: Grid):
    """scan_singularities from W's sign in on_grid; one seed evaluation halves every flip."""
    seeds, k, xs = on_grid.p.seeds, on_grid.p.order, grid.points
    sign = on_grid.sw[1:-1]
    zeros = xs[sign == 0].tolist()
    flip = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi, s_lo = xs[flip], xs[flip + 1], sign[flip]
    while np.any(hi - lo > 1e-10):
        active = hi - lo > 1e-10
        mid = 0.5 * (lo + hi)
        # longdouble whatever on_grid's dtype: near a zero of W a float64 table's error can grow
        # where the probe that chose the dtype does not look, and the zeros keep their bits
        s_mid, _ = sign_log_det_orders(scaled_stack(seeds, mid, k - 1), list(range(k)))
        # an exact zero at mid closes its bracket there
        lo = np.where(active & ((s_mid == s_lo) | (s_mid == 0)), mid, lo)
        hi = np.where(active & (s_mid != s_lo), mid, hi)
    zeros += [float(z) for z in 0.5 * (lo + hi)]
    return sorted(zeros)


PROBE_POINTS = (1e-2, 1e-3, 1e-4)
DECADE_DECAY_FACTOR = 5.0


def boundary_check(f) -> str:
    """'physical' when |f| decays toward the origin like x^p (p >= 1), else 'nonphysical'.

    Probing is behavioral on purpose: it checks on the computed values the
    decay that predict_added's origin exponent promises.  f is called once,
    on the array of PROBE_POINTS, and returns the values there.
    """
    vals = np.abs(np.asarray(f(np.array(PROBE_POINTS)), dtype=float)).tolist()
    ok = all(
        later <= earlier / DECADE_DECAY_FACTOR
        for earlier, later in zip(vals, vals[1:])
    )
    return "physical" if ok else "nonphysical"


@dataclass
class ValidationReport:
    """Outcome of the rule pipeline for one plan; seed_table holds the seeds on the closed grid."""

    ok: bool
    violations: list = field(default_factory=list)
    predicted_added: list = field(default_factory=list)
    predicted_isospectral_branch: str = "odd-base"
    wronskian_zeros: list = field(default_factory=list)
    seed_table: SeedTable | None = field(default=None, repr=False, compare=False)


def validate(plan: TransformationPlan, grid: Grid | None = None) -> ValidationReport:
    """Run every design rule and the behavioral checks; findings never raise."""
    if grid is None:
        grid = Grid()
    violations = _rule_violations(plan)
    predicted = _added(plan, violations)

    # the one evaluation of the seeds on the grid: the scan, the candidates and cli.run read it
    on_grid = SeedTable(plan.partner(), grid.closed_points)
    zeros = _wronskian_zeros(on_grid, grid)
    for z in zeros:
        violations.append((RULE_WRONSKIAN_ZERO, f"Wronskian zero at x = {z:.6g}"))

    confirmed = []
    branch = "even-base" if not zeros and _odd_seeds_added(plan.parities) else "odd-base"
    if not zeros:
        for j, eps in predicted:
            try:  # the public read: its own table on PROBE_POINTS, in the dtype the grid's took
                verdict = boundary_check(lambda x: added_state(on_grid.p, j, x))
            except SingularWronskianError:
                verdict = "nonphysical"
            if verdict != "physical":
                violations.append(
                    (RULE_NONPHYSICAL, f"candidate j={j} fails the origin condition")
                )
                continue
            try:
                normalize(on_grid.added(j), grid)
            except (NonNormalizableError, SingularWronskianError):
                violations.append(
                    (RULE_NONNORMALIZABLE, f"candidate j={j} is not normalizable")
                )
                continue
            confirmed.append((j, eps))

    return ValidationReport(
        ok=not violations,
        violations=violations,
        predicted_added=confirmed,
        predicted_isospectral_branch=branch,
        wronskian_zeros=zeros,
        seed_table=on_grid,
    )
