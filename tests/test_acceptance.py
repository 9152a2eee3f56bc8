"""End-to-end acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line so the suite output doubles as an
acceptance report.  Criteria cover the fourth-order class-A example with
its closed-form potential and added states, the class-B example, the
first-order isospectral cases, the floor(k/2) bound over random plans,
the origin-exponent rule against a brute-force permutation simulation,
singularity detection, and numerical hygiene of the special-function and
eigensolver layers.
"""

import itertools
import math

import numpy as np
import pytest

from susyq.design import (
    IntervalClass,
    make_plan,
    parity_assignment,
    predict_added,
    scan_singularities,
)
from susyq.kummer import kummer_m
from susyq.oracle import Grid, discretize, eigenvalues_low, residual
from susyq.partner import PartnerPotential, added_state, partner_v
from susyq.seeds import Parity, make_seed

EVEN, ODD = Parity.EVEN, Parity.ODD

DEEP_PLAN = make_plan((-5.5, -4.5, -3.5, -2.5))
CLASS_B_PLAN = make_plan((0.6, 0.9, 1.0, 1.3))


def report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{tag}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def closed_form_potential(x):
    num = (
        256 * x**18
        - 4096 * x**16
        + 28416 * x**14
        - 99328 * x**12
        + 172512 * x**10
        - 224640 * x**8
        + 91440 * x**6
        + 86400 * x**4
        - 127575 * x**2
        - 16200
    )
    return num / (2 * (16 * x**8 - 64 * x**6 + 120 * x**4 + 45) ** 2)


def closed_form_phi(j, x):
    den = math.pi**0.25 * (8 * (2 * x**4 - 8 * x**2 + 15) * x**4 + 45)
    if j == 2:
        return -4 * math.sqrt(3) * np.exp(-x * x / 2) * x * (
            8 * x**6 - 4 * x**4 + 10 * x**2 + 15
        ) / den
    return -2 * np.exp(-x * x / 2) * x * (16 * x**8 + 72 * x**4 - 135) / (
        math.sqrt(3) * den
    )


def test_criterion_1_closed_form_potential():
    xs = np.arange(1, 61) / 10.0
    err = np.abs(partner_v(DEEP_PLAN.partner(), xs) - closed_form_potential(xs)).max()
    report(1, "fourth-order partner matches rational closed form", err <= 1e-8,
           f"max abs err {err:.3e}")


def test_criterion_2_closed_form_added_states():
    xs = np.linspace(0.2, 6.0, 50)
    p = DEEP_PLAN.partner()
    worst = 0.0
    for j in (2, 4):
        raw = added_state(p, j, xs)
        target = closed_form_phi(j, xs)
        c = closed_form_phi(j, 1.0) / added_state(p, j, 1.0)
        worst = max(worst, np.abs((c * raw - target) / target).max())
    report(2, "added states match closed forms up to one constant", worst <= 1e-8,
           f"max rel err {worst:.3e}")


def test_criterion_3_class_a_oracle_spectrum():
    p = DEEP_PLAN.partner()
    grid = Grid()
    tri = discretize(partner_v(p, grid.points), grid)
    got = eigenvalues_low(tri, 6)
    target = [-4.5, -2.5, 1.5, 3.5, 5.5, 7.5]
    err = max(abs(g - t) for g, t in zip(got, target))
    report(3, "class-A spectrum adds -9/2 and -5/2 below the ground state",
           len(got) == 6 and err <= 5e-3, f"max dev {err:.2e}")


def test_criterion_4_class_b_oracle_spectrum():
    p = CLASS_B_PLAN.partner()
    grid = Grid()
    tri = discretize(partner_v(p, grid.points), grid)
    got = eigenvalues_low(tri, 6)
    has_added = all(
        any(abs(v - e) <= 5e-3 for v in got) for e in (0.6, 1.0)
    )
    iso = [v for v in got if v > 1.4]
    iso_ok = all(
        abs(v - t) <= 5e-3 for v, t in zip(iso, [1.5, 3.5, 5.5, 7.5])
    )
    extras = [
        v for v in got if v < 1.4 and min(abs(v - 0.6), abs(v - 1.0)) > 5e-3
    ]
    report(4, "class-B spectrum contains 0.6 and 1.0 and nothing else below 1.4",
           has_added and iso_ok and not extras, f"levels {np.round(got, 4).tolist()}")


def test_criterion_5_first_order_isospectrality():
    results = []
    for parity, eps, target in (
        (ODD, 1.0, [1.5, 3.5, 5.5]),
        (EVEN, 0.3, [0.5, 2.5, 4.5]),
    ):
        p = PartnerPotential(seeds=(make_seed(eps, parity),))
        grid = Grid()
        tri = discretize(partner_v(p, grid.points), grid)
        got = eigenvalues_low(tri, 3)
        results.append(max(abs(g - t) for g, t in zip(got, target)))
    report(5, "first-order partners are strictly isospectral to a base branch",
           all(r <= 5e-3 for r in results),
           f"max devs {results[0]:.2e} / {results[1]:.2e}")


def random_valid_plan(rng):
    kind = rng.choice(["A0", "A", "B"])
    k = int(rng.integers(1, 7))
    if kind == "A0":
        lo, hi = -9.0, 0.5
    elif kind == "A":
        i = int(rng.integers(1, 4))
        lo, hi = (4 * i - 1) / 2, (4 * i + 1) / 2
    else:
        i = int(rng.integers(0, 4))
        lo, hi = (4 * i + 1) / 2, (4 * i + 3) / 2
    pad = 0.02 * (hi - lo)
    while True:
        eps = np.sort(rng.uniform(lo + pad, hi - pad, size=k))
        if k == 1 or np.diff(eps).min() > 0.01 * (hi - lo):
            return make_plan(tuple(float(e) for e in eps))


def test_criterion_6_half_order_bound_and_residuals():
    rng = np.random.default_rng(20260823)
    sample = np.linspace(0.4, 4.0, 8)
    n_plans, n_levels, worst = 0, 0, 0.0
    bound_ok = True
    while n_plans < 200:
        plan = random_valid_plan(rng)
        n_plans += 1
        predicted = predict_added(plan)
        if len(predicted) > plan.order // 2:
            bound_ok = False
            break
        if not predicted:
            continue
        p = plan.partner()
        vfun = lambda x: partner_v(p, x)
        for j, eps in predicted:
            peak = np.abs(added_state(p, j, sample)).max()
            fn = lambda x, j=j: added_state(p, j, x) / peak
            worst = max(worst, residual(vfun, fn, eps, sample))
            n_levels += 1
    report(6, "floor(k/2) bound and eigen-residuals over 200 random valid plans",
           bound_ok and n_plans == 200 and n_levels > 50 and worst <= 1e-4,
           f"{n_levels} predicted levels, worst residual {worst:.2e}")


def brute_force_parity(parities):
    signs = set()
    for perm in itertools.permutations(range(len(parities))):
        flip = 1
        for i, j in enumerate(perm):
            flip *= int(parities[j]) * (-1) ** i
        signs.add(flip)
    assert len(signs) == 1
    return signs.pop()


def test_criterion_7_parity_algebra_equivalence():
    # the old parity rule, by permutation simulation, against the origin-exponent count of
    # predict_added, candidate by candidate, on plans over A0 and B0 (odd k allowed there)
    mismatches = 0
    checked = 0
    for kind in ("A", "B"):
        lo, hi = (-4.0, 0.5) if kind == "A" else (0.5, 1.5)
        for k in range(1, 9):
            parities = parity_assignment(k, kind)
            plan = make_plan(tuple(lo + (hi - lo) * i / (k + 1) for i in range(1, k + 1)))
            pw = brute_force_parity(parities)
            added_parity = ODD if k % 2 == 1 and kind == "A" else EVEN
            physical = []
            for j in range(1, k + 1):
                minor = [p for i, p in enumerate(parities, start=1) if i != j]
                pminor = brute_force_parity(minor) if minor else 1
                if pw == 1:
                    ok = pminor == -1
                else:
                    ok = pminor == -1 and int(parities[j - 1]) == 1
                if ok and parities[j - 1] is added_parity:
                    physical.append(j)
            n_even = sum(p is EVEN for p in parities)
            simulated = physical[: min(k // 2, min(n_even, k - n_even) + k % 2)]
            predicted = [j for j, _ in predict_added(plan)]
            for j in range(1, k + 1):
                checked += 1
                if (j in simulated) != (j in predicted):
                    mismatches += 1
    report(7, "origin-exponent rule equals permutation simulation for k <= 8",
           mismatches == 0 and checked == 72, f"{checked} candidates, {mismatches} mismatches")


def test_criterion_8_singularity_detection():
    grid = Grid(x_min=1e-4, x_max=8.0, n=1000)
    bad = make_plan((2.6, 3.6), parities=(ODD, ODD))
    good = make_plan((2.6, 3.4), parities=(ODD, ODD))
    bad_zeros = scan_singularities(bad, grid)
    good_zeros = scan_singularities(good, grid)
    report(8, "Wronskian zero scan flags the non-compliant odd-odd pair",
           len(bad_zeros) >= 1 and good_zeros == [],
           f"bad plan zeros at {np.round(bad_zeros, 4).tolist()}")


def test_criterion_9_numerical_hygiene():
    # Kummer-transformation consistency on a deterministic parameter sweep
    kummer_ok = True
    for a in (-4.3, -1.0, 0.7, 2.5, 5.1):
        for b in (0.5, 1.5):
            for z in (0.1, 1.0, 10.0, 50.0, 100.0):
                direct = kummer_m(a, b, z)
                reflected = math.exp(z) * kummer_m(b - a, b, -z)
                if abs(direct - reflected) > 1e-10 * abs(direct):
                    kummer_ok = False
    # terminating series evaluate exactly against rational Horner
    from fractions import Fraction

    for m in range(8):
        coeffs = [Fraction(1)]
        for n in range(m):
            coeffs.append(coeffs[-1] * (-m + n) / (Fraction(3, 2) + n) / (n + 1))
        for z in (0.5, 4.0, 16.0):
            horner = Fraction(0)
            for c in reversed(coeffs):
                horner = horner * Fraction(z) + c
            ref = float(horner)
            if ref and abs(kummer_m(-m, 1.5, z) - ref) > 1e-14 * abs(ref):
                kummer_ok = False
    # the eigensolver discretization error shrinks like h^2; x_min is tiny
    # here so the displaced-wall shift |psi'(0)|^2 x_min / 2 stays negligible
    errs = []
    for n in (1000, 2000):
        grid = Grid(x_min=1e-8, x_max=10.0, n=n)
        tri = discretize(grid.points * grid.points / 2, grid)
        errs.append(abs(eigenvalues_low(tri, 1)[0] - 1.5))
    ratio = errs[0] / errs[1]
    report(9, "kummer invariants hold and oracle converges at second order",
           kummer_ok and 3.0 < ratio < 5.0, f"h^2 ratio {ratio:.2f}")
