import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq import oracle
from susyq.cli import EXIT_NUMERICAL, main
from susyq.design import make_plan
from susyq.errors import ConvergenceError, DomainError, PotentialSingularityError
from susyq.oracle import (
    BRACKET_WIDTH,
    MAX_GRID_N,
    Grid,
    Tridiag,
    discretize,
    eigenvalues_low,
    residual,
    sturm_count,
)
from susyq.partner import BaseState, base_state_value, partner_v, truncated_oscillator_v


def reference_sturm_count(t, shift):
    """Scalar negative-pivot count of t - shift*I, one float at a time."""
    tiny = np.finfo(float).tiny
    count = 0
    d = 1.0
    for i in range(t.diag.size):
        q = t.diag[i] - shift
        if i:
            q -= t.off[i - 1] * t.off[i - 1] / d
        if q == 0.0:
            q = tiny
        if q < 0.0:
            count += 1
        d = q
    return count


def reference_eigenvalues_low(t, count):
    """Bisection on Gershgorin bounds down to brackets of BRACKET_WIDTH."""
    r = np.zeros_like(t.diag)
    r[:-1] += np.abs(t.off)
    r[1:] += np.abs(t.off)
    lo0, hi0 = float((t.diag - r).min()), float((t.diag + r).max())
    out = []
    for idx in range(1, count + 1):
        lo, hi = lo0, hi0
        while hi - lo > BRACKET_WIDTH:
            mid = 0.5 * (lo + hi)
            if reference_sturm_count(t, mid) >= idx:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


def test_grid_geometry():
    g = Grid(x_min=1.0, x_max=2.0, n=999)
    assert g.h == pytest.approx(1e-3)
    pts = g.points
    assert pts.size == 999
    assert pts[0] == pytest.approx(1.0 + g.h)
    assert pts[-1] == pytest.approx(2.0 - g.h)


@pytest.mark.parametrize("n", [600, 1500, 4000, 8000])
@pytest.mark.parametrize("x_max", [7.3, 8.0, 10.0])
def test_grid_closed_points_add_both_walls(n, x_max):
    g = Grid(x_max=x_max, n=n)
    closed = g.closed_points
    assert closed[0] == g.x_min and closed[-1] == g.x_max
    np.testing.assert_array_equal(closed[1:-1], g.points)
    # the quadrature points partner.normalize used before it took values
    np.testing.assert_array_equal(closed, np.linspace(g.x_min, g.x_max, n + 2))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(x_min=0.0, x_max=1.0, n=500)
    with pytest.raises(ValueError):
        Grid(x_min=2.0, x_max=1.0, n=500)
    with pytest.raises(ValueError):
        Grid(n=99)
    assert Grid(n=MAX_GRID_N).n == MAX_GRID_N
    with pytest.raises(ValueError):
        Grid(n=MAX_GRID_N + 1)
    for x_max in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Grid(x_max=x_max)


def test_tridiag_validates_band_length():
    with pytest.raises(ValueError):
        Tridiag(diag=np.zeros(4), off=np.zeros(4))


def test_discretize_stencil_entries():
    g = Grid(x_min=0.5, x_max=1.5, n=100)
    t = discretize(np.zeros_like(g.points), g)
    h2 = g.h * g.h
    np.testing.assert_allclose(t.diag, np.full(100, 1.0 / h2))
    np.testing.assert_allclose(t.off, np.full(99, -0.5 / h2))
    t = discretize(g.points, g)
    np.testing.assert_allclose(t.diag, 1.0 / h2 + g.points)


def test_discretize_rejects_singular_potential():
    g = Grid(x_min=1e-12, x_max=1e-5, n=200)
    with pytest.raises(PotentialSingularityError):
        discretize(1.0 / g.points**2, g)


def test_eigenvalues_of_diagonal_matrix():
    t = Tridiag(diag=np.array([3.0, -1.0, 2.0, 7.0]), off=np.zeros(3))
    got = eigenvalues_low(t, 3)
    np.testing.assert_allclose(got, [-1.0, 2.0, 3.0], atol=1e-8)


def test_eigenvalues_of_two_by_two():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1
    t = Tridiag(diag=np.zeros(2), off=np.ones(1))
    np.testing.assert_allclose(eigenvalues_low(t, 2), [-1.0, 1.0], atol=1e-8)


def test_eigenvalues_count_validation():
    t = Tridiag(diag=np.zeros(5), off=np.zeros(4))
    with pytest.raises(ValueError):
        eigenvalues_low(t, 0)
    with pytest.raises(ValueError):
        eigenvalues_low(t, 21)
    with pytest.raises(ValueError):
        eigenvalues_low(t, 6)


def test_tridiag_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Tridiag(diag=np.array([1.0, bad, 3.0]), off=np.zeros(2))
        with pytest.raises(ValueError):
            Tridiag(diag=np.arange(1.0, 200.0), off=np.where(np.arange(198) == 7, bad, 0.5))


def test_sturm_count_rejects_a_nan_shift():
    # -inf and +inf stay: no level lies below the one and all n below the other
    t = Tridiag(diag=np.arange(1.0, 200.0), off=np.full(198, 0.5))
    for shift in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            sturm_count(t, shift)
    assert sturm_count(t, -np.inf) == 0
    assert sturm_count(t, np.inf) == 199


def test_sturm_count_is_monotone_and_exact_on_diagonal():
    t = Tridiag(diag=np.array([1.0, 2.0, 3.0]), off=np.zeros(2))
    counts = [sturm_count(t, s) for s in (0.5, 1.5, 2.5, 3.5)]
    assert counts == [0, 1, 2, 3]
    shifts = np.linspace(-5, 5, 41)
    t = Tridiag(diag=np.array([0.3, -1.2, 2.0, 0.1]), off=np.array([0.5, -0.7, 0.2]))
    seq = [sturm_count(t, s) for s in shifts]
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_sturm_count_of_shift_array_matches_scalar_counts():
    rng = np.random.default_rng(7)
    t = Tridiag(diag=rng.normal(size=60), off=rng.normal(size=59))
    shifts = np.concatenate([np.linspace(-6, 6, 37), t.diag[:3]])
    got = sturm_count(t, shifts)
    assert got.shape == shifts.shape
    assert got.tolist() == [sturm_count(t, s) for s in shifts]
    assert got.tolist() == [reference_sturm_count(t, s) for s in shifts]
    # a zero pivot (shift on a diagonal entry of a split matrix) counts as positive
    t = Tridiag(diag=np.array([2.0, 1.0, 3.0]), off=np.zeros(2))
    assert sturm_count(t, np.array([1.0, 2.0, 3.0])).tolist() == [0, 1, 2]


# small exact values make zero pivots and split matrices (zero off-diagonals) common;
# floats in [-4, 4] reach subnormals, and b^2 > 4 makes b^2 / tiny overflow
ENTRIES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-4, 4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sturm_count_matches_the_scalar_recurrence(data):
    n = data.draw(st.integers(1, 30), label="n")
    diag = data.draw(st.lists(ENTRIES, min_size=n, max_size=n), label="diag")
    off = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1), label="off")
    t = Tridiag(diag=np.array(diag), off=np.array(off))
    shifts = data.draw(st.lists(st.sampled_from(diag) | ENTRIES, min_size=1, max_size=12),
                       label="shifts")
    # blocks shorter than the matrix carry the last pivot across block boundaries
    block = data.draw(st.sampled_from([1, 2, 3, 7, oracle.STURM_BLOCK]), label="block")
    with np.errstate(over="ignore", invalid="ignore"):
        want = [reference_sturm_count(t, s) for s in shifts]
    with mock.patch.object(oracle, "STURM_BLOCK", block):
        got = sturm_count(t, np.array(shifts))
        # each shift counts the same alone and anywhere inside any array
        alone = [sturm_count(t, s) for s in shifts]
        backwards = sturm_count(t, np.array(shifts[::-1]))
    assert got.tolist() == want
    assert alone == want
    assert backwards.tolist() == want[::-1]


def test_zero_pivot_inside_an_unsplit_matrix_continues_as_tiny():
    # shift 0: d = 1, 0, then 0 - 1/tiny = -4.5e307 (b^2 = 1 < 4 keeps it finite, where
    # IEEE zero gives -inf), then -1e-308 + 1/4.5e307 > 0; IEEE would count that last
    # pivot (-1e-308 - 1/-inf) as negative
    t = Tridiag(diag=np.array([1.0, 1.0, 0.0, -1e-308]), off=np.ones(3))
    assert reference_sturm_count(t, 0.0) == 1
    assert sturm_count(t, 0.0) == 1
    assert sturm_count(t, np.array([-3.0, 0.0, 3.0])).tolist() == [
        reference_sturm_count(t, s) for s in (-3.0, 0.0, 3.0)
    ]
    # 1/tiny = 2^1022 exactly: the pivot after the zero has the sign of a - 2^1022
    for a, below in ((np.nextafter(2.0**1022, 0), 1), (np.nextafter(2.0**1022, np.inf), 0)):
        t = Tridiag(diag=np.array([1.0, 1.0, a]), off=np.ones(2))
        assert reference_sturm_count(t, 0.0) == below
        assert sturm_count(t, np.array([0.0, 5.0])).tolist() == [below, reference_sturm_count(t, 5.0)]
    # a -0.0 pivot: tiny makes the next pivot 1 - 1/tiny < 0, IEEE 1 - 1/-0.0 = +inf
    t = Tridiag(diag=np.array([-0.0, 1.0]), off=np.ones(1))
    assert sturm_count(t, np.array([0.0, 0.0])).tolist() == [1, 1]


def test_sturm_count_holds_pivots_in_blocks():
    # all pivots of 40 shifts at the largest grid would be 32 MB
    rng = np.random.default_rng(3)
    t = Tridiag(diag=rng.normal(size=MAX_GRID_N), off=rng.normal(size=MAX_GRID_N - 1))
    shifts = np.linspace(-2, 2, 40)
    tracemalloc.start()
    try:
        sturm_count(t, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("epsilons", [(), (-5.5, -4.5, -3.5, -2.5)])
def test_eigenvalues_match_reference_bisection(epsilons):
    if epsilons:
        p = make_plan(epsilons).partner()
        V = lambda x: partner_v(p, x)
    else:
        V = truncated_oscillator_v
    g = Grid(n=4000)
    t = discretize(V(g.points), g)
    np.testing.assert_allclose(
        eigenvalues_low(t, 4), reference_eigenvalues_low(t, 4), rtol=0, atol=1e-9
    )


def test_uncertified_lapack_levels_are_a_numerical_failure(monkeypatch, tmp_path):
    lapack = oracle.eigh_tridiagonal
    monkeypatch.setattr(oracle, "eigh_tridiagonal", lambda *a, **kw: lapack(*a, **kw) + 1e-6)
    g = Grid(n=500)
    t = discretize(truncated_oscillator_v(g.points), g)
    with pytest.raises(ConvergenceError):
        eigenvalues_low(t, 3)
    config = tmp_path / "base.cfg"
    config.write_text(f"order = 0\nepsilons =\ngrid_n = 500\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["spectrum", str(config)]) == EXIT_NUMERICAL


def test_base_problem_passes_its_certificate_on_the_finest_grid(tmp_path):
    # float64 resolves T - sI to about eps 2/h^2 = 4.4e-8 at n = 100 000, far above BRACKET_WIDTH / 2,
    # so the certificate's half-width floors there; the levels stay the oscillator's to 1e-3
    config = tmp_path / "base.cfg"
    config.write_text(f"order = 0\nepsilons =\ngrid_n = {MAX_GRID_N}\noutput_dir = {tmp_path}\n")
    assert main(["spectrum", str(config)]) == 0
    levels = json.loads((tmp_path / "report.json").read_text())["oracle"]["eigenvalues"]
    assert len(levels) == 8
    assert np.abs(np.array(levels) - (2 * np.arange(8) + 1.5)).max() <= 1e-3


@pytest.mark.parametrize("n", [4000, 8000, 40_000, MAX_GRID_N])
def test_certificate_half_width_is_the_bracket_or_the_grid_rounding_bound(monkeypatch, n):
    # the shifts are the levels -+ w/2: BRACKET_WIDTH / 2 on the benchmark's grids (x_max = 10,
    # n <= 8000), eps 2/h^2 on finer ones, whatever the potential
    shifts, count = [], oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count", lambda t, s: shifts.append(s) or count(t, s))
    g = Grid(n=n)
    levels = np.array(eigenvalues_low(discretize(truncated_oscillator_v(g.points), g), 3))
    half = max(BRACKET_WIDTH / 2, np.finfo(float).eps * 2 / g.h**2)
    assert (half == BRACKET_WIDTH / 2) == (n <= 8000)
    want = np.concatenate([levels - half, levels + half])
    np.testing.assert_allclose(shifts[0], want, rtol=0, atol=1e-15)


def test_truncated_oscillator_spectrum():
    g = Grid()
    t = discretize(truncated_oscillator_v(g.points), g)
    got = eigenvalues_low(t, 4)
    np.testing.assert_allclose(got, [1.5, 3.5, 5.5, 7.5], atol=5e-3)


def test_discretization_error_is_second_order():
    # halving h should cut the ground-state error by about 4; x_min must be
    # far below the stencil error here because the displaced Dirichlet wall
    # adds its own h-independent shift of |psi'(0)|^2 x_min / 2
    errs = []
    for n in (1000, 2000):
        g = Grid(x_min=1e-8, x_max=10.0, n=n)
        t = discretize(truncated_oscillator_v(g.points), g)
        errs.append(abs(eigenvalues_low(t, 1)[0] - 1.5))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_residual_flags_wrong_energy():
    s = BaseState("odd", 0)
    f = lambda x: base_state_value(s, x)
    sample = np.linspace(0.5, 3.0, 6)
    assert residual(truncated_oscillator_v, f, 1.5, sample) < 1e-6
    assert residual(truncated_oscillator_v, f, 2.0, sample) > 0.1


def test_residual_calls_f_once_on_the_stencil():
    s = BaseState("odd", 1)
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return base_state_value(s, x)

    sample = np.linspace(0.5, 3.0, 6)
    got = residual(truncated_oscillator_v, f, 3.5, sample)
    assert shapes == [(5, 6)]
    # the same stencil, one row per call
    h = 1e-3
    g = [base_state_value(s, sample + d) for d in (2 * h, h, 0.0, -h, -2 * h)]
    fpp = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
    res = np.abs(-0.5 * fpp + (truncated_oscillator_v(sample) - 3.5) * g[2])
    assert got == (res / np.maximum(1.0, np.abs(g[2]))).max()


def test_residual_domain_checks():
    f = lambda x: np.exp(-np.asarray(x) ** 2 / 2)
    with pytest.raises(DomainError):
        residual(truncated_oscillator_v, f, 1.5, np.array([1e-3]))
    with pytest.raises(DomainError):
        residual(lambda x: 1.0 / x**2, f, 1.5, np.array([1e-4, 1.0]))
    with pytest.raises(ValueError):
        residual(truncated_oscillator_v, f, 1.5, np.array([]))
