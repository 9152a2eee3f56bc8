"""Independent finite-difference verification of claimed spectra.

-1/2 f'' + V f = E f is discretized on a uniform grid over (x_min, x_max)
with Dirichlet values at both ends (x_min slightly above 0 keeps 1/x^2
terms of partner potentials finite).  Low eigenvalues come from LAPACK
`stebz`, certified by Sturm-sequence negative-pivot counts, which are robust
against the huge diagonal entries near the origin; eigenvectors are never
computed here, claimed eigenfunctions are checked through their residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import ConvergenceError, DomainError, PotentialSingularityError

POTENTIAL_CAP = 1e12
RESIDUAL_POTENTIAL_CAP = 1e6
BRACKET_WIDTH = 1e-9
# 25 times the default grid; an order-8 seed table on it is about 128 MB
MAX_GRID_N = 100_000


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid for the Dirichlet problem on (x_min, x_max)."""

    x_min: float = 1e-4
    x_max: float = 10.0
    n: int = 4000

    def __post_init__(self):
        if not 0 < self.x_min < self.x_max < np.inf:
            raise ValueError("need finite 0 < x_min < x_max")
        if not 100 <= self.n <= MAX_GRID_N:
            raise ValueError(f"grid needs 100 to {MAX_GRID_N} interior points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n + 1)

    @property
    def closed_points(self) -> np.ndarray:
        """The interior points plus both walls: x_min, points..., x_max (n + 2 values)."""
        return np.concatenate(([self.x_min], self.points, [self.x_max]))


@dataclass(frozen=True)
class Tridiag:
    """Symmetric tridiagonal operator: diag (n values) and off-diagonal (n-1 values)."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape != (max(self.diag.size - 1, 0),):
            raise ValueError("off-diagonal must have n-1 entries")


def discretize(vals, g: Grid) -> Tridiag:
    """Three-point stencil: diag_i = 1/h^2 + V(x_i), off = -1/(2 h^2); vals holds V on g.points."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(np.abs(vals) > POTENTIAL_CAP):
        worst = g.points[np.argmax(np.where(np.isfinite(vals), np.abs(vals), np.inf))]
        raise PotentialSingularityError(f"potential exceeds {POTENTIAL_CAP:g} near x = {worst}")
    h2 = g.h * g.h
    return Tridiag(diag=1.0 / h2 + vals, off=np.full(g.n - 1, -0.5 / h2))


def sturm_count(t: Tridiag, shift):
    """Number of eigenvalues of t strictly below shift (negative pivots of t - shift*I).

    For an array of shifts, each shift runs the recurrence in Python floats;
    memoryviews hand out the matrix entries without a boxed copy of them.
    """
    shift = np.asarray(shift, dtype=float)
    # a leading b^2 = 0 makes the first pivot d_0 - s exactly, with no branch in the loop
    diag, off2 = memoryview(t.diag), memoryview(np.concatenate(([0.0], t.off * t.off)))
    tiny = np.finfo(float).tiny
    counts = []
    for s in shift.ravel().tolist():
        count, d = 0, 1.0
        for a, b2 in zip(diag, off2):
            d = (a - s) - b2 / d
            if d == 0.0:
                d = tiny
            if d < 0.0:
                count += 1
        counts.append(count)
    count = np.array(counts, dtype=int).reshape(shift.shape)
    return int(count) if count.ndim == 0 else count


def eigenvalues_low(t: Tridiag, count: int) -> list[float]:
    """The `count` smallest eigenvalues, each certified to within BRACKET_WIDTH / 2.

    Raises ConvergenceError when LAPACK fails or a value misses its certificate.
    """
    if count < 1 or count > 20:
        raise ValueError("count must lie in 1..20")
    if count > t.diag.size:
        raise ValueError("cannot request more eigenvalues than matrix dimension")
    try:
        levels = eigh_tridiagonal(t.diag, t.off, eigvals_only=True, select="i",
                                  select_range=(0, count - 1), tol=BRACKET_WIDTH / 4)
    except LinAlgError as exc:
        raise ConvergenceError(f"LAPACK stebz failed: {exc}") from exc
    # certificate of lam_i (0-based): <= i levels below lam_i - w/2, >= i + 1 below lam_i + w/2
    half = 0.5 * BRACKET_WIDTH
    lo, hi = np.split(sturm_count(t, np.concatenate([levels - half, levels + half])), 2)
    bad = np.flatnonzero((lo > np.arange(count)) | (hi <= np.arange(count)))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(f"eigenvalue {i} = {levels[i]:.12g} fails its Sturm certificate")
    return [float(v) for v in levels]


def residual(V, f, E: float, sample) -> float:
    """max_i |(-1/2 f'' + (V - E) f)(x_i)| / max(1, |f(x_i)|) with a 5-point f'' stencil."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("need at least one sample point")
    vpts = np.asarray(V(sample), dtype=float)
    if np.any(np.abs(vpts) >= RESIDUAL_POTENTIAL_CAP):
        raise DomainError("sample points must stay away from potential poles")
    h = 1e-3
    if np.any(sample - 2 * h <= 0):
        raise DomainError("sample points must be interior (x > 2e-3)")
    # f is called once, on the stencil rows x - 2h, x - h, x, x + h, x + 2h
    fm2, fm1, f0, fp1, fp2 = np.asarray(f(np.add.outer(h * np.arange(-2, 3), sample)), dtype=float)
    fpp = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    res = np.abs(-0.5 * fpp + (vpts - E) * f0)
    return float((res / np.maximum(1.0, np.abs(f0))).max())
