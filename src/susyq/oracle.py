"""Independent finite-difference verification of claimed spectra.

-1/2 f'' + V f = E f is discretized on a uniform grid over (x_min, x_max)
with Dirichlet values at both ends (x_min slightly above 0 keeps 1/x^2
terms of partner potentials finite).  Low eigenvalues come from LAPACK
`dstebz`, certified by Sturm-sequence negative-pivot counts, which are robust
against the huge diagonal entries near the origin.  The counts for all the
certificate's shifts come from one pass down the matrix that carries a
vector of pivots, one per shift; eigenvectors are never computed here,
claimed eigenfunctions are checked through their residual.

dstebz comes from scipy's compiled LAPACK extension, loaded from its file
on the first call, with the arguments scipy.linalg.eigh_tridiagonal would
pass, so every level has the same bits.  The scipy.linalg package itself
is never imported: its imports would cost every process about 25 MB of RSS
and 0.16 s (scipy 1.17, x86-64 Linux).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError, PotentialSingularityError

POTENTIAL_CAP = 1e12
RESIDUAL_POTENTIAL_CAP = 1e6
BRACKET_WIDTH = 1e-9
MAX_LEVELS = 20  # the most levels eigenvalues_low certifies in one call
# 25 times the default grid.  There `run` of an order-8 plan peaks at 260 MB RSS, its 128 MB
# seed table included (419 MB while W's LU copied the table)
MAX_GRID_N = 100_000
# pivot rows sturm_count holds at a time: 160 kB for the 40 shifts of 20 levels
STURM_BLOCK = 512


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
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise ValueError("tridiagonal entries must be finite")


def discretize(vals, g: Grid) -> Tridiag:
    """Three-point stencil: diag_i = 1/h^2 + V(x_i), off = -1/(2 h^2); vals holds V on g.points."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(np.abs(vals) > POTENTIAL_CAP):
        worst = g.points[np.argmax(np.where(np.isfinite(vals), np.abs(vals), np.inf))]
        raise PotentialSingularityError(f"potential exceeds {POTENTIAL_CAP:g} near x = {worst}")
    h2 = g.h * g.h
    return Tridiag(diag=1.0 / h2 + vals, off=np.full(g.n - 1, -0.5 / h2))


def _negative_pivots(diag, off2, shifts, fix_zeros=False):
    """Negative-pivot counts of diag - s*I for every s in shifts, and which s met a zero pivot.

    Row i turns the pivots of all shifts at once, d = (a_i - s) - b2_i / d, so
    each shift sees the operations of the scalar recurrence in its order.  The
    pivots are held STURM_BLOCK rows at a time; row 0 of the buffer carries the
    last pivot of the block before.  With fix_zeros an exact zero pivot becomes
    the smallest normal float, as in the scalar recurrence; without it IEEE
    division goes on past the zero, and that shift is flagged.
    """
    counts = np.zeros(shifts.size, dtype=int)
    zero = np.zeros(shifts.size, dtype=bool)
    piv = np.empty((STURM_BLOCK + 1, shifts.size))
    piv[0] = 1.0
    tmp = np.empty(shifts.size)
    tiny = np.finfo(float).tiny
    sub, div = np.subtract, np.divide
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, diag.size, STURM_BLOCK):
            m = min(STURM_BLOCK, diag.size - start)
            block = piv[1:m + 1]
            np.subtract.outer(diag[start:start + m], shifts, out=block)
            rows = list(piv[:m + 1])
            # two numpy calls per row, whatever the number of shifts; b2 comes as a row of
            # the block's shape (stride 0), which numpy divides faster than a Python float
            b2_rows = np.broadcast_to(off2[start:start + m, None], block.shape)
            for prev, row, b2 in zip(rows, rows[1:], b2_rows):
                sub(row, div(b2, prev, tmp), row)
                if fix_zeros:
                    row[row == 0.0] = tiny
            counts += np.count_nonzero(block < 0.0, axis=0)
            zero |= (block == 0.0).any(axis=0)
            piv[0] = piv[m]
    return counts, zero


def sturm_count(t: Tridiag, shift):
    """Number of eigenvalues of t strictly below shift (negative pivots of t - shift*I).

    An array of shifts is counted in one pass over the matrix (_negative_pivots).
    An exact zero pivot counts as positive and continues as the smallest normal
    float; the few shifts that meet one are counted again with that check on
    every row, so every count equals the scalar recurrence's, bit for bit.
    A shift of -inf counts 0 and +inf counts n; a NaN shift raises ValueError.
    """
    shift = np.asarray(shift, dtype=float)
    shifts = shift.ravel()
    if np.isnan(shifts).any():
        raise ValueError("a Sturm count needs shifts that are not NaN")
    # a leading b^2 = 0 makes the first pivot (d_0 - s) - 0 / 1, with no branch in the loop
    off2 = np.concatenate(([0.0], t.off * t.off))
    count, zero = _negative_pivots(t.diag, off2, shifts)
    if zero.any():
        count[zero] = _negative_pivots(t.diag, off2, shifts[zero], fix_zeros=True)[0]
    count = count.reshape(shift.shape)
    return int(count) if count.ndim == 0 else count


@functools.cache
def _flapack():
    """scipy's compiled LAPACK module, loaded from its file so that scipy/linalg/__init__.py never runs."""
    import scipy

    # a finder over scipy/linalg alone, trying every suffix an extension file may carry
    # (.cpython-311-x86_64-linux-gnu.so, .abi3.so, .so, ...), never runs its __init__.py
    directory, suffixes = Path(scipy.__file__).parent / "linalg", importlib.machinery.EXTENSION_SUFFIXES
    loader = (importlib.machinery.ExtensionFileLoader, suffixes)
    spec = importlib.machinery.FileFinder(str(directory), loader).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension {directory / '_flapack'}"
                          f" with any of the suffixes {', '.join(suffixes)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stebz(d, e, count: int, tol: float):
    """The `count` smallest eigenvalues of the symmetric tridiagonal (d, e), from LAPACK dstebz.

    It makes the call that scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="i", select_range=(0, count - 1), tol=tol) makes, and like it gives
    d[0] for a 1 x 1 matrix without LAPACK.  Raises ValueError when dstebz
    rejects an argument (info < 0) and ConvergenceError when it fails (info > 0).
    """
    if d.size == 1:
        return d[:1].copy()
    m, w, _, _, info = _flapack().dstebz(d, e, 2, 0.0, 1.0, 1, count, float(tol), "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dstebz")
    if info > 0:
        raise ConvergenceError(f"LAPACK dstebz failed to converge (info = {info})")
    return w[:m]


def eigenvalues_low(t: Tridiag, count: int) -> list[float]:
    """The `count` smallest eigenvalues, each certified to within a half-width w/2.

    w/2 is BRACKET_WIDTH / 2, floored at the rounding bound eps * 2 / h^2 of
    float64 (eps = 2.2e-16) at which the Sturm recurrence resolves t - s I,
    with 1/h^2 = 2 |off|, the kinetic term of the grid's spacing h.  So the
    floor grows with fine grids, not with the size of V: at x_max = 10 it is
    below BRACKET_WIDTH / 2 up to n = 10 600 (2.8e-10 at n = 8000), and it is
    4.4e-8 at n = 100 000.  Raises ConvergenceError when LAPACK fails or a
    value misses its certificate.
    """
    if not 1 <= count <= MAX_LEVELS:
        raise ValueError(f"count must lie in 1..{MAX_LEVELS}")
    if count > t.diag.size:
        raise ValueError("cannot request more eigenvalues than matrix dimension")
    levels = stebz(t.diag, t.off, count, BRACKET_WIDTH / 4)
    # certificate of lam_i (0-based): <= i levels below lam_i - w/2, >= i + 1 below lam_i + w/2,
    # w/2 floored at eps 2/h^2 = eps 4 |off|
    half = max(0.5 * BRACKET_WIDTH, np.finfo(float).eps * 4 * np.abs(t.off).max(initial=0))
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
