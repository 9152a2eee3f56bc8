"""Partner potentials, transformed eigenfunctions, and added-state candidates.

The k-th order partner of the truncated oscillator V = x^2/2 (x > 0) is

    Vt = V - (d^2/dx^2) ln W(u_1, ..., u_k)

with seed solutions u_j at increasing factorization energies.  Transformed
eigenfunctions use the Crum representation

    psi_t ~ W(u_1, ..., u_k, psi) / W(u_1, ..., u_k)

and added-state candidates are ratios of a one-seed-deleted Wronskian to
the full one.  The partner, all states and all candidates on one point
array share one evaluation of the seeds (SeedTable), in the Kummer frame of
the seeds module, which also holds the LU of W's matrix M (rows: orders
0..k-1, columns: seeds).  All three are read from it by triangular solves,
with no determinant of their own:

    W(u_1..u_k, psi) / W = psi^(k) - r M^{-1} c      (c: psi's orders 0..k-1,
                                                      r: the seeds' order k)
    W(minor_j) / W = (-1)^(k+j) (M^{-1})_{j,k}       (one solve for every j)
    (ln W)'' = k + r_{k+1} y - r_k y' - (r_k y)^2     (y = M^{-1} e_k, y' = M^{-1} e_{k-1})

In the Kummer frame a base state's column is (-1)^n c H_{m+n}(x) (Rodrigues'
formula), and the solve against e_k serves the potential and every candidate.

A table runs in float64 or in longdouble.  Each PartnerPotential object
decides once, on its first table, by a fixed probe (table_dtype): float64
where that gives Vt, W's sign and y as longdouble does, as for the plans of
order up to 5 that follow the rules, and longdouble otherwise, as for order 6
and the order-8 plan with energies 0.005 apart.  Points beyond FLOAT64_X_MAX
always run in longdouble.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnergyError, NonNormalizableError, SingularWronskianError
from .seeds import SeedSolution, derivative_table
from .wronskian import (WORK_DTYPE, WronskianLU, log_w_second_deriv, log_w_second_deriv_stack,
                        scaled_stack, unit_rhs)
from .wronskian import sign_log_det_orders  # noqa: F401 (perfbench/tracing.py patches it)


def truncated_oscillator_v(x):
    """The base potential x^2/2 on the half line."""
    x = np.asarray(x, dtype=float)
    return x * x / 2


@dataclass(frozen=True)
class BaseState:
    """Oscillator eigenfunction restricted to x > 0.

    branch 'odd' is psi_n = C_n e^{-x^2/2} H_{2n+1}(x) at E_n = 2n + 3/2,
    the physical states of the truncated oscillator; branch 'even' is
    chi_n = B_n e^{-x^2/2} H_{2n}(x) at 2n + 1/2, which solves the same
    equation but misses the boundary condition at the origin.
    """

    branch: str
    n: int

    def __post_init__(self):
        if self.branch not in ("odd", "even"):
            raise ValueError("branch must be 'odd' or 'even'")
        if self.n < 0:
            raise ValueError("quantum number must be non-negative")

    @property
    def hermite_index(self) -> int:
        return 2 * self.n + 1 if self.branch == "odd" else 2 * self.n

    @property
    def energy(self) -> float:
        return 2 * self.n + (1.5 if self.branch == "odd" else 0.5)

    @property
    def norm_constant(self) -> float:
        m = self.hermite_index
        # C_n = [sqrt(pi) 2^{2n} (2n+1)!]^{-1/2},  B_n = [sqrt(pi) 2^{2n-1} (2n)!]^{-1/2}
        return 1.0 / math.sqrt(math.sqrt(math.pi) * 2 ** (m - 1) * math.factorial(m))

    def _hermite_pair(self, x, dtype):
        """(H_m(x), H_{m-1}(x)) by the three-term recurrence H_{m+1} = 2x H_m - 2m H_{m-1}."""
        x = np.asarray(x, dtype=dtype)
        h_prev = np.zeros_like(x)
        h = np.ones_like(x)
        for m in range(self.hermite_index):
            h, h_prev = 2 * x * h - 2 * m * h_prev, h
        return h, h_prev

    def scaled_first_two(self, x, dtype=np.float64):
        x = np.asarray(x, dtype=dtype)
        h, h_lo = self._hermite_pair(x, dtype)
        c = dtype(self.norm_constant)
        v0 = c * h
        v1 = c * (2 * self.hermite_index * h_lo - x * h)
        return v0, v1

    def scaled_derivatives(self, x, max_order, dtype=np.float64):
        v0, v1 = self.scaled_first_two(x, dtype=dtype)
        return derivative_table(v0, v1, self.energy, x, max_order, dtype=dtype)

    def kummer_frame(self, x, max_order, dtype=np.float64):
        """Orders 0..max_order of (psi e^{-x^2/2}) e^{+x^2}, the seeds' Kummer frame.

        psi e^{-x^2/2} = c H_m e^{-x^2}, and by Rodrigues' formula its n-th
        derivative is (-1)^n c H_{m+n} e^{-x^2}: the column is (-1)^n c H_{m+n}(x).
        """
        x = np.asarray(x, dtype=dtype)
        h, h_prev = self._hermite_pair(x, dtype)
        rows = [h]
        for m in range(self.hermite_index, self.hermite_index + max_order):
            h, h_prev = 2 * x * h - 2 * m * h_prev, h
            rows.append(h)
        c = dtype(self.norm_constant)
        return np.array([(-c if n % 2 else c) * row for n, row in enumerate(rows)])


def base_state_value(s: BaseState, x):
    """Normalized value of psi_n or chi_n on [0, infinity)."""
    x = np.asarray(x, dtype=float)
    v0, _ = s.scaled_first_two(x)
    val = v0 * np.exp(-x * x / 2)
    return float(val) if val.ndim == 0 else val


# Seed tables run in float64 at points up to FLOAT64_X_MAX when the plan's probe allows it, and in
# longdouble beyond: float64 overflows e^{x^2} near x = 26.6 in any case
FLOAT64_X_MAX = 12.0
# the probe points, fixed whatever the batch: 24 points on (0, FLOAT64_X_MAX], beyond the default
# x_max = 10.  They miss part of the error: on valid plans the worst point of the default grid is
# up to 32 times the worst probe (median 4), and an error near a Wronskian zero does not show at all
PROBE_X = np.linspace(FLOAT64_X_MAX / 24, FLOAT64_X_MAX, 24)
# float64 is taken only when Vt, W's sign and y = M^-1 e_k agree with longdouble this closely
# (relative) at every probe point; float64 plans then stay within 1e-9 on the grid
PROBE_RTOL = 1e-10


@dataclass(frozen=True)
class PartnerPotential:
    """A k-th order partner defined by its ordered seed set (k = 0 is the identity)."""

    seeds: tuple[SeedSolution, ...]

    def __post_init__(self):
        eps = [s.epsilon for s in self.seeds]
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("factorization energies must be strictly increasing")

    @property
    def order(self) -> int:
        return len(self.seeds)

    @property
    def epsilons(self) -> tuple[float, ...]:
        return tuple(s.epsilon for s in self.seeds)

    @functools.cached_property
    def table_dtype(self):
        """The dtype of this partner's seed tables at x <= FLOAT64_X_MAX: float64 or longdouble.

        Decided once per object, by building the table on PROBE_X in both
        dtypes: float64 when Vt, W's sign and y = M^-1 e_k agree there within
        PROBE_RTOL (Vt relative to max(1, |Vt|), y to max_j |y_j| at each
        point), longdouble otherwise or where W vanishes on a probe point.
        """
        if not self.order:
            return np.float64  # no seeds, no table
        fast, slow = (_TablePart(self, PROBE_X, dtype, self.order + 1)
                      for dtype in (np.float64, WORK_DTYPE))
        try:
            y, y_ref = fast.last(), slow.last()
            v, v_ref = fast.potential(), slow.potential()
        except SingularWronskianError:
            return WORK_DTYPE
        y_err = np.abs(y - y_ref).max(axis=0)  # by point, against max_j |y_j| there
        agree = (np.array_equal(fast.sw, slow.sw)
                 and np.all(np.abs(v - v_ref) <= PROBE_RTOL * np.maximum(1, np.abs(v_ref)))
                 and np.all(y_err <= PROBE_RTOL * np.abs(y_ref).max(axis=0)))
        return np.float64 if agree else WORK_DTYPE


def _dtype_parts(p: PartnerPotential, x):
    """[(where, dtype)] covering the points x: p's table_dtype up to FLOAT64_X_MAX, longdouble beyond."""
    near = x <= FLOAT64_X_MAX
    if not near.any():
        return [(..., WORK_DTYPE)]
    if near.all() or p.table_dtype is WORK_DTYPE:
        return [(..., p.table_dtype)]
    return [(near, p.table_dtype), (~near, WORK_DTYPE)]


def _assemble(x, values):
    """The values [(where, value)] of the parts of the points x, on x; a single part's value as it is."""
    if len(values) == 1:
        return values[0][1]
    out = np.empty(x.shape)
    for where, value in values:
        out[where] = value
    return out


def partner_v(p: PartnerPotential, x):
    """Vt(x) = x^2/2 - (ln W)''(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    parts = _dtype_parts(p, x)
    return truncated_oscillator_v(x) - _assemble(
        x, [(where, log_w_second_deriv(p.seeds, x[where], dtype)) for where, dtype in parts])


def transformed_eigenfunction(p: PartnerPotential, s: BaseState, x):
    """Isospectral-branch eigenfunction of the partner Hamiltonian at s.energy.

    Returned with the analytic normalization 2^{-k/2} W(u_1..u_k, psi) /
    (W(u_1..u_k) * prod_j sqrt(|E - eps_j|)), which keeps the state unit-
    normalized on (0, inf); the overall sign is not meaningful.
    """
    return SeedTable(p, x, p.order).state(s)


def added_state(p: PartnerPotential, j: int, x):
    """Unnormalized candidate phi_{eps_j} = W(minor_j) / W at the factorization energy eps_j."""
    return SeedTable(p, x, p.order - 1).added(j)


class SeedTable:
    """The k seeds of partner p, evaluated once on the points x: Kummer-frame orders 0..max_order and W's LU.

    max_order is k + 1 by default, what the potential reads; a state reads
    orders up to k, a candidate up to k - 1.  The table runs in p's
    table_dtype at x <= FLOAT64_X_MAX and in longdouble beyond, in two parts
    when x straddles it, so that no point's value depends on its batch.  The
    partner potential, states and candidates on x are read from it; reads
    leave it unchanged.
    """

    def __init__(self, p: PartnerPotential, x, max_order=None):
        self.p, self.x = p, np.asarray(x, dtype=float)
        top = p.order + 1 if max_order is None else max_order
        self.parts = [(where, _TablePart(p, self.x[where], dtype, top))
                      for where, dtype in _dtype_parts(p, self.x)]
        if p.order:
            self.sw = self._read(lambda part: part.sw)  # W's sign

    def potential(self):
        """partner_v(p, x)."""
        return self._read(_TablePart.potential)

    def state(self, s: BaseState):
        """transformed_eigenfunction(p, s, x)."""
        return self._read(lambda part: part.state(s))

    def added(self, j: int):
        """added_state(p, j, x)."""
        return self._read(lambda part: part.added(j))

    def _read(self, read):
        return _assemble(self.x, [(where, read(part)) for where, part in self.parts])


class _TablePart:
    """SeedTable on points x in one dtype: the table, W's LU on it, and the reads."""

    def __init__(self, p: PartnerPotential, x, dtype, max_order):
        self.p, self.x, self.dtype = p, x, dtype
        self.half_x2 = np.asarray(x, dtype=dtype) ** 2 / 2  # each seed carries e^-half_x2
        if p.order:
            self.table = scaled_stack(p.seeds, x, max_order, dtype=dtype)
            self.lu = WronskianLU(self.table)
            self.sw, self.lw = self.lu.sign, self.lu.log
        self._last = None  # M^-1 e_k, shared by the potential and every candidate

    def potential(self):
        v = truncated_oscillator_v(self.x)
        if not self.p.order:
            return v
        # the e_k solve is shared when a candidate read has made it; W is checked first either way
        return v - log_w_second_deriv_stack(self.table, self.lu, self.x, self._last)

    def state(self, s: BaseState):
        k, eps = self.p.order, self.p.epsilons
        if k == 0:
            return base_state_value(s, self.x)
        if s.energy in eps:
            raise DegenerateEnergyError(
                f"state energy {s.energy} coincides with a factorization energy"
            )
        column = s.kummer_frame(self.x, k, dtype=self.dtype)
        # W(u, psi)/W is the Schur complement psi^(k) - r M^-1 c of W's matrix M in the
        # numerator's, with c = psi's orders 0..k-1 and r = the seeds' order-k row
        ratio = column[k].copy()
        for r_j, y_j in zip(self.table[k], self._solve(column[:k])):
            ratio -= r_j * y_j
        # each intertwining order carries a 1/sqrt(2) in the operator convention
        scale = math.fsum(math.log(abs(s.energy - e)) for e in eps) / 2 + k * math.log(2) / 2
        # Gaussian exponents: numerator e^{-(k+1)x^2/2}, denominator e^{-k x^2/2}
        return _as_float(ratio * np.exp(-self.half_x2 - self.dtype(scale)))

    def added(self, j: int):
        k = self.p.order
        if not 1 <= j <= k:
            raise IndexError(f"seed index {j} outside 1..{k}")
        # W(minor_j)/W = (-1)^(k+j) (M^-1)_{j,k}: one solve against e_k serves every j.
        # The minor carries e^{-(k-1)x^2/2}, W e^{-k x^2/2}: net e^{+x^2/2}
        return _as_float((-1) ** (k + j) * self.last()[j - 1] * np.exp(self.half_x2))

    def last(self):
        """y = M^-1 e_k, solved once."""
        if self._last is None:
            self._last = self._solve(unit_rhs(self.p.order, self.p.order, self.x.shape))
        return self._last

    def _solve(self, b):
        """M^{-1} b from W's LU; raises where W vanishes on x."""
        if np.any(self.sw == 0):
            raise SingularWronskianError(
                f"Wronskian vanishes on the requested points near x = {self.x}"
            )
        return self.lu.solve(b)


def _as_float(val):
    val = np.asarray(val, dtype=float)
    return float(val) if val.ndim == 0 else val


# a bound state with tail t max|f| at x_max leaves about (t max|f|)^2 / (2 x_max) of its squared
# norm beyond it, < 1e-9 max|f|^2 at 1e-4; genuine states at x_max = 8 reach 2e-5, invalid ones O(1)
TAIL_FRACTION = 1e-4


def normalize(vals, grid) -> float:
    """Norm constant N with integral of (N f)^2 over (0, x_max] equal to 1.

    vals holds f on grid.closed_points; composite Simpson quadrature there.
    Raises NonNormalizableError when |f(x_max)| exceeds TAIL_FRACTION of max|f|.
    """
    vals = np.asarray(vals, dtype=float)
    peak = np.abs(vals).max()
    if peak == 0:
        raise NonNormalizableError("function vanishes identically on the grid")
    if abs(vals[-1]) > TAIL_FRACTION * peak:
        raise NonNormalizableError(
            f"tail |f(x_max)| = {abs(vals[-1]):.3e} exceeds {TAIL_FRACTION} * max|f|"
        )
    norm_sq = _simpson(vals * vals, grid.h)
    if norm_sq <= 0 or not np.isfinite(norm_sq):
        raise NonNormalizableError("quadrature of f^2 is not positive and finite")
    return 1.0 / math.sqrt(norm_sq)


def _simpson(y, h: float) -> float:
    """Integral of samples y on a uniform grid of spacing h, as scipy.integrate.simpson.

    Composite Simpson for an odd number of points; for an even number, Simpson
    up to the last interval plus Cartwright's correction for that interval.
    """
    if len(y) % 2:
        return h / 3 * (y[0] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum() + y[-1])
    return _simpson(y[:-1], h) + 5 * h / 12 * y[-1] + 2 * h / 3 * y[-2] - h / 12 * y[-3]
