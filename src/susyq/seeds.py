"""Seed solutions of the truncated-oscillator Schroedinger equation.

A seed at factorization energy eps (units hbar = omega = 1) is

    u(x) = e^{-x^2/2} [ b1 * 1F1((1-2*eps)/4, 1/2; x^2)
                        + b2 * x * 1F1((3-2*eps)/4, 3/2; x^2) ]

It solves u'' = (x^2 - 2*eps) u on x > 0 but is not required to satisfy
boundary conditions.  b2 = 0 gives the even branch, b1 = 0 the odd one.

Seed tables, for the Wronskians, hold the Kummer frame

    N_n(x) = h^{(n)}(x) * e^{+x^2},   h = u e^{-x^2/2} = b1 F_e(x^2) + b2 x F_o(x^2),

with F(z) = e^{-z} 1F1(a, b; z) = 1F1(b-a, b; -z) on each branch (Kummer's
transformation).  h is algebraic at large x, so the orders of a seed shrink
like x^{-n} at most, where in the plain frame v_n = u^{(n)} e^{+x^2/2} every
order grows like (2x)^n v_0 and W's matrix becomes nearly rank one.  Since
F^{(m)}(z) = (-1)^m (b-a)_m / (b)_m e^{-z} 1F1(a, b+m; z), every N_n is a
finite sum of 1F1(a, b+m; x^2) times powers of 2x (Faa di Bruno), and e^{-z}
is never formed.  The rows 1F1(a, b+m), m = 0..top, come from one series,
1F1(a, b+top) and its z-derivative, and the backward contiguous recurrence
in b.  The determinant over orders 0..k-1 is the same in both frames: the
map between their rows is unit lower triangular.

The single-seed reads (scaled_first_two, scaled_derivatives, seed_value,
seed_derivs) return the plain frame, which derivative_table alone builds, by
Leibniz on u = h e^{+x^2/2}: with (e^{x^2/2})^{(m)} = P_m(x) e^{x^2/2},

    v_n = sum_j C(n, j) P_{n-j}(x) N_j,   P_0 = 1, P_1 = x, P_{m+1} = x P_m + m P_{m-1},

in longdouble, rounded once to float64.  For a seed that decays at large x
(eps = 3/2 odd is x e^{-x^2/2}) its terms cancel by up to 3^n: order 9 there
reads about 1e-14 of max_n |v_n| near x = 4.

A set of seeds is evaluated together (kummer_frame): every 1F1 series of
the set runs in one kummer_m call, every step after it is elementwise over
the points, and a lone seed is a set of one, so it gets the same values,
bitwise, as inside any set and any batch of points.  The series sums in
longdouble unless the caller passes another work dtype: a seed table
(wronskian.scaled_stack) runs wholly in its own dtype, float64 or longdouble
as its partner chose (partner.PartnerPotential.table_dtype).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kummer import b_ladder, kummer_m
from .kummer import kummer_m_deriv  # noqa: F401 (perfbench/tracing.py patches it)


class Parity(enum.IntEnum):
    EVEN = +1
    ODD = -1


def derivative_table(frame, x):
    """Plain-frame [v_0 .. v_top], v_n = u^(n) e^{+x^2/2}, from a Kummer-frame table [N_0 .. N_top].

    frame has shape (top + 1, ...) + x.shape, with any axes between (one per
    seed, say).  The result is in longdouble, whatever the frame's dtype:
    v_n = sum_j C(n, j) P_{n-j}(x) N_j, N_n plus the terms j < n in increasing j.
    """
    frame = np.asarray(frame, dtype=np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)
    poly = [np.ones_like(x), x]  # P_m(x), (e^{x^2/2})^(m) = P_m e^{x^2/2}
    for m in range(1, len(frame) - 1):
        poly.append(x * poly[m] + m * poly[m - 1])
    table = frame.copy()
    for n in range(1, len(frame)):
        for j in range(n):
            table[n] += math.comb(n, j) * poly[n - j] * frame[j]
    return table


@dataclass(frozen=True)
class SeedSolution:
    """Non-physical oscillator solution at energy epsilon with coefficients (b1, b2)."""

    epsilon: float
    b1: float
    b2: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise ValueError("factorization energy must be finite")
        if self.b1 == 0 and self.b2 == 0:
            raise ValueError("seed must have at least one nonzero coefficient")

    @property
    def parity(self):
        """Parity.EVEN, Parity.ODD, or None for an indefinite mixed seed."""
        if self.b2 == 0:
            return Parity.EVEN
        if self.b1 == 0:
            return Parity.ODD
        return None

    @property
    def a_even(self) -> float:
        return (1 - 2 * self.epsilon) / 4

    @property
    def a_odd(self) -> float:
        return (3 - 2 * self.epsilon) / 4

    def scaled_first_two(self, x):
        """(v0, v1) = (u e^{x^2/2}, u' e^{x^2/2}) at x (scalar or array), x >= 0."""
        v0, v1 = derivatives((self,), x, 1)[:, 0]
        return v0, v1

    def scaled_derivatives(self, x, max_order):
        return derivatives((self,), x, max_order)[:, 0]


def derivatives(seeds, x, max_order):
    """[v_0 .. v_max_order] of every seed, shape (max_order + 1, len(seeds)) + x.shape, in float64.

    The Kummer frame in longdouble, mapped to the plain frame (derivative_table)
    and rounded once.
    """
    frame = kummer_frame(seeds, x, max_order, dtype=np.longdouble)
    return derivative_table(frame, x).astype(np.float64)


def kummer_frame(seeds, x, max_order, dtype=np.float64, work=np.longdouble):
    """[N_0 .. N_max_order] of every seed, N_n = h^(n) e^{+x^2} with h = u e^{-x^2/2}.

    Shape (max_order + 1, len(seeds)) + x.shape, at x >= 0.  One kummer_m call
    sums, for each branch a seed uses (even: b = 1/2, odd: b = 3/2), M(a, B)
    and z M'(a, B) at B = b + max_order, accumulating in work; the rest is
    elementwise arithmetic in dtype on one (orders, branches, points) array,
    a few numpy calls per order.
    """
    top = max_order
    x = np.asarray(x, dtype=dtype)
    shape, x = x.shape, x.ravel()
    z = x * x
    # one row per branch in use, (seed, coefficient, a, b), in seed order, even before odd
    rows = [r for i, s in enumerate(seeds)
            for r in ((i, s.b1, s.a_even, 0.5), (i, s.b2, s.a_odd, 1.5)) if r[1] != 0]
    idx, c, a, b = (np.array(column) for column in zip(*rows))
    odd = b == 1.5
    a, b = a.astype(dtype)[:, None], b.astype(dtype)[:, None]  # a row's scalars against the points
    m_top, zm_top = kummer_m(a[:, 0], b[:, 0] + top, z, dtype=dtype, zderiv=True, work=work)
    table = b_ladder(a, b, z, m_top, zm_top, top)  # M(a, b + m), m = 0..top
    # G_m = e^{+z} d^m/dz^m F, F(z) = e^{-z} M(a, b, z) = M(b - a, b, -z) (Kummer's transformation):
    #   G_m = (-1)^m (b - a)_m / (b)_m M(a, b + m, z), times the branch's coefficient in the seed
    orders = np.arange(top)[:, None, None]
    steps = np.concatenate([c.astype(dtype)[None, :, None], (a - b - orders) / (b + orders)])
    table *= np.cumprod(steps, axis=0)
    # Faa di Bruno: d^n/dx^n F(x^2) = sum_i n!/(i!(n-2i)!) (2x)^(n-2i) F^(n-i)(x^2).  By decreasing
    # m = n - i, G_m first adds its terms to the orders n in (m, 2m], then becomes order m's own
    # first term (2x)^m G_m; no G is read after its slot is overwritten
    powers = np.empty((top + 1, x.size), dtype=dtype)
    powers[0], powers[1:] = 1, 2 * x
    np.cumprod(powers, axis=0, out=powers)  # (2x)^p
    for m in range(top, 0, -1):
        hi = min(2 * m, top)
        if hi > m:  # orders n = m+1..hi, with powers 2m - n = m-1..2m-hi
            weights = np.array(_faa_di_bruno(m)[: hi - m], dtype=dtype)[:, None]
            table[m + 1 : hi + 1] += (weights * powers[2 * m - hi : m][::-1])[:, None] * table[m]
        table[m] *= powers[m]
    # odd branches are x F(x^2): d^n/dx^n [x F(x^2)] = x F^[n] + n F^[n-1], F^[n] = d^n/dx^n F(x^2)
    odd = odd[:, None]
    shifted = table[:-1] * (np.arange(1, top + 1)[:, None, None] * odd)
    table *= np.where(odd, x, dtype(1))
    table[1:] += shifted
    if len(rows) == len(seeds):  # one branch per seed: the rows are the seeds, with no copy
        return table.reshape((top + 1, len(seeds)) + shape)
    out = np.zeros((top + 1, len(seeds), x.size), dtype=dtype)
    np.add.at(out, (slice(None), idx), table)  # a mixed seed's even row, then its odd row
    return out.reshape((top + 1, len(seeds)) + shape)


@functools.cache
def _faa_di_bruno(m):
    """n!/(i!(n-2i)!) with i = n - m, for n = m+1..2m: G_m's weights in the orders above m."""
    return tuple(math.factorial(n) // (math.factorial(n - m) * math.factorial(2 * m - n))
                 for n in range(m + 1, 2 * m + 1))


def make_seed(epsilon: float, parity: Parity) -> SeedSolution:
    """Definite-parity seed: odd is x e^{-x^2/2} 1F1((3-2e)/4, 3/2; x^2), even drops the x."""
    if Parity(parity) is Parity.ODD:
        return SeedSolution(epsilon=float(epsilon), b1=0.0, b2=1.0)
    return SeedSolution(epsilon=float(epsilon), b1=1.0, b2=0.0)


def make_seed_general(epsilon: float, b1: float, b2: float) -> SeedSolution:
    """Arbitrary linear combination; indefinite parity unless b1 or b2 vanishes."""
    return SeedSolution(epsilon=float(epsilon), b1=float(b1), b2=float(b2))


def seed_value(u: SeedSolution, x):
    """u(x) for finite x >= 0."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < np.inf)):
        raise DomainError("seed solutions are defined on finite x >= 0")
    v0, _ = u.scaled_first_two(x)
    val = v0 * np.exp(-x * x / 2)
    return float(val) if val.ndim == 0 else val


def seed_derivs(u: SeedSolution, x, max_order: int):
    """[u(x), u'(x), ..., u^{(max_order)}(x)] at a point (or array) x > 0, finite."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0) & (x < np.inf)):
        raise DomainError("seed derivatives require finite x > 0")
    table = u.scaled_derivatives(x, max_order)
    return table * np.exp(-x * x / 2)
