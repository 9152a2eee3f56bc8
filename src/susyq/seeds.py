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
the points (and runs a block of points at a time, in the table it returns),
and a lone seed is a set of one, so it gets the same values, bitwise, as
inside any set and any batch of points.  The whole frame, the
series included, runs in the dtype it is asked for: longdouble for the
plain-frame reads, and for a seed table (wronskian.scaled_stack) float64 or
longdouble as its partner chose (partner.PartnerPotential.table_dtype).  No
seeds is an empty frame, with no series to sum.  The frame's arrays that
depend on the seeds alone (branch rows, Pochhammer steps, Faa di Bruno
weights, odd-branch multipliers, the b-ladder's factors) are built once per
seed set, order and dtype (frame_constants), read-only, and shared by every
frame of that set: a plan's reads, probes and scan halvings.

Every public read of points, here, in wronskian and in partner, takes x
through half_line (finite, > 0 or, where a read is defined at 0, >= 0) and
returns through as_float: a Python float for a scalar x.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .kummer import b_ladder, kummer_m, ladder_steps
from .kummer import kummer_m_deriv  # noqa: F401 (perfbench/tracing.py patches it)


# the most bytes of a table that a step after the series works on at once: the frame here and W's
# elimination (wronskian.WronskianLU) step a block of points of at most this much of their table,
# so their temporaries are of its size.  Every such step is elementwise over the points, so a block
# changes no value.  An order-8 longdouble frame (1280 bytes a point) takes 819 points a block, an
# order-4 float64 one 5461, and any batch of up to 64 points (a point query) is one block to order 20
BLOCK_BYTES = 1 << 20


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


def kummer_frame(seeds, x, max_order, dtype):
    """[N_0 .. N_max_order] of every seed, N_n = h^(n) e^{+x^2} with h = u e^{-x^2/2}.

    Shape (max_order + 1, len(seeds)) + x.shape, at x >= 0, all in dtype.  One
    kummer_m call sums, for each branch a seed uses (even: b = 1/2, odd:
    b = 3/2), M(a, B) and z M'(a, B) at B = b + max_order; the rest is
    elementwise arithmetic on one (orders, branches, points) array, a few
    numpy calls per order, with the factors that depend on the seeds alone
    taken from frame_constants.  That arithmetic runs in place on the table
    of branch rows, a block of points at a time (in_point_blocks), so its
    temporaries are of a block's size; when each seed has one branch, that
    table is returned.
    """
    top = max_order
    x = np.asarray(x, dtype=dtype)
    shape, x = x.shape, x.ravel()
    z = x * x
    const = frame_constants(tuple(seeds), top, dtype)
    if const is None:  # no seeds: an empty frame, and no series to sum
        return np.zeros((top + 1, 0) + shape, dtype=dtype)
    m_top, zm_top = kummer_m(const.a[:, 0], const.b_top, z, dtype=dtype, zderiv=True, work=dtype)
    # every step after the series runs in the table, a block of points at a time
    table = np.empty((top + 1,) + m_top.shape, dtype=dtype)
    in_point_blocks(_frame_steps, table[..., :1].nbytes, (table, z, x, m_top, zm_top), const)
    del m_top, zm_top
    if const.idx is None:  # one branch per seed: the rows are the seeds, with no copy
        return table.reshape((top + 1, len(seeds)) + shape)
    out = np.zeros((top + 1, len(seeds), x.size), dtype=dtype)
    np.add.at(out, (slice(None), const.idx), table)  # a mixed seed's even row, then its odd row
    return out.reshape((top + 1, len(seeds)) + shape)


def _frame_steps(table, z, x, m_top, zm_top, const):
    """kummer_frame's steps after the series on one block of points, written into its table.

    table is (orders, branch rows, points); m_top and zm_top are the series'
    M(a, b + top) and z M'(a, b + top) at the block's points.
    """
    b_ladder(z, m_top, zm_top, const.ladder, table)  # M(a, b + m), m = 0..top
    top = len(table) - 1
    table *= const.pochhammer
    # Faa di Bruno: d^n/dx^n F(x^2) = sum_i n!/(i!(n-2i)!) (2x)^(n-2i) F^(n-i)(x^2).  By decreasing
    # m = n - i, G_m first adds its terms to the orders n in (m, 2m], then becomes order m's own
    # first term (2x)^m G_m; no G is read after its slot is overwritten
    powers = np.empty((top + 1, x.size), dtype=table.dtype)
    powers[0], powers[1:] = 1, 2 * x
    np.cumprod(powers, axis=0, out=powers)  # (2x)^p
    for m in range(top, 0, -1):
        hi = min(2 * m, top)
        if hi > m:  # orders n = m+1..hi, with powers 2m - n = m-1..2m-hi
            table[m + 1 : hi + 1] += (const.weights[m] * powers[2 * m - hi : m][::-1])[:, None] * table[m]
        table[m] *= powers[m]
    # odd branches are x F(x^2): d^n/dx^n [x F(x^2)] = x F^[n] + n F^[n-1], F^[n] = d^n/dx^n F(x^2)
    shifted = table[:-1] * const.odd_steps
    table *= np.where(const.odd, x, table.dtype.type(1))
    table[1:] += shifted


class FrameConstants(NamedTuple):
    """The arrays of kummer_frame that depend on the seeds, max_order and dtype alone; all read-only."""

    a: np.ndarray  # each branch row's a, shape (rows, 1)
    b: np.ndarray  # and its b, 1/2 (even) or 3/2 (odd)
    b_top: np.ndarray  # b + max_order, shape (rows,)
    odd: np.ndarray  # which rows are odd branches, shape (rows, 1)
    idx: np.ndarray | None  # each row's seed, or None when the rows are the seeds
    pochhammer: np.ndarray  # c (b - a)_m / (b)_m (-1)^m, m = 0..max_order
    weights: dict  # m -> Faa di Bruno weights of G_m in the orders n = m+1..min(2m, max_order)
    odd_steps: np.ndarray  # n on odd rows, 0 on even ones, n = 1..max_order
    ladder: tuple  # kummer.ladder_steps(a, b, max_order)


@functools.lru_cache(maxsize=256)
def frame_constants(seeds, max_order, dtype):
    """FrameConstants of a tuple of seeds, built once per (seeds, max_order, dtype); None for no seeds.

    Every scan halving and every read of one plan shares them, so they are
    read-only: a write into one would reach every later frame of the plan.
    """
    top = max_order
    # one row per branch in use, (seed, coefficient, a, b), in seed order, even before odd
    rows = [r for i, s in enumerate(seeds)
            for r in ((i, s.b1, s.a_even, 0.5), (i, s.b2, s.a_odd, 1.5)) if r[1] != 0]
    if not rows:
        return None
    idx, c, a, b = (np.array(column) for column in zip(*rows))
    odd = (b == 1.5)[:, None]
    a, b = a.astype(dtype)[:, None], b.astype(dtype)[:, None]  # a row's scalars against the points
    # G_m = e^{+z} d^m/dz^m F, F(z) = e^{-z} M(a, b, z) = M(b - a, b, -z) (Kummer's transformation):
    #   G_m = (-1)^m (b - a)_m / (b)_m M(a, b + m, z), times the branch's coefficient in the seed
    orders = np.arange(top)[:, None, None]
    steps = np.concatenate([c.astype(dtype)[None, :, None], (a - b - orders) / (b + orders)])
    weights = {m: np.array([math.factorial(n) // (math.factorial(n - m) * math.factorial(2 * m - n))
                            for n in range(m + 1, min(2 * m, top) + 1)], dtype=dtype)[:, None]
               for m in range(1, top + 1) if min(2 * m, top) > m}
    const = FrameConstants(
        a=a, b=b, b_top=b[:, 0] + top, odd=odd, idx=None if len(rows) == len(seeds) else idx,
        pochhammer=np.cumprod(steps, axis=0), weights=weights,
        odd_steps=np.arange(1, top + 1)[:, None, None] * odd, ladder=ladder_steps(a, b, top))
    for array in (a, b, const.b_top, odd, idx, const.pochhammer, *weights.values(),
                  const.odd_steps, *const.ladder):
        array.flags.writeable = False
    return const


def in_point_blocks(step, point_bytes, arrays, *rest):
    """step(*arrays, *rest) on blocks of points of at most BLOCK_BYTES at point_bytes a point.

    The points are the last axis of every array.  step gets the arrays
    themselves when one block holds every point (any point query), and
    otherwise views of one block of each at a time.
    """
    size = max(1, BLOCK_BYTES // max(point_bytes, 1))
    n = arrays[0].shape[-1]
    if n <= size:
        step(*arrays, *rest)
        return
    for start in range(0, n, size):
        step(*[v[..., start : start + size] for v in arrays], *rest)


def make_seed(epsilon: float, parity: Parity) -> SeedSolution:
    """Definite-parity seed: odd is x e^{-x^2/2} 1F1((3-2e)/4, 3/2; x^2), even drops the x."""
    if Parity(parity) is Parity.ODD:
        return SeedSolution(epsilon=float(epsilon), b1=0.0, b2=1.0)
    return SeedSolution(epsilon=float(epsilon), b1=1.0, b2=0.0)


def make_seed_general(epsilon: float, b1: float, b2: float) -> SeedSolution:
    """Arbitrary linear combination; indefinite parity unless b1 or b2 vanishes."""
    return SeedSolution(epsilon=float(epsilon), b1=float(b1), b2=float(b2))


def half_line(x, closed=False):
    """x as a float array; DomainError unless each x is finite and > 0 (>= 0 when closed)."""
    x = np.asarray(x, dtype=float)
    if not np.all(((x >= 0) if closed else (x > 0)) & (x < np.inf)):
        raise DomainError(f"x must be finite and {'>=' if closed else '>'} 0")
    return x


def as_float(v):
    """v as a Python float when it is 0-d, as a float64 array otherwise: what every public read returns."""
    v = np.asarray(v, dtype=float)
    return float(v) if v.ndim == 0 else v


def seed_value(u: SeedSolution, x):
    """u(x) for finite x >= 0."""
    x = half_line(x, closed=True)
    v0, _ = u.scaled_first_two(x)
    return as_float(v0 * np.exp(-x * x / 2))


def seed_derivs(u: SeedSolution, x, max_order: int):
    """[u(x), u'(x), ..., u^{(max_order)}(x)] at a point (or array) x > 0, finite."""
    x = half_line(x)
    return u.scaled_derivatives(x, max_order) * np.exp(-x * x / 2)
