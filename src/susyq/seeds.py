"""Seed solutions of the truncated-oscillator Schroedinger equation.

A seed at factorization energy eps (units hbar = omega = 1) is

    u(x) = e^{-x^2/2} [ b1 * 1F1((1-2*eps)/4, 1/2; x^2)
                        + b2 * x * 1F1((3-2*eps)/4, 3/2; x^2) ]

It solves u'' = (x^2 - 2*eps) u on x > 0 but is not required to satisfy
boundary conditions.  b2 = 0 gives the even branch, b1 = 0 the odd one.

All evaluation here works with Gaussian-stripped values

    v_n(x) = u^{(n)}(x) * e^{+x^2/2}

so that Wronskian code can track the overall e^{-k x^2/2} exponent
analytically.  Derivatives of order >= 2 come from the ODE itself via the
Leibniz-expanded recurrence

    u^{(n+2)} = (x^2 - 2*eps) u^{(n)} + 2 n x u^{(n-1)} + n (n-1) u^{(n-2)}

which holds verbatim for the stripped values v_n as well.

A set of seeds is evaluated together (first_two, derivatives): every 1F1
series of the set runs in one kummer_m call, and a lone seed is a set of
one, so it gets the same values, bitwise, as inside any set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kummer import kummer_m, kummer_m_deriv  # noqa: F401 (perfbench/tracing.py patches it)


class Parity(enum.IntEnum):
    EVEN = +1
    ODD = -1


def derivative_table(v0, v1, epsilon, x, max_order, dtype=np.float64):
    """Stack [v_0 .. v_max_order] from the first two values via the ODE recurrence.

    Works for any solution of u'' = (x^2 - 2*epsilon) u given its
    Gaussian-stripped value and first derivative (or the plain values,
    the recurrence is the same).  epsilon may be an array that broadcasts
    against v0, one energy per leading row.
    """
    x = np.asarray(x, dtype=dtype)
    z = x * x
    eps = np.asarray(epsilon, dtype=dtype)
    table = [np.asarray(v0, dtype=dtype), np.asarray(v1, dtype=dtype)]
    for n in range(max_order - 1):
        nxt = (z - 2 * eps) * table[n]
        if n >= 1:
            nxt = nxt + (2 * n) * x * table[n - 1]
        if n >= 2:
            nxt = nxt + n * (n - 1) * table[n - 2]
        table.append(nxt)
    return np.array(table[: max_order + 1])


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

    def scaled_first_two(self, x, dtype=np.float64):
        """(v0, v1) = (u e^{x^2/2}, u' e^{x^2/2}) at x (scalar or array), x >= 0."""
        v0, v1 = first_two((self,), x, dtype=dtype)
        return v0[0], v1[0]

    def scaled_derivatives(self, x, max_order, dtype=np.float64):
        return derivatives((self,), x, max_order, dtype=dtype)[:, 0]


def first_two(seeds, x, dtype=np.float64):
    """(v0, v1) of every seed at x >= 0, each of shape (len(seeds),) + x.shape.

    One kummer_m call sums M = 1F1(a, b; x^2) and M(a+1, b+1) for each branch
    a seed uses (even: b = 1/2, odd: b = 3/2); M' = (a/b) M(a+1, b+1).
    """
    x = np.asarray(x, dtype=dtype)
    z = x * x
    # one row per branch in use, (seed, coefficient, a, b), the even branches first
    rows = [(i, s.b1, s.a_even, 0.5) for i, s in enumerate(seeds) if s.b1 != 0]
    even, odd = slice(len(rows)), slice(len(rows), None)
    rows += [(i, s.b2, s.a_odd, 1.5) for i, s in enumerate(seeds) if s.b2 != 0]
    idx, c, a, b = (np.array(column) for column in zip(*rows))
    m_all = kummer_m(np.concatenate([a, a + 1]), np.concatenate([b, b + 1]), z, dtype=dtype)
    per_row = (-1,) + (1,) * x.ndim  # a row's scalar against the points
    m = m_all[: a.size]
    mp = (a.astype(dtype) / b.astype(dtype)).reshape(per_row) * m_all[a.size :]
    c = c.reshape(per_row)
    v0 = np.zeros((len(seeds),) + x.shape, dtype=dtype)
    v1 = np.zeros_like(v0)
    v0[idx[even]] += c[even] * m[even]
    v1[idx[even]] += c[even] * (2 * x * mp[even] - x * m[even])
    v0[idx[odd]] += c[odd] * x * m[odd]
    v1[idx[odd]] += c[odd] * (m[odd] + 2 * z * mp[odd] - z * m[odd])
    return v0, v1


def derivatives(seeds, x, max_order, dtype=np.float64):
    """[v_0 .. v_max_order] of every seed, shape (max_order + 1, len(seeds)) + x.shape."""
    v0, v1 = first_two(seeds, x, dtype=dtype)
    eps = np.array([s.epsilon for s in seeds]).reshape((-1,) + (1,) * np.ndim(x))
    return derivative_table(v0, v1, eps, x, max_order, dtype=dtype)


def make_seed(epsilon: float, parity: Parity) -> SeedSolution:
    """Definite-parity seed: odd is x e^{-x^2/2} 1F1((3-2e)/4, 3/2; x^2), even drops the x."""
    if Parity(parity) is Parity.ODD:
        return SeedSolution(epsilon=float(epsilon), b1=0.0, b2=1.0)
    return SeedSolution(epsilon=float(epsilon), b1=1.0, b2=0.0)


def make_seed_general(epsilon: float, b1: float, b2: float) -> SeedSolution:
    """Arbitrary linear combination; indefinite parity unless b1 or b2 vanishes."""
    return SeedSolution(epsilon=float(epsilon), b1=float(b1), b2=float(b2))


def seed_value(u: SeedSolution, x):
    """u(x) for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("seed solutions are defined on x >= 0")
    v0, _ = u.scaled_first_two(x)
    val = v0 * np.exp(-x * x / 2)
    return float(val) if val.ndim == 0 else val


def seed_derivs(u: SeedSolution, x, max_order: int):
    """[u(x), u'(x), ..., u^{(max_order)}(x)] at a point (or array) x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("seed derivatives require x > 0")
    table = u.scaled_derivatives(x, max_order)
    return table * np.exp(-x * x / 2)
