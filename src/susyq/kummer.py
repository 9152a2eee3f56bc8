"""Confluent hypergeometric function 1F1(a, b; z) for real parameters.

The direct Taylor series

    1F1(a, b; z) = sum_n (a)_n / (b)_n * z^n / n!

has all terms of one sign (beyond the first few) for z >= 0 and real a,
so it is summed directly there; for z < 0 the alternating series is
catastrophically ill-conditioned and the Kummer reflection
1F1(a, b; z) = e^z * 1F1(b - a, b; -z) is applied instead.

One kernel sums the series over a (rows, points) grid, row r holding the
parameters (a_r, b_r) at every point z.  All entries advance together
through one term loop by the ratio recurrence

    t_{n+1} = t_n * ((a + n) / (b + n)) * z / (n + 1),

and each entry stops on its own: at the first multiple of BLOCK terms
where n >= z (terms only decay monotonically past the series peak near
n ~ z) and |t| <= eps |sum|, or where its term is an exact zero.  Stopped
entries leave the loop, so every value depends on its own (a, b, z) alone,
bitwise, and never on the other rows or points of the call.

For negative non-integer a the first few terms still alternate and can
tower over a small result (a = -5.3, z = 16 peaks near 1e4 on a value of
0.5), so summation always runs in extended precision and rounds once at
the end.

Terminating cases (a a non-positive integer) are exact up to rounding:
the term recurrence hits an exact zero and the sum is the polynomial value.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

TERM_CAP = 10_000
BLOCK = 16  # terms between two convergence tests of the live entries


def _is_nonpositive_int(v: float) -> bool:
    return v <= 0 and float(v) == int(v)


def _rows(a, b, z, tol):
    """Sum the series for rows (a, b) at points z >= 0; a (rows, points) longdouble array.

    Accumulation happens in longdouble whatever the target dtype; the
    tolerance tol (hence the term count) still follows the target.
    """
    work = np.longdouble
    one = work(1)
    a = np.asarray(a, dtype=work)
    b = np.asarray(b, dtype=work)
    z = np.asarray(z, dtype=work)
    out = np.empty((a.size, z.size), dtype=work)
    # the live entries, flattened: row, position in out, z, current term and partial sum
    row = np.repeat(np.arange(a.size), z.size)
    pos = np.arange(out.size)
    zs = np.tile(z, a.size)
    term = np.ones(out.size, dtype=work)
    total = np.ones(out.size, dtype=work)
    for start in range(0, TERM_CAP, BLOCK):
        if not pos.size:
            break
        ns = np.arange(start, start + BLOCK)
        ratios = ((a[:, None] + ns) / (b[:, None] + ns)).T  # (a + n) / (b + n) by term, row
        for n in range(start, start + BLOCK):
            term = term * ratios[n - start][row] * zs / (one * (n + 1))
            total += term
        done = (term == 0) | ((n >= zs) & (np.abs(term) <= tol * np.abs(total)))
        if done.any():
            out.flat[pos[done]] = total[done]
            live = ~done
            row, pos, zs, term, total = row[live], pos[live], zs[live], term[live], total[live]
    if pos.size:
        raise ConvergenceError(
            f"1F1 series did not converge within {TERM_CAP} terms "
            f"(a={float(a[row[0]])}, b={float(b[row[0]])}, max z={float(zs.max())})"
        )
    return out


def kummer_m(a, b, z, dtype=np.float64):
    """Evaluate 1F1(a, b; z) for real a, b and real z (scalar or array).

    a and b may also be 1-D arrays of rows: the result then has shape
    (rows,) + z.shape, row r holding 1F1(a[r], b[r]; z), from one term loop.
    Raises InvalidParameterError when b is a non-positive integer and
    ConvergenceError when the series fails to meet tolerance.
    """
    rows = np.ndim(a) > 0 or np.ndim(b) > 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    for v in b:
        if _is_nonpositive_int(v):
            raise InvalidParameterError(f"1F1 undefined for b = {v} (non-positive integer)")
    z = np.asarray(z, dtype=dtype)
    shape = z.shape
    z = z.ravel()
    tol = np.finfo(dtype).eps
    out = np.empty((a.size, z.size), dtype=dtype)
    neg = z < 0
    if neg.any():
        out[:, neg] = np.exp(z[neg]) * _rows(b - a, b, -z[neg], tol)
    pos = ~neg
    if pos.any():
        out[:, pos] = _rows(a, b, z[pos], tol)
    out = out.reshape(a.shape + shape)
    if rows:
        return out
    if shape:
        return out[0]
    return float(out[0]) if dtype is np.float64 else out[0]


def kummer_m_deriv(a: float, b: float, z, n: int = 1, dtype=np.float64):
    """n-th derivative of 1F1 with respect to z.

    Uses d^n/dz^n 1F1(a,b;z) = [(a)_n / (b)_n] 1F1(a+n, b+n; z),
    so b, b+1, ..., b+n-1 must all avoid the non-positive integers.
    """
    if n < 0:
        raise InvalidParameterError("derivative order must be non-negative")
    coeff = dtype(1)
    for i in range(n):
        if _is_nonpositive_int(b + i):
            raise InvalidParameterError(
                f"1F1 derivative undefined: b + {i} = {b + i} is a non-positive integer"
            )
        coeff = coeff * dtype(a + i) / dtype(b + i)
    return coeff * kummer_m(a + n, b + n, z, dtype=dtype)
