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

    t_{n+1} = t_n * z * (a + n) / ((b + n)(n + 1)),

the ratio taken once per row and term.  The same loop also sums
z M'(a, b; z) = sum_n n t_n, so a derivative costs no second series and
sees exactly the a and b of M.  Each entry stops on its own: at the first
multiple of BLOCK terms where n >= z (terms only decay monotonically past
the series peak near n ~ z) and both |t| <= eps |M| and n |t| <= eps |z M'|,
or where its term is an exact zero.  Stopped entries leave the loop, so
every value depends on its own (a, b, z) alone, bitwise, and never on the
other rows or points of the call.

For negative non-integer a the first few terms still alternate and can
tower over a small result (a = -5.3, z = 16 peaks near 1e4 on a value of
0.5), so by default summation runs in extended precision and rounds once
at the end, whatever the output dtype.  Seed frames (seeds.kummer_frame)
pass work=dtype: longdouble, or float64 for a seed table whose plan passed
partner's float64 probe.

Terminating cases (a a non-positive integer) are exact up to rounding:
the term recurrence hits an exact zero and the sum is the polynomial value.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

TERM_CAP = 10_000
BLOCK = 16  # terms between two convergence tests of the live entries
CHUNK = 1 << 14  # most ratio * z values held at once, 256 kB in longdouble


def _is_nonpositive_int(v: float) -> bool:
    return v <= 0 and float(v) == int(v)


def _rows(a, b, z, tol, work):
    """Sum the series for rows (a, b) at points z >= 0: (M, z M'), a (2, rows, points) array of dtype work.

    z M' = sum_n n t_n comes from the same terms, so both sums see the exact a.
    Accumulation happens in work whatever the target dtype; the tolerance tol
    (hence the term count) still follows the target.
    """
    a = np.asarray(a, dtype=work)
    b = np.asarray(b, dtype=work)
    z = np.asarray(z, dtype=work)
    out = np.empty((2, a.size, z.size), dtype=work)
    # the live entries, flattened: row, point, z, current term and both sums
    row = np.repeat(np.arange(a.size), z.size)
    pos = np.tile(np.arange(z.size), a.size)
    zs = z[pos]
    term = np.ones(pos.size, dtype=work)
    total = np.ones(pos.size, dtype=work)
    zderiv = np.zeros(pos.size, dtype=work)
    offsets = a.size * np.arange(BLOCK)[:, None]  # of each term's rows in the raveled ratios
    for start in range(0, TERM_CAP, BLOCK):
        if not pos.size:
            break
        ns = np.arange(start, start + BLOCK)
        terms = ns[:, None]
        # (a + n) / ((b + n)(n + 1)) by term, row: t_{n+1} = t_n * ratio * z
        ratios = ((a + terms) / ((b + terms) * (terms + 1))).ravel()
        weights = (ns + 1).astype(work)
        # ratio * z by term and entry, a few terms at a time so that this stays under CHUNK values;
        # one flat gather of the raveled [term, row] table, which a 2-D fancy index costs twice
        step = max(1, CHUNK // pos.size)
        for first in range(0, BLOCK, step):
            factors = ratios.take(offsets[first : first + step] + row) * zs
            for factor, weight in zip(factors, weights[first:]):
                term *= factor
                total += term
                zderiv += weight * term
        n = ns[-1]
        mag = np.abs(term)
        done = (term == 0) | ((n >= zs) & (mag <= tol * np.abs(total))
                              & ((n + 1) * mag <= tol * np.abs(zderiv)))
        if done.any():
            out[0, row[done], pos[done]] = total[done]
            out[1, row[done], pos[done]] = zderiv[done]
            live = ~done
            row, pos, zs = row[live], pos[live], zs[live]
            term, total, zderiv = term[live], total[live], zderiv[live]
    if pos.size:
        raise ConvergenceError(
            f"1F1 series did not converge within {TERM_CAP} terms "
            f"(a={float(a[row[0]])}, b={float(b[row[0]])}, max z={float(zs.max())})"
        )
    return out


def kummer_m(a, b, z, dtype=np.float64, zderiv=False, work=np.longdouble):
    """Evaluate 1F1(a, b; z) for real a, b and real z (scalar or array).

    a and b may also be 1-D arrays of rows: the result then has shape
    (rows,) + z.shape, row r holding 1F1(a[r], b[r]; z), from one term loop.
    With zderiv the result is the pair (M, z M'), z M' = z d/dz 1F1 summed
    from the same terms.  The series accumulates in work (extended precision
    unless a caller asks for its output dtype) and rounds once to dtype.
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
    neg = z < 0
    if not neg.any():
        out = _rows(a, b, z, tol, work).astype(dtype, copy=False)
    else:
        out = np.empty((2, a.size, z.size), dtype=dtype)
        # M(a, b, z) = e^z M(b - a, b, w) with w = -z, so z M'(a, b, z) = z M + e^z (w M')(b - a, b, w)
        m, wm = np.exp(z[neg]) * _rows(b - a, b, -z[neg], tol, work)
        out[0][:, neg] = m
        out[1][:, neg] = z[neg] * m + wm
        pos = ~neg
        if pos.any():
            out[:, :, pos] = _rows(a, b, z[pos], tol, work)
    out = out.reshape((2,) + a.shape + shape)
    if not rows:
        out = out[:, 0]
        if not shape and dtype is np.float64:
            out = [float(v) for v in out]
    return tuple(out) if zderiv else out[0]


def b_ladder(a, b, z, m_top, zm_top, top):
    """[M(a, b + m; z) for m = 0..top] from M(a, b + top; z) and z M'(a, b + top; z).

    a and b broadcast against m_top and zm_top (for rows: shape (rows, 1)
    against (rows, points)); b + top - 1 must be positive.  Termwise,
    (B)_n / (B - 1)_n = 1 + n / (B - 1), so M(a, B - 1) = M(a, B) + z M'(a, B) / (B - 1);
    below that the contiguous relation (DLMF 13.3.2)

        M(a, B - 1) = ((B - 1 + z) M(a, B) - z (B - a) / B M(a, B + 1)) / (B - 1)

    runs downward, the direction in which it is stable for z >= 0.
    """
    ladder = np.empty((top + 1,) + np.shape(m_top), dtype=np.result_type(m_top, zm_top))
    ladder[top] = m_top
    if top:
        ladder[top - 1] = m_top + zm_top / (b + top - 1)
    shift = np.arange(top - 1).reshape((-1,) + (1,) * np.ndim(b)) + 1  # B = b + shift
    below = b + shift - 1
    cross = (b + shift - a) / (b + shift)
    for m in range(top - 1, 0, -1):
        step = (below[m - 1] + z) * ladder[m]
        step -= cross[m - 1] * z * ladder[m + 1]
        np.divide(step, below[m - 1], out=ladder[m - 1])
    return ladder


def kummer_m_deriv(a: float, b: float, z, n: int = 1, dtype=np.float64):
    """n-th derivative of 1F1 with respect to z.

    Uses d^n/dz^n 1F1(a,b;z) = [(a)_n / (b)_n] 1F1(a+n, b+n; z), with the
    shifted parameters formed in extended precision, so b, b+1, ..., b+n-1
    must all avoid the non-positive integers.
    """
    if n < 0:
        raise InvalidParameterError("derivative order must be non-negative")
    a, b = np.longdouble(a), np.longdouble(b)
    coeff = dtype(1)
    for i in range(n):
        if _is_nonpositive_int(b + i):
            raise InvalidParameterError(
                f"1F1 derivative undefined: b + {i} = {float(b + i)} is a non-positive integer"
            )
        coeff = coeff * dtype(a + i) / dtype(b + i)
    return coeff * kummer_m(a + n, b + n, z, dtype=dtype)
