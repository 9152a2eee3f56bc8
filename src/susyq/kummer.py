"""Confluent hypergeometric function 1F1(a, b; z) for real parameters.

The direct Taylor series

    1F1(a, b; z) = sum_n (a)_n / (b)_n * z^n / n!

has all terms of one sign (beyond the first few) for z >= 0 and real a,
so it is summed directly there; for z < 0 the alternating series is
catastrophically ill-conditioned and the Kummer reflection
1F1(a, b; z) = e^z * 1F1(b - a, b; -z) is applied instead.  Both M and
z M' are read there from the one series at (b - a, b + 1; w), w = -z:
M = e^z [M(b - a, b + 1, w) + w M'(b - a, b + 1, w) / b] and
z M' = z (a / b) e^z M(b - a, b + 1, w), a product with nothing to cancel.

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

A call with at most FOLD_ENTRIES live entries (a point query) sums a slab
of several BLOCK-term blocks at once: np.multiply.accumulate and
np.add.accumulate fold it down the term axis, a few numpy calls a slab.  A
slab runs from the first unsummed term to about where the largest live z
stops, z + 10 sqrt(z) terms (past the peak near n ~ z the terms fall like a
Poisson tail), holds at most CHUNK values and ends by TERM_CAP.  The stop
rule is then tested at all of the slab's block ends in one pass, each entry
stopping at the first block end it passes; its terms past that are
discarded.  A wider call (a grid table) steps term by term through one
block, a few numpy calls a term, because accumulate along an axis costs
several times an elementwise pass per element, and hands that block to the
same test as a slab of one.  Accumulate is the sequential loop, so both
ways make the same products and adds in the same order and stop every
entry at the same block end with the same bits.  The test is skipped while
the slab's last n is below every live z and no live term is zero, since
then it would stop no entry.

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

import math

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

TERM_CAP = 10_000
BLOCK = 16  # terms between two convergence tests of the live entries
CHUNK = 1 << 14  # most ratio * z values held at once, 256 kB in longdouble
# most live entries folded in slabs.  Timed against the term loop on calls of 3 rows, the fold
# loses from about 250 entries in float64 and 400 in longdouble when every entry stops in its first
# block (z <= 1), and from about 450 and 250-300 with z = x^2 spread up to 90 (x < 9.5)
FOLD_ENTRIES = 192


def _is_nonpositive_int(v: float) -> bool:
    return v <= 0 and float(v) == int(v)


def _require_finite(**args):
    """Reject a non-finite value of any argument, which no series could sum."""
    for name, v in args.items():
        if not np.isfinite(v).all():
            raise InvalidParameterError(f"1F1 undefined for a non-finite {name}")


def _slab_blocks(start, zmax, entries):
    """Blocks of the next slab: to where the largest live z stops, within CHUNK values and TERM_CAP."""
    # terms decay past the peak near n ~ z like a Poisson tail, below 1e-19 of the sum by about
    # n = z + 10 sqrt(z); a smaller slab only costs a second one, a larger one only terms
    reach = int(zmax + 10 * math.sqrt(zmax)) - start
    return max(1, min(reach // BLOCK + 1, CHUNK // (BLOCK * entries), (TERM_CAP - start) // BLOCK))


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
    zmin = zs.min(initial=np.inf)  # below it no live entry can pass the test but by a zero term
    ends = slice(BLOCK - 1, None, BLOCK)  # a slab's block ends, by term
    start = 0
    while pos.size and start < TERM_CAP:
        fold = pos.size <= FOLD_ENTRIES
        blocks = _slab_blocks(start, zs.max(), pos.size) if fold else 1
        ns = np.arange(start, start + BLOCK * blocks, dtype=work)
        start += ns.size
        weights = ns + 1
        # (a + n) / ((b + n)(n + 1)) by term, row: t_{n+1} = t_n * ratio * z
        ratios = (a + ns[:, None]) / ((b + ns[:, None]) * weights[:, None])
        if fold:
            # the slab's steps as left folds down axis 0 (accumulate is the sequential loop), so
            # the same products and adds in the same order as the loop below: the terms, then
            # total and z M' with the running sums added into row 0
            terms = ratios.take(row, axis=1) * zs
            terms[0] *= term
            np.multiply.accumulate(terms, axis=0, out=terms)
            totals = terms.copy()
            totals[0] += total
            zderivs = weights[:, None] * terms
            zderivs[0] += zderiv
            np.add.accumulate(totals, axis=0, out=totals)
            np.add.accumulate(zderivs, axis=0, out=zderivs)
            terms, totals, zderivs = terms[ends], totals[ends], zderivs[ends]
        else:
            # ratio * z by term and entry, a few terms at a time so that this stays under CHUNK
            # values
            step = max(1, CHUNK // pos.size)
            for first in range(0, BLOCK, step):
                factors = ratios[first : first + step].take(row, axis=1) * zs
                for factor, weight in zip(factors, weights[first:]):
                    term *= factor
                    total += term
                    zderiv += weight * term
            terms, totals, zderivs = term[None], total[None], zderiv[None]
        term, total, zderiv = terms[-1], totals[-1], zderivs[-1]
        if ns[-1] < zmin and term.all():  # the test below would stop no entry
            continue
        # every block end of the slab at once; an entry stops at the first one it passes
        n = ns[ends, None]
        mag = np.abs(terms)
        done = (terms == 0) | ((n >= zs) & (mag <= tol * np.abs(totals))
                               & ((n + 1) * mag <= tol * np.abs(zderivs)))
        stop = done.any(axis=0)
        stopped = np.flatnonzero(stop)
        if stopped.size:
            # that block end as an index into the raveled (block end, entry) arrays; argmax down
            # axis 0 costs about 8 ns a column, which a slab of one block (a grid's) need not pay
            at = stopped + stop.size * done[:, stopped].argmax(axis=0) if len(n) > 1 else stopped
            out[0][row[stopped], pos[stopped]] = totals.take(at)
            out[1][row[stopped], pos[stopped]] = zderivs.take(at)
            if stopped.size == stop.size:
                return out
            live = ~stop
            # one array at a time, each old one freed as its compacted copy is made: the block's
            # views of them go first
            del terms, totals, zderivs, mag, done
            row = row[live]
            pos = pos[live]
            zs = zs[live]
            term = term[live]
            total = total[live]
            zderiv = zderiv[live]
            zmin = zs.min(initial=np.inf)
    if pos.size:
        if not np.isfinite(total).all():  # e^z alone passes the dtype's range from z = 709 (11356)
            raise ConvergenceError(f"1F1 series beyond the range of {np.dtype(work).name} "
                                   f"(max z={float(zs.max())})")
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
    Raises InvalidParameterError when any of a, b and z is not finite or b is
    a non-positive integer, and ConvergenceError when the series fails to
    meet tolerance or its sum passes the range of work or dtype.
    """
    rows = np.ndim(a) > 0 or np.ndim(b) > 0
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    z = np.asarray(z, dtype=dtype)
    _require_finite(a=a, b=b, z=z)
    for v in b:
        if _is_nonpositive_int(v):
            raise InvalidParameterError(f"1F1 undefined for b = {v} (non-positive integer)")
    shape = z.shape
    z = z.ravel()
    tol = np.finfo(dtype).eps
    neg = z < 0
    # a sum beyond the range of work or dtype overflows without a warning and is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        if not neg.any():
            out = _rows(a, b, z, tol, work)
        else:
            out = np.empty((2, a.size, z.size), dtype=work)
            # M(a, b, z) = e^z M(b - a, b, w) with w = -z, from one series at b + 1, as b_ladder's
            # top step: M(b - a, b, w) = M(b - a, b + 1, w) + w M'(b - a, b + 1, w) / b.  And
            # z M'(a, b, z) = z (a / b) M(a + 1, b + 1, z) = z (a / b) e^z M(b - a, b + 1, w), a
            # product, where z M + e^z (w M')(b - a, b, w) would cancel
            aw, bw = a.astype(work), b.astype(work)
            zw = z[neg].astype(work)
            m, wm = _rows(bw - aw, bw + 1, -zw, tol, work)
            ez = np.exp(zw)
            out[0][:, neg] = ez * (m + wm / bw[:, None])
            out[1][:, neg] = zw * ez * (aw / bw)[:, None] * m
            pos = ~neg
            if pos.any():
                out[:, :, pos] = _rows(a, b, z[pos], tol, work)
        for kind in (work, dtype):  # summed in work, rounded once to dtype
            out = out.astype(kind, copy=False)
            if not np.isfinite(out if zderiv else out[0]).all():  # z M' passes M's range first
                raise ConvergenceError(f"1F1 beyond the range of {np.dtype(kind).name}")
    out = out.reshape((2,) + a.shape + shape)
    if not rows:
        out = out[:, 0]
        if not shape and dtype is np.float64:
            out = [float(v) for v in out]
    return tuple(out) if zderiv else out[0]


def ladder_steps(a, b, top):
    """b_ladder's factors, which depend on the parameters alone: B - 1 and (B - a) / B, B = b + 1..b + top."""
    shift = np.arange(top).reshape((-1,) + (1,) * np.ndim(b)) + 1  # B = b + shift
    return b + shift - 1, (b + shift - a) / (b + shift)


def b_ladder(z, m_top, zm_top, steps, ladder):
    """[M(a, b + m; z) for m = 0..top] from M(a, b + top; z) and z M'(a, b + top; z).

    steps is ladder_steps(a, b, top), whose factors broadcast against m_top
    and zm_top (for rows: shape (top, rows, 1) against (rows, points));
    b + top - 1 must be positive.  The ladder is written into ladder, of
    shape (top + 1,) + m_top's, and returned.  Termwise,
    (B)_n / (B - 1)_n = 1 + n / (B - 1), so M(a, B - 1) = M(a, B) + z M'(a, B) / (B - 1);
    below that the contiguous relation (DLMF 13.3.2)

        M(a, B - 1) = ((B - 1 + z) M(a, B) - z (B - a) / B M(a, B + 1)) / (B - 1)

    runs downward, the direction in which it is stable for z >= 0.
    """
    below, cross = steps
    top = len(below)
    ladder[top] = m_top
    if top:
        ladder[top - 1] = m_top + zm_top / below[top - 1]
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
    _require_finite(a=a, b=b)
    coeff = dtype(1)
    for i in range(n):
        if _is_nonpositive_int(b + i):
            raise InvalidParameterError(
                f"1F1 derivative undefined: b + {i} = {float(b + i)} is a non-positive integer"
            )
        coeff = coeff * dtype(a + i) / dtype(b + i)
    return coeff * kummer_m(a + n, b + n, z, dtype=dtype)
