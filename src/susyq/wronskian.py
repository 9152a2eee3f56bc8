"""Wronskians of seed sets and their analytic logarithmic derivatives.

Each seed carries a factor e^{-x^2/2}, so a k-seed Wronskian carries
e^{-k x^2/2}; at x = 10, k = 8 that is already e^{-400}.  All determinants
are therefore evaluated on Gaussian-stripped tables and kept in
(sign, log|det|) form, with the stripped exponent restored only where it
does not cancel.

Seed tables are in the Kummer frame N_n = h^{(n)} e^{+x^2}, h = u e^{-x^2/2}
(see seeds).  The determinant over orders 0..k-1 is e^{+k x^2/2} W(u) there
as in the plain frame v_n = u^{(n)} e^{+x^2/2}, and so are the bordered and
minor determinants of the states and candidates, so every Gaussian exponent
is unchanged.  But W's matrix stays well conditioned at large x, where the
plain frame's rows grow like (2x)^n and make it nearly rank one.

The partner potential needs (ln W(u))'' = k + (ln W(h))''.  W(h)' and W(h)''
are determinants with shifted orders, and each is W times a read of one LU
of W's matrix M (rows r_0..r_{k-1}, the Kummer-frame orders): replacing M's
last row by r_k gives W(h)'/W(h) = r_k y with y = M^{-1} e_k, and
W(h)''/W(h) = r_{k+1} y - r_k y', y' = M^{-1} e_{k-1}, the second term from
replacing the last two rows by r_{k-1}, r_k.  So

    (ln W(u))'' = k + r_{k+1} y - r_k y' - (r_k y)^2

with no numerical differentiation and no elimination beyond W's own.

WronskianLU factors M once, in place, and keeps the stack; it owns every
read that needs only W: its sign and log, solves against M, y = M^{-1} e_k
(solved once, shared by (ln W)'' and partner.SeedTable's candidates), and
(ln W)'' itself.  It eliminates by partial pivoting in the stack's own
(row, column, point) layout, elementwise over the points, so a point alone
has the same bits as in any batch, and swaps the row permutation alongside
the rows as it pivots.  The elimination runs in the dtype of the stack it
is given: float64 for the seed tables of a plan whose probe showed that
float64 matches longdouble (partner.PartnerPotential.table_dtype),
longdouble (WORK_DTYPE) otherwise; partner.SeedTable decides it, and this
module's own functions always take longdouble.  No seeds is an empty stack,
whose W is 1: sign 1, log 0, (ln W)'' = 0.  Every read of points here, W
itself included, is one WronskianLU of a Kummer-frame table, and takes x > 0
through seeds.half_line.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularWronskianError
from .seeds import as_float, half_line, in_point_blocks, kummer_frame

WORK_DTYPE = np.longdouble

# |W| below this is treated as an exact zero of the transformation
SINGULAR_FLOOR = 1e-300


class WronskianLU:
    """W's matrix M = [v_i of function j] (i = 0..k-1) of a stack, factored once at every point.

    sign and log are det M in (sign, log|det|) form; solve(b) is M^{-1} b by
    two triangular solves against the held factors.  The stack is kept, and
    its orders 0..k-1 are factored in place, as scipy's overwrite_a does: a
    caller hands over a stack that nothing else reads there (a fresh table
    or a copy).  Orders k and k+1, which log_w_second_deriv reads, are never
    written.

    The factors come from LU with partial pivoting, which works for any float
    dtype, unlike LAPACK.  It eliminates in the stack's own (row, column,
    point) layout, so every slice is contiguous over the points, a block of
    points at a time (seeds.in_point_blocks), so its temporaries are of a
    block's size.
    Columns are equilibrated by their max modulus first (tracked in the log)
    so pivot selection is not skewed by the x^n growth of higher derivative
    rows.  At every point M[perm] / colscale = L U: _lu holds U on and above
    the diagonal and L's multipliers below it, and _perm, the row order, is
    swapped alongside the rows at each pivot.  A column on which no point of
    the block pivots skips the swap and its copies; that is a test of the
    data, so a point alone still takes the same steps as in any batch.
    """

    def __init__(self, stack):
        self.stack = stack
        k, shape = stack.shape[1], stack.shape[2:]
        npts = math.prod(shape)  # reshape(0, 0, -1) cannot count the points
        a = stack[:k].reshape(k, k, npts)  # the elimination runs in place
        sign = np.ones(npts, dtype=a.dtype)
        logd = np.zeros(npts, dtype=a.dtype)
        colscale = np.empty((k, npts), dtype=a.dtype)
        perm = np.repeat(np.arange(k)[:, None], npts, axis=1)
        cols = np.arange(npts)
        in_point_blocks(_eliminate, a[..., :1].nbytes, (a, colscale, perm, sign, logd), cols)
        self.sign, self.log = sign.reshape(shape), logd.reshape(shape)
        self._lu, self._colscale, self._perm, self._cols = a, colscale, perm, cols
        self._last = None

    def solve(self, b):
        """M^{-1} b at every point, in the factors' dtype; b has shape (k,) + the points' shape."""
        k, npts = self._lu.shape[1:]
        b = np.asarray(b, dtype=self._lu.dtype)
        # (P b)[i] = b[perm[i]], a copy
        return self._substitute(b.reshape(k, npts)[self._perm, self._cols]).reshape(b.shape)

    def _substitute(self, y):
        """M^{-1} b from y = P b, shape (k, points): two triangular solves in place, then the column scales."""
        lu = self._lu
        k = lu.shape[1]
        # column-oriented substitutions: elementwise over the points, so no value depends on its batch
        for j in range(k - 1):
            y[j + 1 :] -= lu[j + 1 :, j] * y[j]
        for j in range(k - 1, -1, -1):
            y[j] /= lu[j, j]
            y[:j] -= lu[:j, j] * y[j]
        y /= self._colscale
        return y

    @property
    def last(self):
        """y = M^{-1} e_k, solved once: (ln W)'' and every candidate read it, whichever comes first."""
        if self._last is None:
            self._last = self._solve_unit(self.stack.shape[1])
        return self._last

    def _solve_unit(self, j):
        """M^{-1} e_j (1-based) at every point; P e_j, built directly, is exact in the factors' dtype."""
        y = (self._perm == j - 1).astype(self._lu.dtype)  # (P e_j)[i] = 1 where perm[i] = j - 1
        return self._substitute(y).reshape(self.stack.shape[1:])

    def log_w_second_deriv(self, x):
        """(ln W)'' on the stack's points x, which the stack holds to order k + 1.

        With y = M^-1 e_k and y' = M^-1 e_{k-1}, and r_n the stack's order-n row:

            (ln W)'' = k + r_{k+1} y - r_k y' - (r_k y)^2

        Raises SingularWronskianError where W vanishes or |W| falls below SINGULAR_FLOOR.
        """
        stack = self.stack
        k = stack.shape[1]
        true_log = self.log - k * np.asarray(x, dtype=self.log.dtype) ** 2 / 2
        bad = (self.sign == 0) | (true_log < np.log(SINGULAR_FLOOR))
        if np.any(bad):
            where = np.asarray(x)[np.atleast_1d(bad)] if np.ndim(x) else x
            raise SingularWronskianError(f"Wronskian vanishes near x = {where}")
        w1 = _dot(stack[k], self.last)  # W'/W in the Kummer frame
        w2 = _dot(stack[k + 1], self.last)  # W''/W: one bordered determinant ...
        if k >= 2:  # ... and, replacing two rows, -r_k y'
            w2 -= _dot(stack[k], self._solve_unit(k - 1))
        return as_float(k + w2 - w1 * w1)


def _eliminate(a, colscale, perm, sign, logd, cols):
    """WronskianLU's elimination of one block of points in place: a is (k, k, points), the rest per point.

    cols is np.arange of at least the block's points.
    """
    k, npts = a.shape[1:]
    cols = cols[:npts]
    # max |a| with no np.abs copy; the initial 0 changes no column and lets k = 0 reduce
    np.maximum(a.max(axis=0, initial=0), -a.min(axis=0, initial=0), out=colscale)
    zero_col = colscale == 0
    sign[zero_col.any(axis=0)] = 0
    colscale[zero_col] = 1
    a /= colscale
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(k):  # column by column: sum(axis=0) orders its adds by batch size
            logd += np.log(colscale[c])
        for c in range(k):
            piv = np.abs(a[c:, c]).argmax(axis=0) + c
            swap = piv != c
            if swap.any():  # on the data, never the batch size: a point alone pivots as in any batch
                sign[swap] = -sign[swap]
                tmp, tmp_perm = a[piv, :, cols], perm[piv, cols]  # copies, as advanced indexing makes
                a[piv, :, cols], perm[piv, cols] = a[c].T, perm[c]
                a[c], perm[c] = tmp.T, tmp_perm
            p = a[c, c]
            sign *= np.sign(p)
            logd += np.log(np.abs(p))
            if c + 1 < k:
                f = a[c + 1 :, c]  # L's multipliers, written in place
                np.divide(f, p, out=f)
                f[:, p == 0] = 0
                a[c + 1 :, c + 1 :] -= f[:, None] * a[c, c + 1 :]
    logd[sign == 0] = -np.inf


def scaled_stack(seeds, x, max_order, dtype=WORK_DTYPE):
    """Kummer-frame table N_n = h^(n) e^{+x^2}, h = u e^{-x^2/2}, n = 0..max_order.

    Shape (max_order+1, len(seeds)) + x.shape.  All seeds come from one
    batched evaluation, a single kummer_m call, which sums in dtype too.
    """
    return kummer_frame(seeds, x, max_order, dtype=dtype)


def sign_log_det_orders(stack, orders):
    """(sign, log) of det[ v_{orders[i]} of func j ] from a precomputed stack."""
    if len(orders) != stack.shape[1]:
        raise ValueError("need as many derivative orders as functions")
    if list(orders) != sorted(set(orders)):
        raise ValueError("derivative orders must be strictly increasing")
    lu = WronskianLU(stack[list(orders)])  # a copy, whose rows are the orders 0..k-1 of their own stack
    return lu.sign, lu.log


def wronskian(seeds, x):
    """W(u_1, ..., u_k)(x), Gaussian factor included; the empty Wronskian is 1.

    One WronskianLU of the Kummer-frame table over orders 0..k-1, whose
    determinant is e^{+k x^2/2} W(u).  Where |W| is beyond float64's range
    it is inf with W's sign, and no warning.
    """
    x = half_line(x)
    k = len(seeds)
    lu = WronskianLU(scaled_stack(seeds, x, max(k - 1, 0)))
    with np.errstate(over="ignore"):  # the exp, or the cast to float64, past their range
        return as_float(lu.sign * np.exp(lu.log - k * np.asarray(x, dtype=WORK_DTYPE) ** 2 / 2))


def wronskian_minor(seeds, j: int, x):
    """Wronskian of the seed set with the j-th seed (1-based) deleted."""
    k = len(seeds)
    if not 1 <= j <= k:
        raise IndexError(f"seed index {j} outside 1..{k}")
    return wronskian([s for i, s in enumerate(seeds, start=1) if i != j], x)


def _dot(row, y):
    """sum_j row[j] y[j] at every point, in y's dtype and increasing j, so no value depends on its batch."""
    total = np.full(y.shape[1:], -0.0, dtype=y.dtype)  # -0.0 + t is t, bitwise
    for r_j, y_j in zip(row, y):
        total += r_j * y_j
    return total


def log_w_second_deriv(seeds, x):
    """(d^2/dx^2) ln|W(u_1, ..., u_k)| evaluated analytically; W is factored once, nothing is kept.

    The seed table and W's elimination run in longdouble, whatever the
    plan's probe would choose (partner.SeedTable).
    """
    x = half_line(x)
    return WronskianLU(scaled_stack(seeds, x, len(seeds) + 1)).log_w_second_deriv(x)
