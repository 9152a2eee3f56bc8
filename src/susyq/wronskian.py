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

with no numerical differentiation and no elimination beyond W's own.  The
elimination kernel runs in the dtype of the table it is given: longdouble
(WORK_DTYPE) by default, float64 for the seed tables of a plan whose probe
showed that float64 matches longdouble (partner.PartnerPotential.table_dtype).
It also returns its factors, and WronskianLU keeps those of M for these
solves and for partner.SeedTable's states and candidates, in the same dtype.

det_orders takes any increasing orders, so beyond W's own it works on the
plain frame, whose shifted-order determinants are the derivatives of W(u).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularWronskianError
from .seeds import derivatives as seed_derivatives
from .seeds import kummer_frame

WORK_DTYPE = np.longdouble

# |W| below this is treated as an exact zero of the transformation
SINGULAR_FLOOR = 1e-300


def _lu_batch(mats):
    """(sign, log|det|, (lu, colscale, pivots)) of a (..., k, k) stack by LU with partial pivoting.

    Columns are equilibrated by their max modulus first (tracked in the
    log) so pivot selection is not skewed by the x^n growth of higher
    derivative rows.  Works for any float dtype, unlike LAPACK.  Overwrites
    mats where reshaping it to (points, k, k) is a view.  The factors, with
    points flattened to the leading axis, satisfy P (mats / colscale) = L U:
    lu holds U on and above the diagonal and L's multipliers below it, and
    pivots[c] is the row swapped with row c at step c.
    """
    *lead, k, _ = mats.shape
    a = mats.reshape(-1, k, k)
    npts = a.shape[0]
    dt = a.dtype
    sign = np.ones(npts, dtype=dt)
    logd = np.zeros(npts, dtype=dt)

    colscale = np.maximum(a.max(axis=1), -a.min(axis=1))  # max |a| with no np.abs copy
    zero_col = colscale == 0
    sign[zero_col.any(axis=1)] = 0
    colscale[colscale == 0] = 1
    a /= colscale[:, None, :]
    with np.errstate(divide="ignore"):
        for c in range(k):  # column by column: sum(axis=1) orders its adds by batch size
            logd += np.log(colscale[:, c])

    rows = np.arange(npts)
    pivots = []
    for c in range(k):
        piv = np.abs(a[:, c:, c]).argmax(axis=1) + c
        pivots.append(piv)
        swap = piv != c
        sign[swap] = -sign[swap]
        tmp = a[rows, piv].copy()
        a[rows, piv] = a[:, c]
        a[:, c] = tmp
        p = a[:, c, c]
        sign = sign * np.sign(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            logd += np.log(np.abs(p))
            if c + 1 < k:
                f = a[:, c + 1 :, c]  # L's multipliers, written in place
                np.divide(f, p[:, None], out=f)
                f[p == 0] = 0
                a[:, c + 1 :, c + 1 :] -= f[:, :, None] * a[:, None, c, c + 1 :]
    logd[sign == 0] = -np.inf
    return sign.reshape(lead), logd.reshape(lead), (a, colscale, pivots)


class WronskianLU:
    """W's matrix M = [v_i of function j] (i = 0..k-1) of a stack, factored once at every point.

    sign and log are det M as sign_log_det_orders(stack, range(k)) gives them,
    bitwise; solve(b) is M^{-1} b by two triangular solves against the held
    factors.  The stack itself is never written.
    """

    def __init__(self, stack):
        k = stack.shape[1]
        # stack[list(...)] is a copy; the elimination runs in place and must not reach the stack
        mats = np.moveaxis(stack[list(range(k))], (0, 1), (-2, -1))
        self.sign, self.log, (lu, colscale, self._pivots) = _lu_batch(mats)
        # (row, column, point) layout: every slice below is contiguous over the points
        self._lu, self._colscale = np.moveaxis(lu, 0, -1), colscale.T
        self._perm = None

    def solve(self, b):
        """M^{-1} b at every point, in the factors' dtype; b has shape (k,) + the points' shape."""
        lu = self._lu
        k, npts = lu.shape[1:]
        if self._perm is None:  # compose the row swaps once: (P b)[i] = b[perm[i]]
            perm = np.repeat(np.arange(k)[:, None], npts, axis=1)
            cols = np.arange(npts)
            for c, piv in enumerate(self._pivots):
                tmp = perm[piv, cols].copy()
                perm[piv, cols] = perm[c]
                perm[c] = tmp
            self._perm = perm
        b = np.asarray(b, dtype=lu.dtype)
        y = np.take_along_axis(b.reshape(k, npts), self._perm, axis=0)
        # column-oriented substitutions: elementwise over the points, so no value depends on its batch
        for j in range(k - 1):
            y[j + 1 :] -= lu[j + 1 :, j] * y[j]
        for j in range(k - 1, -1, -1):
            y[j] /= lu[j, j]
            y[:j] -= lu[:j, j] * y[j]
        y /= self._colscale
        return y.reshape(b.shape)


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("Wronskian evaluation requires x > 0")
    return x


def scaled_stack(seeds, x, max_order, dtype=WORK_DTYPE):
    """Kummer-frame table N_n = h^(n) e^{+x^2}, h = u e^{-x^2/2}, n = 0..max_order.

    Shape (max_order+1, len(seeds)) + x.shape.  All seeds come from one
    batched evaluation, a single kummer_m call, which sums in dtype too.
    """
    return kummer_frame(seeds, x, max_order, dtype=dtype, work=dtype)


def sign_log_det_orders(stack, orders):
    """(sign, log) of det[ v_{orders[i]} of func j ] from a precomputed stack."""
    k = stack.shape[1]
    if len(orders) != k:
        raise ValueError("need as many derivative orders as functions")
    if list(orders) != sorted(set(orders)):
        raise ValueError("derivative orders must be strictly increasing")
    if k == 0:
        shape = stack.shape[2:]
        return np.ones(shape), np.zeros(shape)
    # stack axes: (order, func, *pts) -> (*pts, row=order, col=func); sel is a fresh copy
    sel = stack[list(orders)]
    mats = np.moveaxis(sel, (0, 1), (-2, -1))
    sign, logd, _ = _lu_batch(mats)
    return sign, logd


def det_orders(seeds, orders, x):
    """Determinant with rows u_j^{(orders[i])}(x), Gaussian factor included.

    W itself (orders 0..k-1) is taken over the Kummer frame, which has the
    same determinant and keeps it well conditioned at large x; any other
    orders over the seeds' own (Gaussian-stripped) derivatives.
    """
    x = _check_domain(x)
    orders = list(orders)
    if orders == list(range(len(seeds))):
        stack = scaled_stack(seeds, x, max(orders, default=0))
    else:
        stack = seed_derivatives(seeds, x, max(orders, default=0), dtype=WORK_DTYPE)
    sign, logd = sign_log_det_orders(stack, orders)
    k = len(seeds)
    val = sign * np.exp(logd - k * np.asarray(x, dtype=WORK_DTYPE) ** 2 / 2)
    val = np.asarray(val, dtype=float)
    return float(val) if val.ndim == 0 else val


def wronskian(seeds, x):
    """W(u_1, ..., u_k)(x); the empty Wronskian is 1."""
    k = len(seeds)
    if k == 0:
        x = _check_domain(x)
        return 1.0 if x.ndim == 0 else np.ones_like(x)
    return det_orders(seeds, list(range(k)), x)


def wronskian_minor(seeds, j: int, x):
    """Wronskian of the seed set with the j-th seed (1-based) deleted."""
    k = len(seeds)
    if not 1 <= j <= k:
        raise IndexError(f"seed index {j} outside 1..{k}")
    return wronskian([s for i, s in enumerate(seeds, start=1) if i != j], x)


def log_w_second_deriv_stack(stack, lu, x, last=None):
    """(ln W)'' on x from a Kummer-frame stack (orders 0..k+1 of k seeds) and W's factors lu there.

    With y = M^-1 e_k (last, when the caller holds it) and y' = M^-1 e_{k-1}
    against W's matrix M, and r_n the stack's order-n row:

        (ln W)'' = k + r_{k+1} y - r_k y' - (r_k y)^2

    Raises SingularWronskianError where W vanishes or |W| falls below SINGULAR_FLOOR.
    """
    k = stack.shape[1]
    true_log = lu.log - k * np.asarray(x, dtype=lu.log.dtype) ** 2 / 2
    bad = (lu.sign == 0) | (true_log < np.log(SINGULAR_FLOOR))
    if np.any(bad):
        where = np.asarray(x)[np.atleast_1d(bad)] if np.ndim(x) else x
        raise SingularWronskianError(f"Wronskian vanishes near x = {where}")
    if last is None:
        last = lu.solve(unit_rhs(k, k, np.shape(x)))
    w1 = _dot(stack[k], last)  # W'/W in the Kummer frame
    w2 = _dot(stack[k + 1], last)  # W''/W: one bordered determinant ...
    if k >= 2:  # ... and, replacing two rows, -r_k y'
        w2 -= _dot(stack[k], lu.solve(unit_rhs(k, k - 1, np.shape(x))))
    result = np.asarray(k + w2 - w1 * w1, dtype=float)
    return float(result) if result.ndim == 0 else result


def unit_rhs(k, j, shape):
    """e_j (1-based) at every point: shape (k,) + shape; exact in any dtype, which solve casts it to."""
    e = np.zeros((k,) + shape)
    e[j - 1] = 1
    return e


def _dot(row, y):
    """sum_j row[j] y[j] at every point, in increasing j, so no value depends on its batch."""
    total = row[0] * y[0]
    for r_j, y_j in zip(row[1:], y[1:]):
        total = total + r_j * y_j
    return total


def log_w_second_deriv(seeds, x, dtype=WORK_DTYPE):
    """(d^2/dx^2) ln|W(u_1, ..., u_k)| evaluated analytically; W is factored once, nothing is kept.

    The seed table and W's elimination run in dtype.
    """
    x = _check_domain(x)
    k = len(seeds)
    if k == 0:
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    stack = scaled_stack(seeds, x, k + 1, dtype=dtype)
    return log_w_second_deriv_stack(stack, WronskianLU(stack), x)
