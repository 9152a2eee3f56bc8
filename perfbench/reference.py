"""Reference values that the benchmark computes without calling susyq.

Seed solutions through mpmath's hyp1f1, Wronskian determinants at 40
digits, and eigenvalues of the three-point discretization through LAPACK
(scipy.linalg.eigh_tridiagonal).  Imported only for the output checks, after
the timed loop.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

mp.mp.dps = 40

# --- mpmath values ----------------------------------------------------------

def _seed_column(e, parity, x, top):
    """[u, u', ..., u^(top)] of the seed e^{-x^2/2} x^{(1-P)/2} 1F1(a, b; x^2) at x."""
    x = mp.mpf(x)
    e = mp.mpf(e)
    z = x * x
    g = mp.exp(-z / 2)
    if parity == 1:
        a, b = (1 - 2 * e) / 4, mp.mpf(1) / 2
        m, mp1 = mp.hyp1f1(a, b, z), a / b * mp.hyp1f1(a + 1, b + 1, z)
        col = [g * m, g * x * (2 * mp1 - m)]
    else:
        a, b = (3 - 2 * e) / 4, mp.mpf(3) / 2
        m, mp1 = mp.hyp1f1(a, b, z), a / b * mp.hyp1f1(a + 1, b + 1, z)
        col = [g * x * m, g * (m + 2 * z * mp1 - z * m)]
    return _extend(col, e, x, top)


def _extend(col, e, x, top):
    """Higher derivatives from u'' = (x^2 - 2e) u, differentiated n times."""
    z = x * x
    for n in range(top - 1):
        nxt = (z - 2 * e) * col[n]
        if n >= 1:
            nxt += 2 * n * x * col[n - 1]
        if n >= 2:
            nxt += n * (n - 1) * col[n - 2]
        col.append(nxt)
    return col[: top + 1]


def _state_column(branch, n, x, top):
    """Derivatives of the half-line-normalized oscillator state sqrt(2) phi_m, m = 2n+1 or 2n."""
    m = 2 * n + (1 if branch == "odd" else 0)
    x = mp.mpf(x)
    norm = mp.sqrt(2) / mp.sqrt(2**m * mp.factorial(m) * mp.sqrt(mp.pi))
    g = mp.exp(-x * x / 2)
    h = mp.hermite(m, x)
    dh = 2 * m * mp.hermite(m - 1, x) if m else 0
    return _extend([norm * g * h, norm * g * (dh - x * h)], mp.mpf(m) + mp.mpf(1) / 2, x, top)


def _det(cols, orders):
    if not cols:
        return mp.mpf(1)
    return mp.det(mp.matrix([[c[o] for c in cols] for o in orders]))


def partner_v(eps, parities, x):
    """x^2/2 - W''/W + (W'/W)^2 with W, W', W'' as 40-digit determinants."""
    k = len(eps)
    x2 = mp.mpf(x) ** 2 / 2
    if k == 0:
        return float(x2)
    cols = [_seed_column(e, p, x, k + 1) for e, p in zip(eps, parities)]
    w = _det(cols, range(k))
    w1 = _det(cols, list(range(k - 1)) + [k])
    w2 = _det(cols, list(range(k - 1)) + [k + 1])
    if k >= 2:
        w2 += _det(cols, list(range(k - 2)) + [k - 1, k])
    return float(x2 - w2 / w + (w1 / w) ** 2)


def added_state(eps, parities, j, x):
    """W(seeds without seed j) / W(seeds)."""
    k = len(eps)
    cols = [_seed_column(e, p, x, k) for e, p in zip(eps, parities)]
    minor = [c for i, c in enumerate(cols, start=1) if i != j]
    return float(_det(minor, range(k - 1)) / _det(cols, range(k)))


def transformed_state(eps, parities, branch, n, x):
    """2^{-k/2} W(seeds, psi_n) / (W(seeds) prod_j sqrt|E_n - eps_j|), unit norm on (0, inf)."""
    k = len(eps)
    energy = 2 * n + (1.5 if branch == "odd" else 0.5)
    cols = [_seed_column(e, p, x, k) for e, p in zip(eps, parities)]
    num = _det(cols + [_state_column(branch, n, x, k)], range(k + 1))
    scale = mp.sqrt(mp.mpf(2) ** k) * mp.fprod(mp.sqrt(abs(energy - mp.mpf(e))) for e in eps)
    return float(num / (_det(cols, range(k)) * scale))


# --- eigenvalues ------------------------------------------------------------

def lapack_levels(v_grid, h, count):
    """Lowest `count` eigenvalues of -1/2 D2 + V on the three-point stencil with Dirichlet ends."""
    diag = 1.0 / (h * h) + np.asarray(v_grid, dtype=float)
    off = np.full(diag.size - 1, -0.5 / (h * h))
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, count - 1))
