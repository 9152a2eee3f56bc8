#!/usr/bin/env python3
"""Grid-convergence table for the finite-difference eigensolver.

Reports the lowest truncated-oscillator eigenvalues for a doubling
sequence of grid sizes together with the observed error ratios; the
three-point stencil should show ratios near 4 (second order in h).
x_min is kept tiny because the displaced Dirichlet wall at x_min adds
its own h-independent shift of |psi'(0)|^2 x_min / 2.
"""

from susyq.oracle import Grid, discretize, eigenvalues_low
from susyq.partner import truncated_oscillator_v

EXACT = [1.5, 3.5, 5.5]


def main():
    rows = []
    for n in (500, 1000, 2000, 4000, 8000):
        grid = Grid(x_min=1e-8, x_max=10.0, n=n)
        tri = discretize(truncated_oscillator_v(grid.points), grid)
        levels = eigenvalues_low(tri, len(EXACT))
        rows.append((n, grid.h, [lv - ex for lv, ex in zip(levels, EXACT)]))

    print(f"{'n':>6} {'h':>10}  " + "  ".join(f"err(E{i})" for i in range(len(EXACT)))
          + "   ratio(E0)")
    prev = None
    for n, h, errs in rows:
        ratio = f"{prev / errs[0]:10.2f}" if prev else " " * 10
        print(f"{n:>6} {h:10.2e}  " + "  ".join(f"{e:+.2e}" for e in errs) + ratio)
        prev = errs[0]


if __name__ == "__main__":
    main()
