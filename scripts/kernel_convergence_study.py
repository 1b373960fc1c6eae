#!/usr/bin/env python3
"""Grid-refinement study of the kernel solver.

For the closed-form family (f = 0, c1 = r x^2) it tabulates, per lattice
resolution: sup error against the truncated series, the interior PDE
residual at two verification spacings, and the sweep counts: on the finest
lattice and, coarse to fine, on every lattice of the nested solve.  Shows the
fourth-order convergence of the solved values next to the second-order
behaviour of the residual stencils.

A second table adds the source f = 1 + xy to the same family.  There is
no closed form, so it reports self-convergence: the sup difference from
the next coarser lattice on its nodes, up to n_xi = 1601.
"""
import time

import numpy as np

from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep.kernel import GoursatProblem, picard_solve, residual, series_oracle

LAMBDA0 = 10.0
R = 2.0


def per_lattice(grid):
    """Sweeps on each lattice of the nested solve, coarse to fine."""
    return "/".join(map(str, grid.level_sweeps))


def series_table():
    spec = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, R)), lambda0=LAMBDA0)
    prob = GoursatProblem.direct(spec)
    print(f"family: f = 0, c1(x) = {R:g} x^2, lambda0 = {LAMBDA0:g}")
    print(f"{'n_xi':>6} {'sweeps':>7} {'per lattice':>14} {'sup err vs series':>18} "
          f"{'resid(h)':>12} {'resid(2h)':>12} {'ratio':>7} {'time/s':>8}")
    prev_err = None
    for n_xi in (101, 201, 401, 801):
        t0 = time.perf_counter()
        grid = picard_solve(prob, n_xi=n_xi, tol=1e-11, max_iter=80)
        elapsed = time.perf_counter() - t0
        lat = grid.lattice
        XI, ETA = lat.mesh()
        reg = lat.region_mask()
        err = float(np.max(np.abs(
            grid.values_xieta[reg] - series_oracle(LAMBDA0, R, XI[reg], ETA[reg], 30)
        )))
        r1 = residual(grid, prob, h=grid.delta).interior_sup
        r2 = residual(grid, prob, h=2 * grid.delta).interior_sup
        note = "" if prev_err is None else f"  (err ratio {prev_err / err:5.1f})"
        print(f"{n_xi:>6} {grid.iterations_used:>7} {per_lattice(grid):>14} {err:>18.3e} "
              f"{r1:>12.3e} {r2:>12.3e} {r2 / r1:>7.2f} {elapsed:>8.2f}{note}")
        prev_err = err


def source_table():
    spec = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, R), f_poly=((1.0, 0.0), (0.0, 1.0))),
                       lambda0=LAMBDA0)
    prob = GoursatProblem.direct(spec)
    print(f"family: f = 1 + xy, c1(x) = {R:g} x^2, lambda0 = {LAMBDA0:g} (self-convergence)")
    print(f"{'n_xi':>6} {'sweeps':>7} {'per lattice':>14} {'sup |G - G_coarse|':>18} {'ratio':>7} "
          f"{'resid(h)':>12} {'time/s':>8}")
    prev, prev_diff = None, None
    for n_xi in (101, 201, 401, 801, 1601):
        t0 = time.perf_counter()
        grid = picard_solve(prob, n_xi=n_xi, tol=1e-11, max_iter=80)
        elapsed = time.perf_counter() - t0
        diff_col, ratio_col = f"{'':>18}", f"{'':>7}"
        if prev is not None:
            n = prev.n_xi
            reg = prev.lattice.region_mask()[:, :n]
            diff = float(np.max(np.abs(grid.values_xieta[::2, ::2][:, :n][reg]
                                       - prev.values_xieta[:, :n][reg])))
            diff_col = f"{diff:>18.3e}"
            if prev_diff is not None:
                ratio_col = f"{prev_diff / diff:>7.2f}"
            prev_diff = diff
        r1 = residual(grid, prob, h=grid.delta).interior_sup
        print(f"{n_xi:>6} {grid.iterations_used:>7} {per_lattice(grid):>14} {diff_col} {ratio_col} "
              f"{r1:>12.3e} {elapsed:>8.2f}")
        prev = grid


def main():
    series_table()
    print()
    source_table()


if __name__ == "__main__":
    main()
