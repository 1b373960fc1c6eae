#!/usr/bin/env python3
"""Convergence of the transform round trip at both quadrature orders.

inverse(forward(w)) should reproduce w; the default order-4 path lands
near rounding level while the order-2 path shows the textbook factor-4
decrease per grid halving.
"""
import numpy as np

from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep.kernel import GoursatProblem, picard_solve
from backstep.transforms import Profile, forward_transform, inverse_transform

SPEC = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, 2.0)), lambda0=10.0)


def roundtrip_error(grid_m, n_xi, order):
    k = picard_solve(GoursatProblem.direct(SPEC), n_xi=n_xi, tol=1e-12, max_iter=80)
    l = picard_solve(GoursatProblem.inverse(SPEC), n_xi=n_xi, tol=1e-12, max_iter=80)
    x = np.linspace(0.0, 1.0, grid_m)
    w = Profile(grid_m, np.cos(np.pi * x) + 0.3 * x ** 2)
    back = inverse_transform(forward_transform(w, k, order), l, order)
    return float(np.max(np.abs(back.values - w.values)))


def main():
    print(f"{'grid_m':>7} {'n_xi':>6} {'order-2 error':>14} {'order-4 error':>14}")
    prev = None
    for grid_m, n_xi in ((101, 201), (201, 401), (401, 801)):
        e2 = roundtrip_error(grid_m, n_xi, 2)
        e4 = roundtrip_error(grid_m, n_xi, 4)
        note = "" if prev is None else f"   (order-2 ratio {prev / e2:4.2f})"
        print(f"{grid_m:>7} {n_xi:>6} {e2:>14.3e} {e4:>14.3e}{note}")
        prev = e2


if __name__ == "__main__":
    main()
