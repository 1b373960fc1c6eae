"""Composite quadrature rules on uniform grids.

Shared by the kernel solver and the Volterra transforms.  The weight
tables take one of two orders:

* ``order=2``: composite trapezoid.
* ``order=4``: trapezoid with Euler-Maclaurin endpoint corrections
  (Gregory-type weights), exact for cubics.

The kernel solver's cumulative integrals are fourth order only.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_trapezoid

# Closed Newton-Cotes rows used when there are too few nodes for the
# Gregory end corrections (weights are per unit spacing).
_SHORT_RULES = {
    2: np.array([1.0, 4.0, 1.0]) / 3.0,
    3: np.array([3.0, 9.0, 9.0, 3.0]) / 8.0,
    4: np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 3.0,
}
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


@lru_cache(maxsize=None)
def composite_weights(n_nodes: int, order: int = 4) -> np.ndarray:
    """Weights (unit spacing) integrating over ``n_nodes`` uniform nodes."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if order == 2 or n_nodes <= 2:
        w = np.ones(n_nodes)
        w[0] = w[-1] = 0.5
        if n_nodes == 1:
            w[0] = 0.0
    elif order == 4:
        if n_nodes <= 5:
            w = _SHORT_RULES[n_nodes - 1].copy()
        else:
            w = np.ones(n_nodes)
            w[:3] = _GREGORY_EDGE
            w[-3:] = _GREGORY_EDGE[::-1]
    else:
        raise ValueError(f"unsupported quadrature order {order}")
    w.flags.writeable = False
    return w


def cumquad(g: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative integral from the first node, same shape as ``g``.

    The trapezoid sums get the h^2/12 endpoint-derivative correction with
    second-order finite-difference slopes; entry ``k`` then carries an
    O(h^4) error uniformly in ``k``.
    """
    g = np.asarray(g, dtype=float)
    out = cumulative_trapezoid(g, dx=h, axis=axis, initial=0.0)
    if g.shape[axis] >= 3:
        d = np.gradient(g, h, axis=axis, edge_order=2)
        d0 = np.take(d, [0], axis=axis)
        out = out - (h * h / 12.0) * (d - d0)
    return out


def volterra_matrix(n_nodes: int, h: float, order: int = 4) -> np.ndarray:
    """Lower-triangular W with ``W[i, :i+1]`` the weights for [x_0, x_i]."""
    W = np.zeros((n_nodes, n_nodes))
    for i in range(1, n_nodes):
        W[i, : i + 1] = composite_weights(i + 1, order)
    return W * h
