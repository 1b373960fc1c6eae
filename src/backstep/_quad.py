"""Composite and cumulative quadrature rules.

Shared by the kernel solver, the Volterra transforms and the Gronwall
envelope (the one non-uniform grid).  The weight tables take one of two
orders:

* ``order=2``: composite trapezoid.
* ``order=4``: trapezoid with Euler-Maclaurin endpoint corrections
  (Gregory-type weights), exact for cubics.

The kernel solver's cumulative integrals are fourth order only.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def _along(g: np.ndarray, axis: int, index) -> np.ndarray:
    """The view of ``g`` taking ``index`` (an int or a slice) along ``axis``."""
    return g[(slice(None),) * (axis % g.ndim) + (index, ...)]


def cumtrapz(g: np.ndarray, d, axis: int = -1) -> np.ndarray:
    """Cumulative trapezoid sums from the first node, same shape as ``g``.

    ``d`` is the node spacing: a scalar, or the gaps between consecutive
    nodes along the last axis.  Entry ``k`` is the running sum of
    ``(g[i] + g[i + 1]) * (d / 2.0)`` over ``i < k``, evaluated in that
    order (``d * (g[i] + g[i + 1]) / 2.0`` to the bit, halving being exact).
    """
    g = np.asarray(g, dtype=float)
    out = np.empty_like(g)
    _along(out, axis, 0)[...] = 0.0
    pairs = _along(g, axis, slice(1, None)) + _along(g, axis, slice(None, -1))
    pairs *= d / 2.0
    np.cumsum(pairs, axis=axis, out=_along(out, axis, slice(1, None)))
    return out


def cumquad(g: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative integral from the first node, same shape as ``g``.

    The trapezoid sums get the h^2/12 endpoint-derivative correction with
    second-order finite-difference slopes (the stencils of
    ``np.gradient(g, h, edge_order=2)``, evaluated in its order); entry
    ``k`` then carries an O(h^4) error uniformly in ``k``.
    """
    g = np.asarray(g, dtype=float)
    out = cumtrapz(g, h, axis)
    if g.shape[axis] >= 3:
        # views with the axis first; d keeps the memory layout of g and out
        gm = np.moveaxis(g, axis, 0)
        d = np.empty_like(gm)
        np.subtract(gm[2:], gm[:-2], out=d[1:-1])
        d[1:-1] /= 2.0 * h
        d[0] = (-1.5 / h) * gm[0] + (2.0 / h) * gm[1] + (-0.5 / h) * gm[2]
        d[-1] = (0.5 / h) * gm[-3] + (-2.0 / h) * gm[-2] + (1.5 / h) * gm[-1]
        d -= d[0].copy()
        d *= h * h / 12.0
        out -= np.moveaxis(d, 0, axis)
    return out


def volterra_matrix(n_nodes: int, h: float, order: int = 4) -> np.ndarray:
    """Lower-triangular W with ``W[i, :i+1]`` the weights for [x_0, x_i]."""
    W = np.zeros((n_nodes, n_nodes))
    for i in range(1, n_nodes):
        W[i, : i + 1] = composite_weights(i + 1, order)
    return W * h
