"""Composite and cumulative quadrature rules.

Shared by the kernel solver, the Volterra transforms, the spatial norms
and the Gronwall envelope (the one non-uniform grid).  The weight tables
take one of two orders:

* ``order=2``: composite trapezoid.
* ``order=4``: trapezoid with Euler-Maclaurin endpoint corrections
  (Gregory-type weights), exact for cubics.

The norms integrate with :func:`trapezoid`, one weighted dot per line.  The
kernel solver's cumulative integrals (:func:`cumquad`) have one rule, fourth
order: the corrected trapezoid, written as one stencil and one running sum.
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
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if order not in (2, 4):
        raise ValueError(f"unsupported quadrature order {order}")
    if order == 2 or n_nodes == 2:
        w = np.ones(n_nodes)
        w[0] = w[-1] = 0.5
    elif n_nodes <= 5:
        w = _SHORT_RULES[n_nodes - 1].copy()
    else:
        w = np.ones(n_nodes)
        w[:3] = _GREGORY_EDGE
        w[-3:] = _GREGORY_EDGE[::-1]
    w.flags.writeable = False
    return w


def trapezoid(g: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid along the last axis, as one weighted dot per line.

    ``np.vecdot`` gives a line the same bits alone or in a batch and at any
    memory offset, but strided input can differ: hence the contiguous copy.
    """
    return np.vecdot(np.ascontiguousarray(g), h * composite_weights(g.shape[-1], 2))


def _along(g: np.ndarray, axis: int, index) -> np.ndarray:
    """The view of ``g`` taking ``index`` (an int or a slice) along ``axis``."""
    return g[(slice(None),) * (axis % g.ndim) + (index, ...)]


def cumtrapz(g: np.ndarray, d) -> np.ndarray:
    """Cumulative trapezoid sums of the samples ``g`` of one line, from its first node.

    ``d`` is the node spacing: a scalar, or the gaps between consecutive
    nodes.  Entry ``k`` is the running sum of ``(g[i] + g[i + 1]) * (d / 2.0)``
    over ``i < k``, evaluated in that order (``d * (g[i] + g[i + 1]) / 2.0``
    to the bit, halving being exact).
    """
    g = np.asarray(g, dtype=float)
    out = np.empty_like(g)
    out[0] = 0.0
    pairs = g[1:] + g[:-1]
    pairs *= d / 2.0
    np.cumsum(pairs, out=out[1:])
    return out


def cumquad(g: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative integral from the first node, same shape as ``g``: one stencil, one running sum.

    Entry ``k`` sums, over the intervals ``i < k`` in order,
    ``((13.0 * (g[i] + g[i + 1]) - g[i - 1]) - g[i + 2]) * (h / 24.0)``, with
    ``((5.0 * g[0] + 8.0 * g[1]) - g[2]) * (h / 12.0)`` and its mirror on the end
    intervals: the trapezoid sum less the h^2/12 endpoint correction with the slopes
    of ``np.gradient(g, h, edge_order=2)``, up to rounding.  Entry ``k`` carries an
    O(h^4) error uniformly in ``k``.  It needs three nodes along ``axis``; lattice lines have 17+.
    """
    g = np.ascontiguousarray(g, dtype=float)
    s = g.strides[axis] // g.itemsize  # flat distance of neighbours along axis
    f, out = g.ravel(), np.empty_like(g)
    # interval i goes to node i + 1 of out; where the flat stencil straddles two
    # lines it lands on nodes 0, 1 and n - 1, which are overwritten below
    mid = out.ravel()[2 * s:-s]
    np.add(f[s:-2 * s], f[2 * s:-s], out=mid)
    mid *= 13.0
    mid -= f[:-3 * s]
    mid -= f[3 * s:]
    for k, a, b, c in ((1, 0, 1, 2), (-1, -1, -2, -3)):  # 2 (5, 8, -1) h/24, to the bit
        np.subtract(10.0 * _along(g, axis, a) + 16.0 * _along(g, axis, b),
                    2.0 * _along(g, axis, c), out=_along(out, axis, k))
    out *= h / 24.0
    _along(out, axis, 0)[...] = 0.0
    return np.cumsum(out, axis=axis, out=out)


def volterra_matrix(n_nodes: int, h: float, order: int = 4) -> np.ndarray:
    """Lower-triangular W with ``W[i, :i+1]`` the weights for [x_0, x_i]."""
    W = np.zeros((n_nodes, n_nodes))
    for i in range(1, n_nodes):
        W[i, : i + 1] = composite_weights(i + 1, order)
    return W * h
