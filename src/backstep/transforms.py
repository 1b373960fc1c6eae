"""Volterra integral transforms, the boundary feedback law and its flux at x = 1.

The forward map adds a lower-triangular integral of the kernel k, the
inverse map subtracts the analogous l-integral; composing the two is the
identity in the continuum.  Profiles live on uniform grids of [0, 1].
When ``grid_m - 1`` divides ``n_eta - 1`` the profile nodes are every s-th
node of the kernel's lattice, and the kernel and the trace k_x(1, y) are
read-only strided views of the images ``KernelGrid.values_xy`` and
``KernelGrid.trace_kx1``; otherwise they are cubic Lagrange interpolants
(``KernelGrid.values_at``, ``KernelGrid.kx1_at``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import composite_weights, volterra_matrix
from .kernel import KernelGrid


class TransformError(ArithmeticError):
    """A kernel grid cannot supply the feedback row or the compatibility shift."""


@dataclass(frozen=True)
class Profile:
    """A spatial field sampled on a uniform grid over [0, 1]."""

    grid_m: int
    values: np.ndarray

    def __post_init__(self):
        if self.grid_m < 3:
            raise ValueError("grid_m must be at least 3")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid_m,):
            raise ValueError(f"values must have shape ({self.grid_m},)")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return 1.0 / (self.grid_m - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_m)


def kernel_matrix(k: KernelGrid, grid_m: int) -> np.ndarray:
    """Kernel values k(x_i, y_j) on a profile grid, zero above the diagonal.

    On the lattice a read-only view of ``k.values_xy``; otherwise a new array.
    """
    s, r = divmod(k.lattice.n_eta - 1, grid_m - 1)  # r == 0: every s-th lattice node
    if r == 0:
        return k.values_xy[::s, ::s]
    x = np.linspace(0.0, 1.0, grid_m)
    i, j = np.tril_indices(grid_m)
    K = np.zeros((grid_m, grid_m))
    K[i, j] = k.values_at(x[i], x[j])
    return K


def forward_transform(w: Profile, k: KernelGrid, order: int = 4) -> Profile:
    """u(x) = w(x) + int_0^x k(x, y) w(y) dy per grid node.

    ``order`` (2 or 4) selects the Volterra quadrature weights.
    """
    return _volterra(w, k, 1.0, order)


def inverse_transform(u: Profile, l: KernelGrid, order: int = 4) -> Profile:
    """w(x) = u(x) - int_0^x l(x, y) u(y) dy per grid node.

    ``order`` (2 or 4) selects the Volterra quadrature weights.
    """
    return _volterra(u, l, -1.0, order)


def _volterra(p: Profile, k: KernelGrid, sign: float, order: int) -> Profile:
    """p(x) + sign * int_0^x k(x, y) p(y) dy per grid node."""
    K = kernel_matrix(k, p.grid_m)
    W = volterra_matrix(p.grid_m, p.h, order)
    return Profile(p.grid_m, p.values + sign * ((W * K) @ p.values))


def initial_target_data(w0: Profile, k: KernelGrid) -> Profile:
    """Target-system initial datum: the forward transform of w0."""
    return forward_transform(w0, k)


def kx1_on_grid(k: KernelGrid, grid_m: int) -> np.ndarray:
    """Trace k_x(1, y) on a profile grid: on the lattice a read-only view of ``k.trace_kx1``."""
    if not np.all(np.isfinite(k.trace_kx1)):
        raise TransformError("kernel grid has no derivative trace")
    s, r = divmod(k.lattice.n_eta - 1, grid_m - 1)
    return k.trace_kx1[::s] if r == 0 else k.kx1_at(np.linspace(0.0, 1.0, grid_m))


def feedback_row(k: KernelGrid, grid_m: int) -> np.ndarray:
    """Row r of the discrete feedback U = r . w on a profile grid.

    Quadrature of U = -k(1,1) w(1) - int_0^1 k_x(1, y) w(y) dy.
    """
    h = 1.0 / (grid_m - 1)
    r = -(composite_weights(grid_m) * h) * kx1_on_grid(k, grid_m)
    r[-1] -= float(k.trace_diag[-1])
    return r


def make_compatible(w0: Profile, k: KernelGrid) -> Profile:
    """Shift w0 by a multiple of x^2/2 so the flux condition holds at x = 1.

    Solves the one-parameter equation matching the one-sided boundary
    derivative of the adjusted datum to its own feedback value and
    returns the adjusted profile.  Leaves the derivative at x = 0
    untouched (the shift function is flat there).
    """
    s = Profile(w0.grid_m, 0.5 * w0.x ** 2)
    r = feedback_row(k, w0.grid_m)
    r0 = _flux_residual(w0, r)
    rs = _flux_residual(s, r)
    if abs(rs) < 1e-14:
        raise TransformError("compatibility shift is degenerate for this kernel")
    gamma = -r0 / rs
    return Profile(w0.grid_m, w0.values + gamma * s.values)


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool  # both residuals below 1e-3
    residual_left: float
    residual_right: float


def check_compatibility(w0: Profile, k: KernelGrid) -> CompatibilityReport:
    """Boundary residuals of the initial datum against the feedback flux.

    Advisory only: the simulation runs either way, an incompatible datum
    just pollutes a short transient.
    """
    v, h = w0.values, w0.h
    left = abs(float((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)))
    right = abs(_flux_residual(w0, feedback_row(k, w0.grid_m)))
    return CompatibilityReport(left < 1e-3 and right < 1e-3, left, right)


def _flux_residual(p: Profile, r: np.ndarray) -> float:
    """w_x(1) - r . w: the second-order one-sided derivative at x = 1 minus the feedback."""
    v, h = p.values, p.h
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)) - float(r @ v)
