"""Crank-Nicolson time integration of the plant and the target system.

One stepper serves both.  Diffusion is the second-order centered
Laplacian on a uniform grid with Neumann conditions through second-order
ghost nodes; the local reaction is implicit at the midpoint time.  The
boundary feedback U = r . w enters through the ghost node at x = 1, so
it adds a rank-one last row to the tridiagonal implicit matrix, and each
step solves that system exactly by Sherman-Morrison over one LAPACK
tridiagonal solve.  Only the plant's nonlocal Volterra source is
explicit, advanced by one predictor-corrector sweep, which keeps the
scheme second order in dt.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import dgtsv

from ._quad import volterra_matrix
from .coefficients import ProblemSpec
from .kernel import KernelGrid
from .transforms import Profile, _edge_derivative, control_input, feedback_row

BLOWUP_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """The simulated field exceeded the blow-up threshold."""


@dataclass(frozen=True)
class SimConfig:
    grid_m: int = 201
    dt: float = 2.5e-5
    t_end: float = 2.0
    record_stride: int = 100
    scheme: str = "crank_nicolson"

    def __post_init__(self):
        if self.grid_m < 3 or self.dt <= 0 or self.t_end <= 0 or self.record_stride < 1:
            raise ValueError("invalid simulation configuration")
        if self.scheme != "crank_nicolson":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        h = 1.0 / (self.grid_m - 1)
        if self.dt > 0.5 * h:
            warnings.warn(
                f"dt = {self.dt:g} exceeds the accuracy guideline 0.5 h = {0.5 * h:g}",
                stacklevel=2,
            )

    @property
    def h(self) -> float:
        return 1.0 / (self.grid_m - 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Recorded time slices of a simulation."""

    times: np.ndarray
    fields: np.ndarray  # (n_records, grid_m)
    controls: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def grid_m(self) -> int:
        return self.fields.shape[1]

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_m)

    def profile(self, idx: int) -> Profile:
        return Profile(self.grid_m, self.fields[idx])

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    residual_left: float
    residual_right: float


def check_compatibility(w0: Profile, k: KernelGrid, tol: float = 1e-3) -> CompatibilityReport:
    """Boundary residuals of the initial datum against the feedback flux.

    Advisory only: the simulation runs either way, an incompatible datum
    just pollutes a short transient.
    """
    v, h = w0.values, w0.h
    left = abs((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h))
    right = abs(_edge_derivative(w0) - control_input(w0, k))
    return CompatibilityReport(left < tol and right < tol, float(left), float(right))


def _crank_nicolson(spec: ProblemSpec, w0: Profile, cfg: SimConfig, shift: float = 0.0,
                    row: np.ndarray | None = None, source: np.ndarray | None = None):
    """Integrate w_t = w_xx + (c(x, t) - shift) w + source @ w, w_x(0) = 0.

    The flux at x = 1 is U = row . w (zero without a row); the ghost node
    turns it into (2/h) U in the last equation, taken at both time levels.
    Returns the recorded (times, fields).  Raises DivergenceError on the
    first step whose sup-norm is not finite or exceeds ``BLOWUP_FACTOR``
    times the initial one.
    """
    m, h, dt = cfg.grid_m, cfg.h, cfg.dt
    if w0.grid_m != m:
        raise ValueError("initial datum must live on the configured grid")
    n_steps = cfg.n_steps
    a = 0.5 * dt / (h * h)
    g = dt / h
    up = np.full(m - 1, a)  # half-step Laplacian off-diagonals with ghost nodes
    up[0] = 2.0 * a
    lo = up[::-1].copy()
    lhs_lo, lhs_up = -lo, -up
    hc1 = 0.5 * dt * (spec.family.c1(np.linspace(0.0, 1.0, m)) - shift)
    hc2 = 0.5 * dt * np.asarray(spec.family.c2((np.arange(n_steps) + 0.5) * dt))
    d_implicit, d_explicit = (1.0 + 2.0 * a) - hc1, (1.0 - 2.0 * a) + hc1
    r = np.zeros(m) if row is None else row
    rhs = np.zeros((m, 2), order="F")
    rhs[-1, 1] = 1.0  # second column e_m

    def solve(d: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(T - g e_m r^T)^{-1} b by Sherman-Morrison, T = tridiag(lhs_lo, d, lhs_up)."""
        rhs[:, 0] = b
        _, _, _, x, info = dgtsv(lhs_lo, d, lhs_up, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"Crank-Nicolson matrix is singular (dgtsv info {info})")
        y, z = x[:, 0], x[:, 1]
        return y + (g * (r @ y) / (1.0 - g * (r @ z))) * z

    w = w0.values  # never written in place: each step makes a new array
    limit = BLOWUP_FACTOR * max(float(np.max(np.abs(w))), 1e-12)
    times, fields = [0.0], [w]
    for step in range(1, n_steps + 1):
        c = hc2[step - 1]
        d = d_implicit - c
        base = (d_explicit + c) * w
        base[:-1] += up * w[1:]
        base[1:] += lo * w[:-1]
        base[-1] += g * (r @ w)
        if source is None:
            w = solve(d, base)
        else:
            s_old = source @ w
            pred = solve(d, base + dt * s_old)
            w = solve(d, base + (0.5 * dt) * (s_old + source @ pred))
        sup = np.abs(w).max()
        if not sup <= limit:  # NaN fails this test too
            raise DivergenceError(
                f"field reached {sup:.3e} at t = {step * dt:g} "
                f"(blow-up threshold {BLOWUP_FACTOR:g} x initial sup)"
            )
        if step % cfg.record_stride == 0 or step == n_steps:
            times.append(step * dt)
            fields.append(w)
    return np.asarray(times), np.asarray(fields)


def simulate_target(spec: ProblemSpec, u0: Profile, cfg: SimConfig) -> Trajectory:
    """Integrate u_t = u_xx - lambda(x, t) u with homogeneous Neumann ends."""
    return Trajectory(*_crank_nicolson(spec, u0, cfg, shift=spec.lambda0))


def _source_operator(f_poly, m: int) -> np.ndarray | None:
    """Matrix of w -> int_0^x w(y) f(x, y) dy by cumulative trapezoid; None if f = 0."""
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    if not np.any(F):
        return None
    x = np.linspace(0.0, 1.0, m)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.where(yy <= xx, npoly.polyval2d(xx, np.minimum(yy, xx), F), 0.0)
    return volterra_matrix(m, 1.0 / (m - 1), order=2) * vals


def volterra_source(w: Profile, f_poly) -> Profile:
    """Nonlocal source int_0^x w(y) f(x, y) dy by cumulative trapezoid."""
    S = _source_operator(f_poly, w.grid_m)
    return Profile(w.grid_m, np.zeros(w.grid_m) if S is None else S @ w.values)


def simulate_closed_loop(
    spec: ProblemSpec,
    k: KernelGrid,
    w0: Profile,
    cfg: SimConfig,
    open_loop: bool = False,
) -> Trajectory:
    """Integrate the plant under the backstepping boundary feedback.

    Diffusion, the local reaction c(x, t) and the feedback U = r . w are
    implicit: the feedback row sits inside the Crank-Nicolson matrix.  The
    nonlocal source alone is advanced by one predictor-corrector sweep.
    ``open_loop=True`` forces U = 0 (for instability contrast runs).
    Raises DivergenceError if the field grows by ``BLOWUP_FACTOR`` over
    the initial sup-norm.
    """
    row = None if open_loop else feedback_row(k, cfg.grid_m)
    source = _source_operator(spec.family.f_poly, cfg.grid_m)
    times, fields = _crank_nicolson(spec, w0, cfg, row=row, source=source)
    controls = np.zeros(len(times)) if row is None else fields @ row
    return Trajectory(times, fields, controls)
