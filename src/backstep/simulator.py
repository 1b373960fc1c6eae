"""Crank-Nicolson time integration of the plant and the target system.

One propagator serves both.  The reaction is c(x, t) = c1(x) + c2(t)
with c2 independent of x, so the integrating factor w = exp(C2(t)) v,
C2 = int_0^t c2, is exact and v solves the autonomous system v_t = L v.
L is one dense m x m matrix: the centered Laplacian with second-order
Neumann ghost nodes, c1 on the diagonal, the boundary feedback
U = r . w as a rank-one last row through the ghost node at x = 1, and
the plant's Volterra source.  Crank-Nicolson advances v by the constant
matrix A = (I - dt/2 L)^{-1} (I + dt/2 L), every term implicit, and a
record is one product with A^stride from repeated squaring; there is
no loop over steps.

Divergence is still checked at every step: K, the product of
max(1, ||A^(2^i)||_inf) over the squarings, bounds every power up to the
stride, and a record that the bound cannot clear is redone one checked
step at a time.  The squarings cost O(m^3 log stride) once and a record
O(m^2), against O(m) per step for a banded stepper: this pays at every
stride on the default grid_m = 201, but at grid_m = 801 not once records
are closer than about 4 steps apart (README).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._quad import volterra_matrix
from .coefficients import ProblemSpec, horner2d
from .kernel import KernelGrid
from .transforms import Profile, feedback_row

BLOWUP_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """The simulated field exceeded the blow-up threshold."""


@dataclass(frozen=True)
class SimConfig:
    grid_m: int = 201
    dt: float = 2.5e-5
    t_end: float = 2.0
    record_stride: int = 100

    def __post_init__(self):
        for name, ok in (("grid_m", self.grid_m >= 3),
                         ("dt", 0 < self.dt < math.inf),
                         ("t_end", 0 < self.t_end < math.inf),
                         ("record_stride", self.record_stride >= 1)):
            if not ok:
                raise ValueError(f"invalid simulation configuration: {name} = {getattr(self, name)!r}")
        if not self.t_end / self.dt < np.iinfo(np.intp).max:
            raise ValueError(f"invalid simulation configuration: t_end / dt = "
                             f"{self.t_end / self.dt:g} steps exceed the largest array index")
        if self.n_steps < 1:
            raise ValueError(f"invalid simulation configuration: t_end = {self.t_end!r} rounds to "
                             f"0 steps of dt = {self.dt!r}; t_end must exceed dt/2")
        if self.dt > 0.5 * self.h:
            warnings.warn(
                f"dt = {self.dt:g} exceeds the accuracy guideline 0.5 h = {0.5 * self.h:g}",
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
    fields: np.ndarray  # (n_records, grid_m), or (n_records, grid_m, n) for a block
    controls: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def grid_m(self) -> int:
        return self.fields.shape[1]

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_m)

    def __len__(self) -> int:
        return len(self.times)


def _crank_nicolson(spec: ProblemSpec, w0: np.ndarray, cfg: SimConfig, shift: float = 0.0,
                    row: np.ndarray | None = None, source: np.ndarray | None = None):
    """Integrate w_t = w_xx + (c(x, t) - shift) w + source @ w, w_x(0) = 0.

    ``w0`` holds the initial values, shape (m,) for one datum or (m, n)
    for a block of n data, one per column, all advanced by the same
    powers of A.  The flux at x = 1 is U = row . w (zero without a row);
    the ghost node turns it into (2/h) U in the last equation.  Returns
    the recorded (times, fields), fields of shape (n_records,) + w0.shape.
    Raises DivergenceError on the first step whose sup-norm, over the
    whole block, is not finite or exceeds ``BLOWUP_FACTOR`` times the
    initial one.
    """
    m, h, dt = cfg.grid_m, cfg.h, cfg.dt
    if w0.shape[0] != m:
        raise ValueError("initial datum must live on the configured grid")
    n_steps = cfg.n_steps
    stride = max(1, min(cfg.record_stride, n_steps))
    L = np.diag(spec.family.c1(np.linspace(0.0, 1.0, m)) - shift - 2.0 / (h * h))
    off = np.full(m - 1, 1.0 / (h * h))
    off[0] = 2.0 / (h * h)  # ghost node at x = 0
    L += np.diag(off, 1) + np.diag(off[::-1], -1)
    if row is not None:
        L[-1] += (2.0 / h) * row
    if source is not None:
        L += source
    eye = np.eye(m)
    A = np.linalg.solve(eye - (0.5 * dt) * L, eye + (0.5 * dt) * L)
    P, Q, K = _powers(A, stride, n_steps % stride)
    growth = np.exp(spec.family.c2_integral(np.arange(n_steps + 1) * dt))

    v = w0  # never written in place
    limit = BLOWUP_FACTOR * max(float(np.max(np.abs(v))), 1e-12)
    times, fields = [0.0], [v]
    step = 0
    while step < n_steps:
        j = min(stride, n_steps - step)
        if K * growth[step + 1:step + j + 1].max() * np.abs(v).max() <= limit:
            v = (P if j == stride else Q) @ v
        else:  # a crossing inside this record is possible, or v holds NaN
            v = _step_checked(A, v, growth, step, j, limit, dt)
        step += j
        times.append(step * dt)
        fields.append(growth[step] * v)
    return np.asarray(times), np.asarray(fields)


def _powers(A: np.ndarray, stride: int, rem: int):
    """(A^stride, A^rem or None, K) from one pass of repeated squaring.

    A^j is the product of the squarings A^(2^i) over the set bits of j, so
    by submultiplicativity K = prod_i max(1, ||A^(2^i)||_inf) bounds
    ||A^j||_inf for every 1 <= j <= stride.  Only the current squaring and
    the two products are held.
    """
    P = Q = None
    K = 1.0
    S = A
    for i in range(stride.bit_length()):
        if i:
            S = S @ S
        K *= max(1.0, np.linalg.norm(S, np.inf))
        if stride >> i & 1:
            P = S if P is None else P @ S
        if rem >> i & 1:
            Q = S if Q is None else Q @ S
    return P, Q, K


def _step_checked(A, v, growth, start: int, n: int, limit: float, dt: float) -> np.ndarray:
    """Advance v by n single steps of A, checking the sup of w = growth v at each."""
    for step in range(start + 1, start + n + 1):
        v = A @ v
        sup = growth[step] * np.abs(v).max()
        if not sup <= limit:  # NaN fails this test too
            raise DivergenceError(
                f"field reached {sup:.3e} at t = {step * dt:g} "
                f"(blow-up threshold {BLOWUP_FACTOR:g} x initial sup)"
            )
    return v


def simulate_target(spec: ProblemSpec, u0: Profile, cfg: SimConfig) -> Trajectory:
    """Integrate u_t = u_xx - lambda(x, t) u with homogeneous Neumann ends."""
    return Trajectory(*_crank_nicolson(spec, u0.values, cfg, shift=spec.lambda0))


def _source_operator(f_poly, m: int) -> np.ndarray | None:
    """Matrix of w -> int_0^x w(y) f(x, y) dy by cumulative trapezoid; None if f = 0."""
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    if not np.any(F):
        return None
    x = np.linspace(0.0, 1.0, m)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.where(yy <= xx, horner2d(xx, np.minimum(yy, xx), F), 0.0)
    return volterra_matrix(m, 1.0 / (m - 1), order=2) * vals


def simulate_closed_loop(
    spec: ProblemSpec,
    k: KernelGrid,
    w0: Profile | np.ndarray,
    cfg: SimConfig,
    open_loop: bool = False,
) -> Trajectory:
    """Integrate the plant under the backstepping boundary feedback.

    Diffusion, the local reaction c(x, t), the nonlocal source and the
    feedback U = r . w are all implicit: the feedback row and the source
    matrix sit inside the constant Crank-Nicolson matrix.
    ``open_loop=True`` forces U = 0 (for instability contrast runs).
    ``w0`` is one Profile or an (m, n) block of n data, one per column;
    a block shares the one matrix and its powers, and its Trajectory has
    fields of shape (n_records, m, n) and controls (n_records, n).
    Raises DivergenceError if the field grows by ``BLOWUP_FACTOR`` over
    the initial sup-norm (of the whole block).
    """
    row = None if open_loop else feedback_row(k, cfg.grid_m)
    source = _source_operator(spec.family.f_poly, cfg.grid_m)
    values = w0.values if isinstance(w0, Profile) else w0
    times, fields = _crank_nicolson(spec, values, cfg, row=row, source=source)
    controls = np.zeros(fields.shape[:1] + fields.shape[2:]) if row is None else (
        np.moveaxis(fields, 1, -1) @ row)
    return Trajectory(times, fields, controls)
