"""Crank-Nicolson time integration of the plant and the target system.

One propagator serves both: the target is the uncontrolled plant with
reaction c - lambda0 and no source.  The reaction is c1(x) + c2(t), so the
integrating factor is exact: from s to t, w(t) = exp(C2(t) - C2(s))
e^{(t - s) L} w(s), C2 = int_0^t c2.  L, built by :func:`_generator` alone,
is one dense m x m matrix: the centered Laplacian with second-order Neumann
ghost nodes, c1 on the diagonal, the feedback U = r . w as a rank-one last
row through the ghost node at x = 1, and the Volterra source.  A record is
w times one power of A = (I - dt/2 L)^{-1} (I + dt/2 L), from repeated
squaring, and the record's own factor exp(C2(t_r) - C2(t_(r-1))); there is
no loop over steps but in a last record shorter than the stride.

Divergence is still checked at every step: K, the product of
max(1, ||A^(2^i)||_inf) over the squarings, bounds every power up to the
stride.  A and every squaring and product are flushed (entries below
sqrt(tiny) zeroed), so no product is subnormal, and K bounds the flushed
powers the records apply.  The records are computed first and certified
in one pass; the ones the bound cannot clear, and a partial last record,
are redone, in order, one checked step at a time.  The squarings cost
O(m^3 log stride) once and a record O(m^2), against O(m) per step for a
banded stepper: this pays at every stride on the default grid_m = 201, but
at grid_m = 801 not once records are closer than about 4 steps apart
(README).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._quad import volterra_matrix
from .coefficients import CoefficientFamily, ConfigError, ProblemSpec
from .kernel import KernelGrid
from .transforms import Profile, feedback_row

BLOWUP_FACTOR = 1e6
#: :func:`_flush` zeroes the entries below this, about 1.5e-154
_FLUSH_FLOOR = math.sqrt(np.finfo(float).tiny)


class DivergenceError(ArithmeticError):
    """The simulated field exceeded the blow-up threshold."""


@dataclass(frozen=True)
class SimConfig:
    grid_m: int = 201
    dt: float = 2.5e-5
    t_end: float = 2.0
    record_stride: int = 100

    def __post_init__(self):
        bad = "invalid simulation configuration: "
        for name, ok in (("grid_m", self.grid_m >= 3),
                         ("dt", 0 < self.dt < math.inf),
                         ("t_end", 0 < self.t_end < math.inf),
                         ("record_stride", self.record_stride >= 1)):
            if not ok:
                raise ConfigError(f"{bad}{name} = {getattr(self, name)!r}")
        if not self.t_end / self.dt < np.iinfo(np.intp).max:
            raise ConfigError(f"{bad}t_end / dt = {self.t_end / self.dt:g} steps exceed "
                              "the largest array index")
        if self.n_steps < 1:
            raise ConfigError(f"{bad}t_end = {self.t_end!r} rounds to 0 steps of "
                              f"dt = {self.dt!r}; t_end must exceed dt/2")

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


def _target_family(spec: ProblemSpec) -> CoefficientFamily:
    """The target's coefficients: c1 - lambda0, the plant's c2, and f = 0.

    Raises OverflowError (an ArithmeticError) if c1(0) - lambda0 overflows,
    which Python float subtraction does silently."""
    fam = spec.family
    c0 = fam.c1_poly[0] - spec.lambda0
    if not math.isfinite(c0):
        raise OverflowError(f"the target's reaction overflows: c1(0) - lambda0 = "
                            f"{fam.c1_poly[0]:g} - {spec.lambda0:g}")
    return replace(fam, c1_poly=(c0,) + fam.c1_poly[1:], f_poly=((0.0,),))


def simulate_target(spec: ProblemSpec, u0: Profile, cfg: SimConfig) -> Trajectory:
    """Integrate u_t = u_xx - lambda(x, t) u, Neumann ends: :func:`_target_family` with U = 0."""
    return simulate_closed_loop(replace(spec, family=_target_family(spec)), None, u0, cfg)


def _source_operator(fam: CoefficientFamily, m: int) -> np.ndarray | None:
    """Matrix of w -> int_0^x w(y) f(x, y) dy by cumulative trapezoid; None if f = 0."""
    if fam.f_is_zero:
        return None
    x = np.linspace(0.0, 1.0, m)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.where(yy <= xx, fam.f(xx, np.minimum(yy, xx)), 0.0)
    return volterra_matrix(m, 1.0 / (m - 1), order=2) * vals


def _generator(fam: CoefficientFamily, row: np.ndarray | None, m: int, dt: float) -> np.ndarray:
    """L of w_t = L w + c2(t) w on m nodes, w_x(0) = 0, flux U = row . w at x = 1.

    The ghost node turns U into (2/h) row in the last row (U = 0 without a
    row).  Raises DivergenceError when 0.5 dt ||source||_inf >= 1: the
    amplification (1 + z)/(1 - z) of a growth rate mu, z = dt mu / 2, is
    singular at z = 1 and tends to -1 beyond, so a huge source would look bounded.
    """
    h = 1.0 / (m - 1)
    L = np.diag(fam.c1(np.linspace(0.0, 1.0, m)) - 2.0 / (h * h))
    off = np.full(m - 1, 1.0 / (h * h))
    off[0] = 2.0 / (h * h)  # ghost node at x = 0
    L += np.diag(off, 1) + np.diag(off[::-1], -1)
    if row is not None:
        L[-1] += (2.0 / h) * row
    source = _source_operator(fam, m)
    if source is not None:
        with np.errstate(over="ignore"):  # an infinite norm fails the test below
            z = 0.5 * dt * np.linalg.norm(source, np.inf)
        if not z < 1.0:  # NaN fails this test too
            raise DivergenceError(f"the source is too strong for Crank-Nicolson at dt = {dt:g}: "
                                  f"0.5 dt ||source||_inf = {z:.3e} >= 1")
        L += source
    return L


def simulate_closed_loop(spec: ProblemSpec, k: KernelGrid | None, w0: Profile | np.ndarray,
                         cfg: SimConfig) -> Trajectory:
    """Integrate the plant under the backstepping boundary feedback U = r . w.

    Every term is implicit, in the one :func:`_generator`.  ``k = None`` is
    the uncontrolled plant, U = 0: the target, and instability contrast runs.
    ``w0`` is one Profile or an (m, n) block of n data, one per column;
    a block shares the one matrix and its powers, and its Trajectory has
    fields of shape (n_records, m, n) and controls (n_records, n).
    Raises DivergenceError on the first step whose sup-norm, over the
    whole block, is not finite or exceeds ``BLOWUP_FACTOR`` times the
    initial one, and before any step if :func:`_generator` rejects the source.

    Record r is exp(C2(t_r) - C2(t_(r-1))) A^j w(t_(r-1)) and c2 <= sup c2, so none
    of its steps crosses the threshold if K exp(max(sup c2, 0) stride dt) sup|w(t_(r-1))|
    does not.  Powers, factors, records and this one-pass certificate run with
    overflow ignored; each record the bound fails (NaN and overflow included), and
    a last record shorter than the stride, is redone in order from the one before
    it, so the first crossing raises.
    """
    m, dt, n_steps = cfg.grid_m, cfg.dt, cfg.n_steps
    row = None if k is None else feedback_row(k, m)
    w0 = w0.values if isinstance(w0, Profile) else w0
    if w0.shape[0] != m:
        raise ValueError("initial datum must live on the configured grid")
    stride = min(cfg.record_stride, n_steps)
    fam, eye = spec.family, np.eye(m)
    L = _generator(fam, row, m, dt)
    A = _flush(np.linalg.solve(eye - (0.5 * dt) * L, eye + (0.5 * dt) * L))
    steps = np.minimum(np.arange(-(-n_steps // stride) + 1) * stride, n_steps)
    V = np.empty((len(steps),) + w0.shape)
    V[0] = w0
    limit = BLOWUP_FACTOR * max(float(np.max(np.abs(w0))), 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the certificate
        P, K = _powers(A, stride)
        factor = np.exp(np.diff(fam.c2_integral(steps * dt)))
        partial = n_steps % stride != 0  # the last record has no power of its own
        for r in range(1, len(steps) - partial):
            np.matmul(P, V[r - 1], out=V[r])
            V[r] *= factor[r - 1]
        sup = np.abs(V[:-1]).reshape(len(steps) - 1, -1).max(axis=1)
        ok = K * np.exp(max(fam.c2_sup(), 0.0) * stride * dt) * sup <= limit
        ok[-1] &= not partial
        for r in np.flatnonzero(~ok) + 1:  # in order: a crossing raises from its own record
            V[r] = _step_checked(A, V[r - 1], fam, steps[r - 1], steps[r] - steps[r - 1],
                                 limit, dt)
    controls = np.zeros(V.shape[:1] + V.shape[2:]) if row is None else (
        np.moveaxis(V, 1, -1) @ row)
    return Trajectory(steps * dt, V, controls)


def _powers(A: np.ndarray, stride: int):
    """(A^stride, K) from one pass of repeated squaring.

    A^j is the product of the squarings A^(2^i) over the set bits of j, so
    by submultiplicativity K = prod_i max(1, ||A^(2^i)||_inf) bounds
    ||A^j||_inf for every 1 <= j <= stride.  Only the current squaring and
    the product are held.  Every squaring and product is flushed
    (:func:`_flush`) and K reads the flushed squarings, so it bounds the
    flushed powers, which are the ones the records apply.
    """
    P = None
    K = 1.0
    S = A
    for i in range(stride.bit_length()):
        if i:
            S = _flush(S @ S)
        K *= max(1.0, np.linalg.norm(S, np.inf))
        if stride >> i & 1:
            P = S if P is None else _flush(P @ S)
    return P, K


def _flush(M: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of M below ``_FLUSH_FLOOR`` in magnitude; returns M.

    The entries of A's powers decay fast away from the diagonal, and from
    grid_m = 401 on their products fall into the subnormal range, where each
    multiply-add is many times slower.  With the flush no product of two
    kept entries is subnormal.  NaN and inf entries are kept.
    """
    M[np.abs(M) < _FLUSH_FLOOR] = 0.0
    return M


def _step_checked(A, w, fam: CoefficientFamily, start: int, n: int, limit: float,
                  dt: float) -> np.ndarray:
    """Advance w by n single steps w <- exp(C2(t + dt) - C2(t)) A w, checking sup|w| at each."""
    steps = np.arange(start, start + n + 1)
    for step, g in zip(steps[1:], np.exp(np.diff(fam.c2_integral(steps * dt)))):
        w = A @ w
        w *= g
        sup = np.abs(w).max()
        if not sup <= limit:  # NaN fails this test too
            raise DivergenceError(
                f"field reached {sup:.3e} at t = {step * dt:g} "
                f"(blow-up threshold {BLOWUP_FACTOR:g} x initial sup)"
            )
    return w
