"""Spatial norms, the smoothed absolute value and its Lyapunov functionals.

``rho(s, tau)`` replaces |s| by a C^2 quartic inside |s| < tau; the
associated functional int rho(v)^p dx approximates the L^p energy while
keeping the Lyapunov derivative nonsingular for p in [1, 2).  A discrete
Bellman-Gronwall evaluator turns sampled differential inequalities into
explicit envelopes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import cumtrapz
from .transforms import Profile


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("p must satisfy p >= 1 (use inf for the max norm)")
    return p


def _lp(values: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm of each profile along the last axis (max for p = inf)."""
    if np.isinf(p):
        return np.max(np.abs(values), axis=-1)
    return np.trapezoid(np.abs(values) ** p, dx=h, axis=-1) ** (1.0 / p)


def _w1p(values: np.ndarray, h: float, p: float) -> np.ndarray:
    """W^{1,p} norm of each profile along the last axis, centered-difference derivative."""
    a = _lp(values, h, p)
    b = _lp(np.gradient(values, h, axis=-1, edge_order=2), h, p)
    if np.isinf(p):
        return np.maximum(a, b)
    return (a ** p + b ** p) ** (1.0 / p)


def _alf(values: np.ndarray, h: float, p: float, tau: float) -> np.ndarray:
    """int_0^1 rho(v(x))^p dx of each profile along the last axis."""
    if np.isinf(p):
        raise ValueError("the smoothed functional is defined for finite p")
    return np.trapezoid(rho(values, tau) ** p, dx=h, axis=-1)


def lp_norm(v: Profile, p: float) -> float:
    """L^p norm on (0,1): trapezoid integral for finite p, max for p = inf."""
    return float(_lp(v.values, v.h, _check_p(p)))


def w1p_norm(v: Profile, p: float) -> float:
    """Discrete W^{1,p} norm with the centered-difference derivative."""
    return float(_w1p(v.values, v.h, _check_p(p)))


def rho(s, tau: float):
    """Smoothed absolute value: |s| outside |s| < tau, quartic inside."""
    tau = float(tau)
    if not (0.0 < tau < np.inf):
        raise ValueError("tau must be positive and finite")
    s = np.asarray(s, dtype=float)
    inner = -(s ** 4) / (8 * tau ** 3) + 3 * s ** 2 / (4 * tau) + 3 * tau / 8
    out = np.where(np.abs(s) >= tau, np.abs(s), inner)
    return out if out.ndim else float(out)


def gronwall_bound(z0: float, q, h, times) -> np.ndarray:
    """Envelope of z' <= q(t) z + h(t): exp-integral form of the lemma.

    ``q`` and ``h`` are samples on ``times``; all inner integrals are
    cumulative trapezoids, exact for the constant closed-form cases.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if z0 < 0:
        raise ValueError("z0 must be nonnegative")
    q = np.broadcast_to(np.asarray(q, dtype=float), times.shape)
    h = np.broadcast_to(np.asarray(h, dtype=float), times.shape)
    dt = np.diff(times)
    iq = cumtrapz(q, dt)
    inner = cumtrapz(np.exp(-iq) * h, dt)
    return np.exp(iq) * (z0 + inner)


@dataclass(frozen=True)
class NormTrace:
    """Per-time values of one norm or functional along a trajectory."""

    times: np.ndarray
    values: np.ndarray
    p: float
    kind: str  # "lp" | "w1p" | "alf"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("lp", "w1p", "alf"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.asarray(self.values) < 0):
            raise ValueError("norm values must be nonnegative")


def norm_trace(traj, p: float, kind: str = "lp", tau: float | None = None) -> NormTrace:
    """Evaluate a norm per recorded slice of a Trajectory-like object."""
    p = _check_p(p)
    h = 1.0 / (traj.fields.shape[1] - 1)
    if kind == "lp":
        vals = _lp(traj.fields, h, p)
    elif kind == "w1p":
        vals = _w1p(traj.fields, h, p)
    elif kind == "alf":
        if tau is None:
            raise ValueError("alf trace needs tau")
        vals = _alf(traj.fields, h, p, tau)
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    return NormTrace(np.asarray(traj.times), vals, p, kind, tau)
