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

from .transforms import Profile


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("p must satisfy p >= 1 (use inf for the max norm)")
    return p


def lp_norm(v: Profile, p: float) -> float:
    """L^p norm on (0,1): trapezoid integral for finite p, max for p = inf."""
    p = _check_p(p)
    if np.isinf(p):
        return float(np.max(np.abs(v.values)))
    return float(np.trapezoid(np.abs(v.values) ** p, dx=v.h) ** (1.0 / p))


def _grid_derivative(v: Profile) -> np.ndarray:
    return np.gradient(v.values, v.h, edge_order=2)


def w1p_norm(v: Profile, p: float) -> float:
    """Discrete W^{1,p} norm with the centered-difference derivative."""
    p = _check_p(p)
    dv = Profile(v.grid_m, _grid_derivative(v))
    if np.isinf(p):
        return max(lp_norm(v, p), lp_norm(dv, p))
    return float((lp_norm(v, p) ** p + lp_norm(dv, p) ** p) ** (1.0 / p))


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau


def rho(s, tau: float):
    """Smoothed absolute value: |s| outside |s| < tau, quartic inside."""
    tau = _check_tau(tau)
    s = np.asarray(s, dtype=float)
    inner = -(s ** 4) / (8 * tau ** 3) + 3 * s ** 2 / (4 * tau) + 3 * tau / 8
    out = np.where(np.abs(s) >= tau, np.abs(s), inner)
    return out if out.ndim else float(out)


def rho_prime(s, tau: float):
    tau = _check_tau(tau)
    s = np.asarray(s, dtype=float)
    inner = -(s ** 3) / (2 * tau ** 3) + 3 * s / (2 * tau)
    out = np.where(np.abs(s) >= tau, np.sign(s), inner)
    return out if out.ndim else float(out)


def rho_second(s, tau: float):
    tau = _check_tau(tau)
    s = np.asarray(s, dtype=float)
    inner = 1.5 / tau * (1.0 - s ** 2 / tau ** 2)
    out = np.where(np.abs(s) >= tau, 0.0, inner)
    return out if out.ndim else float(out)


def alf(v: Profile, p: float, tau: float) -> float:
    """Approximate Lyapunov functional int_0^1 rho(v(x))^p dx."""
    p = _check_p(p)
    if np.isinf(p):
        raise ValueError("the smoothed functional is defined for finite p")
    return float(np.trapezoid(rho(v.values, tau) ** p, dx=v.h))


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
    from scipy.integrate import cumulative_trapezoid

    iq = cumulative_trapezoid(q, times, initial=0.0)
    inner = cumulative_trapezoid(np.exp(-iq) * h, times, initial=0.0)
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

    def label(self) -> str:
        p = "inf" if np.isinf(self.p) else f"{self.p:g}"
        tag = f"{self.kind}_p{p}"
        if self.tau is not None:
            tag += f"_tau{self.tau:g}"
        return tag


def norm_trace(traj, p: float, kind: str = "lp", tau: float | None = None) -> NormTrace:
    """Evaluate a norm per recorded slice of a Trajectory-like object."""
    m = traj.fields.shape[1]
    vals = np.empty(len(traj.times))
    for i, row in enumerate(traj.fields):
        prof = Profile(m, row)
        if kind == "lp":
            vals[i] = lp_norm(prof, p)
        elif kind == "w1p":
            vals[i] = w1p_norm(prof, p)
        elif kind == "alf":
            if tau is None:
                raise ValueError("alf trace needs tau")
            vals[i] = alf(prof, p, tau)
        else:
            raise ValueError(f"unknown trace kind {kind!r}")
    return NormTrace(np.asarray(traj.times), vals, float(p), kind, tau)
