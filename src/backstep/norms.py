"""Spatial norms, the smoothed absolute value and its Lyapunov functional.

``rho(s, tau)`` replaces |s| by a C^2 quartic inside |s| < tau; the
associated functional int rho(v)^p dx approximates the L^p energy while
keeping the Lyapunov derivative nonsingular for p in [1, 2).  A discrete
Bellman-Gronwall evaluator turns sampled differential inequalities into
explicit envelopes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import cumtrapz, trapezoid


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("p must satisfy p >= 1 (use inf for the max norm)")
    return p


def _check_tau(tau: float) -> float:
    """``tau`` as a float, if tau^4 is a normal float.

    Then the quartic's s^4 neither overflows for |s| < tau nor underflows
    near the seam, and its denominator 8 tau^3 is a normal float too.
    """
    tau = float(tau)
    # a float product overflows to inf where tau ** 4 would raise OverflowError
    if not (tau > 0 and np.finfo(float).tiny <= tau * tau * tau * tau < np.inf):
        raise ValueError("tau must be positive and finite, with tau^4 a normal float "
                         f"(about 1.22e-77 <= tau <= 1.16e77), got {tau:g}")
    return tau


def _lp(a: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm along the last axis of the samples ``a >= 0`` (max for p = inf)."""
    if np.isinf(p):
        return np.max(a, axis=-1)
    return trapezoid(a ** p, h) ** (1.0 / p)


def _norms(values: np.ndarray, h: float, p_list) -> dict:
    """``{(p, "lp" | "w1p"): norms along the last axis}``, p-major; |v| and |v_x| formed once."""
    a = np.abs(values)
    b = np.abs(np.gradient(values, h, axis=-1, edge_order=2))
    out = {}
    for p in map(_check_p, p_list):
        la, lb = _lp(a, h, p), _lp(b, h, p)
        out[p, "lp"] = la
        out[p, "w1p"] = np.maximum(la, lb) if np.isinf(p) else (la ** p + lb ** p) ** (1.0 / p)
    return out


def rho(s, tau: float):
    """Smoothed absolute value: |s| outside |s| < tau, quartic inside.

    Only the samples with |s| < tau evaluate the quartic; NaN and inf give |s|.
    """
    tau = _check_tau(tau)
    s = np.asarray(s, dtype=float)
    out = np.abs(s, out=np.empty(s.shape))
    inside = out < tau
    c = s[inside]  # signed: numpy's vectorised c ** 4 can differ with the sign
    out[inside] = -(c ** 4) / (8 * tau ** 3) + 3 * c ** 2 / (4 * tau) + 3 * tau / 8
    return out if out.ndim else float(out)


def alf(r: np.ndarray, lam, h: float, p: float):
    """``z = int_0^1 r^p dx`` and ``psi = 3/8 p int_0^1 lam r^(p-1) dx`` along the last axis.

    With ``r = rho(u, tau)`` and ``lam = lambda0 - c(x, t)`` on the same samples,
    z is the smoothed functional and z' <= -p lambda_lower z + tau psi.
    """
    if np.isinf(_check_p(p)):
        raise ValueError("the smoothed functional is defined for finite p")
    return trapezoid(r ** p, h), 0.375 * p * trapezoid(lam * r ** (p - 1), h)


def gronwall_bound(z0: float, q, h, times) -> np.ndarray:
    """Envelope of z' <= q(t) z + h(t): exp-integral form of the lemma.

    ``q`` and ``h`` are samples on ``times``; all inner integrals are
    cumulative trapezoids, exact for the constant closed-form cases.  With
    iq = int_0^t q, it is evaluated in blocks from a node b on, in which iq
    moves by at most 600 from iq_b, as exp(iq - iq_b) (env_b + int_b^t
    exp(iq_b - iq) h): no exponential overflows on a long run, and one block
    makes the operations of exp(iq) (z0 + int_0^t exp(-iq) h).
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
    env, b, zb = np.empty_like(iq), 0, z0
    while True:
        far = np.flatnonzero(np.abs(iq[b:] - iq[b]) > 600.0)
        e = b + max(far[0] - 1, 1) if far.size else len(iq) - 1  # the block's last node
        d = iq[b:e + 1] - iq[b]
        env[b:e + 1] = np.exp(d) * (zb + cumtrapz(np.exp(-d) * h[b:e + 1], dt[b:e]))
        if e == len(iq) - 1:
            return env
        b, zb = e, env[e]


@dataclass(frozen=True)
class NormTrace:
    """Per-time values of one norm or functional along a trajectory."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.asarray(self.values) < 0):
            raise ValueError("norm values must be nonnegative")


def norm_trace(traj, p_list) -> dict:
    """``{(p, "lp" | "w1p"): NormTrace}`` of a Trajectory-like object, p-major, in one pass."""
    times, h = np.asarray(traj.times), 1.0 / (traj.fields.shape[1] - 1)
    return {key: NormTrace(times, vals) for key, vals in _norms(traj.fields, h, p_list).items()}
