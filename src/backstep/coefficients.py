"""Plant coefficients, the spectral-shift condition and the decay floor.

The reaction coefficient is separated as ``c(x, t) = c1(x) + c2(t)`` with a
polynomial ``c1`` and a time family ``c2`` whose supremum over t > 0 is known
in closed form.  That makes the admissibility check ``lambda0 > sup c`` and
the decay floor ``lambda_lower = lambda0 - sup c`` exact up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

C2_KINDS = ("constant", "exp_decay", "damped_osc")

#: grid used to cross-check the closed-form suprema (per axis; the sum
#: c1(x) + c2(t) is separable so sampling each axis is equivalent to the
#: full 2001 x 2001 product grid).
_CONFIRM_NODES = 2001


def horner(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's rule, in place.

    The IEEE operations of ``npoly.polyval`` in its order (``c[-1] + x*0``,
    then times x plus the next coefficient), so the result is bit-identical,
    without polyval's broadcast of a reshaped coefficient array.  ``coeffs``
    are scalars or arrays that broadcast against x; a scalar x gives a float.
    """
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def horner2d(x, y, F):
    """sum F[i, j] x^i y^j: :func:`horner` in x per column, then in y (``npoly.polyval2d``'s order)."""
    return horner(y, [horner(x, col) for col in np.asarray(F).T])


class ValidationError(ValueError):
    """A problem specification violates an admissibility condition."""


def _check_finite(**values):
    """Raise ValidationError naming the first of ``values`` with a NaN or infinite entry."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CoefficientFamily:
    """Coefficient triple (c1, c2, f) of the plant.

    ``c1_poly`` holds ascending polynomial coefficients on [0, 1];
    ``f_poly`` a 2-D coefficient table ``f(x, y) = sum F[i][j] x^i y^j``.
    ``c2_kind`` selects the time family:

    * ``constant``:    c2(t) = a
    * ``exp_decay``:   c2(t) = a * exp(-b t), b > 0
    * ``damped_osc``:  c2(t) = a * sin(b t) * exp(-t)

    Every family is bounded and C^1 on t >= 0 by construction.
    """

    c1_poly: tuple = (0.0,)
    c2_kind: str = "constant"
    c2_a: float = 0.0
    c2_b: float = 0.0
    f_poly: tuple = ((0.0,),)

    def __post_init__(self):
        if self.c2_kind not in C2_KINDS:
            raise ValidationError(f"unknown c2 family {self.c2_kind!r}")
        c1 = tuple(float(c) for c in np.atleast_1d(self.c1_poly))
        if len(c1) == 0:
            raise ValidationError("c1_poly must be non-empty")
        fp = np.atleast_2d(np.asarray(self.f_poly, dtype=float))
        _check_finite(c1_poly=c1, c2_a=self.c2_a, c2_b=self.c2_b, f_poly=fp)
        if self.c2_kind == "exp_decay" and self.c2_b <= 0:
            raise ValidationError("exp_decay requires b > 0")
        object.__setattr__(self, "c1_poly", c1)
        object.__setattr__(self, "f_poly", tuple(tuple(row) for row in fp))

    # -- pointwise evaluation -------------------------------------------------

    def c1(self, x):
        return horner(x, self.c1_poly)

    def c2(self, t):
        t = np.asarray(t, dtype=float)
        if self.c2_kind == "constant":
            out = np.full_like(t, self.c2_a, dtype=float)
        elif self.c2_kind == "exp_decay":
            out = self.c2_a * np.exp(-self.c2_b * t)
        else:
            out = self.c2_a * np.sin(self.c2_b * t) * np.exp(-t)
        return out if out.ndim else float(out)

    def c2_integral(self, t):
        """C2(t) = int_0^t c2(s) ds (closed form per family)."""
        t = np.asarray(t, dtype=float)
        a, b = self.c2_a, self.c2_b
        if self.c2_kind == "constant":
            out = a * t
        elif self.c2_kind == "exp_decay":
            out = -(a / b) * np.expm1(-b * t)
        else:
            out = a * (b - np.exp(-t) * (np.sin(b * t) + b * np.cos(b * t))) / (1.0 + b * b)
        return out if out.ndim else float(out)

    def f(self, x, y):
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = horner2d(xb, yb, self.f_poly)
        return out if np.ndim(out) else float(out)

    @property
    def f_is_zero(self) -> bool:
        return not np.any(np.asarray(self.f_poly))

    # -- closed-form extrema --------------------------------------------------

    def c1_range(self) -> tuple[float, float]:
        """(min, max) of c1 on [0, 1], via the derivative's real roots."""
        coeffs = np.asarray(self.c1_poly)
        candidates = [0.0, 1.0]
        if len(coeffs) > 1:
            roots = npoly.polyroots(npoly.polyder(coeffs))
            for r in roots:
                if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= 1 + 1e-12:
                    candidates.append(min(max(r.real, 0.0), 1.0))
        vals = self.c1(np.asarray(candidates))
        return float(np.min(vals)), float(np.max(vals))

    def c2_sup(self) -> float:
        """Supremum of c2 over t > 0 (closed form per family)."""
        a, b = self.c2_a, self.c2_b
        if self.c2_kind == "constant":
            return a
        if self.c2_kind == "exp_decay":
            # a > 0 decays from a (limit t -> 0+); a < 0 rises to 0.
            return max(a, 0.0)
        if a == 0.0 or b == 0.0:
            return 0.0
        if b < 0:
            a, b = -a, -b
        s = b / math.sqrt(1.0 + b * b)  # sin at the first critical point
        if a > 0:
            # first local max of sin(bt)e^{-t}; later maxima shrink by e^{-2pi/b}
            return a * s * math.exp(-math.atan(b) / b)
        return -a * s * math.exp(-(math.atan(b) + math.pi) / b)


@dataclass(frozen=True)
class ProblemSpec:
    """A full plant description plus the spectral shift ``lambda0``."""

    family: CoefficientFamily = field(default_factory=CoefficientFamily)
    lambda0: float = 1.0
    horizon: float = 2.0
    sup_tolerance: float = 1e-9

    def __post_init__(self):
        _check_finite(lambda0=self.lambda0, horizon=self.horizon,
                      sup_tolerance=self.sup_tolerance)
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        if self.sup_tolerance <= 0:
            raise ValidationError("sup_tolerance must be positive")


def sup_c(spec: ProblemSpec) -> float:
    """Supremum of c over (0,1) x (0, inf).

    Closed form per family (the sum is separable), confirmed against dense
    1-D sampling of each factor on [0,1] and [0, horizon].
    """
    fam = spec.family
    analytic = fam.c1_range()[1] + fam.c2_sup()
    xs = np.linspace(0.0, 1.0, _CONFIRM_NODES)
    ts = np.linspace(0.0, spec.horizon, _CONFIRM_NODES)
    sampled = float(np.max(fam.c1(xs)) + np.max(fam.c2(ts)))
    if sampled > analytic + spec.sup_tolerance:
        raise ValidationError(
            f"sampled sup of c ({sampled:.12g}) exceeds the closed form "
            f"({analytic:.12g}); coefficient family is inconsistent"
        )
    return analytic


def lambda_lower(spec: ProblemSpec) -> float:
    """Decay floor: inf over (0,1) x (0, inf) of lambda0 - c(x, t)."""
    sup = sup_c(spec)
    lam = spec.lambda0 - sup
    if lam <= 0:
        raise ValidationError(
            f"lambda0 must exceed the supremum of c(x, t): "
            f"lambda0 = {spec.lambda0:.12g}, sup c = {sup:.12g}"
        )
    return lam

