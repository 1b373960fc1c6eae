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
#: slack of that cross-check: a sampled sup above the closed form by more is an error
_SUP_TOLERANCE = 1e-9
_HORIZON = 2.0  #: c2's sampling window: the cross-check is one-sided, so it moves no number


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


def poly_range(coeffs) -> tuple[float, float]:
    """(min, max) on [0, 1] of the polynomial with ascending ``coeffs``.

    Taken at the ends and at the derivative's real roots in [0, 1].  The
    derivative's leading coefficients at or below eps times its largest are
    dropped first: on [0, 1] they move it by a rounding error only, and the
    root solver divides by the leading one, so a negligible one would lose
    roots or overflow.  The full polynomial is evaluated at the candidates.
    """
    deriv = npoly.polyder(coeffs)
    deriv = npoly.polytrim(deriv, np.finfo(float).eps * np.max(np.abs(deriv)))
    candidates = [0.0, 1.0]
    for r in npoly.polyroots(deriv):
        if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= 1 + 1e-12:
            candidates.append(min(max(r.real, 0.0), 1.0))
    vals = horner(np.asarray(candidates), coeffs)
    return float(np.min(vals)), float(np.max(vals))


class ConfigError(ValueError):
    """A scenario that does not parse or is inadmissible: the command line exits 2.

    Every numerical failure is an ArithmeticError instead, and exits 3."""


def _check_finite(**values):
    """Raise ConfigError naming the first of ``values`` with a NaN or infinite entry."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value}")


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
            raise ConfigError(f"unknown c2 family {self.c2_kind!r}")
        c1 = tuple(float(c) for c in np.atleast_1d(self.c1_poly))
        fp = np.atleast_2d(np.asarray(self.f_poly, dtype=float))
        for name, value in (("c1_poly", c1), ("f_poly", fp)):
            if np.size(value) == 0:
                raise ConfigError(f"{name} must be non-empty")
        _check_finite(c1_poly=c1, c2_a=self.c2_a, c2_b=self.c2_b, f_poly=fp)
        if self.c2_kind == "exp_decay" and self.c2_b <= 0:
            raise ConfigError("exp_decay requires b > 0")
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
            with np.errstate(over="ignore"):  # -b t = -inf gives exp = 0, the exact limit
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
        # horner in x per column of f_poly, then in y: npoly.polyval2d's order, to the bit
        out = horner(yb, [horner(xb, col) for col in np.asarray(self.f_poly).T])
        return out if np.ndim(out) else float(out)

    @property
    def f_is_zero(self) -> bool:
        return not np.any(np.asarray(self.f_poly))

    # -- closed-form extrema --------------------------------------------------

    def c1_range(self) -> tuple[float, float]:
        """(min, max) of c1 on [0, 1], by :func:`poly_range`."""
        return poly_range(self.c1_poly)

    def c1_slope(self) -> float:
        """max |c1'| on [0, 1], by :func:`poly_range` of the derivative."""
        lo, hi = poly_range(npoly.polyder(self.c1_poly))
        return max(abs(lo), abs(hi))

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
        # sin at the first critical point, and its limit 1 once b * b overflows
        s = b / math.sqrt(1.0 + b * b) if b * b < math.inf else 1.0
        if a > 0:
            # first local max of sin(bt)e^{-t}; later maxima shrink by e^{-2pi/b}
            return a * s * math.exp(-math.atan(b) / b)
        return -a * s * math.exp(-(math.atan(b) + math.pi) / b)


@dataclass(frozen=True)
class ProblemSpec:
    """A plant and its spectral shift ``lambda0``; :func:`sup_c` alone decides if c is admissible."""

    family: CoefficientFamily = field(default_factory=CoefficientFamily)
    lambda0: float = 1.0

    def __post_init__(self):
        _check_finite(lambda0=self.lambda0)


def sup_c(spec: ProblemSpec) -> float:
    """Supremum of c over (0,1) x (0, inf), and the one decision on c's float range.

    Closed form per family (the sum is separable), confirmed against dense 1-D
    sampling of each factor on [0,1] and [0, _HORIZON], overflow ignored: a non-finite
    sample, c2 closed form, or c1 max, min or slope (which the kernel bound and the
    W^{1,p} floor read) is a ConfigError naming its key.
    """
    fam = spec.family
    xs = np.linspace(0.0, 1.0, _CONFIRM_NODES)
    ts = np.linspace(0.0, _HORIZON, _CONFIRM_NODES)
    with np.errstate(over="ignore", invalid="ignore"):
        c1 = fam.c1_range()[1], np.max(fam.c1(xs)), fam.c1_range()[0], fam.c1_slope()
        c2 = fam.c2_sup(), np.max(fam.c2(ts))  # |c2| <= |c2_a|: only c2_b, in b t, can overflow
        analytic, sampled = c1[0] + c2[0], float(c1[1] + c2[1])
    for key, vals in ((f"c1_poly = {fam.c1_poly}", c1), (f"c2_b = {fam.c2_b!r}", c2)):
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"{key} is out of float range: " + ", ".join(
                f"{n} {v:.6g}" for n, v in zip(("sup", "sampled", "min", "slope"), vals)))
    if not sampled <= analytic + _SUP_TOLERANCE:
        raise ConfigError(
            f"sampled sup of c ({sampled:.12g}) is not at most the closed form "
            f"({analytic:.12g}); coefficient family is inconsistent"
        )
    return analytic


def lambda_lower(spec: ProblemSpec) -> float:
    """Decay floor: inf over (0,1) x (0, inf) of lambda0 - c(x, t)."""
    sup = sup_c(spec)
    lam = spec.lambda0 - sup
    if not lam > 0:
        raise ConfigError(
            f"lambda0 must exceed the supremum of c(x, t): "
            f"lambda0 = {spec.lambda0:.12g}, sup c = {sup:.12g}"
        )
    return lam

