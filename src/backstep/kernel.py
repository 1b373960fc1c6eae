"""Goursat kernel problems solved by successive approximation.

The forward kernel k and the inverse kernel l both live on the triangle
D = {0 <= y <= x <= 1} and satisfy a hyperbolic problem with data on the
diagonal and the bottom edge.  In the characteristic variables
``xi = x + y, eta = x - y`` the problem becomes an integral equation

    G = G0 + Phi(G),

where ``G0`` collects the boundary data and the source double integrals and
``Phi`` applies the reaction-weighted double integrals plus (for nonzero
source f) two triple integrals.  Both share one table of s-integrals and one
quadrature in xi; the triple integrals add one line sum per power of z in f
and one shared matrix product.  Picard iteration of this map converges
factorially; each increment obeys the certified bound :func:`tail_bound`.
A large lattice starts from the solution on its half lattice (nested
iteration), Richardson-extrapolated against the quarter lattice where there
is one, and :func:`warm_remainder_bound` caps that warm solve.

Discretisation: one uniform lattice with the same spacing ``delta`` in xi
and eta.  On that lattice every integration limit that appears in the
equation (xi, eta, z + eta - s, 2 z - s, the diagonal) is itself a lattice
node, so the sweeps reduce to cumulative quadrature without interpolation.
The lattice carries a few padding columns past xi = 2; the iterate extends
smoothly there (coefficients are polynomials), which lets all derivative
stencils on the closed region stay centered.  Values on the region are
unaffected by the padding: their integral recursions never read outside
the region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import cumquad, volterra_matrix
from .coefficients import ProblemSpec, horner

MIN_N_XI = 33
_PAD = 8
#: A lattice n_xi starts from its half lattice (n_xi + 1) // 2 while that is odd
#: and at least this, so that 401 has two coarser levels (201 and 101) and its
#: start can be extrapolated; lattices below 201 start cold.
_NEST_FLOOR = 101


class ConvergenceError(RuntimeError):
    """Picard iteration stopped with the increment above tolerance.

    Either ``max_iter`` ran out, or the certified stop came while the
    increments stagnated at a rounding floor above the tolerance.
    """

    def __init__(self, message: str, last_increment: float):
        super().__init__(message)
        self.last_increment = last_increment


# --------------------------------------------------------------------------
# problem description and lattice
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GoursatProblem:
    """Direct or inverse kernel problem for a given plant.

    ``orientation`` selects both the reaction weight (mu for direct, phi
    for inverse) and the sign of the source convolution term (+ direct,
    - inverse).
    """

    orientation: str
    spec: ProblemSpec

    def __post_init__(self):
        if self.orientation not in ("direct", "inverse"):
            raise ValueError("orientation must be 'direct' or 'inverse'")

    @classmethod
    def direct(cls, spec: ProblemSpec) -> "GoursatProblem":
        return cls("direct", spec)

    @classmethod
    def inverse(cls, spec: ProblemSpec) -> "GoursatProblem":
        return cls("inverse", spec)

    @property
    def lambda0(self) -> float:
        return self.spec.lambda0

    @property
    def conv_sign(self) -> float:
        return 1.0 if self.orientation == "direct" else -1.0

    def reaction_chart(self, xi, eta):
        """Reaction weight in characteristic coordinates (any real args)."""
        fam = self.spec.family
        sign = self.conv_sign
        return sign * self.lambda0 - fam.c1((xi + eta) / 2.0) + fam.c1((xi - eta) / 2.0)


@dataclass(frozen=True)
class ChartLattice:
    """Aligned uniform lattice on the (xi, eta) chart with padding in xi."""

    n_xi: int

    def __post_init__(self):
        if self.n_xi < MIN_N_XI or self.n_xi % 2 == 0:
            raise ValueError(f"n_xi must be odd and >= {MIN_N_XI}")

    @property
    def delta(self) -> float:
        return 2.0 / (self.n_xi - 1)

    @property
    def n_eta(self) -> int:
        return (self.n_xi + 1) // 2

    @property
    def npts(self) -> int:
        return self.n_xi + _PAD

    @property
    def xi(self) -> np.ndarray:
        return np.arange(self.npts) * self.delta

    @property
    def eta(self) -> np.ndarray:
        return np.arange(self.n_eta) * self.delta

    def mesh(self):
        return np.meshgrid(self.xi, self.eta)

    def region_mask(self) -> np.ndarray:
        """True on lattice nodes with eta <= xi <= 2 - eta."""
        i = np.arange(self.npts)[None, :]
        j = np.arange(self.n_eta)[:, None]
        return (i >= j) & (i <= self.n_xi - 1 - j)


# --------------------------------------------------------------------------
# quadrature building blocks of the integral equation
# --------------------------------------------------------------------------


def _double_parts(V: np.ndarray, lat: ChartLattice) -> np.ndarray:
    """0.25 P + 0.5 Q, the xi-quadrature of V[j,i] = int_0^{eta_j} g(xi_i, s) ds.

    P[j,i] = int_{xi_j}^{xi_i} V(z, eta_j) dz and Q[j] = int_0^{eta_j} V(tau, tau) dtau,
    read on the diagonal of V because ``lat.xi[j] == lat.eta[j]``.
    """
    d = lat.delta
    rows = np.arange(lat.n_eta)
    Q = cumquad(V[rows, rows], d)
    out = cumquad(V, d, axis=1)
    out -= out[rows, rows][:, None]  # P, in place
    out *= 0.25
    out += 0.5 * Q[:, None]
    return out


def _psi_tables(f_poly: np.ndarray, lat: ChartLattice) -> list[np.ndarray]:
    """Expand f((tau-s)/2, z-(tau+s)/2) = sum_r z^r * psi_r(tau, s) on the lattice."""
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    xi, eta = lat.xi, lat.eta[:, None]
    a = (xi - eta) / 2.0
    bneg = -(xi + eta) / 2.0  # the z-free part of the second argument
    n_q = F.shape[1]
    a_polys = [horner(a, F[:, q]) for q in range(n_q)]
    # each power once; the q = r term is a_polys[r] itself, since bneg ** 0 == 1
    powers = [bneg ** k for k in range(1, n_q)]
    tables = []
    for r in range(n_q):
        acc = np.zeros_like(a)
        acc += a_polys[r]
        for q in range(r + 1, n_q):
            acc += math.comb(q, r) * powers[q - r - 1] * a_polys[q]
        tables.append(acc)
    return tables


def _line_sum(W: np.ndarray, Hs: np.ndarray, stride: int = 1) -> np.ndarray:
    """Quadrature along the lattice lines xi + eta = const.

    ``Hs`` holds the lattice rows 0, stride, 2 stride, ... of a table H.
    Returns out[j, c] = sum_s W[j, s] Hs[s, c + (j - s)*stride] (columns
    clipped to the lattice): skew the rows so each line becomes a column,
    apply W once, read the skew back.  The skew is a strided view of one
    padded copy of the rows: zeros on the left, read only where the
    lower-triangular W is zero, and the edge column on the right, which is
    the clip.
    """
    n, npts = Hs.shape
    pad = (n - 1) * stride
    ncols = npts + pad
    Hp = np.zeros((n, ncols + pad))
    Hp[:, pad:pad + npts] = Hs
    Hp[:, pad + npts:] = Hs[:, -1:]
    skew = sliding_window_view(Hp.ravel(), ncols)[pad::ncols + pad - stride][:n]
    return sliding_window_view((W @ skew).ravel(), npts)[::ncols + stride]


def _source_table(G: np.ndarray, psi: list[np.ndarray], WB: np.ndarray, lat: ChartLattice):
    """S[j,i] = int_0^{eta_j} ds int_z^{z+eta_j-s} H(tau,s,z) dtau at z = xi_i.

    H(tau,s,z) = f((tau-s)/2, z-(tau+s)/2) G(tau,s).  The xi-quadrature of S
    (:func:`_double_parts`) is both source triple integrals.  The tau-integrals
    are differences of one cumulative table Cr per z-power of the expanded f, so
    S = sum_r xi^r _line_sum(WB, Cr) - WB @ sum_r xi^r Cr; xi^r scales each line
    sum after its read-back, so the clipped edge column is read unscaled.
    """
    S = Csum = 0.0
    for r, ps in enumerate(psi):
        Cr = cumquad(ps * G, lat.delta, axis=1)
        xr = lat.xi ** r
        S = S + xr * _line_sum(WB, Cr)
        Csum = Csum + xr * Cr
    return S - WB @ Csum


def _g0_lattice(problem: GoursatProblem, lat: ChartLattice) -> np.ndarray:
    fam = problem.spec.family
    xi, eta = lat.xi, lat.eta[:, None]
    s = xi + eta
    G0 = 0.25 * problem.lambda0 * s
    if not fam.f_is_zero:
        ftil = fam.f(s / 2.0, (xi - eta) / 2.0)
        G0 += _double_parts(cumquad(ftil, lat.delta, axis=0), lat)
    return G0


def _apply_phi(react, psi, WB, conv_sign, G, lat):
    """Phi(G): one xi-quadrature of V = int_0^{eta_j} react G ds plus, for f != 0, +-S."""
    V = cumquad(react * G, lat.delta, axis=0)
    if psi is not None:
        V += conv_sign * _source_table(G, psi, WB, lat)
    return _double_parts(V, lat)


# --------------------------------------------------------------------------
# certified bounds
# --------------------------------------------------------------------------


def tail_bound(n: int, M: float, xi: float, eta: float) -> float:
    """Certified bound M^(n+2) (xi+eta)^(n+1) / (n+1)! on the n-th increment.

    Infinite where the bound passes the float range.
    """
    if n < 0 or M < 0:
        raise ValueError("need n >= 0 and M >= 0")
    if M == 0.0:
        return 0.0
    s = xi + eta
    if s <= 0.0:
        return 0.0
    logb = (n + 2) * math.log(M) + (n + 1) * math.log(s) - math.lgamma(n + 2)
    try:
        return math.exp(logb)
    except OverflowError:  # beyond the float range
        return math.inf


def remainder_bound(n: int, M: float, xi: float, eta: float) -> float:
    """Certified bound on the sum of every increment from the n-th on.

    Consecutive terms of :func:`tail_bound` shrink by M (xi+eta)/(k+2) <=
    M (xi+eta)/(n+2) for k >= n, so the remainder is at most the n-th term
    over 1 - M (xi+eta)/(n+2); infinite unless M (xi+eta) < n + 2.
    """
    term = tail_bound(n, M, xi, eta)
    ratio = M * (xi + eta) / (n + 2)
    return term / (1.0 - ratio) if ratio < 1.0 else math.inf


def warm_remainder_bound(n: int, M: float, first_increment: float) -> float:
    """Bound on the sum of every increment from the n-th on, from any start G_s.

    The k-th increment is Phi^k (G_1 - G_s) and ||Phi^k|| <= (2M)^k / k! on
    the region xi + eta <= 2, so the sum from n on is at most
    e1 sum_{k>=n} (2M)^k / k! with e1 = ``first_increment`` = ||G_1 - G_s||.
    Consecutive terms shrink by 2M/(k+1) <= 2M/(n+1), so that is at most the
    n-th term over 1 - 2M/(n+1); infinite unless 2M < n + 1.
    """
    if n < 0 or M < 0 or first_increment < 0:
        raise ValueError("need n >= 0, M >= 0 and first_increment >= 0")
    term = first_increment
    for k in range(1, n + 1):
        term *= 2.0 * M / k
    ratio = 2.0 * M / (n + 1)
    return term / (1.0 - ratio) if ratio < 1.0 else math.inf


def _certified_sweeps(bound, n: int, tol: float) -> int:
    """The first sweep count from n on whose remainder ``bound`` is below tol (at most 1001)."""
    while bound(n) >= tol:
        n += 1
        if n > 1000:
            break
    return n


def bound_constant_M(spec: ProblemSpec) -> float:
    """Growth constant (lambda1 + fbar) / 2 of the increment bound.

    fbar = sum |F_ij| bounds |f| on [0, 1]^2, since |x^i y^j| <= 1 there.
    """
    lo, hi = spec.family.c1_range()
    lam1 = abs(spec.lambda0) + (hi - lo)
    fbar = float(np.sum(np.abs(spec.family.f_poly)))
    return 0.5 * (lam1 + fbar)


# --------------------------------------------------------------------------
# closed-form series for f = 0, c1(x) = r x^2
# --------------------------------------------------------------------------


def _c_factor(m: int) -> float:
    return 1.0 / (m * (m + 1))


def series_coefficients(n_max: int, r: float) -> tuple:
    """Ragged coefficient table A[n][i] via the three-branch recursion.

    One rule covers all branches: with phantom parents A[n-1][-1] =
    A[n-1][n] = 0,

        A[n][i] = (A[n-1][i-1] - r A[n-1][i]) C_{2n-i},

    so A[n][0] picks up a factor -r C_{2n} per level and A[n][n] a factor
    C_n.  (Collecting terms in the level-n sum forces the -r weight on
    the second parent; it is required for consistency with the i = 0
    closed form and with the integral equation itself.)
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    rows = [(1.0,)]
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        row = [0.0] * (n + 1)
        row[0] = -r * _c_factor(2 * n) * prev[0]
        for i in range(1, n):
            row[i] = (prev[i - 1] - r * prev[i]) * _c_factor(2 * n - i)
        row[n] = prev[n - 1] * _c_factor(n)
        rows.append(tuple(row))
    return tuple(rows)


def series_oracle(lambda0: float, r: float, xi, eta, n_trunc: int):
    """Partial sum of the closed-form kernel series (f = 0, c1 = r x^2).

    The caller is responsible for matching the plant; wrong coefficients
    give a well-defined but meaningless number.
    """
    if n_trunc < 1:
        raise ValueError("n_trunc must be >= 1")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    table = series_coefficients(n_trunc, r)
    total = 0.25 * lambda0 * (xi + eta)
    for n in range(1, n_trunc + 1):
        quarter = 0.25 ** n
        inner = np.zeros_like(total)
        for i in range(0, n + 1):
            t_term = (
                xi ** (2 * n + 1 - i) * eta ** (2 * n - i)
                + xi ** (2 * n - i) * eta ** (2 * n + 1 - i)
            )
            inner = inner + (lambda0 ** i) * table[n][i] * t_term
        total = total + 0.25 * lambda0 * quarter * inner
    return total if total.ndim else float(total)


# --------------------------------------------------------------------------
# the solved kernel
# --------------------------------------------------------------------------


class KernelConstants(NamedTuple):
    alpha1: float
    alpha2: float
    alpha3: float
    beta1: float
    beta2: float
    beta3: float


@dataclass(frozen=True)
class KernelGrid:
    """A converged kernel on the chart lattice and its triangle image.

    ``values_xieta`` holds G on the padded lattice; ``values_xy`` the
    kernel on the uniform triangle grid x_m = m delta (zero above the
    diagonal); ``trace_diag`` is k(x, x) and ``trace_kx1`` is k_x(1, y).
    ``level_sweeps`` counts the sweeps on each lattice of a nested solve,
    coarse to fine; ``iterations_used``, ``increments`` and ``n_certified``
    are those of the finest lattice, ``n_xi``.
    """

    n_xi: int
    delta: float
    bound_M: float
    values_xieta: np.ndarray
    values_xy: np.ndarray
    trace_diag: np.ndarray
    trace_kx1: np.ndarray
    iterations_used: int
    final_increment: float
    increments: tuple
    n_certified: int
    level_sweeps: tuple

    @property
    def n_eta(self) -> int:
        return (self.n_xi + 1) // 2

    @property
    def x_nodes(self) -> np.ndarray:
        """Triangle grid nodes shared by values_xy, trace_diag, trace_kx1."""
        return np.arange(self.n_eta) * self.delta

    @property
    def lattice(self) -> ChartLattice:
        return ChartLattice(self.n_xi)

    def kx_xy(self) -> np.ndarray:
        """k_x on the values_xy grid via chain-rule lattice differences."""
        return _triangle(_kx_chart(self.values_xieta, self.delta))

    def node_index(self, t) -> np.ndarray | None:
        """Indices t / delta of coordinates t on the delta-spaced lattice.

        None unless every coordinate is within 1e-9 of a lattice node: the
        one test of whether a read is exact or interpolated.
        """
        s = np.asarray(t, dtype=float) / self.delta
        i = np.rint(s).astype(int)
        return i if np.all(np.abs(s - i) < 1e-9) else None

    def values_at(self, x, y) -> np.ndarray:
        """Kernel values at arbitrary triangle points.

        Exact lattice reads when the points sit on the chart lattice;
        otherwise separable cubic Lagrange interpolation.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        iu = self.node_index(x + y)
        iv = self.node_index(x - y)
        if iu is not None and iv is not None:
            return self.values_xieta[iv, iu]
        return _lagrange4_2d(self.values_xieta, (x + y) / self.delta, (x - y) / self.delta)

    def kx1_at(self, y) -> np.ndarray:
        """Derivative trace k_x(1, y) at arbitrary y in [0, 1].

        Exact reads of ``trace_kx1`` when every y sits on the lattice;
        otherwise cubic Lagrange interpolation along the trace.
        """
        y = np.asarray(y, dtype=float)
        idx = self.node_index(y)
        if idx is not None:
            return self.trace_kx1[idx]
        b, w = _stencil(y / self.delta, self.n_eta)
        return sum(w[..., a] * self.trace_kx1[b + a] for a in range(4))


def _triangle(chart: np.ndarray) -> np.ndarray:
    """Chart-lattice values read onto the triangle grid x_m = m delta.

    (x_a, y_b) is the chart node (eta, xi) = (a - b, a + b); zero above the
    diagonal.
    """
    m = np.arange(chart.shape[0])
    return np.where(m[:, None] >= m[None, :], chart[m[:, None] - m[None, :],
                                                    m[:, None] + m[None, :]], 0.0)


def _kx_chart(G: np.ndarray, delta: float) -> np.ndarray:
    """k_x = G_xi + G_eta on the chart lattice, second-order differences."""
    gxi = np.gradient(G, delta, axis=1, edge_order=2)
    geta = np.gradient(G, delta, axis=0, edge_order=2)
    return gxi + geta


def _lagrange_w(s: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights for offsets 0..3 at fractional position s."""
    w = np.empty(s.shape + (4,))
    w[..., 0] = -(s - 1) * (s - 2) * (s - 3) / 6.0
    w[..., 1] = s * (s - 2) * (s - 3) / 2.0
    w[..., 2] = -s * (s - 1) * (s - 3) / 2.0
    w[..., 3] = s * (s - 1) * (s - 2) / 6.0
    return w


def _stencil(s: np.ndarray, n: int):
    """First index and cubic Lagrange weights of the 4-node stencil read at s of n nodes."""
    b = np.clip(np.floor(s).astype(int) - 1, 0, n - 4)
    return b, _lagrange_w(s - b)


def _lagrange4_2d(G, u, v):
    nj, ni = G.shape
    bu, wu = _stencil(u, ni)
    bv, wv = _stencil(v, nj)
    out = np.zeros(np.broadcast(u, v).shape)
    for a in range(4):
        for b in range(4):
            out += wv[..., a] * wu[..., b] * G[bv + a, bu + b]
    return out


def _build_grid(lat, G, M, increments, n_cert, level_sweeps) -> KernelGrid:
    values_xy = _triangle(G)
    return KernelGrid(
        n_xi=lat.n_xi,
        delta=lat.delta,
        bound_M=M,
        values_xieta=G,
        values_xy=values_xy,
        trace_diag=np.diag(values_xy).copy(),
        trace_kx1=_triangle(_kx_chart(G, lat.delta))[-1].copy(),
        iterations_used=len(increments),
        final_increment=increments[-1] if increments else 0.0,
        increments=tuple(increments),
        n_certified=n_cert,
        level_sweeps=tuple(level_sweeps),
    )


def _midpoints(A: np.ndarray) -> np.ndarray:
    """The rows of A with the cubic midpoint of each neighbouring pair between them.

    Interior midpoints take (-1, 9, 9, -1)/16 of the four nearest rows; the
    first and the last take the one-sided (5, 15, -5, 1)/16 and its mirror.
    """
    out = np.empty((2 * len(A) - 1,) + A.shape[1:])
    out[::2] = A
    out[3:-3:2] = (9.0 * (A[1:-2] + A[2:-1]) - (A[:-3] + A[3:])) / 16.0
    out[1] = (5.0 * A[0] + 15.0 * A[1] - 5.0 * A[2] + A[3]) / 16.0
    out[-2] = (5.0 * A[-1] + 15.0 * A[-2] - 5.0 * A[-3] + A[-4]) / 16.0
    return out


def _prolong(Gc: np.ndarray, lat: ChartLattice) -> np.ndarray:
    """G on the half lattice of ``lat`` carried to ``lat``, along xi and then along eta.

    Coarse node (j, i) is fine node (2j, 2i).  The coarse padding covers
    every fine column, and the coarse rows end at the fine row n_eta - 1.
    """
    return _midpoints(_midpoints(Gc.T).T[:, :lat.npts])


def _sweeps(problem: GoursatProblem, lat: ChartLattice, start, M: float, tol: float,
            max_iter: int, where: str):
    """Picard sweeps on ``lat`` from G0 (``start`` None) or from ``start``.

    Returns (G, increments, n_certified).  A cold solve is capped by
    :func:`remainder_bound`, a warm one by :func:`warm_remainder_bound` of
    its first increment.  ``where`` names the lattice in an error message.
    """
    react = problem.reaction_chart(lat.xi, lat.eta[:, None])
    fam = problem.spec.family
    psi = None if fam.f_is_zero else _psi_tables(fam.f_poly, lat)
    WB = None if fam.f_is_zero else volterra_matrix(lat.n_eta, lat.delta)
    G0 = _g0_lattice(problem, lat)
    region = lat.region_mask()
    if start is None:
        G, n_cert = G0, _certified_sweeps(lambda n: remainder_bound(n, M, 2.0, 0.0), 0, tol)
    else:
        G, n_cert = start, math.inf  # until the first increment fixes the warm cap
    increments: list[float] = []
    while len(increments) < n_cert and (not increments or increments[-1] >= tol):
        if len(increments) == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} sweeps{where} "
                f"(last increment {increments[-1]:.3e} >= tol {tol:.3e}); "
                "the grid is too coarse for this tolerance",
                last_increment=increments[-1],
            )
        G_next = G0 + _apply_phi(react, psi, WB, problem.conv_sign, G, lat)
        increments.append(float(np.max(np.abs((G_next - G)[region]))))
        G = G_next
        if n_cert == math.inf:
            e1 = increments[0]
            n_cert = _certified_sweeps(lambda n: warm_remainder_bound(n, M, e1), 1, tol)
    if increments and increments[-1] >= tol:
        raise ConvergenceError(
            f"the certified stop after {n_cert} sweeps{where} left an increment of "
            f"{increments[-1]:.3e} >= tol {tol:.3e}: the increments stagnate at "
            "a rounding floor, so this tolerance is out of reach",
            last_increment=increments[-1],
        )
    return G, increments, n_cert


def picard_solve(problem: GoursatProblem, n_xi: int, tol: float, max_iter: int) -> KernelGrid:
    """Solve the kernel integral equation by successive approximation.

    Iterates ``G <- G0 + Phi(G)`` until the sup of the increment over the
    region drops below ``tol``, or until a certified bound says the sum of
    every remaining increment is already below ``tol`` (whichever happens
    first).  Nested iteration: while the half lattice ``(n_xi + 1) // 2`` is
    odd and at least ``_NEST_FLOOR``, the same problem is solved there first
    (to the same ``tol`` and ``max_iter``, itself nested) and carried over by
    the cubic midpoint rule as the start.  When the half lattice has a half
    lattice of its own, the carried solution G_c is first extrapolated to
    G_c + (G_c - G_cc) / 16, G_cc being the next coarser solution carried to
    G_c's lattice: the solver is fourth order, so that removes the leading
    O(h^4) difference between G_c and the solution on the lattice it starts.
    The coarsest lattice starts from G0 and is capped by
    :func:`remainder_bound`; a warm start, extrapolated or not, is capped by
    :func:`warm_remainder_bound`.  Raises ConvergenceError, naming a coarse
    lattice by its n_xi, when a sweep is still due after ``max_iter`` sweeps,
    or when the certified stop comes while the last increment is still
    >= ``tol`` (the increments have reached a rounding floor above the
    tolerance).
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    levels = [ChartLattice(n_xi)]
    while levels[-1].n_eta % 2 and levels[-1].n_eta >= _NEST_FLOOR:
        levels.append(ChartLattice(levels[-1].n_eta))
    M = bound_constant_M(problem.spec)
    G = carried = None  # the last solution, and the one before it carried to its lattice
    level_sweeps = []
    for lat in reversed(levels):
        where = "" if lat is levels[0] else f" on the coarse lattice n_xi = {lat.n_xi}"
        if G is None:
            start = None
        elif carried is None:
            start = carried = _prolong(G, lat)
        else:
            # a lattice of spacing h solves to G* + C h^4 + ...; with h that of lat,
            # G = G* + 16 C h^4 and carried = G* + 256 C h^4, so lat's own solution
            # G* + C h^4 is G + (G - carried) / 16 (the limit G* would take / 15)
            start = _prolong(G + (G - carried) / 16.0, lat)
            carried = None if lat is levels[0] else _prolong(G, lat)  # none past the finest
        G, increments, n_cert = _sweeps(problem, lat, start, M, tol, max_iter, where)
        level_sweeps.append(len(increments))
    return _build_grid(levels[0], G, M, increments, n_cert, level_sweeps)


def solve_inverse_kernel(spec: ProblemSpec, n_xi: int, tol: float, max_iter: int) -> KernelGrid:
    """Inverse-kernel counterpart of :func:`picard_solve`."""
    return picard_solve(GoursatProblem.inverse(spec), n_xi, tol, max_iter)


# --------------------------------------------------------------------------
# derived traces, constants, residuals
# --------------------------------------------------------------------------


def kernel_constants(k: KernelGrid, l: KernelGrid) -> KernelConstants:
    """Grid maxima of |k|, |k(x,x)|, |k_x| and the l-kernel analogues.

    The triangle arrays are zero above the diagonal, which leaves their maxima unchanged.
    """

    def three(g: KernelGrid):
        return (
            float(np.max(np.abs(g.values_xy))),
            float(np.max(np.abs(g.trace_diag))),
            float(np.max(np.abs(g.kx_xy()))),
        )

    a1, a2, a3 = three(k)
    b1, b2, b3 = three(l)
    return KernelConstants(a1, a2, a3, b1, b2, b3)


@dataclass(frozen=True)
class KernelResidual:
    """Residual report of the kernel problem on a converged grid.

    ``interior_sup`` measures the hyperbolic identity with centered
    stencils of spacing ``h``.  The boundary entries report the diagonal
    slope and the corner value.
    """

    interior_sup: float
    bc_diagonal: float
    bc_corner: float
    h: float
    n_points: int


def residual(grid: KernelGrid, problem: GoursatProblem, h: float | None = None) -> KernelResidual:
    """Sup-norm residual of the kernel PDE at verification spacing ``h``.

    ``h`` must be a lattice multiple; the stencil strides the lattice so
    kernel values enter exactly.  For nonzero f the convolution
    int_y^x f(z, y) k(x, z) dz runs along the strided lines xi + eta = const,
    one :func:`_line_sum` per y-power of f(z, y) = sum_q y^q sum_p F[p, q] z^p.
    """
    lat = grid.lattice
    d = lat.delta
    if h is None:
        h = d
    st = int(round(h / d))
    if st < 1 or abs(st * d - h) > 1e-9 * max(h, d):
        raise ValueError("h must be a positive multiple of the lattice spacing")
    if 2 * st > _PAD:
        raise ValueError("verification spacing too large for the lattice padding")
    G = grid.values_xieta
    Gs = G[::st]
    fam = problem.spec.family
    # interior nodes: rows st .. n_eta - st - 1 of the strided lattice, which are Gs[1:-1]
    inner = (slice(st, lat.n_eta - st, st), slice(st, -st))
    gxe = (Gs[2:, 2 * st:] - Gs[2:, :-2 * st]
           - Gs[:-2, 2 * st:] + Gs[:-2, :-2 * st]) / (4.0 * (st * d) ** 2)
    xi_i, eta_i = lat.xi[inner[1]], lat.eta[inner[0], None]
    res = 4.0 * gxe - problem.reaction_chart(xi_i, eta_i) * G[inner]
    if not fam.f_is_zero:
        Ys = (lat.xi - lat.eta[::st, None]) / 2.0  # y on the strided rows
        F = np.asarray(fam.f_poly)
        W = volterra_matrix(len(Gs), st * d)
        conv = sum(Ys ** q * _line_sum(W, horner(Ys, F[:, q]) * Gs, st)
                   for q in range(F.shape[1]))
        res -= fam.f((xi_i + eta_i) / 2.0, Ys[1:-1, st:-st]) + problem.conv_sign * conv[1:-1, st:-st]
    inside = lat.region_mask()[inner]
    slope = np.gradient(grid.trace_diag, d, edge_order=2)
    bc_diag = float(np.max(np.abs(2.0 * slope - problem.lambda0)))
    return KernelResidual(float(np.max(np.abs(res[inside]))), bc_diag, float(abs(G[0, 0])),
                          st * d, int(np.count_nonzero(inside)))
