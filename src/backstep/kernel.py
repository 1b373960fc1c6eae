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
and one shared matrix product.  Their s-weights start with the fourth-order
row (9, 19, -5, 1)/24 on [0, delta] (Brunner, *Collocation Methods for
Volterra Integral Equations*, 2004), so the solve is fourth order with or
without f.  Picard iteration of this map converges
factorially; each increment obeys the certified bound :func:`tail_bound`.
A large lattice starts from the solution on its half lattice (nested
iteration), Richardson-extrapolated against the quarter lattice where there
is one, and :func:`warm_remainder_bound` caps that warm solve.

Discretisation: one uniform lattice with the same spacing ``delta`` in xi
and eta.  On that lattice every integration limit that appears in the
equation (xi, eta, z + eta - s, 2 z - s, the diagonal) is itself a lattice
node, so the sweeps reduce to cumulative quadrature without interpolation.
(xi +- eta)/2 takes only the values k delta / 2, so each coefficient
polynomial is evaluated once on those half nodes and read on the lattice
through strided views.
The lattice carries a few padding columns past xi = 2; the iterate extends
smoothly there (coefficients are polynomials), which lets all derivative
stencils on the closed region stay centered.  Values on the region are
unaffected by the padding: their integral recursions never read outside
the region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    def conv_sign(self) -> float:
        return 1.0 if self.orientation == "direct" else -1.0

    def reaction_lattice(self, lat: "ChartLattice", at=np.s_[:, :]) -> np.ndarray:
        """Reaction weight conv_sign lambda0 - c1((xi + eta)/2) + c1((xi - eta)/2) at the nodes
        ``at`` of ``lat``, from one c1 table on its half nodes."""
        plus, minus = lat.chart_views(self.spec.family.c1(lat.half_nodes))
        return self.conv_sign * self.spec.lambda0 - plus[at] + minus[at]


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

    @property
    def half_nodes(self) -> np.ndarray:
        """t_k = k delta / 2 for k = 1 - n_eta .. npts + n_eta - 2: every (xi +- eta) / 2."""
        return np.arange(1 - self.n_eta, self.npts + self.n_eta - 1) * (self.delta / 2.0)

    def chart_views(self, table: np.ndarray):
        """(T[i + j], T[i - j]) at node (j, i) for a table T on ``half_nodes``: two strided views."""
        V = sliding_window_view(table, self.npts)
        return V[self.n_eta - 1:], V[self.n_eta - 1::-1]

    @cached_property
    def _region_mask(self) -> np.ndarray:
        i = np.arange(self.npts)[None, :]
        j = np.arange(self.n_eta)[:, None]
        return _read_only((i >= j) & (i <= self.n_xi - 1 - j))

    def region_mask(self) -> np.ndarray:
        """True on lattice nodes with eta <= xi <= 2 - eta; formed once per lattice, read-only."""
        return self._region_mask


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
    out = cumquad(V, 0.25 * d, axis=1)  # 0.25 P, once the diagonal is subtracted
    out -= out[rows, rows][:, None]
    out += cumquad(V[rows, rows], 0.5 * d)[:, None]
    return out


def _x_polys(f_poly, lat: ChartLattice) -> list[np.ndarray]:
    """p_q = sum_p F[p, q] t^p on ``lat.half_nodes``, one table per power y^q of f(x, y)."""
    t = lat.half_nodes
    return [horner(t, col) for col in np.atleast_2d(np.asarray(f_poly, dtype=float)).T]


def _psi_tables(f_poly: np.ndarray, lat: ChartLattice) -> list[np.ndarray]:
    """Expand f((tau-s)/2, z-(tau+s)/2) = sum_r z^r * psi_r(tau, s) on the lattice.

    psi_r = sum_{q >= r} C(q, r) b^(q-r) p_q(a) with a = (tau-s)/2 and b = -(tau+s)/2;
    p_q and each scaled power of b are tables on the half nodes, read as views.
    """
    t = lat.half_nodes
    a_polys = [lat.chart_views(p)[1] for p in _x_polys(f_poly, lat)]
    tables = []
    for r in range(len(a_polys)):
        acc = np.zeros(a_polys[r].shape)
        acc += a_polys[r]  # the q = r term, since b ** 0 == 1
        for q in range(r + 1, len(a_polys)):
            acc += lat.chart_views(math.comb(q, r) * (-t) ** (q - r))[0] * a_polys[q]
        tables.append(acc)
    return tables


class _LineSum:
    """Quadrature along the lattice lines xi + eta = const, its buffers formed once.

    Called on ``Hs``, the lattice rows 0, stride, 2 stride, ... of a table H, it
    returns out[j, c] = sum_s W[j, s] Hs[s, c + (j - s)*stride] (columns clipped
    to the lattice on the right): skew the rows so each line becomes a column,
    apply W once, read the skew back.  The skew is a strided view of one padded
    row buffer: the edge column on the right, which is the clip; on the left,
    the two columns c = -1, -2 that a row of W reaching two nodes past the
    diagonal reads (the starting row of :func:`_source_weights`), each row's
    cubic through its columns 0..3, and zeros beyond, read only where W is
    zero.  The result is a view of one product buffer, valid until the next call.
    """

    def __init__(self, W: np.ndarray, npts: int, stride: int = 1):
        n, pad = len(W), (len(W) - 1) * stride
        ncols = npts + pad
        self.W, Hp, self._prod = W, np.zeros((n, ncols + pad)), np.empty((n, ncols))
        self._rows, self._right = Hp[:, pad:pad + npts], Hp[:, pad + npts:]
        self._left = Hp[:, pad - 2:pad]
        self._skew = sliding_window_view(Hp.ravel(), ncols)[pad::ncols + pad - stride][:n]
        self._back = sliding_window_view(self._prod.ravel(), npts, writeable=True)[::ncols + stride]

    def __call__(self, Hs: np.ndarray) -> np.ndarray:
        H, left = self._rows, self._left
        H[...] = Hs
        self._right[...] = H[:, -1:]
        left[:, 1] = 4.0 * H[:, 0] - 6.0 * H[:, 1] + 4.0 * H[:, 2] - H[:, 3]
        left[:, 0] = 4.0 * left[:, 1] - 6.0 * H[:, 0] + 4.0 * H[:, 1] - H[:, 2]
        np.matmul(self.W, self._skew, out=self._prod)
        return self._back


def _source_weights(lat: ChartLattice) -> np.ndarray:
    """WB: :func:`volterra_matrix` with its row 1, the two-node trapezoid, replaced by
    the fourth-order starting weights (9, 19, -5, 1)/24, which integrate cubics
    over [0, delta] from the nodes 0..3."""
    WB = volterra_matrix(lat.n_eta, lat.delta)
    WB[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0 * lat.delta
    return WB


def _f_lattice(f_poly, lat: ChartLattice, at=np.s_[:, :]) -> np.ndarray:
    """f((xi + eta)/2, (xi - eta)/2) at the nodes ``at`` of ``lat``.

    Horner in y over the x-polynomials' tables on the half nodes, each view
    sliced to ``at`` first.
    """
    return horner(lat.chart_views(lat.half_nodes)[1][at],
                  [lat.chart_views(p)[0][at] for p in _x_polys(f_poly, lat)])


def _g0_lattice(problem: GoursatProblem, lat: ChartLattice) -> np.ndarray:
    fam = problem.spec.family
    G0 = 0.25 * problem.spec.lambda0 * (lat.xi + lat.eta[:, None])
    if not fam.f_is_zero:
        G0 += _double_parts(cumquad(_f_lattice(fam.f_poly, lat), lat.delta, axis=0), lat)
    return G0


class _SweepOperator:
    """Everything a Picard sweep on ``lat`` reads except G, formed once per lattice.

    ``g0``, the reaction chart and, for f != 0, the psi tables, the x^r rows and
    one :class:`_LineSum` of :func:`_source_weights`, whose buffers every z-power
    shares.  A sweep is ``g0 + phi(G)``.
    """

    def __init__(self, problem: GoursatProblem, lat: ChartLattice):
        fam = problem.spec.family
        self.lat, self.sign = lat, problem.conv_sign
        self.g0 = _g0_lattice(problem, lat)
        self.react = problem.reaction_lattice(lat)
        self.psi = [] if fam.f_is_zero else _psi_tables(fam.f_poly, lat)
        self.xr = [lat.xi ** r for r in range(len(self.psi))]
        if self.psi:
            self.lines = _LineSum(_source_weights(lat), lat.npts)

    def phi(self, G: np.ndarray) -> np.ndarray:
        """Phi(G) = :func:`_double_parts` of V = int_0^{eta_j} react G ds + conv_sign S.

        S[j,i] = int_0^{eta_j} ds int_z^{z+eta_j-s} H(tau,s,z) dtau at z = xi_i, for
        f != 0, with H(tau,s,z) = f((tau-s)/2, z-(tau+s)/2) G(tau,s): both source
        triple integrals.  The tau-integrals are differences of one cumulative table
        Cr per z-power of the expanded f, so S = sum_r xi^r lines(Cr) - WB @ sum_r
        xi^r Cr; xi^r scales each line sum after its read-back, so the clipped edge
        column is read unscaled.
        """
        V = cumquad(self.react * G, self.lat.delta, axis=0)
        add, sub = (np.add, np.subtract) if self.sign > 0 else (np.subtract, np.add)
        for r, (ps, xr) in enumerate(zip(self.psi, self.xr)):
            Cr = cumquad(ps * G, self.lat.delta, axis=1)
            line = self.lines(Cr)
            if r:  # xi^0 = 1 scales nothing
                line *= xr
                Cr *= xr
                Csum += Cr
            else:
                Csum = Cr
            add(V, line, out=V)
        if self.psi:
            sub(V, self.lines.W @ Csum, out=V)
        return _double_parts(V, self.lat)


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
    """A converged kernel: what the solve produced, and every view derived from it.

    Stored: the ``lattice``, the growth constant ``bound_M``, G on the padded
    lattice (``values_xieta``), and the finest lattice's sweep ``increments``
    and certified cap ``n_certified``; ``level_sweeps`` counts the sweeps on
    each lattice of a nested solve, coarse to fine.  Derived from those, so
    they always agree with ``values_xieta``: ``n_xi``, ``delta``, ``x_nodes``,
    ``iterations_used`` and ``final_increment``; the kernel on the uniform
    triangle grid x_m = m delta (``values_xy``, zero above the diagonal) and
    its k_x (``kx_xy``), each formed once, on first read, and read-only;
    ``trace_diag``, k(x, x), and ``trace_kx1``, k_x(1, y).  These images are
    the one exact read: a profile grid on the lattice takes strided views of
    them.  ``values_at`` and ``kx1_at`` interpolate at arbitrary points.
    """

    lattice: ChartLattice
    bound_M: float
    values_xieta: np.ndarray
    increments: tuple
    n_certified: int
    level_sweeps: tuple

    @property
    def n_xi(self) -> int:
        return self.lattice.n_xi

    @property
    def delta(self) -> float:
        return self.lattice.delta

    @property
    def x_nodes(self) -> np.ndarray:
        """Triangle grid nodes shared by values_xy, trace_diag, trace_kx1."""
        return self.lattice.eta

    @property
    def iterations_used(self) -> int:
        return len(self.increments)

    @property
    def final_increment(self) -> float:
        return self.increments[-1] if self.increments else 0.0

    @cached_property
    def values_xy(self) -> np.ndarray:
        return _read_only(_triangle(self.values_xieta))

    @cached_property
    def kx_xy(self) -> np.ndarray:
        """k_x on the values_xy grid via chain-rule lattice differences."""
        return _read_only(_triangle(_kx_chart(self.values_xieta, self.delta)))

    @property
    def trace_diag(self) -> np.ndarray:
        """k(x, x): the bottom chart row at xi = 2 x, the diagonal of values_xy."""
        return self.values_xieta[0, :self.n_xi:2]

    @property
    def trace_kx1(self) -> np.ndarray:
        """k_x(1, y): the last row of kx_xy."""
        return self.kx_xy[-1]

    def values_at(self, x, y) -> np.ndarray:
        """Kernel values at arbitrary triangle points, by separable cubic Lagrange
        interpolation of the chart lattice (exact to rounding at its nodes)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _lagrange4_2d(self.values_xieta, (x + y) / self.delta, (x - y) / self.delta)

    def kx1_at(self, y) -> np.ndarray:
        """k_x(1, y) at arbitrary y in [0, 1], by cubic Lagrange interpolation
        along ``trace_kx1`` (exact to rounding at its nodes)."""
        b, w = _stencil(np.asarray(y, dtype=float) / self.delta, self.lattice.n_eta)
        return sum(w[..., a] * self.trace_kx1[b + a] for a in range(4))


def _triangle(chart: np.ndarray) -> np.ndarray:
    """Chart-lattice values read onto the triangle grid x_m = m delta.

    (x_a, y_b) is the chart node (eta, xi) = (a - b, a + b); zero above the
    diagonal.
    """
    m = np.arange(chart.shape[0])
    return np.where(m[:, None] >= m[None, :], chart[m[:, None] - m[None, :],
                                                    m[:, None] + m[None, :]], 0.0)


def _read_only(A: np.ndarray) -> np.ndarray:
    """A, locked against writes: a formed-once view is shared by every reader."""
    A.flags.writeable = False
    return A


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
    its first increment.  ``where`` names the lattice in an error message;
    an increment that is not finite raises at once, naming its sweep.  One
    :class:`_SweepOperator` holds what every sweep on ``lat`` reads but G.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed G0 shows in sweep 1
        op = _SweepOperator(problem, lat)
    region = lat.region_mask()
    if start is None:
        G, n_cert = op.g0, _certified_sweeps(lambda n: remainder_bound(n, M, 2.0, 0.0), 0, tol)
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
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by sweep
            G_next = op.phi(G)
            G_next += op.g0
            increments.append(float(np.max(np.abs(G_next - G), where=region, initial=0.0)))
        if not math.isfinite(increments[-1]):
            raise ConvergenceError(
                f"the increment of sweep {len(increments)} is {increments[-1]:g} on the "
                f"{'coarse ' if where else ''}lattice n_xi = {lat.n_xi}: the iteration "
                "overflowed a float", last_increment=increments[-1])
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
    when the certified stop comes while the last increment is still
    >= ``tol`` (the increments have reached a rounding floor above the
    tolerance), or when an increment is not finite (the iterate overflowed).
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
    return KernelGrid(levels[0], M, G, tuple(increments), n_cert, tuple(level_sweeps))


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
            float(np.max(np.abs(g.kx_xy))),
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


def _residual_source(problem: GoursatProblem, lat: ChartLattice, Gs: np.ndarray, st: int, inner):
    """f(x, y) + conv_sign int_y^x f(z, y) k(x, z) dz on :func:`residual`'s interior nodes ``inner``.

    ``Gs`` holds every ``st``-th lattice row, and the lattice index ``inner`` reads its
    rows 1 .. -2; f(z, y) = sum_q y^q p_q(z) gives one :class:`_LineSum` call per q, with p_q,
    y^q and f read off tables on the half nodes.
    """
    t = lat.half_nodes
    f_poly = problem.spec.family.f_poly
    lines = _LineSum(volterra_matrix(len(Gs), st * lat.delta), lat.npts, st)
    conv = sum(lat.chart_views(t ** q)[1][::st] * lines(lat.chart_views(p)[1][::st] * Gs)
               for q, p in enumerate(_x_polys(f_poly, lat)))
    return _f_lattice(f_poly, lat, inner) + problem.conv_sign * conv[1:-1, st:-st]


def residual(grid: KernelGrid, problem: GoursatProblem, h: float | None = None) -> KernelResidual:
    """Sup-norm residual of the kernel PDE at verification spacing ``h``.

    ``h`` must be a lattice multiple; the stencil strides the lattice so
    kernel values enter exactly.  For nonzero f the convolution
    int_y^x f(z, y) k(x, z) dz runs along the strided lines xi + eta = const,
    one :class:`_LineSum` call per y-power of f(z, y) = sum_q y^q sum_p F[p, q] z^p.
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
    res = 4.0 * gxe - problem.reaction_lattice(lat, inner) * G[inner]
    if not fam.f_is_zero:
        res -= _residual_source(problem, lat, Gs, st, inner)
    inside = lat.region_mask()[inner]
    slope = np.gradient(grid.trace_diag, d, edge_order=2)
    bc_diag = float(np.max(np.abs(2.0 * slope - problem.spec.lambda0)))
    return KernelResidual(float(np.max(np.abs(res[inside]))), bc_diag, float(abs(G[0, 0])),
                          st * d, int(np.count_nonzero(inside)))
