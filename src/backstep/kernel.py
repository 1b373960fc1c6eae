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
from numpy.polynomial import polynomial as npoly

from ._quad import cumquad, volterra_matrix
from .coefficients import ProblemSpec

MIN_N_XI = 33
_PAD = 8


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
    W = cumquad(V, d, axis=1)
    rows = np.arange(lat.n_eta)
    P = W - W[rows, rows][:, None]
    Q = cumquad(V[rows, rows], d)
    return 0.25 * P + 0.5 * Q[:, None]


def _psi_tables(f_poly: np.ndarray, lat: ChartLattice) -> list[np.ndarray]:
    """Expand f((tau-s)/2, z-(tau+s)/2) = sum_r z^r * psi_r(tau, s) on the lattice."""
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    XI, ETA = lat.mesh()
    a = (XI - ETA) / 2.0
    bneg = -(XI + ETA) / 2.0  # the z-free part of the second argument
    n_q = F.shape[1]
    a_polys = [npoly.polyval(a, F[:, q]) for q in range(n_q)]
    tables = []
    for r in range(n_q):
        acc = np.zeros_like(a)
        for q in range(r, n_q):
            acc += math.comb(q, r) * bneg ** (q - r) * a_polys[q]
        tables.append(acc)
    return tables


def _line_sum(W: np.ndarray, H: np.ndarray, stride: int = 1) -> np.ndarray:
    """Quadrature along the lattice lines xi + eta = const.

    Returns out[j, c] = sum_s W[j, s] H[s*stride, c + (j - s)*stride] for the
    rows s*stride of ``H`` (columns clipped to the lattice): skew the strided
    rows so each line becomes a column, apply W once, read the skew back.
    The skew is a strided view of one padded copy of the rows: zeros on the
    left, read only where the lower-triangular W is zero, and the edge
    column on the right, which is the clip.
    """
    Hs = H[::stride]
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
    XI, ETA = lat.mesh()
    G0 = 0.25 * problem.lambda0 * (XI + ETA)
    if not fam.f_is_zero:
        ftil = fam.f((XI + ETA) / 2.0, (XI - ETA) / 2.0)
        G0 = G0 + _double_parts(cumquad(ftil, lat.delta, axis=0), lat)
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
    """Certified bound M^(n+2) (xi+eta)^(n+1) / (n+1)! on the n-th increment."""
    if n < 0 or M < 0:
        raise ValueError("need n >= 0 and M >= 0")
    if M == 0.0:
        return 0.0
    s = xi + eta
    if s <= 0.0:
        return 0.0
    logb = (n + 2) * math.log(M) + (n + 1) * math.log(s) - math.lgamma(n + 2)
    return math.exp(logb)


def remainder_bound(n: int, M: float, xi: float, eta: float) -> float:
    """Certified bound on the sum of every increment from the n-th on.

    Consecutive terms of :func:`tail_bound` shrink by M (xi+eta)/(k+2) <=
    M (xi+eta)/(n+2) for k >= n, so the remainder is at most the n-th term
    over 1 - M (xi+eta)/(n+2); infinite unless M (xi+eta) < n + 2.
    """
    term = tail_bound(n, M, xi, eta)
    ratio = M * (xi + eta) / (n + 2)
    return term / (1.0 - ratio) if ratio < 1.0 else math.inf


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


def _build_grid(lat, G, M, increments, n_cert) -> KernelGrid:
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
    )


def picard_solve(problem: GoursatProblem, n_xi: int, tol: float, max_iter: int) -> KernelGrid:
    """Solve the kernel integral equation by successive approximation.

    Iterates ``G <- G0 + Phi(G)`` until the sup of the increment over the
    region drops below ``tol``, or until :func:`remainder_bound` says the
    sum of every remaining increment is already below ``tol`` (whichever
    happens first).  The iteration starts from G0.  Raises
    ConvergenceError when a sweep is still due after ``max_iter`` sweeps,
    or when the certified stop comes while the last increment is still
    >= ``tol`` (the increments have reached a rounding floor above the
    tolerance).
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    lat = ChartLattice(n_xi)
    XI, ETA = lat.mesh()
    react = problem.reaction_chart(XI, ETA)
    fam = problem.spec.family
    psi = None if fam.f_is_zero else _psi_tables(fam.f_poly, lat)
    WB = None if fam.f_is_zero else volterra_matrix(lat.n_eta, lat.delta)
    G0 = _g0_lattice(problem, lat)
    M = bound_constant_M(problem.spec)
    n_cert = 0
    while remainder_bound(n_cert, M, 2.0, 0.0) >= tol:
        n_cert += 1
        if n_cert > 1000:
            break
    region = lat.region_mask()
    G = G0
    increments: list[float] = []
    while len(increments) < n_cert and (not increments or increments[-1] >= tol):
        if len(increments) == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} sweeps "
                f"(last increment {increments[-1]:.3e} >= tol {tol:.3e}); "
                "the grid is too coarse for this tolerance",
                last_increment=increments[-1],
            )
        G_next = G0 + _apply_phi(react, psi, WB, problem.conv_sign, G, lat)
        increments.append(float(np.max(np.abs((G_next - G)[region]))))
        G = G_next
    if increments and increments[-1] >= tol:
        raise ConvergenceError(
            f"the certified stop after {n_cert} sweeps left an increment of "
            f"{increments[-1]:.3e} >= tol {tol:.3e}: the increments stagnate at "
            "a rounding floor, so this tolerance is out of reach",
            last_increment=increments[-1],
        )
    return _build_grid(lat, G, M, increments, n_cert)


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
    XI, ETA = lat.mesh()
    fam = problem.spec.family
    # interior nodes: rows st .. n_eta - st - 1 of the strided lattice
    inner = (slice(st, lat.n_eta - st, st), slice(st, -st))
    gxe = (Gs[2:, 2 * st:] - Gs[2:, :-2 * st]
           - Gs[:-2, 2 * st:] + Gs[:-2, :-2 * st]) / (4.0 * (st * d) ** 2)
    XIi, ETAi = XI[inner], ETA[inner]
    res = 4.0 * gxe - problem.reaction_chart(XIi, ETAi) * G[inner]
    if not fam.f_is_zero:
        Y = (XI - ETA) / 2.0
        F = np.asarray(fam.f_poly)
        W = volterra_matrix(len(Gs), st * d)
        conv = sum(Y[::st] ** q * _line_sum(W, npoly.polyval(Y, F[:, q]) * G, st)
                   for q in range(F.shape[1]))
        # conv has the strided rows only
        res -= fam.f((XIi + ETAi) / 2.0, Y[inner]) + problem.conv_sign * conv[1:-1, st:-st]
    inside = lat.region_mask()[inner]
    slope = np.gradient(grid.trace_diag, d, edge_order=2)
    bc_diag = float(np.max(np.abs(2.0 * slope - problem.lambda0)))
    return KernelResidual(float(np.max(np.abs(res[inside]))), bc_diag, float(abs(G[0, 0])),
                          st * d, int(np.count_nonzero(inside)))
