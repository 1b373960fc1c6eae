import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.special import iv, jv

from backstep import kernel
from backstep._quad import cumquad, volterra_matrix
from backstep.coefficients import CoefficientFamily, ProblemSpec, horner
from backstep.kernel import (
    ChartLattice,
    ConvergenceError,
    GoursatProblem,
    _apply_phi,
    _double_parts,
    _g0_lattice,
    _line_sum,
    _psi_tables,
    _residual_source,
    _source_weights,
    bound_constant_M,
    kernel_constants,
    picard_solve,
    remainder_bound,
    residual,
    series_coefficients,
    series_oracle,
    tail_bound,
    warm_remainder_bound,
)
from backstep.verify import dump_kernel_csv, load_scenario

from conftest import zero_spec

REPO = Path(__file__).resolve().parents[1]


def bessel_direct(lambda0, xi, eta):
    """Closed form for c = 0, f = 0: modified-Bessel kernel in the chart."""
    z = np.sqrt(lambda0 * np.maximum(xi * eta, 0.0))
    ratio = np.where(z > 1e-12, 2 * iv(1, z) / np.maximum(z, 1e-300), 1.0 + z ** 2 / 8)
    return 0.25 * lambda0 * (xi + eta) * ratio


def bessel_inverse(lambda0, xi, eta):
    z = np.sqrt(lambda0 * np.maximum(xi * eta, 0.0))
    ratio = np.where(z > 1e-12, 2 * jv(1, z) / np.maximum(z, 1e-300), 1.0 - z ** 2 / 8)
    return 0.25 * lambda0 * (xi + eta) * ratio


def apply_phi(prob, values, n_xi):
    """One application of the sweep operator Phi to lattice values, with the sweep's operands."""
    lat = ChartLattice(n_xi)
    fam = prob.spec.family
    psi = None if fam.f_is_zero else _psi_tables(fam.f_poly, lat)
    WB = None if fam.f_is_zero else _source_weights(lat)
    return _apply_phi(prob.reaction_lattice(lat), psi, WB, prob.conv_sign, values, lat)


class TestGInitial:
    """G0 on the n_xi = 41 lattice at the node (xi, eta) = (1, 0.5)."""

    @staticmethod
    def g0(f_poly, lambda0, node=(10, 20)):
        prob = GoursatProblem.direct(ProblemSpec(CoefficientFamily(f_poly=f_poly), lambda0))
        return _g0_lattice(prob, ChartLattice(41))[node]

    def test_no_source(self):
        assert self.g0(((0.0,),), 10.0) == pytest.approx(3.75, abs=1e-14)

    def test_corner(self):
        assert self.g0(((1.0,),), 3.0, node=(0, 0)) == 0.0

    def test_constant_source(self):
        assert self.g0(((1.0,),), 0.0) == pytest.approx(0.125, abs=1e-12)


class TestPhiOperator:
    def test_zero_input(self):
        prob = GoursatProblem.direct(ProblemSpec(CoefficientFamily(), lambda0=4.0))
        lat = ChartLattice(41)
        out = apply_phi(prob, np.zeros((lat.n_eta, lat.npts)), 41)
        assert np.all(out == 0.0)

    def test_constant_input_exact(self):
        prob = GoursatProblem.direct(ProblemSpec(CoefficientFamily(), lambda0=4.0))
        lat = ChartLattice(41)
        out = apply_phi(prob, np.ones((lat.n_eta, lat.npts)), 41)
        XI, ETA = lat.mesh()
        assert out[10, 20] == pytest.approx(0.5, abs=1e-13)  # (xi, eta) = (1, 0.5)
        reg = lat.region_mask()
        assert np.max(np.abs((out - XI * ETA)[reg])) < 1e-12

    def test_linearity(self, rng):
        spec = ProblemSpec(
            CoefficientFamily(c1_poly=(0, 1.0), f_poly=((0.5, 0.2), (0.1, 0.0))),
            lambda0=3.0,
        )
        prob = GoursatProblem.direct(spec)
        lat = ChartLattice(41)
        g1 = rng.normal(size=(lat.n_eta, lat.npts))
        g2 = rng.normal(size=(lat.n_eta, lat.npts))
        a, b = 1.7, -0.4
        lhs = apply_phi(prob, a * g1 + b * g2, 41)
        rhs = a * apply_phi(prob, g1, 41) + b * apply_phi(prob, g2, 41)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @staticmethod
    def source_error(f_poly, exact, n_xi) -> float:
        """Max region error of Phi(1) with lambda0 = 0, c1 = 0: only the triple integrals."""
        prob = GoursatProblem.direct(ProblemSpec(CoefficientFamily(f_poly=f_poly), lambda0=0.0))
        lat = ChartLattice(n_xi)
        out = apply_phi(prob, np.ones((lat.n_eta, lat.npts)), n_xi)
        XI, ETA = lat.mesh()
        return float(np.max(np.abs((out - exact(XI, ETA))[lat.region_mask()])))

    def test_source_integrals_closed_form(self):
        def unit(xi, eta):  # f = 1
            return (xi - eta) * eta ** 2 / 8 + eta ** 3 / 12

        def linear_y(xi, eta):  # f = y: the z^1 term of the expanded source
            return eta ** 2 * (xi - eta) ** 2 / 32 + eta ** 3 * (xi - eta) / 48 + eta ** 4 / 96

        assert self.source_error(((1.0,),), unit, 41) < 1e-13
        coarse = self.source_error(((0.0, 1.0),), linear_y, 41)
        assert coarse < 5e-6
        # fourth order: the starting row of WB (a trapezoid there dropped by 8)
        fine = self.source_error(((0.0, 1.0),), linear_y, 81)
        assert fine < coarse / 12
        assert self.source_error(((0.0, 1.0),), linear_y, 161) < fine / 12


def gather_line_sum(W, H, stride=1):
    """The line sum by explicit index gathers: the skewed rows, clipped columns, read back.

    Columns -2 and -1 hold each row's cubic extrapolation (npoly.polyfit through
    columns 0..3); further left the gather clips to column -2, where W is zero.
    """
    Hs = H[::stride]
    n, npts = Hs.shape
    ext = npoly.polyval(np.array([-2.0, -1.0]), npoly.polyfit(np.arange(4.0), Hs[:, :4].T, 3))
    He = np.hstack([ext, Hs])
    s = np.arange(n)[:, None]
    skew = np.clip(np.arange(npts + (n - 1) * stride) - s * stride, -2, npts - 1) + 2
    return np.take_along_axis(W @ He[s, skew], np.arange(npts) + s * stride, axis=1)


class TestLineSum:
    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_bit_equal_to_gather(self, rng, n_xi, stride):
        lat = ChartLattice(n_xi)
        H = rng.standard_normal((lat.n_eta, lat.npts))
        # the clip reads the last column past the lattice: give it distinct values
        H[:, -1] = 10.0 + np.arange(lat.n_eta)
        W = volterra_matrix(len(H[::stride]), stride * lat.delta)
        assert np.array_equal(_line_sum(W, H[::stride], stride), gather_line_sum(W, H, stride))

    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    def test_starting_row_reads_the_cubic_extension(self, rng, n_xi):
        # row 1 of WB reaches s = 3, two columns left of the lattice at c = 0
        lat = ChartLattice(n_xi)
        H = rng.standard_normal((lat.n_eta, lat.npts))
        WB = _source_weights(lat)
        out, ref = _line_sum(WB, H), gather_line_sum(WB, H)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        # where each row is a cubic in xi, the extension is that cubic at xi < 0
        coef = rng.standard_normal((4, lat.n_eta))
        cubics = npoly.polyval(lat.xi, coef)  # row s: the cubic of column s of coef
        exact = [sum(WB[1, s] * npoly.polyval((c + 1 - s) * lat.delta, coef[:, s])
                     for s in range(4)) for c in (0, 1)]
        assert np.allclose(_line_sum(WB, cubics)[1, :2], exact, rtol=1e-13, atol=0.0)


def per_power_phi(react, psi, WB, conv_sign, G, lat):
    """Phi(G) composed power by power: the reaction double integrals, then per z-power
    of f the xi-cumquad of its triple-integral table and its diagonal, then the sum."""
    d = lat.delta
    rows = np.arange(lat.n_eta)
    V = cumquad(react * G, d, axis=0)
    W = cumquad(V, d, axis=1)
    out = 0.25 * (W - W[rows, rows][:, None]) + 0.5 * cumquad(V[rows, rows], d)[:, None]
    if psi is None:
        return out
    P3 = np.zeros_like(G)
    E = np.zeros(lat.n_eta)
    for r, ps in enumerate(psi):
        Cr = cumquad(ps * G, d, axis=1)
        B = gather_line_sum(WB, Cr) - WB @ Cr
        C = cumquad(lat.xi ** r * B, d, axis=1)
        P3 += C - C[rows, rows][:, None]
        E += lat.eta ** r * B[rows, rows]
    return out + conv_sign * (0.25 * P3 + 0.5 * cumquad(E, d)[:, None])


class TestFoldedSweep:
    """The sweep's single xi-quadrature against the per-power composition."""

    @staticmethod
    def operands(f_poly, orientation, n_xi):
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.3, -0.2), f_poly=f_poly), 2.0)
        prob = GoursatProblem(orientation, spec)
        lat = ChartLattice(n_xi)
        fam = spec.family
        psi = None if fam.f_is_zero else _psi_tables(fam.f_poly, lat)
        WB = None if fam.f_is_zero else _source_weights(lat)
        return prob.reaction_lattice(lat), psi, WB, prob.conv_sign, lat

    @pytest.mark.parametrize("n_xi", [33, 201])
    @pytest.mark.parametrize("orientation", ["direct", "inverse"])
    @pytest.mark.parametrize("f_poly", [((0.5, 0.2), (0.1, -0.3)),
                                        ((1.0, 0.2, -0.4), (0.3, 0.5, 0.1), (-0.2, 0.0, 0.7))])
    def test_agrees_with_per_power_composition(self, rng, n_xi, orientation, f_poly):
        react, psi, WB, sign, lat = self.operands(f_poly, orientation, n_xi)
        G = rng.standard_normal((lat.n_eta, lat.npts))
        ref = per_power_phi(react, psi, WB, sign, G, lat)[lat.region_mask()]
        out = _apply_phi(react, psi, WB, sign, G, lat)[lat.region_mask()]
        assert np.max(np.abs(out - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("orientation", ["direct", "inverse"])
    def test_f0_bit_equal_to_double_parts(self, rng, orientation):
        react, psi, WB, sign, lat = self.operands(((0.0,),), orientation, 201)
        G = rng.standard_normal((lat.n_eta, lat.npts))
        out = _apply_phi(react, psi, WB, sign, G, lat)
        assert np.array_equal(out, per_power_phi(react, psi, WB, sign, G, lat))
        assert np.array_equal(out, _double_parts(cumquad(react * G, lat.delta, axis=0), lat))

    @pytest.mark.parametrize("n_xi", [33, 41, 201, 401, 801, 1601])
    def test_diagonal_nodes_bit_equal(self, n_xi):
        # Q reads int_0^tau g ds on the diagonal of V: xi_j must be eta_j to the bit
        lat = ChartLattice(n_xi)
        assert np.array_equal(lat.xi[:lat.n_eta], lat.eta)

    def test_cumquad_calls_per_sweep(self, rng, monkeypatch):
        f_poly = ((1.0, 0.2, -0.4), (0.3, 0.5, 0.1), (-0.2, 0.0, 0.7))
        react, psi, WB, sign, lat = self.operands(f_poly, "direct", 33)
        calls = []
        monkeypatch.setattr(kernel, "cumquad", lambda *a, **k: calls.append(1) or cumquad(*a, **k))
        _apply_phi(react, psi, WB, sign, rng.standard_normal((lat.n_eta, lat.npts)), lat)
        assert len(psi) == 3 and len(calls) == len(psi) + 3


class TestTailBound:
    def test_base_case(self):
        assert tail_bound(0, 5.0, 2.0, 0.0) == pytest.approx(50.0)

    def test_zero_growth(self):
        assert all(tail_bound(n, 0.0, 1.0, 1.0) == 0.0 for n in range(5))

    def test_summable(self):
        M, s = 3.0, 2.0
        total = sum(tail_bound(n, M, s, 0.0) for n in range(200))
        assert total <= M * math.exp(M * s)

    def test_invalid(self):
        with pytest.raises(ValueError):
            tail_bound(-1, 1.0, 1.0, 0.0)

    def test_beyond_float_range_is_infinite(self):
        # lambda0 = 1000 gives M = 500: the bound passes the float range near n = 340
        assert tail_bound(340, 500.0, 2.0, 0.0) == math.inf
        assert remainder_bound(340, 500.0, 2.0, 0.0) == math.inf
        assert math.isfinite(tail_bound(335, 500.0, 2.0, 0.0))

    @pytest.mark.parametrize("M", [0.0, 2.0, 3.0, 6.0])
    def test_remainder_bounds_the_sum(self, M):
        for n in range(60):
            rest = math.fsum(tail_bound(k, M, 2.0, 0.0) for k in range(n, n + 400))
            bound = remainder_bound(n, M, 2.0, 0.0)
            assert rest <= bound
            assert math.isinf(bound) == (2.0 * M >= n + 2)

    @pytest.mark.parametrize("M", [0.0, 2.0, 3.0, 6.0])
    def test_warm_remainder_bounds_the_sum(self, M):
        e1 = 1e-8
        for n in range(60):
            rest = e1 * math.fsum(math.exp(k * math.log(2.0 * M) - math.lgamma(k + 1))
                                  for k in range(n, n + 400)) if M else (e1 if n == 0 else 0.0)
            bound = warm_remainder_bound(n, M, e1)
            assert rest <= bound * (1.0 + 1e-12)
            assert math.isinf(bound) == (2.0 * M >= n + 1)

    def test_warm_invalid(self):
        with pytest.raises(ValueError):
            warm_remainder_bound(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            warm_remainder_bound(1, 1.0, -1.0)


class TestBoundConstantM:
    def test_pure_shift(self):
        assert bound_constant_M(ProblemSpec(CoefficientFamily(), lambda0=10.0)) == 5.0

    def test_pure_source(self):
        spec = ProblemSpec(CoefficientFamily(f_poly=((2.0,),)), lambda0=0.0)
        assert bound_constant_M(spec) == pytest.approx(1.0)

    def test_null(self):
        assert bound_constant_M(zero_spec()) == 0.0

    def test_sign_changing_source(self):
        # sup |x - y| on [0, 1]^2 is 1; the coefficient sum 2 is the proven bound
        spec = ProblemSpec(CoefficientFamily(f_poly=((0.0, -1.0), (1.0, 0.0))), lambda0=0.0)
        assert bound_constant_M(spec) == 1.0


class TestSeriesCoefficients:
    def test_first_row(self):
        table = series_coefficients(3, 2.0)
        assert table[1][1] == pytest.approx(0.5)
        assert table[1][0] == pytest.approx(-2.0 / 6.0)

    def test_zero_r_kills_first_column(self):
        table = series_coefficients(6, 0.0)
        assert all(table[n][0] == 0.0 for n in range(1, 7))

    def test_closed_form_edges(self):
        r = 1.7
        table = series_coefficients(8, r)
        for n in range(1, 9):
            prod_cm = math.prod(1.0 / (m * (m + 1)) for m in range(1, n + 1))
            prod_c2m = math.prod(1.0 / (2 * m * (2 * m + 1)) for m in range(1, n + 1))
            assert table[n][n] == pytest.approx(prod_cm, rel=1e-13)
            assert table[n][0] == pytest.approx((-r) ** n * prod_c2m, rel=1e-13)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            series_coefficients(0, 1.0)
        with pytest.raises(ValueError):
            series_coefficients(3, -1.0)


class TestSeriesOracle:
    def test_bottom_edge(self):
        xi = np.linspace(0, 2, 11)
        vals = series_oracle(10.0, 2.0, xi, np.zeros_like(xi), 10)
        assert np.max(np.abs(vals - 10.0 * xi / 4.0)) < 1e-14

    def test_single_term_formula(self):
        lam0, r = 6.0, 2.0
        xi, eta = 1.1, 0.6
        t1 = xi ** 2 * eta + xi * eta ** 2
        t2 = xi ** 3 * eta ** 2 + xi ** 2 * eta ** 3
        expected = lam0 / 4 * (xi + eta) + (lam0 / 16) * (lam0 / 2 * t1 - r / 6 * t2)
        assert series_oracle(lam0, r, xi, eta, 1) == pytest.approx(expected, rel=1e-14)


class TestPicard:
    def test_null_problem(self):
        grid = picard_solve(GoursatProblem.direct(zero_spec()), n_xi=65, tol=1e-12, max_iter=5)
        assert grid.iterations_used == 0
        assert np.all(grid.values_xieta == 0.0)
        assert np.all(grid.values_xy == 0.0)

    def test_bessel_oracle_direct(self):
        spec = ProblemSpec(CoefficientFamily(), lambda0=10.0)
        grid = picard_solve(GoursatProblem.direct(spec), n_xi=101, tol=1e-11, max_iter=80)
        lat = grid.lattice
        XI, ETA = lat.mesh()
        reg = lat.region_mask()
        exact = bessel_direct(10.0, XI, ETA)
        assert np.max(np.abs((grid.values_xieta - exact)[reg])) < 1e-5

    def test_bessel_oracle_inverse(self):
        spec = ProblemSpec(CoefficientFamily(), lambda0=10.0)
        grid = picard_solve(GoursatProblem.inverse(spec), n_xi=101, tol=1e-11, max_iter=80)
        lat = grid.lattice
        XI, ETA = lat.mesh()
        reg = lat.region_mask()
        exact = bessel_inverse(10.0, XI, ETA)
        assert np.max(np.abs((grid.values_xieta - exact)[reg])) < 1e-5

    def test_series_agreement(self, spec_rx2, kernels_rx2_101):
        k, _ = kernels_rx2_101
        lat = k.lattice
        XI, ETA = lat.mesh()
        reg = lat.region_mask()
        series = series_oracle(10.0, 2.0, XI[reg], ETA[reg], 25)
        assert np.max(np.abs(k.values_xieta[reg] - series)) < 2e-5

    def test_bottom_row_is_boundary_data(self, spec_rx2, kernels_rx2_101):
        k, l = kernels_rx2_101
        for grid in (k, l):
            lat = grid.lattice
            expect = 0.25 * spec_rx2.lambda0 * lat.xi[: grid.n_xi]
            assert np.max(np.abs(grid.values_xieta[0, : grid.n_xi] - expect)) < 1e-13

    def test_diagonal_trace_exact(self, spec_rx2, kernels_rx2_101):
        k, l = kernels_rx2_101
        for grid in (k, l):
            expect = 0.5 * spec_rx2.lambda0 * grid.x_nodes
            assert np.max(np.abs(grid.trace_diag - expect)) < 1e-13

    def test_increments_below_certified_bound(self, kernels_rx2_101):
        for grid in kernels_rx2_101:
            for n, inc in enumerate(grid.increments):
                assert inc <= 1.1 * tail_bound(n, grid.bound_M, 2.0, 0.0)

    def test_certified_stop_bounds_remainder(self, kernels_rx2_101):
        # solved at tol = 1e-11: the certified stop is the first n whose remaining
        # increments sum below tol, one sweep after the first term below tol
        tol = 1e-11
        for grid in kernels_rx2_101:
            n, M = grid.n_certified, grid.bound_M
            assert math.fsum(tail_bound(k, M, 2.0, 0.0) for k in range(n, n + 400)) < tol
            assert remainder_bound(n, M, 2.0, 0.0) < tol <= remainder_bound(n - 1, M, 2.0, 0.0)
            assert tail_bound(n - 1, M, 2.0, 0.0) < tol

    def test_uniqueness_diagnostic(self, spec_rx2):
        # iterate from a perturbed start G0 + bump: same fixed point (contraction)
        prob = GoursatProblem.direct(spec_rx2)
        tol = 1e-10
        base = picard_solve(prob, n_xi=65, tol=tol, max_iter=80)
        lat = base.lattice
        XI, ETA = lat.mesh()
        reg = lat.region_mask()
        g0 = _g0_lattice(prob, lat)
        G = g0 + np.sin(np.pi * XI / 2.0) * np.cos(ETA)  # smooth bump, sup <= 1
        for _ in range(120):
            G_next = g0 + apply_phi(prob, G, 65)
            inc = np.max(np.abs((G_next - G)[reg]))
            G = G_next
            if inc < tol:
                break
        else:
            pytest.fail(f"perturbed iteration did not converge (last increment {inc:.3e})")
        gap = np.max(np.abs((G - base.values_xieta)[reg]))
        assert gap < 10 * tol

    def test_nonconvergence_error(self, spec_rx2):
        with pytest.raises(ConvergenceError) as err:
            picard_solve(GoursatProblem.direct(spec_rx2), n_xi=65, tol=1e-12, max_iter=2)
        assert err.value.last_increment > 0

    def test_grid_preconditions(self, spec_rx2):
        prob = GoursatProblem.direct(spec_rx2)
        with pytest.raises(ValueError):
            picard_solve(prob, n_xi=32, tol=1e-10, max_iter=80)
        with pytest.raises(ValueError):
            picard_solve(prob, n_xi=31, tol=1e-10, max_iter=80)
        with pytest.raises(ValueError):
            picard_solve(prob, n_xi=65, tol=-1.0, max_iter=80)


SPEC_SOURCE = ProblemSpec(
    CoefficientFamily(c1_poly=(0.0, 0.0, 1.0), f_poly=((1.0, 0.0), (0.0, 1.0))), lambda0=3.0)
NEST_TOL = 1e-10


@pytest.fixture(scope="module")
def nested_401(spec_rx2):
    """(problem, grid) at n_xi = 401, nested over its n_xi = 201 and 101 solutions."""
    return [(prob, picard_solve(prob, n_xi=401, tol=NEST_TOL, max_iter=80))
            for prob in (GoursatProblem.direct(spec_rx2), GoursatProblem.direct(SPEC_SOURCE))]


class TestNested:
    def test_levels(self, spec_rx2, nested_401):
        for _, grid in nested_401:
            assert len(grid.level_sweeps) == 3
            assert grid.level_sweeps[-1] == grid.iterations_used == len(grid.increments)
            assert grid.iterations_used < grid.level_sweeps[0]
        prob = GoursatProblem.direct(spec_rx2)
        # 403 halves to the even 202; 801 nests three times (401, 201, then 101)
        assert len(picard_solve(prob, n_xi=403, tol=NEST_TOL, max_iter=80).level_sweeps) == 1
        assert len(picard_solve(prob, n_xi=801, tol=NEST_TOL, max_iter=80).level_sweeps) == 4

    def test_warm_increments_below_warm_bound(self, nested_401):
        # mirrors test_increments_below_certified_bound: ||Phi^k|| <= (2M)^k / k!
        for _, grid in nested_401:
            e1, two_m = grid.increments[0], 2.0 * grid.bound_M
            for k, inc in enumerate(grid.increments):
                assert inc <= 1.1 * e1 * two_m ** k / math.factorial(k)

    def test_warm_certified_stop(self, nested_401):
        # the warm cap comes from the first increment, not from the cold remainder_bound
        for _, grid in nested_401:
            n, M, e1 = grid.n_certified, grid.bound_M, grid.increments[0]
            assert warm_remainder_bound(n, M, e1) < NEST_TOL <= warm_remainder_bound(n - 1, M, e1)
            assert grid.iterations_used <= n

    def test_matches_cold_solve(self, nested_401):
        for prob, grid in nested_401:
            lat = grid.lattice
            cold, increments, n_cert = kernel._sweeps(prob, lat, None, grid.bound_M, NEST_TOL, 80, "")
            assert remainder_bound(n_cert, grid.bound_M, 2.0, 0.0) < NEST_TOL
            assert len(increments) > grid.iterations_used
            gap = np.max(np.abs((grid.values_xieta - cold)[lat.region_mask()]))
            assert gap < 10 * NEST_TOL

    def test_extrapolated_start_at_801(self, spec_rx2):
        # 801 starts from its 401 solution extrapolated against the 201 one; the
        # plain carried-over start took 5 (f = 0) and 3 (f = 1 + xy) fine sweeps
        for spec in (spec_rx2, SPEC_SOURCE):
            prob = GoursatProblem.direct(spec)
            grid = picard_solve(prob, n_xi=801, tol=NEST_TOL, max_iter=80)
            assert grid.level_sweeps[-1] == grid.iterations_used <= 2
            lat = grid.lattice
            cold, _, _ = kernel._sweeps(prob, lat, None, grid.bound_M, NEST_TOL, 80, "")
            assert np.max(np.abs((grid.values_xieta - cold)[lat.region_mask()])) < 10 * NEST_TOL

    def test_source_xy_sweeps_at_801(self):
        # the starting row of WB makes the f != 0 solve fourth order, as the /16
        # extrapolation assumes: 8/5/3/2 sweeps with a trapezoid there
        spec = load_scenario(REPO / "bench" / "source_xy.ini").spec
        grid = picard_solve(GoursatProblem.direct(spec), n_xi=801, tol=NEST_TOL, max_iter=80)
        assert grid.level_sweeps == (8, 5, 2, 1)

    def test_prolong_exact_for_cubics(self):
        def cubic(xi, eta):
            return 1.0 - 0.5 * xi + xi ** 3 - 2.0 * xi * eta ** 2 + 0.7 * eta ** 3

        coarse, fine = ChartLattice(33), ChartLattice(65)
        out = kernel._prolong(cubic(*coarse.mesh()), fine)
        assert out.shape == (fine.n_eta, fine.npts)
        assert np.max(np.abs(out - cubic(*fine.mesh()))) < 1e-12

    def test_coarse_error_names_lattice(self, spec_rx2):
        with pytest.raises(ConvergenceError, match="coarse lattice n_xi = 101"):
            picard_solve(GoursatProblem.direct(spec_rx2), n_xi=401, tol=1e-12, max_iter=2)


class TestDerivativeTrace:
    def test_zero_kernel(self, null_kernel):
        assert np.all(null_kernel.trace_kx1 == 0.0)

    def test_refinement_ratio(self, spec_rx2):
        prob = GoursatProblem.direct(spec_rx2)
        traces = {}
        for n_xi in (101, 201, 401):
            traces[n_xi] = picard_solve(prob, n_xi=n_xi, tol=1e-11, max_iter=80).trace_kx1
        d1 = np.max(np.abs(traces[101] - traces[201][::2]))
        d2 = np.max(np.abs(traces[201] - traces[401][::2]))
        assert 2.5 < d1 / d2 < 5.5

    def test_chain_rule_consistency(self, spec_rx2, kernels_rx2_201):
        # k_x + k_y on the diagonal equals half the prescribed slope
        k, _ = kernels_rx2_201
        g = k.values_xieta
        d = k.delta
        gxi = np.gradient(g, d, axis=1, edge_order=2)
        geta = np.gradient(g, d, axis=0, edge_order=2)
        n = k.lattice.n_eta
        kx11 = (gxi + geta)[0, 2 * (n - 1)]
        ky11 = (gxi - geta)[0, 2 * (n - 1)]
        assert kx11 + ky11 == pytest.approx(spec_rx2.lambda0 / 2.0, abs=1e-3)


def triangle_read(A: np.ndarray) -> np.ndarray:
    """A chart array read onto the triangle grid: (x_m, y_n) is chart node (m - n, m + n)."""
    out = np.zeros((A.shape[0], A.shape[0]))
    for m in range(A.shape[0]):
        for n in range(m + 1):
            out[m, n] = A[m - n, m + n]
    return out


class TestKernelGrid:
    """A grid stores what the solve produced; every other view is derived from it."""

    def test_stored_fields(self):
        assert [f.name for f in dataclasses.fields(kernel.KernelGrid)] == [
            "lattice", "bound_M", "values_xieta", "increments", "n_certified", "level_sweeps"]

    @pytest.mark.parametrize("values", ["solved", "replaced"])
    def test_views_derive_from_values(self, kernels_rx2_101, rng, values):
        k, _ = kernels_rx2_101
        g = k if values == "solved" else dataclasses.replace(
            k, values_xieta=rng.standard_normal(k.values_xieta.shape))
        G, lat = g.values_xieta, ChartLattice(101)
        kx = (np.gradient(G, lat.delta, axis=1, edge_order=2)
              + np.gradient(G, lat.delta, axis=0, edge_order=2))
        assert np.array_equal(g.values_xy, triangle_read(G))
        assert np.array_equal(g.trace_diag, np.diag(triangle_read(G)))
        assert np.array_equal(g.kx_xy(), triangle_read(kx))
        assert np.array_equal(g.trace_kx1, triangle_read(kx)[-1])
        assert (g.n_xi, g.delta) == (101, lat.delta)
        assert np.array_equal(g.x_nodes, lat.eta)
        assert g.iterations_used == len(k.increments) > 0
        assert g.final_increment == k.increments[-1]
        assert g.values_xy is g.values_xy and g.kx_xy() is g.kx_xy()  # formed once
        assert not (g.values_xy.flags.writeable or g.kx_xy().flags.writeable)  # and shared

    def test_chart_gradient_once_per_grid(self, spec_rx2, monkeypatch):
        seen = []
        real = kernel._kx_chart
        monkeypatch.setattr(kernel, "_kx_chart", lambda G, d: seen.append(G) or real(G, d))
        k = picard_solve(GoursatProblem.direct(spec_rx2), n_xi=101, tol=1e-10, max_iter=80)
        l = picard_solve(GoursatProblem.inverse(spec_rx2), n_xi=101, tol=1e-10, max_iter=80)
        kernel_constants(k, l)
        k.kx1_at(np.linspace(0.0, 1.0, 7))
        l.kx1_at(np.linspace(0.0, 1.0, 7))
        assert [id(G) for G in seen] == [id(k.values_xieta), id(l.values_xieta)]

    def test_solve_builds_no_triangle(self, spec_rx2, monkeypatch):
        calls = []
        real = kernel._triangle
        monkeypatch.setattr(kernel, "_triangle", lambda A: calls.append(A) or real(A))
        picard_solve(GoursatProblem.direct(spec_rx2), n_xi=201, tol=1e-10, max_iter=80)  # nested
        assert calls == []

    def test_overflow_raises_naming_the_sweep(self):
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, 2.0)), lambda0=1e10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="increment of sweep 43 is nan on the "
                                                       "coarse lattice n_xi = 101") as exc:
                picard_solve(GoursatProblem.direct(spec), n_xi=201, tol=1e-10, max_iter=80)
        assert caught == []
        assert math.isnan(exc.value.last_increment)


class TestConstants:
    def test_zero_kernels(self, null_kernel):
        con = kernel_constants(null_kernel, null_kernel)
        assert all(c == 0.0 for c in con)

    def test_diagonal_dominates_half_shift(self, spec_rx2, kernels_rx2_101):
        k, l = kernels_rx2_101
        con = kernel_constants(k, l)
        assert con.alpha2 >= abs(spec_rx2.lambda0) / 2.0 - 1e-12
        assert con.alpha1 >= con.alpha2


class TestResidual:
    def test_null(self, null_kernel):
        rep = residual(null_kernel, GoursatProblem.direct(zero_spec()))
        assert rep.interior_sup == 0.0
        assert rep.bc_diagonal == 0.0
        assert rep.bc_corner == 0.0

    def test_second_order_decrease(self, spec_rx2, kernels_rx2_201):
        k, _ = kernels_rx2_201
        prob = GoursatProblem.direct(spec_rx2)
        fine = residual(k, prob, h=k.delta)
        coarse = residual(k, prob, h=2 * k.delta)
        assert 3.0 <= coarse.interior_sup / fine.interior_sup <= 5.0

    def test_bottom_edge_fd_converges(self, spec_rx2):
        # one-sided finite differences of k_y on y = 0 shrink at O(h^2)
        prob = GoursatProblem.direct(spec_rx2)
        devs = {}
        for n_xi in (101, 201):
            g = picard_solve(prob, n_xi=n_xi, tol=1e-11, max_iter=80)
            arr = g.values_xieta
            gxi = np.gradient(arr, g.delta, axis=1, edge_order=2)
            geta = np.gradient(arr, g.delta, axis=0, edge_order=2)
            m = np.arange(g.lattice.n_eta)
            devs[n_xi] = np.max(np.abs((gxi - geta)[m, m]))
        assert devs[201] < devs[101]
        assert 2.0 < devs[101] / devs[201] < 8.0

    @pytest.mark.parametrize("orientation", ["direct", "inverse"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_source_term_closed_form(self, null_kernel, orientation, stride):
        # k = 1, lambda0 = 0, c1 = 0, f = 1 + xy: the residual is
        # -f(x, y) - s int_y^x f(z, y) dz, exact for the quadrature
        grid = dataclasses.replace(null_kernel, values_xieta=np.ones_like(null_kernel.values_xieta))
        prob = GoursatProblem(orientation, ProblemSpec(
            CoefficientFamily(f_poly=((1.0, 0.0), (0.0, 1.0))), lambda0=0.0))
        rep = residual(grid, prob, h=stride * grid.delta)
        lat = grid.lattice
        XI, ETA = lat.mesh()
        nodes = np.zeros_like(XI, dtype=bool)
        nodes[stride:lat.n_eta - stride:stride] = lat.region_mask()[stride:lat.n_eta - stride:stride]
        x, y = (XI[nodes] + ETA[nodes]) / 2, (XI[nodes] - ETA[nodes]) / 2
        exact = np.max(np.abs(1 + x * y + prob.conv_sign * ((x - y) + y * (x ** 2 - y ** 2) / 2)))
        assert rep.interior_sup == pytest.approx(exact, abs=1e-13)
        assert rep.n_points == np.count_nonzero(nodes)

    def test_requires_lattice_multiple(self, kernels_rx2_101, spec_rx2):
        k, _ = kernels_rx2_101
        with pytest.raises(ValueError):
            residual(k, GoursatProblem.direct(spec_rx2), h=1.5 * k.delta)


class TestDump:
    def test_round_trip(self, tmp_path, spec_rx2, kernels_rx2_101):
        k, l = kernels_rx2_101
        path = tmp_path / "kernels.csv"
        dump_kernel_csv(path, k, l)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,y,k,l"
        n = k.lattice.n_eta
        assert len(rows) - 1 == n * (n + 1) // 2
        first = rows[1].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == 0.0
        last = rows[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(spec_rx2.lambda0 / 2)


class TestValuesAt:
    def test_lattice_points_exact(self, kernels_rx2_101):
        k, _ = kernels_rx2_101
        xs = k.x_nodes
        vals = k.values_at(xs[10], xs[4])
        assert vals == pytest.approx(k.values_xy[10, 4], abs=0)

    def test_interpolation_accuracy(self, kernels_rx2_201):
        k, _ = kernels_rx2_201
        x = np.array([0.513, 0.777, 0.901])
        y = np.array([0.212, 0.004, 0.899])
        series = series_oracle(10.0, 2.0, x + y, x - y, 25)
        assert np.max(np.abs(k.values_at(x, y) - series)) < 1e-6


def meshgrid_psi_tables(f_poly, lat):
    """The psi tables from the coordinates of the lattice meshgrid: the half-node tables' reference."""
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    XI, ETA = lat.mesh()
    a, bneg = (XI - ETA) / 2.0, -(XI + ETA) / 2.0
    a_polys = [horner(a, F[:, q]) for q in range(F.shape[1])]
    return [sum(math.comb(q, r) * bneg ** (q - r) * a_polys[q] for q in range(r, F.shape[1]))
            for r in range(F.shape[1])]


def meshgrid_residual_source(prob, lat, Gs, st):
    """residual()'s f terms from the coordinates of the lattice: the half-node tables' reference."""
    fam = prob.spec.family
    xi_i, eta_i = lat.xi[st:-st], lat.eta[st:lat.n_eta - st:st, None]
    Ys = (lat.xi - lat.eta[::st, None]) / 2.0
    F = np.asarray(fam.f_poly)
    W = volterra_matrix(len(Gs), st * lat.delta)
    conv = sum(Ys ** q * _line_sum(W, horner(Ys, F[:, q]) * Gs, st) for q in range(F.shape[1]))
    return fam.f((xi_i + eta_i) / 2.0, Ys[1:-1, st:-st]) + prob.conv_sign * conv[1:-1, st:-st]


def assert_close_rel(got, ref, rel=1e-14):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestNodeTables:
    """Coefficient tables on the half nodes k delta / 2 against the meshgrid formulas."""

    SPEC = ProblemSpec(CoefficientFamily(c1_poly=(0.3, -1.2, 0.8, 0.5),
                                         f_poly=((1.0, 0.2, -0.4), (0.3, 0.5, 0.1), (-0.2, 0.0, 0.7))),
                       lambda0=4.0)

    def test_half_nodes_and_views(self):
        lat = ChartLattice(33)
        plus, minus = lat.chart_views(lat.half_nodes)
        XI, ETA = lat.mesh()
        assert plus.shape == minus.shape == XI.shape
        assert np.array_equal(plus * 2.0 / lat.delta, np.rint((XI + ETA) / lat.delta))
        assert np.array_equal(minus * 2.0 / lat.delta, np.rint((XI - ETA) / lat.delta))
        assert not plus.flags.writeable and np.shares_memory(plus, minus)

    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    @pytest.mark.parametrize("orientation", ["direct", "inverse"])
    def test_reaction(self, n_xi, orientation):
        prob, lat = GoursatProblem(orientation, self.SPEC), ChartLattice(n_xi)
        assert_close_rel(prob.reaction_lattice(lat), prob.reaction_chart(*lat.mesh()))
        inner = np.s_[2:lat.n_eta - 2:2, 2:-2]
        assert np.array_equal(prob.reaction_lattice(lat, inner), prob.reaction_lattice(lat)[inner])

    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    def test_psi_tables(self, n_xi):
        lat = ChartLattice(n_xi)
        got, ref = _psi_tables(self.SPEC.family.f_poly, lat), meshgrid_psi_tables(
            self.SPEC.family.f_poly, lat)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert_close_rel(g, r)

    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    def test_g0_source_table(self, n_xi):
        prob, lat = GoursatProblem.direct(self.SPEC), ChartLattice(n_xi)
        XI, ETA = lat.mesh()
        s = XI + ETA
        ref = 0.25 * self.SPEC.lambda0 * s + _double_parts(
            cumquad(self.SPEC.family.f(s / 2.0, (XI - ETA) / 2.0), lat.delta, axis=0), lat)
        assert_close_rel(_g0_lattice(prob, lat), ref)

    @pytest.mark.parametrize("n_xi", [33, 201, 801])
    @pytest.mark.parametrize("st", [1, 2])
    @pytest.mark.parametrize("orientation", ["direct", "inverse"])
    def test_residual_source(self, n_xi, st, orientation):
        prob, lat = GoursatProblem(orientation, self.SPEC), ChartLattice(n_xi)
        Gs = _g0_lattice(prob, lat)[::st]
        assert_close_rel(_residual_source(prob, lat, Gs, st),
                         meshgrid_residual_source(prob, lat, Gs, st))


class TestSourceWeights:
    def test_starting_row(self):
        lat = ChartLattice(41)
        WB, W = _source_weights(lat), volterra_matrix(lat.n_eta, lat.delta)
        # only row 1 differs: it integrates cubics over [0, delta] from the nodes 0..3
        assert np.array_equal(np.delete(WB, 1, axis=0), np.delete(W, 1, axis=0))
        assert np.count_nonzero(WB[1]) == 4
        for k in range(4):
            assert WB[1] @ lat.eta ** k == pytest.approx(lat.delta ** (k + 1) / (k + 1), rel=1e-14)
        # every other caller keeps the trapezoid row: the transforms read zeros above the diagonal
        assert np.array_equal(W[1, :2], [0.5 * lat.delta] * 2) and not np.any(W[1, 2:])
