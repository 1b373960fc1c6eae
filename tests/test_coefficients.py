import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from backstep import coefficients, simulator
from backstep.cli import main as cli_main
from backstep.coefficients import (
    CoefficientFamily,
    ConfigError,
    ProblemSpec,
    lambda_lower,
    sup_c,
)
from backstep.kernel import ChartLattice, GoursatProblem, _psi_tables

DEFAULT_INI = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "default.ini"


def spec_of(c1=(0.0,), kind="constant", a=0.0, b=0.0, lambda0=1.0):
    return ProblemSpec(CoefficientFamily(c1_poly=c1, c2_kind=kind, c2_a=a, c2_b=b),
                       lambda0=lambda0)


def c_of(spec, x, t):
    """Reaction coefficient c(x, t) = c1(x) + c2(t)."""
    return spec.family.c1(x) + spec.family.c2(t)


def reaction_of(spec, conv_sign, x, y):
    """Reaction weight conv_sign lambda0 - c1((xi + eta)/2) + c1((xi - eta)/2), xi = x + y, eta = x - y."""
    xi, eta = x + y, x - y
    return conv_sign * spec.lambda0 - spec.family.c1((xi + eta) / 2.0) + spec.family.c1((xi - eta) / 2.0)


def mu_of(spec, x, y):
    """Direct-kernel reaction weight lambda0 - c1(x) + c1(y) at (x, y)."""
    return reaction_of(spec, GoursatProblem.direct(spec).conv_sign, x, y)


def phi_of(spec, x, y):
    """Inverse-kernel reaction weight -lambda0 - c1(x) + c1(y) at (x, y)."""
    return reaction_of(spec, GoursatProblem.inverse(spec).conv_sign, x, y)


class TestC2Integral:
    @pytest.mark.parametrize("kind, a, b", [("constant", 1.7, 0.0), ("constant", -2.0, 0.0),
                                            ("exp_decay", 1.3, 0.4), ("exp_decay", -0.8, 5.0),
                                            ("damped_osc", 1.0, 2.0), ("damped_osc", -1.5, 3.0),
                                            ("damped_osc", 0.5, -4.0)])
    def test_matches_quadrature(self, kind, a, b):
        from scipy.integrate import quad

        fam = CoefficientFamily(c2_kind=kind, c2_a=a, c2_b=b)
        ts = np.array([0.0, 1e-3, 0.3, 1.0, 2.5, 7.0])
        closed = fam.c2_integral(ts)
        for t, value in zip(ts, closed):
            ref = quad(fam.c2, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert abs(value - ref) < 1e-12, (t, value, ref)
        assert fam.c2_integral(0.0) == 0.0


class TestEvalC:
    def test_zero_coefficients(self):
        s = spec_of()
        assert c_of(s, 0.3, 5.0) == 0.0

    def test_exp_decay_at_origin(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        assert c_of(s, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_linear_plus_constant(self):
        s = spec_of(c1=(0, 1.0), kind="constant", a=0.5, lambda0=2.0)
        assert c_of(s, 0.25, 7.0) == pytest.approx(0.75, abs=1e-14)


class TestMuPhi:
    def test_constant_reduction(self):
        s = spec_of(lambda0=10.0)
        assert mu_of(s, 0.7, 0.2) == 10.0
        assert phi_of(s, 0.7, 0.2) == -10.0

    def test_direct_evaluation(self):
        s = spec_of(c1=(0, 0, 2.0), lambda0=10.0)
        assert mu_of(s, 1.0, 0.0) == pytest.approx(8.0)
        s2 = spec_of(c1=(0, 1.0), lambda0=3.0)
        assert phi_of(s2, 1.0, 0.5) == pytest.approx(-3.5)

    @given(st.floats(0, 1), st.floats(-3, 3), st.floats(-2, 2))
    def test_diagonal_cancellation(self, x, c1_lin, c1_quad):
        s = spec_of(c1=(0.5, c1_lin, c1_quad), lambda0=4.0)
        assert mu_of(s, x, x) == pytest.approx(4.0, abs=1e-12)
        assert phi_of(s, x, x) == pytest.approx(-4.0, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_mu_plus_phi_identity(self, x, t):
        # mu + phi = -2 (c1(x) - c1(y)) for y <= x
        x, y = max(x, t), min(x, t)
        s = spec_of(c1=(1.0, -2.0, 3.0), lambda0=7.0)
        c1 = s.family.c1
        total = mu_of(s, x, y) + phi_of(s, x, y)
        assert total == pytest.approx(-2.0 * (c1(x) - c1(y)), abs=1e-11)


class TestLambda:
    def test_constant(self):
        s = spec_of(lambda0=4.0)
        assert s.lambda0 - c_of(s, 0.5, 1.0) == 4.0

    def test_quadratic(self):
        s = spec_of(c1=(0, 0, 1.0), lambda0=3.0)
        assert s.lambda0 - c_of(s, 1.0, 9.0) == pytest.approx(2.0)

    def test_floor(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        floor = lambda_lower(s)
        xs = np.linspace(0, 1, 101)
        ts = np.linspace(0, 2, 101)
        vals = np.array([s.lambda0 - c_of(s, xs, t) for t in ts])
        assert np.all(vals >= floor - coefficients._SUP_TOLERANCE)


class TestSup:
    def test_zero(self):
        assert sup_c(spec_of()) == 0.0

    def test_quadratic_exp(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        assert sup_c(s) == pytest.approx(2.0, abs=1e-12)

    def test_linear_constant(self):
        s = spec_of(c1=(0, 1.0), kind="constant", a=0.5, lambda0=2.0)
        assert sup_c(s) == pytest.approx(1.5, abs=1e-12)

    def test_exp_decay_negative_amplitude(self):
        s = spec_of(kind="exp_decay", a=-2.0, b=0.5)
        assert sup_c(s) == 0.0

    def test_inconsistent_closed_form_rejected(self, monkeypatch):
        # a closed form below the sampled maximum (1 at t = 0) by more than the slack
        s = spec_of(kind="exp_decay", a=1.0, b=1.0)
        monkeypatch.setattr(CoefficientFamily, "c2_sup", lambda self: 1.0 - 1e-6)
        with pytest.raises(ConfigError, match="is not at most the closed form"):
            sup_c(s)

    def test_nan_rejected(self, monkeypatch):
        # b t passes the float range for t > 1.8, where sin(inf) is NaN: a NaN sample is a
        # configuration error naming c2_b, raised without a float warning under the
        # default errstate; and a NaN sup of c fails lambda0 > sup c
        s = spec_of(c1=(0, 0, 1.0), kind="damped_osc", a=1.0, b=1e308, lambda0=3.0)
        with pytest.raises(ConfigError,
                           match=r"^c2_b = 1e\+308 is out of float range: sup 1, sampled nan$"):
            sup_c(s)
        monkeypatch.setattr(coefficients, "sup_c", lambda spec: math.nan)
        with pytest.raises(ConfigError, match="sup c = nan"):
            lambda_lower(s)

    # the grid spans 50 / max(1, |b|): some 8 periods of sin(b t) when |b| > 1, so that it
    # resolves the first peak, which is near t = 0 for b beyond 1e154, where b * b overflows
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (-1.5, 3.0), (2.0, 0.7), (0.5, -4.0),
                                     (0.0, 2.0), (1.0, 0.0), (1.0, 1e155), (1.0, 1e200),
                                     (1.0, 1e300)])
    def test_damped_osc_matches_dense_grid(self, a, b):
        s = spec_of(kind="damped_osc", a=a, b=b)
        ts = np.linspace(0, 50, 400001) / max(1.0, abs(b))
        grid_max = np.max(a * np.sin(b * ts) * np.exp(-ts))
        analytic = s.family.c2_sup()
        assert analytic >= grid_max - 1e-9
        assert analytic <= grid_max + 1e-6
        if abs(b) > 1e154:
            assert analytic == 1.0


class TestPolyRange:
    # a negligible leading coefficient: the derivative's root solver divided by it, and lost
    # the maximum at x = 0.5 (sup_c's cross-check then exited 2) or overflowed (exit 3)
    @pytest.mark.parametrize("c1, expected", [((0, 1, -1, 1.35e-288), (0.0, 0.25)),
                                              ((0, 0, 1, 1e-320), (0.0, 1.0))])
    def test_negligible_leading_coefficient(self, tmp_path, capsys, c1, expected):
        with np.errstate(all="raise", under="ignore"):
            assert CoefficientFamily(c1_poly=c1).c1_range() == pytest.approx(expected, abs=1e-12)
        text = DEFAULT_INI.read_text()
        for old, new in {"c1_poly = 0 0 1": f"c1_poly = {' '.join(map(repr, c1))}",
                         "n_xi = 401": "n_xi = 101"}.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "s.ini"
        path.write_text(text)
        assert cli_main(["kernel", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("c1, slope", [((3.0,), 0.0), ((1.0, -2.5), 2.5),
                                           ((0, 0, -4), 8.0), ((0, 3, -3), 3.0)])
    def test_c1_slope(self, c1, slope):
        assert CoefficientFamily(c1_poly=c1).c1_slope() == pytest.approx(slope, abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=5))
    def test_range_brackets_dense_samples(self, coeffs):
        lo, hi = coefficients.poly_range(coeffs)
        vals = npoly.polyval(np.linspace(0, 1, 2001), coeffs)
        assert lo <= np.min(vals) + 1e-9 and np.max(vals) <= hi + 1e-9


class TestValidate:
    def test_trivial_ok(self):
        lambda_lower(spec_of(lambda0=1.0))

    def test_equality_rejected(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=2.0)
        with pytest.raises(ConfigError, match="lambda0"):
            lambda_lower(s)

    def test_strictly_above_ok(self):
        lambda_lower(spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0))
        assert lambda_lower(
            spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_lower_values(self):
        assert lambda_lower(spec_of(lambda0=4.0)) == 4.0
        s = spec_of(c1=(0, 1.0), kind="constant", a=0.5, lambda0=2.0)
        assert lambda_lower(s) == pytest.approx(0.5, abs=1e-12)

    def test_exp_decay_needs_positive_rate(self):
        with pytest.raises(ConfigError):
            CoefficientFamily(c2_kind="exp_decay", c2_a=1.0, c2_b=0.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientFamily(c2_kind="sawtooth")


def polyval_psi_tables(f_poly, lat):
    """The psi tables with npoly.polyval on the lattice: the reference for Horner.

    The arguments are gathered from the half nodes k delta / 2 that the sweep
    tabulates, (xi - eta)/2 at k = i - j and (xi + eta)/2 at k = i + j.
    """
    F = np.atleast_2d(np.asarray(f_poly, dtype=float))
    i, j = np.arange(lat.npts)[None, :], np.arange(lat.n_eta)[:, None]
    t = np.arange(1 - lat.n_eta, lat.npts + lat.n_eta - 1) * (lat.delta / 2.0)
    a = t[i - j + lat.n_eta - 1]
    bneg = -t[i + j + lat.n_eta - 1]
    n_q = F.shape[1]
    a_polys = [npoly.polyval(a, F[:, q]) for q in range(n_q)]
    tables = []
    for r in range(n_q):
        acc = np.zeros_like(a)
        for q in range(r, n_q):
            acc += math.comb(q, r) * bneg ** (q - r) * a_polys[q]
        tables.append(acc)
    return tables


class TestHorner:
    """The in-place Horner evaluation against npoly.polyval / polyval2d, to the bit."""

    @staticmethod
    def family(rng, n_c1, shape_f):
        return CoefficientFamily(c1_poly=tuple(rng.standard_normal(n_c1)),
                                 f_poly=rng.standard_normal(shape_f))

    @pytest.mark.parametrize("n_c1, shape_f", [(1, (1, 1)), (2, (2, 2)), (3, (2, 3)),
                                               (5, (4, 1)), (6, (3, 4))])
    def test_random_arrays(self, rng, n_c1, shape_f):
        for _ in range(20):
            fam = self.family(rng, n_c1, shape_f)
            x = rng.uniform(-3.0, 3.0, (37, 23))
            y = rng.uniform(-3.0, 3.0, (37, 23))
            assert np.array_equal(fam.c1(x), npoly.polyval(x, fam.c1_poly))
            assert np.array_equal(fam.f(x, y), npoly.polyval2d(x, y, np.asarray(fam.f_poly)))
            # f broadcasts its arguments as before
            assert np.array_equal(fam.f(x[:1], y), npoly.polyval2d(*np.broadcast_arrays(x[:1], y),
                                                                   np.asarray(fam.f_poly)))

    def test_scalars_return_float(self, rng):
        fam = self.family(rng, 4, (3, 2))
        for x, y in ((0.3, -1.7), (2, 0.5), (np.float64(0.25), np.array(-0.75))):
            c1, f = fam.c1(x), fam.f(x, y)
            assert isinstance(c1, float) and isinstance(f, float)
            assert c1 == npoly.polyval(x, fam.c1_poly)
            assert f == npoly.polyval2d(np.asarray(x, float), np.asarray(y, float),
                                        np.asarray(fam.f_poly))

    def test_negative_zero_and_single_coefficient(self):
        x = np.array([-0.0, 0.0, -1.5, 2.0])
        for c1 in ((0.0,), (-0.0,), (2.5,), (0.0, -0.0), (-0.0, 1.0, 0.0)):
            fam = CoefficientFamily(c1_poly=c1, f_poly=(c1,))
            ref = npoly.polyval(x, fam.c1_poly)
            assert np.array_equal(fam.c1(x), ref)
            assert np.array_equal(np.signbit(fam.c1(x)), np.signbit(ref))
            ref2 = npoly.polyval2d(x, x[::-1], np.asarray(fam.f_poly))
            assert np.array_equal(np.signbit(fam.f(x, x[::-1])), np.signbit(ref2))
            assert np.array_equal(fam.f(x, x[::-1]), ref2)

    @pytest.mark.parametrize("shape_f", [(1, 1), (2, 2), (3, 3), (2, 4)])
    @pytest.mark.parametrize("n_xi", [33, 201])
    def test_psi_tables(self, rng, shape_f, n_xi):
        f_poly = rng.standard_normal(shape_f)
        lat = ChartLattice(n_xi)
        got, ref = _psi_tables(f_poly, lat), polyval_psi_tables(f_poly, lat)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("shape_f", [(1, 1), (2, 2), (3, 2)])
    def test_source_operator(self, rng, shape_f):
        F = rng.standard_normal(shape_f)
        m = 41
        x = np.linspace(0.0, 1.0, m)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        vals = np.where(yy <= xx, npoly.polyval2d(xx, np.minimum(yy, xx), F), 0.0)
        ref = simulator.volterra_matrix(m, 1.0 / (m - 1), order=2) * vals
        assert np.array_equal(simulator._source_operator(CoefficientFamily(f_poly=F), m), ref)
