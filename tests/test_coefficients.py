import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from backstep.coefficients import (
    CoefficientFamily,
    ProblemSpec,
    ValidationError,
    eval_c,
    eval_lambda,
    eval_mu,
    eval_phi,
    lambda_lower,
    sup_c,
    validate,
)


def spec_of(c1=(0.0,), kind="constant", a=0.0, b=0.0, lambda0=1.0, horizon=2.0):
    return ProblemSpec(CoefficientFamily(c1_poly=c1, c2_kind=kind, c2_a=a, c2_b=b),
                       lambda0=lambda0, horizon=horizon)


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
        assert eval_c(s, 0.3, 5.0) == 0.0

    def test_exp_decay_at_origin(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        assert eval_c(s, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_linear_plus_constant(self):
        s = spec_of(c1=(0, 1.0), kind="constant", a=0.5, lambda0=2.0)
        assert eval_c(s, 0.25, 7.0) == pytest.approx(0.75, abs=1e-14)

    def test_domain_errors(self):
        s = spec_of()
        with pytest.raises(ValueError):
            eval_c(s, 1.5, 0.0)
        with pytest.raises(ValueError):
            eval_c(s, 0.5, -1.0)


class TestMuPhi:
    def test_constant_reduction(self):
        s = spec_of(lambda0=10.0)
        assert eval_mu(s, 0.7, 0.2) == 10.0
        assert eval_phi(s, 0.7, 0.2) == -10.0

    def test_direct_evaluation(self):
        s = spec_of(c1=(0, 0, 2.0), lambda0=10.0)
        assert eval_mu(s, 1.0, 0.0) == pytest.approx(8.0)
        s2 = spec_of(c1=(0, 1.0), lambda0=3.0)
        assert eval_phi(s2, 1.0, 0.5) == pytest.approx(-3.5)

    @given(st.floats(0, 1), st.floats(-3, 3), st.floats(-2, 2))
    def test_diagonal_cancellation(self, x, c1_lin, c1_quad):
        s = spec_of(c1=(0.5, c1_lin, c1_quad), lambda0=4.0)
        assert eval_mu(s, x, x) == pytest.approx(4.0, abs=1e-12)
        assert eval_phi(s, x, x) == pytest.approx(-4.0, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_mu_plus_phi_identity(self, x, t):
        # mu + phi = -2 (c1(x) - c1(y)) for y <= x
        x, y = max(x, t), min(x, t)
        s = spec_of(c1=(1.0, -2.0, 3.0), lambda0=7.0)
        c1 = s.family.c1
        total = eval_mu(s, x, y) + eval_phi(s, x, y)
        assert total == pytest.approx(-2.0 * (c1(x) - c1(y)), abs=1e-11)

    def test_triangle_domain_error(self):
        s = spec_of()
        with pytest.raises(ValueError):
            eval_mu(s, 0.2, 0.7)


class TestLambda:
    def test_constant(self):
        assert eval_lambda(spec_of(lambda0=4.0), 0.5, 1.0) == 4.0

    def test_quadratic(self):
        s = spec_of(c1=(0, 0, 1.0), lambda0=3.0)
        assert eval_lambda(s, 1.0, 9.0) == pytest.approx(2.0)

    def test_floor(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        floor = lambda_lower(s)
        xs = np.linspace(0, 1, 101)
        ts = np.linspace(0, 2, 101)
        vals = np.array([eval_lambda(s, xs, t) for t in ts])
        assert np.all(vals >= floor - s.sup_tolerance)


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

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (-1.5, 3.0), (2.0, 0.7), (0.5, -4.0)])
    def test_damped_osc_matches_dense_grid(self, a, b):
        s = spec_of(kind="damped_osc", a=a, b=b, horizon=50.0)
        ts = np.linspace(0, 50, 400001)
        grid_max = np.max(a * np.sin(b * ts) * np.exp(-ts))
        analytic = s.family.c2_sup()
        assert analytic >= grid_max - 1e-9
        assert analytic <= grid_max + 1e-6


class TestValidate:
    def test_trivial_ok(self):
        validate(spec_of(lambda0=1.0))

    def test_equality_rejected(self):
        s = spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=2.0)
        with pytest.raises(ValidationError, match="lambda0"):
            validate(s)

    def test_strictly_above_ok(self):
        validate(spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0))
        assert lambda_lower(
            spec_of(c1=(0, 0, 1.0), kind="exp_decay", a=1.0, b=1.0, lambda0=3.0)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_lower_values(self):
        assert lambda_lower(spec_of(lambda0=4.0)) == 4.0
        s = spec_of(c1=(0, 1.0), kind="constant", a=0.5, lambda0=2.0)
        assert lambda_lower(s) == pytest.approx(0.5, abs=1e-12)

    def test_exp_decay_needs_positive_rate(self):
        with pytest.raises(ValidationError):
            CoefficientFamily(c2_kind="exp_decay", c2_a=1.0, c2_b=0.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientFamily(c2_kind="sawtooth")
