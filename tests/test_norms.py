import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep.norms import (
    NormTrace,
    _alf,
    gronwall_bound,
    lp_norm,
    norm_trace,
    rho,
    w1p_norm,
)
from backstep.simulator import SimConfig, Trajectory, simulate_target
from backstep.transforms import Profile

from conftest import rho_prime, rho_second

taus = st.floats(1e-4, 1.0)
svals = st.floats(-10.0, 10.0)


def prof(fn, m=201):
    return Profile.from_function(fn, m)


class TestLp:
    def test_unit_constant(self):
        v = prof(lambda x: np.ones_like(x))
        for p in (1.0, 2.0, 3.5, np.inf):
            assert lp_norm(v, p) == pytest.approx(1.0, abs=1e-13)

    def test_linear_sup(self):
        assert lp_norm(prof(lambda x: x), np.inf) == 1.0

    def test_linear_l2(self):
        assert lp_norm(prof(lambda x: x, 401), 2.0) == pytest.approx(1 / np.sqrt(3), rel=1e-5)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(prof(lambda x: x), 0.5)

    def test_power_mean_monotone_to_sup(self, rng):
        vals = rng.normal(size=201)
        v = Profile(201, vals)
        norms = [lp_norm(v, p) for p in (8.0, 16.0, 32.0, 64.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= lp_norm(v, np.inf) + 1e-12


class TestW1p:
    def test_constant(self):
        assert w1p_norm(prof(lambda x: np.ones_like(x)), 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_linear_l1(self):
        assert w1p_norm(prof(lambda x: x), 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_zero(self):
        assert w1p_norm(prof(lambda x: 0 * x), 7.0) == 0.0


class TestRho:
    def test_center_values(self):
        assert rho(0.0, 0.4) == pytest.approx(0.15)  # 3 tau / 8
        assert rho_prime(0.0, 0.4) == 0.0

    def test_seam_values(self):
        tau = 0.7
        for s in (tau, -tau):
            assert rho(s, tau) == pytest.approx(tau, abs=1e-14)
            assert rho_prime(s, tau) == pytest.approx(np.sign(s), abs=1e-14)
            assert rho_second(s, tau) == pytest.approx(0.0, abs=1e-12)

    def test_half_tau(self):
        tau = 0.32
        assert rho(tau / 2, tau) == pytest.approx(71 * tau / 128, abs=1e-15)

    def test_seam_is_c2(self):
        tau = 0.25
        eps = 1e-9
        for fn in (rho, rho_prime, rho_second):
            assert fn(tau - eps, tau) == pytest.approx(fn(tau + eps, tau), abs=1e-6)

    @given(svals, taus)
    def test_property_suite(self, s, tau):
        r, rp, rpp = rho(s, tau), rho_prime(s, tau), rho_second(s, tau)
        assert abs(s) <= r + 1e-12
        assert abs(rp) <= 1.0 + 1e-12
        assert rpp >= -1e-12
        assert -1e-12 <= r - 3 * tau / 8
        assert r - 3 * tau / 8 <= rp * s + 1e-12
        assert rp * s <= r + 1e-12
        assert r <= abs(s) + 3 * tau / 8 + 1e-12

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            rho(0.1, 0.0)


class TestAlf:
    def test_zero_field(self):
        tau = 0.05
        v = prof(lambda x: 0 * x)
        for p in (1.0, 1.5, 2.0):
            assert _alf(v.values, v.h, p, tau) == pytest.approx((3 * tau / 8) ** p)

    def test_exact_outside_seam(self):
        v = prof(lambda x: 1.0 + x)  # |v| >= 1 > tau everywhere
        tau = 0.5
        for p in (1.0, 2.0, 3.0):
            assert _alf(v.values, v.h, p, tau) == pytest.approx(lp_norm(v, p) ** p, abs=1e-14)

    def test_gap_linear_envelope(self, rng):
        vals = rng.normal(size=301)
        v = Profile(301, vals)
        sup = np.max(np.abs(vals))
        for p in (1.0, 1.5, 2.0, 3.0):
            gaps = []
            for tau in (1e-1, 1e-2, 1e-3):
                gap = abs(_alf(v.values, v.h, p, tau) - lp_norm(v, p) ** p)
                assert gap <= 0.375 * p * tau * (sup + 0.375 * tau) ** (p - 1) + 1e-15
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[-1] < 1e-4


class TestGronwall:
    def test_pure_exponential(self):
        t = np.linspace(0, 3, 301)
        out = gronwall_bound(5.0, -2.0, 0.0, t)
        assert np.max(np.abs(out - 5 * np.exp(-2 * t))) < 1e-10

    def test_pure_integration(self):
        t = np.linspace(0, 3, 301)
        out = gronwall_bound(0.0, 0.0, 1.0, t)
        assert np.max(np.abs(out - t)) < 1e-10

    def test_bit_equal_to_scipy_on_nonuniform_times(self, rng):
        from scipy.integrate import cumulative_trapezoid

        t = np.cumsum(rng.uniform(0.01, 0.2, 60))
        q, h = rng.standard_normal(60), rng.standard_normal(60)
        iq = cumulative_trapezoid(q, t, initial=0.0)
        inner = cumulative_trapezoid(np.exp(-iq) * h, t, initial=0.0)
        assert np.array_equal(gronwall_bound(0.7, q, h, t), np.exp(iq) * (0.7 + inner))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gronwall_bound(-1.0, 0.0, 0.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            gronwall_bound(1.0, 0.0, 0.0, np.array([0.0, 0.0]))


class TestAlfDecay:
    def test_lyapunov_inequality_along_target_run(self):
        # discrete time derivative of the smoothed functional obeys the
        # decay inequality with the tau-proportional remainder
        spec = ProblemSpec(
            CoefficientFamily(c1_poly=(0, 0, 1.0), c2_kind="exp_decay", c2_a=1.0, c2_b=1.0),
            lambda0=3.0,
        )
        cfg = SimConfig(grid_m=101, dt=1e-4, t_end=0.5, record_stride=20)
        u0 = prof(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), cfg.grid_m)
        traj = simulate_target(spec, u0, cfg)
        lam_floor = 1.0
        x = traj.x
        for p, tau in ((1.5, 1e-2), (2.0, 1e-2), (1.0, 1e-1)):
            z = np.array([_alf(row, cfg.h, p, tau) for row in traj.fields])
            dz = np.gradient(z, traj.times)
            lam_xt = np.array([3.0 - x ** 2 - np.exp(-t) for t in traj.times])
            rem = 0.375 * tau * p * np.trapezoid(
                lam_xt * rho(traj.fields, tau) ** (p - 1), dx=cfg.h, axis=1
            )
            rhs = -lam_floor * p * z + rem
            headroom = 0.05 * np.maximum(np.abs(rhs), np.max(z))
            assert np.all(dz[1:-1] <= (rhs + headroom)[1:-1])


class TestNormTrace:
    def test_trace_kinds_and_labels(self):
        spec = ProblemSpec(CoefficientFamily(), lambda0=2.0)
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.1, record_stride=10)
        traj = simulate_target(spec, prof(lambda x: np.cos(np.pi * x), 51), cfg)
        tr = norm_trace(traj, 2.0, "lp")
        assert (tr.kind, tr.p, tr.tau) == ("lp", 2.0, None)
        assert len(tr.times) == len(tr.values)
        tr2 = norm_trace(traj, 1.5, "alf", tau=1e-2)
        assert (tr2.kind, tr2.p, tr2.tau) == ("alf", 1.5, 1e-2)
        with pytest.raises(ValueError):
            norm_trace(traj, 2.0, "alf")

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    def test_rows_match_profile_norms(self, rng, p):
        traj = Trajectory(np.arange(5.0), rng.normal(size=(5, 41)))
        rows = [Profile(41, row) for row in traj.fields]
        expect = {"lp": [lp_norm(v, p) for v in rows], "w1p": [w1p_norm(v, p) for v in rows]}
        if not np.isinf(p):
            expect["alf"] = [_alf(v.values, v.h, p, 0.3) for v in rows]
        for kind, values in expect.items():
            got = norm_trace(traj, p, kind, tau=0.3).values
            np.testing.assert_allclose(got, values, rtol=4 * np.finfo(float).eps, atol=0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            NormTrace(np.array([0.0, 1.0]), np.array([1.0, -0.5]), 2.0, "lp")
        with pytest.raises(ValueError):
            NormTrace(np.array([0.0]), np.array([1.0, 2.0]), 2.0, "lp")
