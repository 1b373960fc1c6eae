import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from backstep._quad import cumtrapz
from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep.norms import NormTrace, alf, gronwall_bound, norm_trace, rho
from backstep.simulator import SimConfig, Trajectory, simulate_target
from backstep.transforms import Profile

from conftest import alf_functional, profile_norm, rho_prime, rho_second

taus = st.floats(1e-4, 1.0)
svals = st.floats(-10.0, 10.0)


def prof(fn, m=201):
    return Profile.from_function(fn, m)


class TestLp:
    def test_unit_constant(self):
        v = prof(lambda x: np.ones_like(x))
        for p in (1.0, 2.0, 3.5, np.inf):
            assert profile_norm(v, p) == pytest.approx(1.0, abs=1e-13)

    def test_linear_sup(self):
        assert profile_norm(prof(lambda x: x), np.inf) == 1.0

    def test_linear_l2(self):
        v = prof(lambda x: x, 401)
        assert profile_norm(v, 2.0) == pytest.approx(1 / np.sqrt(3), rel=1e-5)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            profile_norm(prof(lambda x: x), 0.5)

    def test_power_mean_monotone_to_sup(self, rng):
        vals = rng.normal(size=201)
        v = Profile(201, vals)
        norms = [profile_norm(v, p) for p in (8.0, 16.0, 32.0, 64.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= profile_norm(v, np.inf) + 1e-12


class TestW1p:
    def test_constant(self):
        v = prof(lambda x: np.ones_like(x))
        assert profile_norm(v, 2.0, "w1p") == pytest.approx(1.0, abs=1e-13)

    def test_linear_l1(self):
        assert profile_norm(prof(lambda x: x), 1.0, "w1p") == pytest.approx(1.5, abs=1e-12)

    def test_zero(self):
        assert profile_norm(prof(lambda x: 0 * x), 7.0, "w1p") == 0.0


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
        for tau in (0.0, -0.1):
            with pytest.raises(ValueError):
                rho(0.1, tau)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            rho(0.1, tau)

    @pytest.mark.parametrize("tau", [1e-200, 1e-100, 1.2e-77, 1.16e77, 1e100, 1e200])
    def test_tau_outside_float_range_rejected(self, tau):
        # below, s^4 underflows (rho(0) = 0/0 once 8 tau^3 does); above, it overflows
        with pytest.raises(ValueError, match="tau\\^4 a normal float"):
            rho(np.array([0.0, 0.1]), tau)

    @pytest.mark.parametrize("tau", [1.23e-77, 1.15e77])
    def test_tau_at_float_range_edges_accepted(self, tau):
        r = rho(np.array([0.0, tau / 2, tau]), tau)
        assert r[0] == 3 * tau / 8 and r[2] == tau
        assert r[1] == pytest.approx(71 * tau / 128, rel=1e-12, abs=0)


    def test_huge_samples_do_not_overflow_the_quartic(self):
        # filterwarnings = error turns an overflow warning into a failure
        r = rho(np.array([0.0, 1e76]), 1e-3)
        assert np.array_equal(r, [3.75e-4, 1e76])

    @pytest.mark.parametrize("tau", [1e-1, 1e-2, 1e-3])
    def test_clip_keeps_the_quartic_bits(self, rng, tau):
        for shape in (7, 4097, (41, 201)):
            s = rng.uniform(-2 * tau, 2 * tau, shape)
            quartic = -(s ** 4) / (8 * tau ** 3) + 3 * s ** 2 / (4 * tau) + 3 * tau / 8
            assert np.array_equal(rho(s, tau), np.where(np.abs(s) >= tau, np.abs(s), quartic))

    @pytest.mark.parametrize("tau", [1e-3, 0.7, 1.15e77])
    def test_equal_to_clip_formula(self, rng, tau):
        """The quartic inside tau alone gives the bits of the clip-and-select formula."""
        special = [tau, -tau, 0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
        for shape in ((4105,), (41, 201)):
            s = rng.uniform(-2 * tau, 2 * tau, shape)
            s.flat[rng.choice(s.size, len(special), replace=False)] = special
            got, want = rho(s, tau), _rho_clip(s, tau)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(got[~np.isnan(got)].view(np.int64),
                                  want[~np.isnan(want)].view(np.int64))  # -0.0 is not 0.0
        for x in special:
            got, want = rho(x, tau), float(_rho_clip(np.array(x), tau))
            assert type(got) is float
            assert got == want or np.isnan(got) and np.isnan(want)


def _rho_clip(s, tau):
    """``rho`` as one select between |s| and the quartic on s clipped to [-tau, tau]."""
    c = np.clip(s, -tau, tau)
    inner = -(c ** 4) / (8 * tau ** 3) + 3 * c ** 2 / (4 * tau) + 3 * tau / 8
    return np.where(np.abs(s) >= tau, np.abs(s), inner)


class TestAlf:
    def test_zero_field(self):
        tau = 0.05
        v = prof(lambda x: 0 * x)
        for p in (1.0, 1.5, 2.0):
            assert alf_functional(v.values, v.h, p, tau) == pytest.approx((3 * tau / 8) ** p)

    def test_exact_outside_seam(self):
        v = prof(lambda x: 1.0 + x)  # |v| >= 1 > tau everywhere
        tau = 0.5
        for p in (1.0, 2.0, 3.0):
            z = alf_functional(v.values, v.h, p, tau)
            assert z == pytest.approx(profile_norm(v, p) ** p, abs=1e-14)

    def test_gap_linear_envelope(self, rng):
        vals = rng.normal(size=301)
        v = Profile(301, vals)
        sup = np.max(np.abs(vals))
        for p in (1.0, 1.5, 2.0, 3.0):
            gaps = []
            for tau in (1e-1, 1e-2, 1e-3):
                gap = abs(alf_functional(v.values, v.h, p, tau) - profile_norm(v, p) ** p)
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

    def test_long_run_finite(self, rng):
        # int q reaches -2000: exp(-iq) alone leaves the float range from -709 on
        t = np.cumsum(rng.uniform(0.005, 0.015, 100000))
        h = 1.0 + 0.5 * np.sin(t)
        env = gronwall_bound(0.7, -2.0, h, t)
        assert np.all(np.isfinite(env))
        # where the one-block form is finite, the blocks agree with it
        iq = cumtrapz(np.full_like(t, -2.0), np.diff(t))
        with np.errstate(over="ignore", invalid="ignore"):
            one_block = np.exp(iq) * (0.7 + cumtrapz(np.exp(-iq) * h, np.diff(t)))
        ok = np.isfinite(one_block)
        assert ok.sum() > 30000
        assert np.max(np.abs(env[ok] - one_block[ok]) / one_block[ok]) < 1e-12
        # bit-identical up to the first block end, the last node before int q passes -600
        n = np.flatnonzero(iq < -600.0)[0]
        assert np.array_equal(env[:n], gronwall_bound(0.7, -2.0, h[:n], t[:n]))
        # late on, the envelope is forced by h in [0.5, 1.5]: it stays in [0.25, 0.75]
        assert np.all((env[-1000:] > 0.25) & (env[-1000:] < 0.75))

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
        lam_xt = np.array([3.0 - x ** 2 - np.exp(-t) for t in traj.times])
        for p, tau in ((1.5, 1e-2), (2.0, 1e-2), (1.0, 1e-1)):
            z, psi = alf(rho(traj.fields, tau), lam_xt, cfg.h, p)
            dz = np.gradient(z, traj.times)
            rhs = -lam_floor * p * z + tau * psi
            headroom = 0.05 * np.maximum(np.abs(rhs), np.max(z))
            assert np.all(dz[1:-1] <= (rhs + headroom)[1:-1])


class TestNormTrace:
    def test_trace_kinds_and_labels(self):
        spec = ProblemSpec(CoefficientFamily(), lambda0=2.0)
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.1, record_stride=10)
        traj = simulate_target(spec, prof(lambda x: np.cos(np.pi * x), 51), cfg)
        traces = norm_trace(traj, (2.0, 1.0, np.inf))
        # p-major in p_list order, L^p before W^{1,p}
        assert list(traces) == [(2.0, "lp"), (2.0, "w1p"), (1.0, "lp"), (1.0, "w1p"),
                                (np.inf, "lp"), (np.inf, "w1p")]
        for tr in traces.values():
            assert tr.times is traces[2.0, "lp"].times and len(tr.times) == len(tr.values)
        assert [f.name for f in dataclasses.fields(NormTrace)] == ["times", "values"]
        with pytest.raises(ValueError, match="p >= 1"):
            norm_trace(traj, (2.0, 0.5))

    def test_one_gradient_per_trajectory(self, monkeypatch, rng):
        calls = []
        gradient = np.gradient
        monkeypatch.setattr(np, "gradient", lambda *a, **k: calls.append(1) or gradient(*a, **k))
        norm_trace(Trajectory(np.arange(4.0), rng.normal(size=(4, 21))), (1.0, 1.5, 2.0, np.inf))
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    def test_rows_match_profile_norms(self, rng, p):
        traj = Trajectory(np.arange(5.0), rng.normal(size=(5, 41)))
        rows = [Profile(41, row) for row in traj.fields]
        # the p under test shares its pass with other p
        traces = norm_trace(traj, (1.0, p, np.inf))
        for kind in ("lp", "w1p"):
            assert np.array_equal(traces[p, kind].values, [profile_norm(v, p, kind) for v in rows])
        # the same bits from a copy 8 bytes into its buffer
        shifted = np.empty(traj.fields.size + 1)[1:].reshape(traj.fields.shape)
        shifted[...] = traj.fields
        for key, tr in norm_trace(Trajectory(traj.times, shifted), (1.0, p, np.inf)).items():
            assert np.array_equal(tr.values, traces[key].values)
        if not np.isinf(p):
            lam = rng.uniform(1.0, 2.0, size=traj.fields.shape)
            got = alf(rho(traj.fields, 0.3), lam, 1 / 40, p)
            for i, row in enumerate(traj.fields):
                want = alf(rho(row, 0.3), lam[i], 1 / 40, p)
                assert [g[i] for g in got] == list(want)

    def test_invariants(self):
        with pytest.raises(ValueError):
            NormTrace(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            NormTrace(np.array([0.0]), np.array([1.0, 2.0]))
