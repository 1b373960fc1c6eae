import re

import numpy as np
import pytest

from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep import simulator
from backstep.norms import lp_norm
from backstep.simulator import (
    DivergenceError,
    SimConfig,
    simulate_closed_loop,
    simulate_target,
)
from backstep.transforms import (
    Profile,
    check_compatibility,
    forward_transform,
    initial_target_data,
)


def const_lambda_spec(level):
    """c = 0, lambda0 = level, so the target reaction is constant."""
    return ProblemSpec(CoefficientFamily(), lambda0=level)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(grid_m=2)
        with pytest.raises(ValueError):
            SimConfig(dt=-1.0)
        # t_end = 1e-6 rounds to zero steps of dt = 2.5e-5
        with pytest.raises(ValueError, match=r"t_end = 1e-06 .* dt = 2\.5e-05"):
            SimConfig(dt=2.5e-5, t_end=1e-6)

    def test_timestep_warning(self):
        with pytest.warns(UserWarning):
            SimConfig(grid_m=11, dt=0.2, t_end=1.0)


class TestTarget:
    def test_constant_reaction_exact(self):
        cfg = SimConfig(grid_m=101, dt=1e-4, t_end=0.5, record_stride=50)
        traj = simulate_target(const_lambda_spec(2.0),
                               Profile(101, np.ones(101)), cfg)
        exact = np.exp(-2.0 * traj.times)
        assert np.max(np.abs(traj.fields - exact[:, None])) < 1e-7

    def test_cosine_mode_rate(self):
        cfg = SimConfig(grid_m=201, dt=1e-4, t_end=0.5, record_stride=20)
        traj = simulate_target(const_lambda_spec(3.0),
                               Profile.from_function(lambda x: np.cos(np.pi * x), 201), cfg)
        norms = np.array([lp_norm(Profile(traj.grid_m, row), 2.0) for row in traj.fields])
        slope = np.polyfit(traj.times, np.log(norms), 1)[0]
        assert -slope == pytest.approx(np.pi ** 2 + 3.0, rel=2e-2)

    def test_zero_fixed_point(self):
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.05, record_stride=10)
        traj = simulate_target(const_lambda_spec(1.0), Profile(51, np.zeros(51)), cfg)
        assert np.all(traj.fields == 0.0)

    def test_times_increasing_from_zero(self):
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.05, record_stride=7)
        traj = simulate_target(const_lambda_spec(1.0), Profile(51, np.ones(51)), cfg)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(0.05)

    def test_grid_mismatch(self):
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.05)
        with pytest.raises(ValueError):
            simulate_target(const_lambda_spec(1.0), Profile(41, np.ones(41)), cfg)


class TestCompatibility:
    def test_constant_with_zero_kernel(self, null_kernel):
        rep = check_compatibility(Profile(101, np.full(101, 2.0)), null_kernel)
        assert rep.ok and rep.residual_left == 0.0 and rep.residual_right == 0.0

    def test_cosine_ok(self, null_kernel):
        w0 = Profile.from_function(lambda x: np.cos(np.pi * x), 201)
        rep = check_compatibility(w0, null_kernel)
        assert rep.ok

    def test_linear_warns(self, null_kernel):
        rep = check_compatibility(Profile.from_function(lambda x: x, 101), null_kernel)
        assert not rep.ok
        assert rep.residual_right == pytest.approx(1.0, abs=1e-10)


class TestVolterraSource:
    def test_zero_source(self):
        assert simulator._source_operator(((0.0,),), 51) is None

    def test_unit_kernel_constant_state(self):
        w = Profile(101, np.ones(101))
        out = simulator._source_operator(((1.0,),), 101) @ w.values
        assert np.max(np.abs(out - w.x)) < 1e-13

    def test_unit_kernel_linear_state(self):
        w = Profile.from_function(lambda x: x, 101)
        out = simulator._source_operator(((1.0,),), 101) @ w.values
        assert np.max(np.abs(out - w.x ** 2 / 2)) < 1e-13


class TestClosedLoop:
    def test_zero_initial_data(self, kernels_rx2_101):
        k, _ = kernels_rx2_101
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0, 0, 2.0)), lambda0=10.0)
        cfg = SimConfig(grid_m=51, dt=1e-3, t_end=0.05, record_stride=10)
        traj = simulate_closed_loop(spec, k, Profile(51, np.zeros(51)), cfg)
        assert np.all(traj.fields == 0.0)
        assert np.all(traj.controls == 0.0)

    def test_decay_after_transient(self):
        from backstep.kernel import GoursatProblem, picard_solve

        spec = ProblemSpec(CoefficientFamily(), lambda0=1.0)
        k = picard_solve(GoursatProblem.direct(spec), n_xi=101, tol=1e-10, max_iter=40)
        cfg = SimConfig(grid_m=101, dt=1e-4, t_end=1.0, record_stride=100)
        w0 = Profile.from_function(lambda x: np.cos(np.pi * x) ** 2, 101)
        traj = simulate_closed_loop(spec, k, w0, cfg)
        sup = np.max(np.abs(traj.fields), axis=1)
        tail = sup[len(sup) // 5:]
        assert np.all(np.diff(tail) <= 1e-12)
        assert sup[-1] < 0.5 * sup[0]

    def test_open_loop_contrast(self):
        # large positive reaction destabilizes the uncontrolled plant;
        # the feedback with lambda0 above it restores decay
        from backstep.kernel import GoursatProblem, picard_solve
        from backstep.transforms import make_compatible

        spec_unstable = ProblemSpec(
            CoefficientFamily(c2_kind="constant", c2_a=12.0), lambda0=13.0
        )
        k = picard_solve(GoursatProblem.direct(spec_unstable), n_xi=101,
                         tol=1e-10, max_iter=60)
        w0 = Profile.from_function(lambda x: 0.5 + 0.1 * np.cos(np.pi * x), 101)
        cfg_open = SimConfig(grid_m=101, dt=1e-4, t_end=0.6, record_stride=100)
        open_traj = simulate_closed_loop(spec_unstable, k, w0, cfg_open, open_loop=True)
        sup_open = np.max(np.abs(open_traj.fields), axis=1)
        assert sup_open[-1] > 100.0 * sup_open[0]
        w0c, _ = make_compatible(w0, k)
        cfg_closed = SimConfig(grid_m=101, dt=1e-4, t_end=1.5, record_stride=100)
        closed_traj = simulate_closed_loop(spec_unstable, k, w0c, cfg_closed)
        sup_closed = np.max(np.abs(closed_traj.fields), axis=1)
        assert sup_closed[-1] < 0.5 * sup_closed[0]

    def test_blowup_detection(self):
        spec = ProblemSpec(CoefficientFamily(c2_kind="constant", c2_a=30.0), lambda0=31.0)
        from backstep.kernel import GoursatProblem, picard_solve

        k = picard_solve(GoursatProblem.direct(ProblemSpec(CoefficientFamily(), lambda0=0.0)),
                         n_xi=65, tol=1e-10, max_iter=5)
        # every step is checked, not only the recorded ones: at a stride
        # of 100 and with a stride beyond the horizon the error names the
        # first crossing, t = ln(1e6) / 30 = 0.46052 -> step 4606; a block
        # is checked by its sup over every column
        block = np.stack((np.ones(51), np.zeros(51)), axis=1)
        for stride in (100, 10001):
            cfg = SimConfig(grid_m=51, dt=1e-4, t_end=1.0, record_stride=stride)
            for w0 in (Profile(51, np.ones(51)), block):
                with pytest.raises(DivergenceError, match=r"at t = ") as err:
                    simulate_closed_loop(spec, k, w0, cfg, open_loop=True)
                t_hit = float(re.search(r"at t = (\S+) ", str(err.value)).group(1))
                assert t_hit == 0.4606, stride

    def test_near_threshold_steps_through(self, null_kernel, monkeypatch):
        # exp(30 * 0.45) = 7.3e5 stays below the 1e6 threshold: no error,
        # but the bound K exp(C2) sup|v| cannot rule a crossing out, so the
        # last records are advanced one checked step at a time
        stepped = []

        def spy(A, v, growth, start, n, limit, dt):
            stepped.append(n)
            return step_checked(A, v, growth, start, n, limit, dt)

        step_checked = simulator._step_checked
        monkeypatch.setattr(simulator, "_step_checked", spy)
        spec = ProblemSpec(CoefficientFamily(c2_kind="constant", c2_a=30.0), lambda0=31.0)
        cfg = SimConfig(grid_m=101, dt=1e-3, t_end=0.45, record_stride=100)
        traj = simulate_closed_loop(spec, null_kernel, Profile(101, np.ones(101)), cfg,
                                    open_loop=True)
        assert stepped
        exact = np.exp(30.0 * traj.times)
        assert np.max(np.abs(traj.fields / exact[:, None] - 1.0)) < 1e-4

    @pytest.mark.parametrize("f_poly", [((0.0,),), ((1.0, 0.0), (0.0, 1.0))],
                             ids=["f0", "f1+xy"])
    def test_record_stride_invariance(self, f_poly):
        """One power per record equals the same steps taken one at a time."""
        from backstep.kernel import GoursatProblem, picard_solve

        spec = ProblemSpec(
            CoefficientFamily(c1_poly=(0.0, 0.0, 1.0), c2_kind="exp_decay", c2_a=1.0,
                              c2_b=1.0, f_poly=f_poly),
            lambda0=3.0,
        )
        k = picard_solve(GoursatProblem.direct(spec), n_xi=101, tol=1e-10, max_iter=80)
        w0 = Profile.from_function(lambda x: np.cos(np.pi * x), 101)
        every, *sparse = [
            simulate_closed_loop(spec, k, w0, SimConfig(grid_m=101, dt=1e-4, t_end=0.1,
                                                        record_stride=stride))
            for stride in (1, 100, 300)  # 300: the last record is a partial one
        ]
        for traj, steps in zip(sparse, ([*range(0, 1001, 100)], [0, 300, 600, 900, 1000])):
            assert np.array_equal(traj.times, every.times[steps])
            assert np.max(np.abs(traj.fields - every.fields[steps])) < 1e-12

    @pytest.mark.parametrize("f_poly", [((0.0,),), ((1.0, 0.0), (0.0, 1.0))],
                             ids=["f0", "f1+xy"])
    def test_block_matches_single_runs(self, f_poly):
        """Each column of a block run is the run of that column alone."""
        from backstep.kernel import GoursatProblem, picard_solve

        spec = ProblemSpec(
            CoefficientFamily(c1_poly=(0.0, 0.0, 1.0), c2_kind="exp_decay", c2_a=1.0,
                              c2_b=1.0, f_poly=f_poly),
            lambda0=3.0,
        )
        k = picard_solve(GoursatProblem.direct(spec), n_xi=101, tol=1e-10, max_iter=80)
        x = np.linspace(0.0, 1.0, 101)
        data = [np.cos(np.pi * x), 0.9 * np.cos(np.pi * x) + x ** 3, 1.0 - x ** 2]
        cfg = SimConfig(grid_m=101, dt=1e-4, t_end=0.1, record_stride=300)  # 300: a partial record
        block = simulate_closed_loop(spec, k, np.stack(data, axis=1), cfg)
        assert block.fields.shape == (len(block.times), 101, 3)
        assert block.controls.shape == (len(block.times), 3)
        for j, w0 in enumerate(data):
            single = simulate_closed_loop(spec, k, Profile(101, w0), cfg)
            assert np.array_equal(block.times, single.times)
            for got, want in ((block.fields[..., j], single.fields),
                              (block.controls[:, j], single.controls)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_equivalence_with_target(self, kernels_rx2_101):
        # forward transform of the closed-loop run tracks the target run
        k, _ = kernels_rx2_101
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0, 0, 2.0)), lambda0=10.0)
        w0 = Profile.from_function(lambda x: np.cos(np.pi * x), 101)

        def discrepancy(m, dt):
            cfg = SimConfig(grid_m=m, dt=dt, t_end=0.2,
                            record_stride=max(1, int(0.05 / dt)))
            traj_w = simulate_closed_loop(spec, k, _resample(w0, m), cfg)
            traj_u = simulate_target(spec, initial_target_data(_resample(w0, m), k), cfg)
            worst = 0.0
            for i in range(len(traj_w.times)):
                u_from_w = forward_transform(Profile(traj_w.grid_m, traj_w.fields[i]), k)
                worst = max(worst, float(np.max(np.abs(u_from_w.values - traj_u.fields[i]))))
            return worst

        coarse = discrepancy(51, 4e-4)
        fine = discrepancy(101, 1e-4)
        assert coarse < 5e-3
        assert fine < coarse

    @pytest.mark.parametrize("f_poly", [((0.0,),), ((1.0, 0.0), (0.0, 1.0))],
                             ids=["f0", "f1+xy"])
    def test_temporal_order(self, f_poly):
        """Second order in dt with the feedback row inside the implicit solve.

        The default scenario's plant (c = x^2 + e^{-t}, lambda0 = 3), without
        and with the Volterra source f = 1 + xy; errors at t = 0.2 against a
        run at dt = 1e-4 / 8.
        """
        from backstep.kernel import GoursatProblem, picard_solve
        from backstep.transforms import make_compatible
        from backstep.verify import InitialData

        spec = ProblemSpec(
            CoefficientFamily(c1_poly=(0.0, 0.0, 1.0), c2_kind="exp_decay", c2_a=1.0,
                              c2_b=1.0, f_poly=f_poly),
            lambda0=3.0,
        )
        k = picard_solve(GoursatProblem.direct(spec), n_xi=201, tol=1e-10, max_iter=80)
        w0, _ = make_compatible(InitialData("bump").build(101), k)

        def final(dt):
            cfg = SimConfig(grid_m=101, dt=dt, t_end=0.2, record_stride=10 ** 9)
            return simulate_closed_loop(spec, k, w0, cfg).fields[-1]

        ref = final(1e-4 / 8)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (8e-4, 4e-4, 2e-4, 1e-4)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert min(ratios) >= 3.8, ratios


def _resample(p: Profile, m: int) -> Profile:
    x = np.linspace(0, 1, m)
    return Profile(m, np.interp(x, p.x, p.values))
