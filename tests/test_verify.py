import configparser
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from backstep.cli import main as cli_main
from backstep import _csvout, cli, simulator, verify
from backstep._quad import composite_weights
from backstep.coefficients import CoefficientFamily, ProblemSpec, ValidationError, lambda_lower
from backstep.kernel import KernelConstants
from backstep.norms import NormTrace, gronwall_bound, rho
from backstep.simulator import SimConfig, Trajectory
from backstep.transforms import Profile
from backstep.verify import (
    ConfigError,
    FitError,
    InitialData,
    KernelSettings,
    ScenarioConfig,
    check_envelope,
    constants_for_p,
    continuous_dependence_experiment,
    dump_kernel_csv,
    fit_decay_rate,
    load_scenario,
    oracle_comparison,
    run_scenario,
    verify_theorem_bound,
    write_controls,
    write_trajectory,
)
from backstep.verify import _INITIAL_FAMILIES, _SCHEMA, _write_traces


class TestC1:
    def test_examples(self):
        assert constants_for_p(1.0, KernelConstants(0, 0, 0, 0, 0, 0))["lp"] == pytest.approx(1.0)
        assert constants_for_p(2.0, KernelConstants(0, 0, 0, 0, 0, 0))["lp"] == pytest.approx(2.0)
        assert (constants_for_p(2.0, KernelConstants(1, 0, 0, 0, 0, 0))["lp"]
                == pytest.approx(math.sqrt(8.0)))

    def test_at_least_one(self, rng):
        for _ in range(20):
            p = rng.uniform(1, 6)
            a, b = rng.uniform(0, 4, size=2)
            assert constants_for_p(p, KernelConstants(a, 0, 0, b, 0, 0))["lp"] >= 1.0

    def test_rejects_p_below_one_and_negative_maxima(self):
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                constants_for_p(p, KernelConstants(1, 1, 1, 1, 1, 1))
        for p in (2.0, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                constants_for_p(p, KernelConstants(1, 1, 1, 1, -0.5, 1))

    @pytest.mark.parametrize("a1, b1", [(0.0, 0.0), (0.5, 0.5), (2.0, 3.0)])
    def test_c3_is_the_large_p_limit(self, a1, b1):
        con = KernelConstants(a1, 0, 0, b1, 0, 0)
        c3 = constants_for_p(math.inf, con)["lp"]
        gap100 = abs(constants_for_p(100.0, con)["lp"] / c3 - 1.0)
        gap200 = abs(constants_for_p(200.0, con)["lp"] / c3 - 1.0)
        assert gap100 < 0.02
        assert gap200 < gap100


class TestC2:
    @staticmethod
    def c2(p, alphas, betas):
        c = constants_for_p(p, KernelConstants(*alphas, *betas))
        return c["w1p"], c["gamma1"], c["gamma2"]

    def test_examples(self):
        C2, g1, g2 = self.c2(1.0, (0, 0, 0), (0, 0, 0))
        assert (C2, g1, g2) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(2.0))
        C2, g1, g2 = self.c2(2.0, (0, 0, 0), (0, 0, 0))
        assert g2 == pytest.approx(13.0)
        assert C2 == pytest.approx(math.sqrt(13.0))

    def test_monotone_in_kernel_maxima(self, rng):
        p = 2.0
        base = self.c2(p, (1, 1, 1), (1, 1, 1))[0]
        for idx in range(3):
            a = [1.0, 1.0, 1.0]
            a[idx] += 0.5
            up = self.c2(p, tuple(a), (1, 1, 1))[0]
            assert up >= base - 1e-12

    def test_at_least_one(self):
        assert self.c2(3.0, (0, 0, 0), (0, 0, 0))[0] >= 1.0


class TestCInf:
    @staticmethod
    def c3_c4(alphas, betas):
        c = constants_for_p(math.inf, KernelConstants(*alphas, *betas))
        return c["lp"], c["w1p"]

    def test_branch_table(self):
        assert self.c3_c4((0.5, 0, 0), (0.5, 0, 0))[0] == pytest.approx(4.0)
        assert self.c3_c4((2.0, 0, 0), (0.5, 0, 0))[0] == pytest.approx(8.0)
        assert self.c3_c4((2.0, 0, 0), (3.0, 0, 0))[0] == pytest.approx(24.0)

    def test_zero_kernel_edge(self):
        C3, C4 = self.c3_c4((0, 0, 0), (0, 0, 0))
        assert C3 == pytest.approx(4.0)
        assert C4 == pytest.approx(max(9.0, 4.0 + 9.0))

    def test_c4_floor(self):
        C3, C4 = self.c3_c4((1, 1, 1), (1, 2, 3))
        assert C4 >= 9.0


class TestFit:
    def test_exact_exponential(self):
        t = np.linspace(0, 4, 200)
        tr = NormTrace(t, 2.0 * np.exp(-1.5 * t))
        C, sigma, res = fit_decay_rate(tr, 0.0)
        assert C == pytest.approx(2.0, rel=1e-12)
        assert sigma == pytest.approx(1.5, rel=1e-12)
        assert res < 1e-12

    def test_constant_trace(self):
        t = np.linspace(0, 4, 50)
        _, sigma, _ = fit_decay_rate(NormTrace(t, np.ones_like(t)), 0.1)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_window_and_error(self):
        t = np.linspace(0, 1, 20)
        v = np.ones_like(t)
        v[-1] = 0.0
        with pytest.raises(FitError):
            fit_decay_rate(NormTrace(t, v), 0.5)
        with pytest.raises(ValueError):
            fit_decay_rate(NormTrace(t, np.ones_like(t)), 1.0)

    def test_single_sample_window(self):
        # records at t = 0 and 1e-4 only: the window t >= 1e-5 holds one sample
        tr = NormTrace(np.array([0.0, 1e-4]), np.array([1.0, 0.996]))
        with pytest.raises(FitError, match="1 sample"):
            fit_decay_rate(tr, 0.1)
        _, sigma, _ = fit_decay_rate(tr, 0.0)
        assert sigma == pytest.approx(-np.log(0.996) / 1e-4, rel=1e-9)


class TestBound:
    def test_zero_trace_passes(self):
        t = np.linspace(0, 1, 11)
        chk = verify_theorem_bound(NormTrace(t, np.zeros_like(t)),
                                   1.0, 1.0, 0.0, slack=1.05)
        assert chk.passed

    def test_exact_envelope_equality(self):
        t = np.linspace(0, 1, 11)
        vals = 3.0 * np.exp(-2.0 * t) * 0.7
        chk = verify_theorem_bound(NormTrace(t, vals), 3.0, 2.0, 0.7, slack=1.0)
        assert chk.passed

    def test_violation_reports_worst_time(self):
        t = np.linspace(0, 1, 11)
        vals = np.exp(-1.0 * t)
        vals[5] = 2.0
        chk = verify_theorem_bound(NormTrace(t, vals), 1.0, 1.0, 1.0, slack=1.05)
        assert not chk.passed
        assert chk.worst_t == pytest.approx(t[5])
        assert chk.margin < 0

    def test_alf_envelope_edge(self, monkeypatch):
        # a Gronwall envelope of z' <= -p lambda z + tau psi, as the ALF flags use
        t = np.linspace(0, 2, 21)
        env = gronwall_bound(0.3, np.full_like(t, -2.0), 0.01 * np.exp(-t), t)
        slack = 1.05
        assert check_envelope(NormTrace(t, slack * env), env, slack).passed
        above = slack * env
        above[7] += 1e-12
        assert not check_envelope(NormTrace(t, above), env, slack).passed
        # the exponential envelope checks go through the same function
        calls = []
        monkeypatch.setattr(verify, "check_envelope",
                            lambda *args: calls.append(args) or check_envelope(*args))
        assert verify_theorem_bound(NormTrace(t, slack * env), 1.0, 0.5, 1.0, slack).passed
        assert len(calls) == 1
        assert np.array_equal(calls[0][1], np.exp(-0.5 * t))

    @pytest.mark.parametrize("where", ["value", "envelope"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_not_finite_raises(self, where, bad):
        t = np.linspace(0, 1, 11)
        vals, env = np.exp(-t), 2.0 * np.exp(-t)
        (vals if where == "value" else env)[6:] = bad
        with pytest.raises(OverflowError, match="not finite at t = 0.6 "):
            check_envelope(NormTrace(t, vals), env, 1.05)

    @pytest.mark.parametrize("slack", [0.5, math.inf, math.nan])
    def test_unusable_slack_rejected(self, slack):
        # an infinite slack would pass any trace, a growing one included
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="slack must be finite and >= 1"):
            verify_theorem_bound(NormTrace(t, np.exp(t)), 1.0, 1.0, 1.0, slack)


def scenario(tmpdir, **overrides) -> ScenarioConfig:
    spec = overrides.pop("spec", ProblemSpec(
        CoefficientFamily(c1_poly=(0, 0, 1.0), c2_kind="exp_decay", c2_a=1.0, c2_b=1.0),
        lambda0=3.0,
    ))
    defaults = dict(
        spec=spec,
        kernel=KernelSettings(n_xi=101, tol=1e-9, max_iter=60),
        sim=SimConfig(grid_m=101, dt=2e-4, t_end=0.5, record_stride=50),
        initial_data=InitialData("bump", {"center": 0.5, "width": 0.3, "height": 1.0}, True),
        p_list=(1.0, 2.0, math.inf),
        tau_list=(1e-1, 1e-2),
        outputs=str(tmpdir),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestCsvWriters:
    """The writers keep the bytes of the csv.writer loops they replaced."""

    @staticmethod
    def reference(path, header, rows) -> bytes:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
        return path.read_bytes()

    @staticmethod
    def distinct_kernels(null_kernel) -> tuple:
        """k and l with a distinct value per cell, so a row or column mix-up changes the bytes."""
        # triangle node (x_m, y_n) is chart node (eta, xi) = (m - n, m + n)
        j, i = np.indices(null_kernel.values_xieta.shape)
        m, n = (i + j) // 2, (i - j) // 2
        return (dataclasses.replace(null_kernel, values_xieta=(m + n / 1000) / 3.0),
                dataclasses.replace(null_kernel, values_xieta=-1e-300 * (1 + m + n / 1000)))

    def test_bytes_match_csv_writer(self, tmp_path, null_kernel):
        fields = np.array([[0.0, -0.0, 1e-300], [1.0 / 3.0, -2.5e-17, 123456.78901234567]])
        traj = Trajectory(np.array([0.0, 0.1 + 0.2]), fields, np.array([-0.0, 1e-300]))
        trace = NormTrace(traj.times, np.array([1e-300, 0.0]))
        ref = tmp_path / "ref.csv"

        path = write_trajectory(str(tmp_path), "traj.csv", traj)
        rows = [[f"{t:.12g}", f"{x:.12g}", f"{v:.15g}"]
                for t, row in zip(traj.times, traj.fields) for x, v in zip(traj.x, row)]
        assert Path(path).read_bytes() == self.reference(ref, ["t", "x", "value"], rows)

        path = write_controls(str(tmp_path), traj)
        rows = [[f"{t:.12g}", f"{u:.15g}"] for t, u in zip(traj.times, traj.controls)]
        assert Path(path).read_bytes() == self.reference(ref, ["t", "U"], rows)

        (path,) = _write_traces(str(tmp_path), {"w_lp_p2": trace})
        assert os.path.basename(path) == "trace_w_lp_p2.csv"
        rows = [[f"{t:.12g}", f"{v:.15g}"] for t, v in zip(trace.times, trace.values)]
        assert Path(path).read_bytes() == self.reference(ref, ["t", "value"], rows)

        k, l = self.distinct_kernels(null_kernel)
        path = dump_kernel_csv(str(tmp_path / "kernels.csv"), k, l)
        xs = k.x_nodes
        rows = [[f"{xs[m]:.12g}", f"{xs[n]:.12g}", f"{k.values_xy[m, n]:.15g}",
                 f"{l.values_xy[m, n]:.15g}"] for m in range(len(xs)) for n in range(m + 1)]
        assert Path(path).read_bytes() == self.reference(ref, ["x", "y", "k", "l"], rows)

    def test_blocks_match_savetxt(self, tmp_path, rng):
        # 3100-wide records whose values span 600 decades, against np.savetxt
        fields = rng.standard_normal((3, 3100)) * np.logspace(-300, 300, 3100)
        traj = Trajectory(np.array([0.0, 1.0 / 3.0, 2.0]), fields)
        path = write_trajectory(str(tmp_path), "traj.csv", traj)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            np.savetxt(fh, np.column_stack((np.repeat(traj.times, 3100), np.tile(traj.x, 3),
                                            fields.ravel())),
                       fmt=("%.12g", "%.12g", "%.15g"), delimiter=",", header="t,x,value",
                       comments="", newline="\r\n")
        assert Path(path).read_bytes() == ref.read_bytes()

    @staticmethod
    def edge_trajectories(rng) -> list:
        """The edge values above and 3100-wide records spanning 600 decades."""
        fields = np.array([[0.0, -0.0, 1e-300], [1.0 / 3.0, -2.5e-17, 123456.78901234567]])
        wide = rng.standard_normal((3, 3100)) * np.logspace(-300, 300, 3100)
        return [Trajectory(np.array([0.0, 0.1 + 0.2]), fields),
                Trajectory(np.array([0.0, 1.0 / 3.0, 2.0]), wide)]

    def test_child_writes_same_bytes(self, tmp_path, rng, null_kernel):
        # one child writes a kernels.csv and then each edge trajectory, in order
        k, l = self.distinct_kernels(null_kernel)
        trajs = self.edge_trajectories(rng)
        paths = [str(tmp_path / f"child{i}.csv") for i in range(1 + len(trajs))]
        child = verify._WriterChild(paths)
        try:
            child.feed(_csvout.KERNELS, len(k.x_nodes), 0, k.x_nodes, verify._kernel_triangle(k, l))
            for traj in trajs:
                child.feed(_csvout.TRAJECTORY, len(traj.times), traj.grid_m,
                           traj.times, traj.x, traj.fields)
            assert child.join() == paths
        finally:
            child.close()
        assert child.proc.returncode == 0
        refs = [dump_kernel_csv(str(tmp_path / "ref0.csv"), k, l)]
        refs += [write_trajectory(str(tmp_path), f"ref{i}.csv", traj)
                 for i, traj in enumerate(trajs, 1)]
        for path, ref in zip(paths, refs):
            assert Path(path).read_bytes() == Path(ref).read_bytes()

    def test_child_on_empty_stdin_writes_nothing(self, tmp_path):
        path = tmp_path / "closed_loop.csv"
        done = subprocess.run([sys.executable, "-S", _csvout.__file__, str(path)], input=b"",
                              capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert not path.exists()


class TestScenario:
    def test_default_runs_and_passes(self, tmp_path):
        report = run_scenario(scenario(tmp_path / "out"))
        assert report.passed
        assert report.lambda_lower == pytest.approx(1.0)
        assert report.fitted_sigma is not None and report.fitted_sigma > 0.5
        assert report.bound_margin > 0
        out = tmp_path / "out"
        assert (out / "MANIFEST.txt").read_text().startswith("complete")
        assert (out / "report.json").exists()
        assert (out / "kernels.csv").exists()
        assert (out / "controls.csv").exists()
        assert (out / "trace_w_lp_p2.csv").exists()
        assert (out / "trace_u_alf_p2_tau0.01.csv").exists()

    def test_null_scenario_all_zero(self, tmp_path):
        cfg = scenario(
            tmp_path / "null",
            spec=ProblemSpec(CoefficientFamily(), lambda0=1.0),
            initial_data=InitialData("constant", {"a": 0.0}, False),
            tau_list=(1e-2,),
        )
        report = run_scenario(cfg)
        assert report.passed
        assert report.fitted_sigma is None  # zero trace has no fit

    def test_scaling_equivariance(self, tmp_path):
        base = scenario(tmp_path / "a", initial_data=InitialData("bump", {"height": 1.0}, True))
        double = scenario(tmp_path / "b", initial_data=InitialData("bump", {"height": 2.0}, True))
        r1 = run_scenario(base)
        r2 = run_scenario(double)
        # the envelope coefficient C / ||w0|| and the rate are scale free
        assert r2.fitted_sigma == pytest.approx(r1.fitted_sigma, rel=1e-6)
        assert r2.fitted_C == pytest.approx(2.0 * r1.fitted_C, rel=1e-6)

    def test_target_rate_at_least_floor(self, tmp_path):
        report = run_scenario(scenario(tmp_path / "rate"))
        for name, fit in report.fits.items():
            if name.startswith("u_lp") and fit is not None:
                assert fit[1] >= report.lambda_lower - 0.05

    def test_invalid_lambda0(self, tmp_path):
        cfg = scenario(tmp_path / "bad", spec=ProblemSpec(
            CoefficientFamily(c1_poly=(0, 0, 1.0), c2_kind="exp_decay", c2_a=1.0, c2_b=1.0),
            lambda0=2.0,
        ))
        with pytest.raises(ValidationError, match="lambda0"):
            run_scenario(cfg)
        manifest = (tmp_path / "bad" / "MANIFEST.txt").read_text()
        assert manifest.startswith("INCOMPLETE")
        assert "validate" in manifest

    def test_p_list_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            scenario(tmp_path, p_list=())
        with pytest.raises(ConfigError):
            scenario(tmp_path, p_list=(0.5,))

    def test_kernels_csv_not_formatted_in_process(self, tmp_path, monkeypatch):
        headers = []
        real = _csvout.write_csv
        monkeypatch.setattr(_csvout, "write_csv",
                            lambda path, header, groups: headers.append(header)
                            or real(path, header, groups))
        cfg = scenario(tmp_path / "out")
        assert run_scenario(cfg).passed
        assert "x,y,k,l" not in headers and headers.count("t,x,value") == 1  # target.csv
        ref = dump_kernel_csv(str(tmp_path / "ref.csv"), *verify.solve_kernels(cfg))
        assert (tmp_path / "out" / "kernels.csv").read_bytes() == Path(ref).read_bytes()

    def test_target_simulated_before_the_closed_loop_feed(self, tmp_path, monkeypatch):
        # the closed-loop feed then finds the child done with kernels.csv
        order = []
        for owner, name in ((verify, "simulate_target"), (verify, "simulate_closed_loop"),
                            (verify._WriterChild, "feed")):
            def record(*args, _name=name, _real=getattr(owner, name), **kwargs):
                order.append(_name if _name != "feed" else ("feed", args[1]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, record)
        assert run_scenario(scenario(tmp_path / "out")).passed
        assert order == [("feed", _csvout.KERNELS), "simulate_target", "simulate_closed_loop",
                         ("feed", _csvout.TRAJECTORY)]


    def test_incompatible_datum_reports_ok_false(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(DEFAULT_INI.read_text().replace(
            "family = bump\ncenter = 0.5\nwidth = 0.3\nheight = 1.0\nadjust_compatibility = true",
            "family = polynomial\ncoeffs = 1 1\nadjust_compatibility = false"))
        cfg = dataclasses.replace(load_scenario(path), outputs=str(tmp_path / "out"))
        run_scenario(cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["compatibility"]["ok"] is False
        assert report["compatibility"]["residual_left"] == pytest.approx(1.0)
        assert (tmp_path / "out" / "MANIFEST.txt").read_text().startswith("complete")


class TestAlfStage:
    """The ALF checks of run_scenario equal a per-(p, tau) reference evaluation."""

    def test_equal_to_per_pair_reference(self, tmp_path, monkeypatch):
        got = {}
        target, write = verify.simulate_target, verify._write_traces

        def keep_target(*args, **kwargs):
            got["u"] = target(*args, **kwargs)
            return got["u"]

        def keep_traces(outdir, traces):
            got["traces"] = traces
            return write(outdir, traces)

        monkeypatch.setattr(verify, "simulate_target", keep_target)
        monkeypatch.setattr(verify, "_write_traces", keep_traces)
        cfg = scenario(tmp_path / "out")
        report = run_scenario(cfg)
        traj, spec = got["u"], cfg.spec
        h, lam = 1.0 / (traj.grid_m - 1), lambda_lower(spec)
        weights = h * composite_weights(traj.grid_m, 2)  # the trapezoid as one weighted dot
        tags = []
        for p in (1.0, 2.0):
            for tau in cfg.tau_list:
                # rho formed afresh for each (p, tau) and each integral
                z = np.vecdot(rho(traj.fields, tau) ** p, weights)
                lam_xt = spec.lambda0 - spec.family.c1(traj.x) - spec.family.c2(traj.times)[:, None]
                psi1 = 0.375 * p * np.vecdot(lam_xt * rho(traj.fields, tau) ** (p - 1), weights)
                env = gronwall_bound(z[0], np.full_like(z, -lam * p), tau * psi1, traj.times)
                tag = f"p{p:g}_tau{tau:g}"
                tags.append(tag)
                assert np.array_equal(got["traces"][f"u_alf_{tag}"].values, z)
                assert report.pass_flags[f"alf_envelope_{tag}"] is check_envelope(
                    NormTrace(traj.times, z), env, cfg.slack).passed
        # p outer and tau inner, after the L^p and W^{1,p} entries
        assert list(report.pass_flags)[-len(tags):] == [f"alf_envelope_{t}" for t in tags]
        assert list(got["traces"])[-len(tags):] == [f"u_alf_{t}" for t in tags]
        assert report.passed

    def test_every_flag_through_one_check(self, tmp_path, monkeypatch):
        calls = []
        real = verify.check_envelope
        monkeypatch.setattr(verify, "check_envelope",
                            lambda *args: calls.append(args) or real(*args))
        report = run_scenario(scenario(tmp_path / "out"))
        assert len(calls) == len(report.pass_flags) == 16  # 12 exponential, 4 ALF

    def test_rho_once_per_tau(self, tmp_path, monkeypatch):
        calls = []
        real = verify.rho
        monkeypatch.setattr(verify, "rho", lambda s, tau: calls.append(tau) or real(s, tau))
        cfg = scenario(tmp_path / "out")
        run_scenario(cfg)
        # rho(u, tau) is shared by every finite p: 2 calls, not 2 per (p, tau) pair
        assert calls == list(cfg.tau_list)


class TestContinuousDependence:
    def test_cosine_pair(self, tmp_path, monkeypatch):
        calls = []
        real = simulator._powers
        monkeypatch.setattr(simulator, "_powers",
                            lambda A, stride, rem: calls.append(stride) or real(A, stride, rem))
        cfg = scenario(tmp_path / "dep", p_list=(1.0, 2.0), tau_list=(1e-2,))
        m = cfg.sim.grid_m
        x = np.linspace(0, 1, m)
        w01 = Profile(m, np.cos(np.pi * x))
        w02 = Profile(m, 0.9 * np.cos(np.pi * x))
        checks, linearity_gap = continuous_dependence_experiment(cfg, w01, w02)
        assert list(checks) == ["lp_p1", "w1p_p1", "lp_p2", "w1p_p2"]
        assert all(chk.passed for chk in checks.values())
        assert linearity_gap < 1e-10
        assert len(calls) == 1  # one propagator for the three data

    def test_identical_data(self, tmp_path):
        cfg = scenario(tmp_path / "dep0", p_list=(2.0,), tau_list=(1e-2,))
        m = cfg.sim.grid_m
        w0 = Profile(m, np.cos(np.pi * np.linspace(0, 1, m)))
        checks, linearity_gap = continuous_dependence_experiment(cfg, w0, w0)
        # a zero envelope passes only a difference that is zero at every record
        assert all(chk.passed for chk in checks.values())
        assert linearity_gap == 0.0

    def test_constant_below_measured_ratio_fails(self, tmp_path, monkeypatch):
        cfg = scenario(tmp_path / "dep", p_list=(2.0,), tau_list=(1e-2,))
        m = cfg.sim.grid_m
        x = np.linspace(0, 1, m)
        w01, w02 = Profile(m, np.cos(np.pi * x)), Profile(m, 0.9 * np.cos(np.pi * x))
        margin = continuous_dependence_experiment(cfg, w01, w02)[0]["lp_p2"].margin
        real = verify.constants_for_p
        # C e^{-margin} is the measured sup of ||w1 - w2|| e^{lambda t} / ||w01 - w02||
        scale = 0.99 * math.exp(-margin) / cfg.slack
        monkeypatch.setattr(verify, "constants_for_p",
                            lambda p, con: {**real(p, con), "lp": scale * real(p, con)["lp"]})
        checks, _ = continuous_dependence_experiment(cfg, w01, w02)
        assert not checks["lp_p2"].passed
        assert checks["w1p_p2"].passed

    def test_non_finite_names_its_tag(self):
        cfg = load_scenario(DEFAULT_INI)
        m = cfg.sim.grid_m
        x = np.linspace(0, 1, m)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError) as exc:
                continuous_dependence_experiment(cfg, Profile(m, 1e200 * np.sin(np.pi * x)),
                                                 Profile(m, np.zeros(m)))
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        tags = {f"{kind}_{verify._ptag(p)}" for p in cfg.p_list for kind in ("lp", "w1p")}
        tag, _, rest = str(exc.value).partition(": ")
        assert tag in tags
        assert rest.startswith("a norm trace or its envelope is not finite at t = ")


REPO = Path(__file__).resolve().parents[1]
DEFAULT_INI = REPO / "scripts" / "configs" / "default.ini"
ORACLE_INI = REPO / "scripts" / "configs" / "oracle_rx2.ini"

CONFIG_TEXT = """
[problem]
c1_poly = 0 0 1
c2_kind = exp_decay
c2_a = 1.0
c2_b = 1.0
f_poly = 0
lambda0 = 3.0
horizon = 2.0

[kernel]
n_xi = 101
tol = 1e-9
max_iter = 60

[sim]
grid_m = 101
dt = 2e-4
t_end = 0.5
record_stride = 50

[initial_data]
family = cosine
a = 1.0
modes = 1
adjust_compatibility = false

[verify]
p_list = 1 2 inf
tau_list = 1e-1 1e-2
skip_fraction = 0.1
slack = 1.05

[outputs]
directory = {out}
"""


class TestConfigFile:
    def test_parse_fields(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        cfg = load_scenario(path)
        assert cfg.spec.lambda0 == 3.0
        assert cfg.spec.family.c1_poly == (0.0, 0.0, 1.0)
        assert cfg.kernel.n_xi == 101
        assert cfg.sim.grid_m == 101
        assert cfg.initial_data.family == "cosine"
        assert not cfg.initial_data.adjust_compatibility
        assert cfg.p_list == (1.0, 2.0, math.inf)

    def test_f_poly_matrix(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path).replace(
            "f_poly = 0", "f_poly = 1 0; 0 1"))
        cfg = load_scenario(path)
        assert cfg.spec.family.f(0.5, 0.5) == pytest.approx(1.25)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistive/nope.ini")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nc1_poly = zebra\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_missing_problem_section(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[kernel]\nn_xi = 101\n")
        with pytest.raises(ConfigError, match=r"\[problem\]"):
            load_scenario(path)

    def test_omitted_keys_take_field_defaults(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[problem]\nlambda0 = 2.0\n[outputs]\n")
        cfg = load_scenario(path)
        assert cfg == ScenarioConfig(spec=ProblemSpec(lambda0=2.0))
        assert cfg.outputs == "out"

    def test_readme_grammar_matches_schema(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        block = readme.split("## Scenario file grammar", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read_string(block)
        params = {key for family in _INITIAL_FAMILIES.values() for key in family}
        assert set(cp.sections()) == set(_SCHEMA)
        for name in cp.sections():
            assert set(cp[name]) <= set(_SCHEMA[name]), name
            # every key but the family parameters is shown with its default
            assert set(_SCHEMA[name]) - params <= set(cp[name]), name
        path = tmp_path / "grammar.ini"
        path.write_text(block)
        assert load_scenario(path) == load_scenario(DEFAULT_INI)


class TestInitialData:
    def test_families(self):
        m = 101
        x = np.linspace(0, 1, m)
        assert np.all(InitialData("constant", {"a": 2.0}).build(m).values == 2.0)
        cos = InitialData("cosine", {"a": 0.5, "modes": 2}).build(m)
        assert np.allclose(cos.values, 0.5 * np.cos(2 * np.pi * x))
        poly = InitialData("polynomial", {"coeffs": (1.0, -1.0)}).build(m)
        assert np.allclose(poly.values, 1.0 - x)
        bump = InitialData("bump", {"center": 0.5, "width": 0.2, "height": 1.0}).build(m)
        assert bump.values[0] == 0.0 and np.max(bump.values) == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            InitialData("sawtooth", {}).build(m)

    def test_family_defaults(self):
        # the parameter defaults the README grammar states
        m = 101
        x = np.linspace(0, 1, m)
        assert np.array_equal(InitialData("constant").build(m).values, np.ones(m))
        assert np.array_equal(InitialData("cosine").build(m).values, np.cos(np.pi * x))
        assert np.array_equal(InitialData("polynomial").build(m).values, np.ones(m))
        bump = InitialData("bump", {"center": 0.5, "width": 0.3, "height": 1.0})
        assert np.array_equal(InitialData().build(m).values, bump.build(m).values)

    def test_polynomial_bits_equal_polyval(self):
        from numpy.polynomial import polynomial as npoly

        x = np.linspace(0, 1, 201)
        for coeffs in ((0.7,), (1.0, -1.0), (0.3, -1.7, 2.2, 0.9, -4.1e-3)):
            got = InitialData("polynomial", {"coeffs": coeffs}).build(201).values
            assert np.array_equal(got, npoly.polyval(x, np.asarray(coeffs)))

    @pytest.mark.parametrize("family, params", [("cosine", {"modes": 1.5}),
                                                ("cosine", {"modes": math.inf}),
                                                ("bump", {"width": 0.0}),
                                                ("bump", {"width": -0.3}),
                                                ("bump", {"height": math.nan}),
                                                ("bump", {"center": math.inf}),
                                                ("constant", {"a": -math.inf}),
                                                ("polynomial", {"coeffs": (1.0, math.nan)})])
    def test_unusable_values(self, family, params):
        with pytest.raises(ConfigError, match=next(iter(params))):
            InitialData(family, params)

    @pytest.mark.parametrize("key, text", [("height", "nan"), ("center", "inf")])
    def test_non_finite_parameter_exit(self, tmp_path, capsys, key, text):
        # a NaN height used to run into the simulator (exit 3) and an infinite
        # center to pass every check on an all-zero datum
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(
            "family = cosine\na = 1.0\nmodes = 1", f"family = bump\n{key} = {text}"))
        named = f"[initial_data] {key} must be finite, got {text}"
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_scenario(path)
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert f"configuration error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestOracleComparison:
    def test_wrong_family_rejected(self):
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0, 1.0)), lambda0=3.0)
        with pytest.raises(ConfigError):
            oracle_comparison(spec, 65, 1e-9, 40)

    def test_matches(self):
        spec = ProblemSpec(CoefficientFamily(c1_poly=(0, 0, 1.0)), lambda0=4.0)
        rows, sup = oracle_comparison(spec, 65, 1e-10, 60)
        assert sup < 1e-5
        assert len(rows) > 10


class TestCli:
    def test_verify_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        code = cli_main(["verify", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_bound_violation_exit(self, tmp_path, capsys, monkeypatch):
        # a zero kernel in the closed loop leaves the plant uncontrolled: exactly
        # its two L^p envelopes fail, and the run still writes every artifact
        def zero_kernel(spec, k, *args, _real=verify.simulate_closed_loop):
            return _real(spec, dataclasses.replace(k, values_xieta=np.zeros_like(k.values_xieta)),
                         *args)

        monkeypatch.setattr(verify, "simulate_closed_loop", zero_kernel)
        out = tmp_path / "run"
        assert cli_main(["verify", "--config", str(DEFAULT_INI), "--out", str(out)]) == 1
        failed = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
                  if "[FAIL]" in line]
        assert failed == ["envelope_w_lp_p1", "envelope_w_lp_p2"]
        assert (out / "MANIFEST.txt").read_text().splitlines()[0] == "complete"

    def test_config_error_exit(self, tmp_path, capsys):
        code = cli_main(["verify", "--config", str(tmp_path / "missing.ini")])
        assert code == 2

    def test_invalid_lambda_exit(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(
            "lambda0 = 3.0", "lambda0 = 1.0"))
        assert cli_main(["verify", "--config", str(path)]) == 2

    def test_simulate_and_kernel_commands(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        assert cli_main(["simulate", "--config", str(path), "--target"]) == 0
        assert cli_main(["simulate", "--config", str(path)]) == 0
        assert cli_main(["kernel", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "target.csv").exists()
        assert (tmp_path / "run" / "closed_loop.csv").exists()
        assert (tmp_path / "run" / "kernel_report.txt").exists()

    def test_oracle_command(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        assert cli_main(["oracle", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 0
        cfg = load_scenario(path)
        rows, _ = oracle_comparison(cfg.spec, cfg.kernel.n_xi, cfg.kernel.tol,
                                    cfg.kernel.max_iter)
        ref = TestCsvWriters.reference(tmp_path / "ref.csv",
                                       ["xi", "eta", "picard", "series", "abs_err"],
                                       [[f"{v:.12g}" for v in row] for row in rows])
        assert (tmp_path / "run" / "oracle.csv").read_bytes() == ref

    def test_open_loop_solves_no_kernel(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(DEFAULT_INI.read_text().replace("max_iter = 80", "max_iter = 1")
                        .replace("t_end = 2.0", "t_end = 0.05"))
        assert cli_main(["simulate", "--config", str(path), "--open-loop",
                         "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "closed_loop.csv").exists()

    def test_refine_two_doubles_the_grids(self):
        base = load_scenario(DEFAULT_INI)
        cfg = cli._load(cli.build_parser().parse_args(
            ["verify", "--config", str(DEFAULT_INI), "--refine", "2"]))
        assert (cfg.kernel.n_xi, cfg.sim.grid_m, cfg.sim.dt, cfg.sim.record_stride) == (
            801, 401, 6.25e-6, 400)
        assert dataclasses.replace(cfg.kernel, n_xi=base.kernel.n_xi) == base.kernel
        assert dataclasses.replace(cfg.sim, grid_m=base.sim.grid_m, dt=base.sim.dt,
                                   record_stride=base.sim.record_stride) == base.sim
        assert dataclasses.replace(cfg, kernel=base.kernel, sim=base.sim) == base

    def test_refine_one_keeps_the_config(self):
        base = load_scenario(DEFAULT_INI)
        assert cli._refine(base, 1) is base
        assert cli._load(cli.build_parser().parse_args(
            ["verify", "--config", str(DEFAULT_INI), "--refine", "1"])) == base

    def test_refine_below_one_exit(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        with pytest.raises(SystemExit) as exc:
            cli_main(["kernel", "--config", str(path), "--refine", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("old, new", [("[kernel]", "[kernal]"),
                                          ("n_xi = 101", "n_x1 = 101"),
                                          ("a = 1.0\nmodes", "centre = 0.4\nmodes"),
                                          ("family = cosine", "family = bump"),
                                          ("family = cosine", "family = sawtooth"),
                                          ("adjust_compatibility = false",
                                           "adjust_compatibility = flase"),
                                          pytest.param("modes = 1", "modes = 1.5",
                                                       id="modes_1.5"),
                                          pytest.param("family = cosine\na = 1.0\nmodes = 1",
                                                       "family = bump\nwidth = 0", id="width_0"),
                                          pytest.param("family = cosine\na = 1.0\nmodes = 1",
                                                       "family = bump\nwidth = -0.3",
                                                       id="width_-0.3")])
    def test_config_typo_exit(self, tmp_path, old, new):
        path = tmp_path / "s.ini"
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        assert old in text
        path.write_text(text.replace(old, new))
        assert cli_main(["kernel", "--config", str(path)]) == 2

    @pytest.mark.parametrize("old, new, named", [
        ("adjust_compatibility = false", "adjust_compatibility = ture",
         "[initial_data] adjust_compatibility"),
        ("n_xi = 101", "n_xi = abc", "[kernel] n_xi"),
        ("dt = 2e-4", "dt = fast", "[sim] dt"),
        ("c1_poly = 0 0 1", "c1_poly = 0 zero 1", "[problem] c1_poly"),
        ("f_poly = 0", "f_poly = 1 0; 0", "[problem] f_poly"),
    ], ids=["adjust_compatibility", "n_xi", "dt", "c1_poly", "f_poly_ragged"])
    def test_bad_value_named(self, tmp_path, capsys, old, new, named):
        path = tmp_path / "s.ini"
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        assert old in text
        path.write_text(text.replace(old, new))
        assert cli_main(["kernel", "--config", str(path)]) == 2
        assert f"{named} = {new.split(' = ')[1]}: " in capsys.readouterr().err

    def test_zero_step_t_end_exit(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(
            "t_end = 0.5", "t_end = 1e-6"))
        assert cli_main(["simulate", "--config", str(path)]) == 2
        assert "t_end = 1e-06" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("c2_b = 1.0", "c2_b = 0", "[problem] exp_decay requires b > 0"),
        ("t_end = 0.5", "t_end = 1e-6", "[sim] invalid simulation configuration: t_end = 1e-06"),
        ("horizon = 2.0", "horizon = -1", "[problem] horizon must be positive"),
        ("n_xi = 101", "n_xi = 100", "[kernel] kernel settings need"),
        ("lambda0 = 3.0", "lambda0 = nan", "[problem] lambda0 must be finite, got nan"),
        ("c1_poly = 0 0 1", "c1_poly = 0 0 nan", "[problem] c1_poly must be finite"),
        ("c2_a = 1.0", "c2_a = nan", "[problem] c2_a must be finite, got nan"),
        ("c2_b = 1.0", "c2_b = inf", "[problem] c2_b must be finite, got inf"),
        ("horizon = 2.0", "horizon = inf", "[problem] horizon must be finite, got inf"),
        ("family = cosine\na = 1.0\nmodes = 1", "family = polynomial\ncoeffs =",
         "[initial_data] polynomial coeffs must be non-empty"),
        ("dt = 2e-4", "dt = 1e-20", "[sim] invalid simulation configuration: t_end / dt"),
        ("dt = 2e-4", "dt = 1e-300", "[sim] invalid simulation configuration: t_end / dt"),
        ("dt = 2e-4", "dt = 5e-324", "[sim] invalid simulation configuration: t_end / dt"),
        ("horizon = 2.0", "horizon = 2.0\nsup_tolerance = 0",
         "[problem] sup_tolerance must be positive"),
        ("c1_poly = 0 0 1", "c1_poly =", "[problem] c1_poly must be non-empty"),
    ], ids=["c2_b", "t_end", "horizon", "n_xi", "lambda0_nan", "c1_poly_nan", "c2_a_nan",
            "c2_b_inf", "horizon_inf", "coeffs_empty", "dt_1e-20", "dt_1e-300", "dt_5e-324",
            "sup_tolerance_0", "c1_poly_empty"])
    def test_admissibility_error_named(self, tmp_path, capsys, old, new, named):
        path = tmp_path / "s.ini"
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        assert old in text
        path.write_text(text.replace(old, new))
        assert cli_main(["kernel", "--config", str(path)]) == 2
        assert f"configuration error: {named}" in capsys.readouterr().err

    def test_oracle_negative_r_exit(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        text = ORACLE_INI.read_text()
        assert "c1_poly = 0 0 2" in text
        path.write_text(text.replace("c1_poly = 0 0 2", "c1_poly = 0 0 -2"))
        assert cli_main(["oracle", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "configuration error: oracle comparison needs r >= 0" in capsys.readouterr().err

    def test_p_inf_alone(self, tmp_path):
        # the smoothed ALF functional is checked at finite p only: no alf_envelope flag
        out = tmp_path / "run"
        assert cli_main(["verify", "--config", str(DEFAULT_INI), "--p", "inf",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["pass_flags"]) == ["envelope_w_lp_pinf", "envelope_w_w1p_pinf",
                                                "floor_u_lp_pinf", "floor_u_w1p_pinf"]
        assert all(report["pass_flags"].values())
        manifest = (out / "MANIFEST.txt").read_text().splitlines()
        assert manifest[0] == "complete"
        assert {"report.json", "kernels.csv", "closed_loop.csv"} <= set(manifest[1:])

    @pytest.mark.parametrize("command", ["kernel", "simulate", "verify", "oracle"])
    def test_unwritable_out_exit(self, tmp_path, capsys, monkeypatch, command):
        import backstep.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("the output directory is checked before any kernel solve")

        monkeypatch.setattr(backstep.cli, "solve_kernels", no_solve)
        monkeypatch.setattr(backstep.cli, "picard_solve", no_solve)
        monkeypatch.setattr(backstep.cli, "oracle_comparison", no_solve)
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli_main([command, "--config", str(path), "--out", str(blocker / "out")]) == 2
        assert "configuration error: " in capsys.readouterr().err

    def test_overflowing_p_exit(self, tmp_path, capsys):
        # 9 ** (p - 1) in C2 overflows a float long before p = 400
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        assert cli_main(["verify", "--config", str(path), "--p", "400"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: stage constants: " in err
        assert "p = 400" in err
        assert "error: stage constants: " in (tmp_path / "run" / "MANIFEST.txt").read_text()

    # the envelope check, not a numpy RuntimeWarning, reports the overflow: the
    # one stderr line names the first flag whose trace or envelope is not finite
    @pytest.mark.parametrize("edits, flag", [
        ({"height = 1.0": "height = 1e200"}, "envelope_w_lp_p2"),  # inf throughout
        ({"height = 1.0": "height = 1e308"}, "envelope_w_lp_p1"),  # the L^1 norm overflows too
    ], ids=["height_1e200", "height_1e308"])
    def test_non_finite_trace_exit(self, tmp_path, capsys, edits, flag):
        text = DEFAULT_INI.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "s.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"numerical failure: stage verify: {flag}: ")
        assert "not finite at t = " in err[0]
        manifest = (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()
        assert manifest[0] == "INCOMPLETE"
        assert manifest[1] == "error: " + err[0].removeprefix("numerical failure: ")

    def test_overflowing_open_loop_exit(self, tmp_path):
        # c = 800 with one record for the whole run: the squarings of the step matrix
        # overflow a float, and the crossing at t = 0.017 still ends the run, with no
        # warning even where warnings are errors
        text = DEFAULT_INI.read_text()
        for old, new in {"c1_poly = 0 0 1": "c1_poly = 800", "c2_a = 1.0": "c2_a = 0",
                         "lambda0 = 3.0": "lambda0 = 801", "grid_m = 201": "grid_m = 51",
                         "dt = 2.5e-5": "dt = 1e-3", "t_end = 2.0": "t_end = 1",
                         "record_stride = 100": "record_stride = 2000",
                         "n_xi = 401": "n_xi = 101"}.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "s.ini"
        path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "backstep.cli", "simulate",
                               "--open-loop", "--config", str(path), "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3, done.stderr
        err = done.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: field reached ")
        assert " at t = 0.017 " in err[0]

    SMALL = {"n_xi = 401": "n_xi = 101", "grid_m = 201": "grid_m = 51",
             "dt = 2.5e-5": "dt = 1e-3", "t_end = 2.0": "t_end = 0.5"}

    # extreme but finite values exit by their code with at most one stderr line and no
    # warning where warnings are errors; the long run (c2 = 2, t_end = 400) decays while
    # exp(C2) = e^{2t} passes the float range near t = 355
    @pytest.mark.parametrize("edits, code, named", [
        ({**SMALL, "f_poly = 0": "f_poly = 1e308"}, 3,
         "numerical failure: stage kernel: the increment of sweep 1 is nan"),
        ({**SMALL, "c2_b = 1.0": "c2_b = 1e308"}, 0, None),
        ({**SMALL, "center = 0.5": "center = 1e308"}, 0, None),  # a zero datum is allowed
        ({"c2_kind = exp_decay": "c2_kind = constant", "c2_a = 1.0": "c2_a = 2.0",
          "lambda0 = 3.0": "lambda0 = 3.5", "t_end = 2.0": "t_end = 400",
          "dt = 2.5e-5": "dt = 1e-3", "record_stride = 100": "record_stride = 1000"}, 0, None),
    ], ids=["f_poly_1e308", "c2_b_1e308", "center_1e308", "long_run"])
    def test_extreme_value_exit(self, tmp_path, capsys, edits, code, named):
        text = DEFAULT_INI.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "s.ini"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert got == code and len(err) <= 1, err
        if named:
            assert err[0].startswith(named)
        else:
            report = json.loads((tmp_path / "run" / "report.json").read_text())
            assert all(report["pass_flags"].values())

    def test_long_run_decides_the_alf_flags(self, tmp_path, capsys):
        # lambda_lower p t passes 709 at t = 355: a gronwall_bound formed with exp(-iq)
        # overflowed there, and the run exited 3 naming alf_envelope_p2_tau0.1
        text = DEFAULT_INI.read_text()
        for old, new in {"dt = 2.5e-5": "dt = 1e-3", "t_end = 2.0": "t_end = 400",
                         "record_stride = 100": "record_stride = 1000"}.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "s.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "run")])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 0
        assert "numerical failure" not in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        alf_flags = {k: v for k, v in report["pass_flags"].items() if k.startswith("alf_envelope_")}
        assert len(alf_flags) == 6 and all(alf_flags.values())
        assert (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()[0] == "complete"

    def test_out_of_memory_exit(self, tmp_path, capsys, monkeypatch):
        # numpy's allocation failure is a MemoryError; no real oversized grid is built
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100001, 100001) and data type float64")

        monkeypatch.setattr(verify, "simulate_closed_loop", no_memory)
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        assert cli_main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: stage simulate: Unable to allocate 74.5 GiB for "
                       "an array with shape (100001, 100001) and data type float64"]
        manifest = (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()
        assert manifest[:2] == ["INCOMPLETE", "error: " + err[0].removeprefix(
            "configuration error: ")]

    def test_rounding_floor_tol_exit(self, tmp_path, capsys):
        # n_xi = 201 starts from its n_xi = 101 solve; there the increments stagnate
        # near 1e-15, so the warm certified stop (50 sweeps) comes with the last
        # increment still above tol
        path = tmp_path / "s.ini"
        text = ORACLE_INI.read_text()
        assert "tol = 1e-10" in text
        path.write_text(text.replace("tol = 1e-10", "tol = 1e-16"))
        assert cli_main(["kernel", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert "rounding floor" in capsys.readouterr().err

    def test_rounding_floor_on_coarse_lattice_exit(self, tmp_path, capsys):
        # n_xi = 401 starts from the n_xi = 201 solve, which meets the rounding floor first
        path = tmp_path / "s.ini"
        text = ORACLE_INI.read_text()
        assert "n_xi = 201" in text and "tol = 1e-10" in text
        path.write_text(text.replace("n_xi = 201", "n_xi = 401").replace("tol = 1e-10", "tol = 1e-16"))
        assert cli_main(["kernel", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "rounding floor" in err and "coarse lattice n_xi = 201" in err

    def test_huge_lambda0_exit(self, tmp_path, capsys):
        # the cold cap's bound passes the float range; the sweeps run out instead
        path = tmp_path / "s.ini"
        text = ORACLE_INI.read_text()
        assert "lambda0 = 10.0" in text and "max_iter = 80" in text
        path.write_text(text.replace("lambda0 = 10.0", "lambda0 = 1000"))
        assert cli_main(["kernel", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert "numerical failure: no convergence after 80 sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["kernel", "verify"])
    def test_overflowing_sweep_exit(self, tmp_path, capsys, command):
        # the coarse lattice's iterate overflows at sweep 43 and its increment is nan
        path = tmp_path / "s.ini"
        path.write_text(ORACLE_INI.read_text().replace("lambda0 = 10.0", "lambda0 = 1e10"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        stage = "stage kernel: " if command == "verify" else ""
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure: {stage}the increment of sweep 43 is nan on the coarse lattice "
            "n_xi = 101: the iteration overflowed a float"]
        assert not (tmp_path / "run" / "kernels.csv").exists()

    def test_kernel_report_sweeps_per_lattice(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(ORACLE_INI.read_text().replace("n_xi = 201", "n_xi = 401"))
        assert cli_main(["kernel", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        first = (tmp_path / "run" / "kernel_report.txt").read_text().splitlines()[0]
        assert re.fullmatch(r"picard sweeps: direct \d+ -> \d+ -> \d+, inverse \d+ -> \d+ -> \d+",
                            first)

    def test_bad_p_list_exit(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--config", str(path), "--p", "abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("old, new, flag, message", [
        ("", "", "2,2.0000001", "p_list: 2.0 and 2.0000001 share the tag p2"),
        ("p_list = 1 2 inf", "p_list = 2 2", None, "[verify] p_list: 2.0 and 2.0 share the tag p2"),
        ("tau_list = 1e-1 1e-2", "tau_list = 1e-1 0.1", None,
         "[verify] tau_list: 0.1 and 0.1 share the tag tau0.1")])
    def test_values_sharing_a_tag_exit(self, tmp_path, capsys, old, new, flag, message):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(old, new))
        argv = ["verify", "--config", str(path)] + (["--p", flag] if flag else [])
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
        assert not (tmp_path / "run").exists()  # rejected before any file is written

    @pytest.mark.parametrize("old, new", [("tol = 1e-9", "tol = 0"),
                                          ("max_iter = 60", "max_iter = 0"),
                                          ("n_xi = 101", "n_xi = 100"),
                                          ("n_xi = 101", "n_xi = 31")])
    def test_bad_kernel_settings_exit(self, tmp_path, old, new):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(old, new))
        assert cli_main(["kernel", "--config", str(path)]) == 2

    @pytest.mark.parametrize("old, new", [("tau_list = 1e-1 1e-2", "tau_list = 0"),
                                          ("tau_list = 1e-1 1e-2", "tau_list = 1e-1 -1e-2"),
                                          ("tau_list = 1e-1 1e-2", "tau_list = inf"),
                                          ("tau_list = 1e-1 1e-2", "tau_list = 1e-1 nan"),
                                          ("tau_list = 1e-1 1e-2", "tau_list = 1e-1 1e-200"),
                                          ("tau_list = 1e-1 1e-2", "tau_list = 1e200"),
                                          ("skip_fraction = 0.1", "skip_fraction = 1.5"),
                                          ("slack = 1.05", "slack = 0.5"),
                                          ("slack = 1.05", "slack = inf"),
                                          ("slack = 1.05", "slack = nan")])
    def test_bad_verify_settings_exit(self, tmp_path, capsys, old, new):
        # an infinite tau or slack would pass every check it enters, whatever the run did;
        # a tau whose powers leave the float range would make rho NaN and fail one
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(old, new))
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert "configuration error: [verify] " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_scheme_exit(self, tmp_path):
        path = tmp_path / "s.ini"
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        path.write_text(text.replace("[sim]\n", "[sim]\nscheme = crank_nicolson\n"))
        assert load_scenario(str(path)).sim.grid_m == 101
        path.write_text(text.replace("[sim]\n", "[sim]\nscheme = explicit_euler\n"))
        assert cli_main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("case", ["no_trace", "degenerate_shift"])
    def test_unusable_kernel_exit(self, tmp_path, monkeypatch, capsys, case):
        import backstep.cli
        from backstep.transforms import _flux_residual

        def broken(*args, **kwargs):
            k = picard_solve(*args, **kwargs)
            if case == "no_trace":
                return dataclasses.replace(k, values_xieta=np.full_like(k.values_xieta, np.nan))
            # a constant kernel has k_x = 0 (to rounding at the lattice edges), so
            # U = -k(1, 1) w(1), which then cancels the edge slope of x^2/2
            slope = _flux_residual(Profile.from_function(lambda x: 0.5 * x ** 2, 101),
                                   np.zeros(101))
            return dataclasses.replace(k, values_xieta=np.full_like(k.values_xieta, -2.0 * slope))

        picard_solve = backstep.cli.picard_solve
        monkeypatch.setattr(backstep.cli, "picard_solve", broken)
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run").replace(
            "adjust_compatibility = false", "adjust_compatibility = true"))
        assert cli_main(["simulate", "--config", str(path)]) == 3
        cause = {"no_trace": "kernel grid has no derivative trace",
                 "degenerate_shift": "compatibility shift is degenerate"}[case]
        assert cause in capsys.readouterr().err


class TestClosedLoopWriter:
    """verify's writer child, of kernels.csv and then closed_loop.csv: its failures surface
    and it never outlives a call."""

    @pytest.fixture
    def children(self, monkeypatch):
        made = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        return made

    @staticmethod
    def config(tmp_path, old="", new=""):
        path = tmp_path / "s.ini"
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        assert old in text
        path.write_text(text.replace(old, new))
        return path

    @pytest.mark.parametrize("cause", ["directory", "spawn", "kernels_directory"])
    def test_writer_failure_is_stage_artifacts(self, tmp_path, capsys, monkeypatch, children,
                                               cause):
        path = self.config(tmp_path)
        # the message leads with the first file the writer did not write
        name = "closed_loop.csv" if cause == "directory" else "kernels.csv"
        if cause != "spawn":
            (tmp_path / "run" / name).mkdir(parents=True)
            match = "exited with code 1: .*Is a directory"
        else:
            def no_spawn(*args, **kwargs):
                raise FileNotFoundError(2, "No such file or directory", args[0][0])

            monkeypatch.setattr(subprocess, "Popen", no_spawn)
            match = "No such file or directory"
        with pytest.raises(OSError, match=match) as exc:
            run_scenario(load_scenario(path))
        assert exc.value.stage == "artifacts"
        assert str(exc.value).startswith(f"{name}: ")
        manifest = (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()
        assert manifest[0] == "INCOMPLETE"
        assert manifest[1].startswith(f"error: stage artifacts: {name}: ")
        # a failed writer leaves none of the files it was fed
        assert not {"kernels.csv", "closed_loop.csv"} & set(manifest[2:])
        assert not (tmp_path / "run" / "kernels.csv").is_file()
        assert not (tmp_path / "run" / "closed_loop.csv").is_file()
        assert {"controls.csv", "target.csv", "trace_w_lp_p2.csv"} <= set(manifest[2:])

        assert cli_main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"configuration error: stage artifacts: {name}: ")
        assert len(children) == (0 if cause == "spawn" else 2)
        assert all(child.returncode is not None for child in children)

    def test_killed_writer_is_stage_artifacts(self, tmp_path, capsys, monkeypatch):
        # the child dies before it reads a byte: feeding it breaks the pipe, and its
        # exit code, not the broken pipe, names the failure
        class Killed(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.kill()
                self.wait()

        monkeypatch.setattr(subprocess, "Popen", Killed)
        path = self.config(tmp_path)
        with pytest.raises(OSError) as exc:
            run_scenario(load_scenario(path))
        assert exc.value.stage == "artifacts"
        assert str(exc.value).startswith("kernels.csv: writer exited with code ")
        assert (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()[0] == "INCOMPLETE"
        assert not (tmp_path / "run" / "kernels.csv").exists()
        assert not (tmp_path / "run" / "closed_loop.csv").exists()
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: stage artifacts: kernels.csv: writer exited with code ")

    @pytest.mark.parametrize("case", ["pass", "validate", "writer", "kernel", "after_feed",
                                      "interrupt"])
    def test_no_child_outlives_a_call(self, tmp_path, capfd, monkeypatch, children, case):
        out = tmp_path / "run" / "closed_loop.csv"
        if case == "writer":
            out.mkdir(parents=True)
        if case in ("after_feed", "interrupt"):
            # the child has the kernels and is writing them when the call fails
            error = KeyboardInterrupt if case == "interrupt" else simulator.DivergenceError

            def fail(*args, **kwargs):
                raise error("injected")

            monkeypatch.setattr(verify, "simulate_target", fail)
        old, new = {"kernel": ("max_iter = 60", "max_iter = 1"),
                    # lambda0 <= sup c = 2 fails validation, before any child starts
                    "validate": ("lambda0 = 3.0", "lambda0 = 1.0")}.get(case, ("", ""))
        path = self.config(tmp_path, old, new)
        if case == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli_main(["verify", "--config", str(path)])
        else:
            expected = {"pass": 0, "validate": 2, "writer": 2, "kernel": 3, "after_feed": 3}[case]
            assert cli_main(["verify", "--config", str(path)]) == expected
        assert len(children) == (case != "validate")
        assert all(child.returncode is not None for child in children)
        assert out.is_file() == (case == "pass")
        # a failed call leaves none of the child's files, kernels.csv included
        assert (tmp_path / "run" / "kernels.csv").is_file() == (case == "pass")
        assert "Traceback" not in capfd.readouterr().err
        if case == "kernel":
            # an unfed child reads an empty stdin and exits 0
            assert children[0].returncode == 0


def tree_bytes(root) -> dict:
    """``{relative path: bytes}`` of every file under ``root``: equal for equal trees."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def openblas():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, given back afterwards."""
    found = verify._openblas_threads()
    if found is None:
        pytest.skip("this numpy has no bundled OpenBLAS thread-count symbols")
    before = found[0]()
    yield found
    found[1](before)


class TestBlasThreads:
    """run_scenario runs OpenBLAS on one thread and gives the caller's count back."""

    @pytest.mark.parametrize("caller", [1, 2])
    def test_one_thread_in_every_stage(self, tmp_path, monkeypatch, openblas, caller):
        get, put = openblas
        seen = {}
        for name in ("solve_kernels", "simulate_closed_loop", "norm_trace"):
            def record(*args, _name=name, _real=getattr(verify, name), **kwargs):
                seen.setdefault(_name, []).append(get())
                return _real(*args, **kwargs)

            monkeypatch.setattr(verify, name, record)
        put(caller)
        assert run_scenario(scenario(tmp_path / "out")).passed
        assert seen == {"solve_kernels": [1], "simulate_closed_loop": [1], "norm_trace": [1, 1]}
        assert get() == caller

    @pytest.mark.parametrize("stage", ["validate", "kernel", "simulate", "verify", "artifacts",
                                       "interrupt"])
    def test_count_back_after_a_failure(self, tmp_path, monkeypatch, openblas, stage):
        get, put = openblas
        old, new = {"validate": ("lambda0 = 3.0", "lambda0 = 1.0"),  # lambda0 <= sup c = 2
                    "kernel": ("max_iter = 60", "max_iter = 1"),
                    "verify": ("\na = 1.0", "\na = 1e200"),  # the L^2 norm overflows
                    }.get(stage, ("", ""))
        text = CONFIG_TEXT.format(out=tmp_path / "run")
        assert old in text
        path = tmp_path / "s.ini"
        path.write_text(text.replace(old, new))
        if stage == "artifacts":  # the closed_loop.csv writer cannot open its file
            (tmp_path / "run" / "closed_loop.csv").mkdir(parents=True)
        if stage in ("simulate", "interrupt"):
            error = KeyboardInterrupt if stage == "interrupt" else simulator.DivergenceError

            def fail(*args, **kwargs):
                raise error("injected")

            monkeypatch.setattr(verify, "simulate_target", fail)
        put(2)
        with pytest.raises(BaseException) as exc:
            run_scenario(load_scenario(path))
        assert getattr(exc.value, "stage", "interrupt") == stage
        assert get() == 2

    @pytest.mark.parametrize("lookup", ["no_library", "unloadable", "no_symbol"])
    def test_without_the_library_runs_as_before(self, tmp_path, monkeypatch, lookup):
        import ctypes
        import glob

        found = verify._openblas_threads()
        before = found[0]() if found else None
        try:
            if found:  # the fallback runs at the caller's count: one thread, as the cap does
                found[1](1)
            reference = run_scenario(scenario(tmp_path / "ref")).to_json()
            if lookup == "no_library":
                monkeypatch.setattr(glob, "glob", lambda pattern: [])
            elif lookup == "unloadable":
                def unloadable(path):
                    raise OSError(f"{path}: cannot open shared object file")

                monkeypatch.setattr(ctypes, "CDLL", unloadable)
            else:
                monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
            assert verify._openblas_threads() is None
            assert run_scenario(scenario(tmp_path / "out")).to_json() == reference
            assert not found or found[0]() == 1
        finally:
            if found:
                found[1](before)
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "ref")

    @pytest.mark.parametrize("target", [False, True])
    def test_simulate_on_one_thread(self, tmp_path, monkeypatch, openblas, target):
        get, put = openblas
        name = "simulate_target" if target else "simulate_closed_loop"
        seen = []

        def record(*args, _real=getattr(cli, name), **kwargs):
            seen.append(get())
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, record)
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        put(2)
        assert cli_main(["simulate", "--config", str(path)] + ["--target"] * target) == 0
        assert seen == [1]
        assert get() == 2

    @pytest.mark.parametrize("command", ["kernel", "oracle"])
    def test_kernel_and_oracle_on_one_thread(self, tmp_path, monkeypatch, openblas, command):
        get, put = openblas
        seen = []

        def record(*args, _real=verify.picard_solve, **kwargs):
            seen.append(get())
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, "picard_solve", record)
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        put(2)
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        assert seen == ([1, 1] if command == "kernel" else [1])
        assert get() == 2

    @pytest.mark.parametrize("flags", [[], ["--target"]])
    def test_simulate_artifacts_independent_of_thread_count(self, tmp_path, openblas, flags):
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "backstep.cli", "simulate", "--config",
                                   str(DEFAULT_INI), "--out", str(out), *flags],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        assert ("target.csv" if flags else "closed_loop.csv") in trees[0]

    def test_artifacts_independent_of_thread_count(self, tmp_path, openblas):
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "backstep.cli", "verify", "--config",
                                   str(DEFAULT_INI), "--out", str(out)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        assert "closed_loop.csv" in trees[0]


class TestRuntimeDependencies:
    """scipy serves the tests as an oracle only; the package runs on numpy alone."""

    def test_verify_imports_no_scipy(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "run"))
        code = (
            "import sys\n"
            "import backstep.cli\n"
            f"code = backstep.cli.main(['verify', '--config', {str(path)!r}])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_no_scipy_import_in_sources(self):
        offenders = [str(path.relative_to(REPO)) for path in (REPO / "src").rglob("*.py")
                     if any(s in path.read_text() for s in ("import scipy", "from scipy"))]
        assert offenders == []
