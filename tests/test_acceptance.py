"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every tolerance is pinned here; shared fixtures cache the expensive
solves so the suite stays in the minutes range.
"""
import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from backstep.coefficients import CoefficientFamily, ProblemSpec, lambda_lower
from backstep.kernel import (
    GoursatProblem,
    kernel_constants,
    picard_solve,
    residual,
    series_oracle,
    tail_bound,
)
from backstep.norms import gronwall_bound, norm_trace, rho
from backstep.simulator import SimConfig, simulate_closed_loop, simulate_target
from backstep.transforms import (
    Profile,
    check_compatibility,
    forward_transform,
    inverse_transform,
    make_compatible,
)
from backstep.verify import (
    ScenarioConfig,
    KernelSettings,
    InitialData,
    constants_for_p,
    continuous_dependence_experiment,
    fit_decay_rate,
    load_scenario,
    run_scenario,
    verify_theorem_bound,
)

from conftest import alf_functional, profile_norm, rho_prime, rho_second

SPEC_RX2 = ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, 2.0)), lambda0=10.0)
SPEC_SRC = ProblemSpec(
    CoefficientFamily(c1_poly=(0.0, 0.0, 2.0), f_poly=((1.0, 0.0), (0.0, 1.0))),
    lambda0=10.0,
)
SPEC_DECAY = ProblemSpec(
    CoefficientFamily(c1_poly=(0.0, 0.0, 1.0), c2_kind="exp_decay", c2_a=1.0, c2_b=1.0),
    lambda0=3.0,
)
DEFAULT_SIM = SimConfig(grid_m=201, dt=2.5e-5, t_end=2.0, record_stride=100)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def crit1_solve():
    start = time.perf_counter()
    grid = picard_solve(GoursatProblem.direct(SPEC_RX2), n_xi=201, tol=1e-10, max_iter=80)
    return grid, time.perf_counter() - start


@pytest.fixture(scope="module")
def src_solves():
    k = picard_solve(GoursatProblem.direct(SPEC_SRC), n_xi=201, tol=1e-10, max_iter=80)
    l = picard_solve(GoursatProblem.inverse(SPEC_SRC), n_xi=201, tol=1e-10, max_iter=80)
    return k, l


@pytest.fixture(scope="module")
def kernels_by_nxi():
    cache = {}

    def get(n_xi):
        if n_xi not in cache:
            cache[n_xi] = (
                picard_solve(GoursatProblem.direct(SPEC_RX2), n_xi=n_xi, tol=1e-11, max_iter=80),
                picard_solve(GoursatProblem.inverse(SPEC_RX2), n_xi=n_xi, tol=1e-11, max_iter=80),
            )
        return cache[n_xi]

    return get


@pytest.fixture(scope="module")
def target_decay_run():
    u0 = Profile(201, np.ones(201))
    return simulate_target(SPEC_DECAY, u0, DEFAULT_SIM)


def test_criterion_1_kernel_oracle_equivalence(crit1_solve):
    grid, elapsed = crit1_solve
    lat = grid.lattice
    XI, ETA = lat.mesh()
    reg = lat.region_mask()
    series = series_oracle(10.0, 2.0, XI[reg], ETA[reg], 25)
    sup_err = float(np.max(np.abs(grid.values_xieta[reg] - series)))
    ok = sup_err <= 1e-6 and elapsed <= 60.0
    report(1, "kernel-oracle equivalence", ok,
           f"sup|picard-series|={sup_err:.3e} (<=1e-6), solve time {elapsed:.2f}s (<=60s)")


def test_criterion_2_kernel_pde_residual(crit1_solve, src_solves):
    details = []
    ok = True
    for label, grid, prob in (
        ("f=0", crit1_solve[0], GoursatProblem.direct(SPEC_RX2)),
        ("f=1+xy", src_solves[0], GoursatProblem.direct(SPEC_SRC)),
    ):
        fine = residual(grid, prob, h=grid.delta)
        coarse = residual(grid, prob, h=2 * grid.delta)
        ratio = coarse.interior_sup / fine.interior_sup
        bc = max(fine.bc_diagonal, fine.bc_corner)
        ok = ok and 3.0 <= ratio <= 5.0 and bc <= 1e-8
        details.append(f"{label}: ratio={ratio:.2f} (in [3,5]), boundary={bc:.2e} (<=1e-8)")
    report(2, "kernel PDE residual", ok, "; ".join(details))


def test_criterion_3_picard_certified_convergence(crit1_solve, src_solves):
    ok = True
    worst = 0.0
    for grid in (crit1_solve[0],) + src_solves:
        for n, inc in enumerate(grid.increments):
            bound = tail_bound(n, grid.bound_M, 2.0, 0.0)
            ok = ok and inc <= 1.1 * bound
            if bound > 0:
                worst = max(worst, inc / bound)
    report(3, "Picard certified convergence", ok,
           f"max measured/bound ratio {worst:.3f} (<=1.1) over all sweeps of 3 solves")


def test_criterion_4_transform_round_trip(kernels_by_nxi):
    def rt_error(grid_m, n_xi, order):
        k, l = kernels_by_nxi(n_xi)
        w = Profile.from_function(lambda x: np.cos(np.pi * x) + 0.3 * x ** 2, grid_m)
        back = inverse_transform(forward_transform(w, k, order), l, order)
        return float(np.max(np.abs(back.values - w.values)))

    err = rt_error(401, 801, 4)
    errs2 = [rt_error(gm, nxi, 2) for gm, nxi in ((101, 201), (201, 401), (401, 801))]
    ratios = [errs2[0] / errs2[1], errs2[1] / errs2[2]]
    ok = err <= 1e-6 and all(3.0 <= r <= 5.0 for r in ratios)
    report(4, "transform round trip", ok,
           f"sup error {err:.3e} at grid_m=401 (<=1e-6); "
           f"order-2 halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (in [3,5])")


def test_criterion_5_target_exact_solutions():
    spec = ProblemSpec(CoefficientFamily(), lambda0=3.0)
    traj = simulate_target(spec, Profile(201, np.ones(201)), DEFAULT_SIM)
    err_const = float(np.max(np.abs(traj.fields - np.exp(-3.0 * traj.times)[:, None])))
    traj_cos = simulate_target(
        spec, Profile.from_function(lambda x: np.cos(np.pi * x), 201), DEFAULT_SIM
    )
    _, sigma, _ = fit_decay_rate(norm_trace(traj_cos, (2.0,))[2.0, "lp"], 0.1)
    rate = np.pi ** 2 + 3.0
    rel = abs(sigma - rate) / rate
    ok = err_const <= 1e-6 and rel <= 0.02
    report(5, "target-system exact solutions", ok,
           f"const-mode error {err_const:.3e} (<=1e-6); "
           f"fitted sigma {sigma:.4f} vs pi^2+3={rate:.4f}, rel {rel:.2e} (<=2%)")


def test_criterion_6_decay_floor(target_decay_run):
    lam = lambda_lower(SPEC_DECAY)
    assert lam == pytest.approx(1.0, abs=1e-12)
    traj = target_decay_run
    worst = {}
    ok = True
    traces = norm_trace(traj, (1.0, 2.0, math.inf))
    for p in (1.0, 2.0, math.inf):
        tr = traces[p, "lp"]
        ratio = float(np.max(tr.values / (np.exp(-lam * tr.times) * tr.values[0])))
        worst[p] = ratio
        ok = ok and ratio <= 1.02
    report(6, "decay floor", ok,
           "max ||u||_p / (e^{-t} ||u0||_p): "
           + ", ".join(f"p={p:g}: {r:.5f}" for p, r in worst.items()) + " (<=1.02)")


def test_criterion_7_theorem_envelope():
    start = time.perf_counter()
    k = picard_solve(GoursatProblem.direct(SPEC_DECAY), n_xi=401, tol=1e-10, max_iter=80)
    l = picard_solve(GoursatProblem.inverse(SPEC_DECAY), n_xi=401, tol=1e-10, max_iter=80)
    con = kernel_constants(k, l)
    lam = lambda_lower(SPEC_DECAY)
    w0 = InitialData("bump", {"center": 0.5, "width": 0.3, "height": 1.0}).build(201)
    w0, _ = make_compatible(w0, k)
    compat = check_compatibility(w0, k)
    traj = simulate_closed_loop(SPEC_DECAY, k, w0, DEFAULT_SIM)
    ok = compat.ok
    details = [f"W0 residual {max(compat.residual_left, compat.residual_right):.2e} (<1e-3)"]
    traces = norm_trace(traj, (1.0, 2.0, math.inf))
    for p in (1.0, 2.0, math.inf):
        cm = constants_for_p(p, con)
        for kind in ("lp", "w1p"):
            tr = traces[p, kind]
            chk = verify_theorem_bound(tr, cm[kind], lam, tr.values[0], slack=1.05)
            ok = ok and chk.passed
            details.append(f"{kind} p={p:g}: C={cm[kind]:.2f} margin={chk.margin:+.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300.0
    details.append(f"runtime {elapsed:.0f}s (<=300s)")
    report(7, "theorem envelope", ok, "; ".join(details))


def test_criterion_8_continuous_dependence():
    config = ScenarioConfig(
        spec=SPEC_DECAY,
        kernel=KernelSettings(n_xi=401, tol=1e-10, max_iter=80),
        sim=DEFAULT_SIM,
        initial_data=InitialData("cosine", {"a": 1.0, "modes": 1}, False),
        p_list=(1.0, 2.0),
        tau_list=(1e-2,),
        slack=1.0,
    )
    m = DEFAULT_SIM.grid_m
    x = np.linspace(0, 1, m)
    w01 = Profile(m, np.cos(np.pi * x))
    w02 = Profile(m, 0.9 * np.cos(np.pi * x))
    checks, linearity_gap = continuous_dependence_experiment(config, w01, w02)
    ok = all(chk.passed for chk in checks.values()) and linearity_gap <= 1e-8
    detail = "; ".join(f"{tag}: margin={chk.margin:+.2f}" for tag, chk in checks.items())
    report(8, "continuous dependence", ok,
           f"||w1-w2||(t) <= C e^(-lambda t) ||w01-w02||, {detail}; "
           f"direct-difference linearity gap {linearity_gap:.2e} (<=1e-8)")


def test_criterion_9_rho_property_suite():
    rng = np.random.default_rng(987654321)
    n = 100_000
    s = rng.uniform(-5.0, 5.0, size=n)
    tau = 10 ** rng.uniform(-4.0, 0.0, size=n)
    r = _rho_vec(s, tau)
    rp = rho_prime(s, tau)
    rpp = rho_second(s, tau)
    eps = 1e-12
    checks = {
        "0<=|s|<=rho": np.all(np.abs(s) <= r + eps),
        "|rho'|<=1": np.all(np.abs(rp) <= 1 + eps),
        "rho''>=0": np.all(rpp >= -eps),
        "rho-3tau/8>=0": np.all(r - 3 * tau / 8 >= -eps),
        "rho-3tau/8<=rho' s": np.all(r - 3 * tau / 8 <= rp * s + eps),
        "rho' s<=rho": np.all(rp * s <= r + eps),
        "rho<=|s|+3tau/8": np.all(r <= np.abs(s) + 3 * tau / 8 + eps),
    }
    ok = all(checks.values())
    gap_ok = True
    rng2 = np.random.default_rng(24680)
    v = Profile(301, rng2.normal(size=301))
    sup = np.max(np.abs(v.values))
    for p in (1.0, 1.5, 2.0, 3.0):
        gaps = []
        for t in (1e-1, 1e-2, 1e-3):
            gap = abs(alf_functional(v.values, v.h, p, t) - profile_norm(v, p) ** p)
            gap_ok = gap_ok and gap <= 0.375 * p * t * (sup + 0.375 * t) ** (p - 1) + 1e-15
            gaps.append(gap)
        gap_ok = gap_ok and gaps[0] > gaps[1] > gaps[2]
    report(9, "rho property suite", ok and gap_ok,
           f"{n} random (s, tau) pairs, all of " + ", ".join(checks) +
           "; ALF gap under the linear-in-tau envelope for p in {1, 1.5, 2, 3}")


def _rho_vec(s, tau):
    inner = -(s ** 4) / (8 * tau ** 3) + 3 * s ** 2 / (4 * tau) + 3 * tau / 8
    return np.where(np.abs(s) >= tau, np.abs(s), inner)


def test_criterion_10_gronwall_checker(target_decay_run):
    t = np.linspace(0.0, 3.0, 601)
    e1 = np.max(np.abs(gronwall_bound(5.0, -2.0, 0.0, t) - 5 * np.exp(-2 * t)))
    e2 = np.max(np.abs(gronwall_bound(0.0, 0.0, 1.0, t) - t))
    closed_ok = e1 <= 1e-10 and e2 <= 1e-10
    traj = target_decay_run
    lam = 1.0
    env_ok = True
    margins = []
    for p, tau in ((1.5, 1e-2), (2.0, 1e-2)):
        z = np.array([alf_functional(row, 1.0 / (traj.grid_m - 1), p, tau) for row in traj.fields])
        x = traj.x
        lam_xt = np.array([3.0 - x ** 2 - np.exp(-ti) for ti in traj.times])
        psi1 = 0.375 * p * np.trapezoid(
            lam_xt * rho(traj.fields, tau) ** (p - 1), dx=1 / (traj.grid_m - 1), axis=1
        )
        env = gronwall_bound(z[0], np.full_like(z, -lam * p), tau * psi1, traj.times)
        env_ok = env_ok and bool(np.all(z <= 1.05 * env))
        margins.append(float(np.min(env / z)))
    report(10, "Gronwall checker", closed_ok and env_ok,
           f"closed forms to {max(e1, e2):.2e} (<=1e-10); "
           f"decay-inequality envelope dominates the smoothed-functional trace "
           f"(min env/trace {min(margins):.3f}, slack 1.05)")


def test_criterion_11_every_p_on_default(tmp_path):
    """The paper's p in [1, inf], fractional p included, on the default scenario."""
    p_list = (1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 8.0, 16.0, math.inf)
    base = load_scenario(Path(__file__).resolve().parents[1] / "scripts" / "configs" / "default.ini")
    rep = run_scenario(dataclasses.replace(base, p_list=p_list, outputs=str(tmp_path / "out")))
    failed = [tag for tag, ok in rep.pass_flags.items() if not ok]
    # 2 kinds x 2 checks per p, and one ALF flag per finite p and tau
    n_flags = 4 * len(p_list) + (len(p_list) - 1) * len(base.tau_list)
    report(11, "every p on default.ini", len(rep.pass_flags) == n_flags == 74 and not failed,
           f"{len(rep.pass_flags) - len(failed)}/{len(rep.pass_flags)} flags pass "
           f"at p = {' '.join(f'{p:g}' for p in p_list)}; failed: {failed or 'none'}")
