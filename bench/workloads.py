"""The benchmark workloads and their seeded inputs.

Each workload turns ``--seed`` into inputs (a scenario file written into
its work directory), makes one *call* that the benchmark times, and
checks the outputs of the last call outside the timed region.

=================  ==========================================  =====================
workload           one call                                    layer it loads
=================  ==========================================  =====================
verify_default     ``run_scenario`` on default.ini (f = 0)      simulator (~87 %),
                   with seeded c2 and initial bump              CSV + norms (~11 %)
kernel_refine      ``picard_solve`` and ``residual`` at h and   kernel only
                   2h on the lattice ladder n_xi = 201/401/801,
                   for the oracle family and for source_xy's
                   seeded f = a + b x y
=================  ==========================================  =====================

The seed moves only the inputs: the bump's center, width and height and
the f and c2 coefficients, in ranges that keep lambda0 > sup c.  Grids,
time step, horizon and step counts come from the scenario files and do
not depend on it.
"""
from __future__ import annotations

import configparser
import random
import shutil
from pathlib import Path

import numpy as np

from backstep import (
    GoursatProblem,
    Profile,
    forward_transform,
    load_scenario,
    picard_solve,
    residual,
    run_scenario,
    series_oracle,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_INI = ROOT / "scripts" / "configs" / "default.ini"
ORACLE_INI = ROOT / "scripts" / "configs" / "oracle_rx2.ini"
SOURCE_INI = HERE / "source_xy.ini"

LADDER = (201, 401, 801)
ORACLE_TRUNC = 25

# correctness gates, far above the values the package reaches today
# (equiv_gap ~3e-6, kernel_err ~4e-10, kernel residuals 3e-6 .. 2e-5)
MAX_EQUIV_GAP = 1e-4
MAX_KERNEL_ERR = 1e-6
MAX_KERNEL_RESID = 1e-2


def _uniform(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def write_seeded_scenario(template: Path, seed: int, path: Path, outdir: Path,
                          source: bool) -> None:
    """Copy ``template`` with seeded coefficients and initial bump.

    The ranges are narrow where an accuracy metric is sensitive: equiv_gap
    grows steeply as the bump moves toward x = 1 and is linear in its
    height, and the kernel residual follows the size of f.
    """
    rng = random.Random(seed)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not cp.read(template):
        raise FileNotFoundError(template)
    prob, init = cp["problem"], cp["initial_data"]
    if source:
        # f = a + b x y and c2 = a sin(b t) e^{-t}; sup c <= 1.8 < lambda0 = 3
        prob["f_poly"] = f"{_uniform(rng, 0.98, 1.02)} 0; 0 {_uniform(rng, 0.98, 1.02)}"
        prob["c2_a"] = _uniform(rng, 0.9, 1.1)
        prob["c2_b"] = _uniform(rng, 3.8, 4.2)
    else:
        # c2 = a e^{-b t}; sup c = 1 + a <= 2.1 < lambda0 = 3
        prob["c2_a"] = _uniform(rng, 0.9, 1.1)
        prob["c2_b"] = _uniform(rng, 0.9, 1.1)
    init["center"] = _uniform(rng, 0.46, 0.50)
    init["width"] = _uniform(rng, 0.28, 0.31)
    init["height"] = _uniform(rng, 0.98, 1.02)
    cp["outputs"]["directory"] = str(outdir)
    with open(path, "w") as fh:
        cp.write(fh)


class VerifyWorkload:
    """One ``run_scenario`` call on a seeded scenario, artifacts in a fresh dir."""

    def setup(self, seed: int, workdir: Path) -> None:
        self.outdir = workdir / "artifacts"
        ini = workdir / "scenario.ini"
        write_seeded_scenario(DEFAULT_INI, seed, ini, self.outdir, source=False)
        self.config = load_scenario(str(ini))

    def prepare(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def call(self):
        return run_scenario(self.config)

    def passed(self, report) -> bool:
        return bool(report.passed)

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir() if p.is_file())

    def check(self, report) -> dict:
        """equiv_gap from the written trajectories, kernel residual at h."""
        cfg = self.config
        problem = GoursatProblem.direct(cfg.spec)
        k = picard_solve(problem, cfg.kernel.n_xi, cfg.kernel.tol, cfg.kernel.max_iter)
        manifest = (self.outdir / "MANIFEST.txt").read_text().split()
        w = np.loadtxt(self.outdir / "closed_loop.csv", delimiter=",", skiprows=1)
        u = np.loadtxt(self.outdir / "target.csv", delimiter=",", skiprows=1)
        m = cfg.sim.grid_m
        if w.shape != u.shape or not np.array_equal(w[:, :2], u[:, :2]):
            raise ValueError("closed-loop and target trajectories are not aligned")
        gap = max(
            float(np.max(np.abs(forward_transform(Profile(m, wr), k).values - ur)))
            for wr, ur in zip(w[:, 2].reshape(-1, m), u[:, 2].reshape(-1, m))
        )
        resid = residual(k, problem).interior_sup
        return {
            "invariant_err": gap,
            "kernel_resid": resid,
            "correct": bool(report.passed and manifest[:1] == ["complete"]
                            and gap < MAX_EQUIV_GAP and resid < MAX_KERNEL_RESID),
            "named": {"equiv_gap": gap, "kernel_resid": resid,
                      "records": len(w) // m, "passed": bool(report.passed)},
        }


class KernelRefineWorkload:
    """Kernel solves and residuals on a lattice ladder; no simulation."""

    def setup(self, seed: int, workdir: Path) -> None:
        ini = workdir / "scenario.ini"
        write_seeded_scenario(SOURCE_INI, seed, ini, workdir / "artifacts", source=True)
        oracle = load_scenario(str(ORACLE_INI))
        source = load_scenario(str(ini))
        self.families = (("f0", oracle), ("fxy", source))
        self.oracle_spec = oracle.spec

    def prepare(self) -> None:
        pass

    def call(self) -> dict:
        grids = {}
        for fam, cfg in self.families:
            ks = cfg.kernel
            for n in LADDER:
                # the finest rung solves only the direct kernel: its inverse
                # costs as much again and adds no new lattice size
                kinds = ("direct",) if n == LADDER[-1] else ("direct", "inverse")
                for problem in (GoursatProblem(kind, cfg.spec) for kind in kinds):
                    g = picard_solve(problem, n, ks.tol, ks.max_iter)
                    residual(g, problem, h=g.delta)
                    residual(g, problem, h=2 * g.delta)
                    grids[fam, n, problem.orientation] = (g, problem)
        return grids

    def passed(self, grids) -> bool:
        return len(grids) == 2 * (2 * len(LADDER) - 1)

    def artifact_bytes(self) -> int:
        return 0

    def check(self, grids) -> dict:
        """kernel_err against the series oracle, fxy residual at h, finest lattice."""
        n = LADDER[-1]
        g, _ = grids["f0", n, "direct"]
        c1 = self.oracle_spec.family.c1_poly
        lat = g.lattice
        XI, ETA = lat.mesh()
        mask = lat.region_mask()
        series = series_oracle(self.oracle_spec.lambda0, c1[2], XI[mask], ETA[mask],
                               ORACLE_TRUNC)
        err = float(np.max(np.abs(g.values_xieta[mask] - series)))
        gs, problem = grids["fxy", n, "direct"]
        resid = residual(gs, problem, h=gs.delta).interior_sup
        sweeps = {f"{fam}.n{nn}.{o}": grid.iterations_used
                  for (fam, nn, o), (grid, _) in grids.items()}
        return {
            "invariant_err": err,
            "kernel_resid": resid,
            "correct": bool(err < MAX_KERNEL_ERR and resid < MAX_KERNEL_RESID),
            "named": {"kernel_err": err, "kernel_resid": resid, "sweeps": sweeps},
        }


WORKLOADS = {
    "verify_default": VerifyWorkload,
    "kernel_refine": KernelRefineWorkload,
}


def instrument(recorder, workload: str) -> None:
    """Wrap the calls into each layer where their caller binds them."""
    me = __name__
    if workload == "kernel_refine":
        recorder.wrap(me, "picard_solve", "kernel.solve", _kernel_attrs)
        recorder.wrap(me, "residual", "kernel.residual")
        return
    v = "backstep.verify"
    recorder.wrap(me, "run_scenario", "verify.run_scenario")
    recorder.wrap(v, "picard_solve", "kernel.solve", _kernel_attrs)
    recorder.wrap(v, "solve_inverse_kernel", "kernel.solve", _kernel_attrs)
    recorder.wrap(v, "dump_kernel_csv", "kernel.csv")
    for name in ("make_compatible", "check_compatibility", "initial_target_data"):
        recorder.wrap(v, name, "transforms")
    recorder.wrap(v, "simulate_closed_loop", "simulator.closed", _sim_attrs)
    recorder.wrap(v, "simulate_target", "simulator.target", _sim_attrs)
    recorder.wrap(v, "norm_trace", "norms.trace")
    for name in ("alf", "rho", "gronwall_bound"):
        recorder.wrap(v, name, "norms.alf")


def _kernel_attrs(args, kwargs, grid) -> dict:
    # picard_solve takes a GoursatProblem, solve_inverse_kernel a ProblemSpec
    spec = getattr(args[0], "spec", args[0])
    return {"n_xi": grid.n_xi, "sweeps": grid.iterations_used,
            "n_certified": grid.n_certified, "f_zero": bool(spec.family.f_is_zero)}


def _sim_attrs(args, kwargs, traj) -> dict:
    for a in (*args, *kwargs.values()):
        if hasattr(a, "n_steps"):
            return {"steps": int(a.n_steps)}
    return {}

