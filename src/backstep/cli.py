"""Command-line front end: kernel solves, simulations, verification runs.

Exit codes: 0 pass, 1 bound violation, 2 configuration error (an
unwritable output directory and a failed artifact writer included, such
as ``verify``'s ``closed_loop.csv`` child), 3 numerical failure (a float
overflow and a Picard stop at a rounding floor included).  A failure
inside ``verify`` names its pipeline stage.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .coefficients import ValidationError, lambda_lower
from .kernel import ConvergenceError, GoursatProblem, picard_solve, residual
from .simulator import DivergenceError, simulate_closed_loop, simulate_target
from .transforms import TransformError, initial_target_data, make_compatible
from .verify import (
    ConfigError,
    ScenarioConfig,
    dump_kernel_csv,
    failure_text,
    load_scenario,
    oracle_comparison,
    run_scenario,
    solve_kernels,
    write_controls,
    write_oracle,
    write_trajectory,
)

EXIT_PASS = 0
EXIT_BOUND = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _refine(config: ScenarioConfig, factor: int) -> ScenarioConfig:
    if factor == 1:
        return config
    kernel = dataclasses.replace(config.kernel, n_xi=(config.kernel.n_xi - 1) * factor + 1)
    sim = dataclasses.replace(
        config.sim,
        grid_m=(config.sim.grid_m - 1) * factor + 1,
        dt=config.sim.dt / factor ** 2,
        record_stride=config.sim.record_stride * factor ** 2,
    )
    return dataclasses.replace(config, kernel=kernel, sim=sim)


def _load(args) -> ScenarioConfig:
    config = load_scenario(args.config)
    if args.out:
        config = dataclasses.replace(config, outputs=args.out)
    if args.p:
        config = dataclasses.replace(config, p_list=args.p)
    return _refine(config, args.refine)


def _cmd_kernel(args) -> int:
    config = _load(args)
    os.makedirs(config.outputs, exist_ok=True)
    lambda_lower(config.spec)
    k, l = solve_kernels(config)
    dump_kernel_csv(os.path.join(config.outputs, "kernels.csv"), k, l)
    lines = [
        # one count per lattice of the nested solve, coarse to fine
        f"picard sweeps: direct {' -> '.join(map(str, k.level_sweeps))}, "
        f"inverse {' -> '.join(map(str, l.level_sweeps))}",
        f"final increments: {k.final_increment:.3e}, {l.final_increment:.3e}",
    ]
    for name, grid, prob in (("direct", k, GoursatProblem.direct(config.spec)),
                             ("inverse", l, GoursatProblem.inverse(config.spec))):
        for mult in (1, 2):
            rep = residual(grid, prob, h=mult * grid.delta)
            lines.append(
                f"{name} residual at h={rep.h:.5g}: interior {rep.interior_sup:.4e}, "
                f"boundary ({rep.bc_diagonal:.2e}, {rep.bc_corner:.2e})"
            )
    report = "\n".join(lines)
    print(report)
    with open(os.path.join(config.outputs, "kernel_report.txt"), "w") as fh:
        fh.write(report + "\n")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    config = _load(args)
    os.makedirs(config.outputs, exist_ok=True)
    lambda_lower(config.spec)
    ks = config.kernel
    k = None
    if args.target or not args.open_loop:
        k = picard_solve(GoursatProblem.direct(config.spec), ks.n_xi, ks.tol, ks.max_iter)
    w0 = config.initial_data.build(config.sim.grid_m)
    if config.initial_data.adjust_compatibility and not args.open_loop:
        w0, _ = make_compatible(w0, k)
    if args.target:
        u0 = initial_target_data(w0, k)
        traj = simulate_target(config.spec, u0, config.sim)
        path = write_trajectory(config.outputs, "target.csv", traj)
    else:
        traj = simulate_closed_loop(config.spec, k, w0, config.sim, open_loop=args.open_loop)
        path = write_trajectory(config.outputs, "closed_loop.csv", traj)
        write_controls(config.outputs, traj)
    final = float(np.max(np.abs(traj.fields[-1])))
    print(f"wrote {path}; final sup-norm {final:.6e} at t = {traj.times[-1]:g}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    config = _load(args)
    report = run_scenario(config)
    sigma = "n/a" if report.fitted_sigma is None else f"{report.fitted_sigma:.4f}"
    print(f"lambda_lower = {report.lambda_lower:.6g}, fitted sigma = {sigma}")
    for name, ok in sorted(report.pass_flags.items()):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    print(f"report written to {os.path.join(config.outputs, 'report.json')}")
    return EXIT_PASS if report.passed else EXIT_BOUND


def _cmd_oracle(args) -> int:
    config = _load(args)
    if args.out:
        os.makedirs(config.outputs, exist_ok=True)
    ks = config.kernel
    rows, sup = oracle_comparison(config.spec, ks.n_xi, ks.tol, ks.max_iter)
    print(f"sup |picard - series| over the region: {sup:.6e}")
    if args.out:
        path = write_oracle(os.path.join(config.outputs, "oracle.csv"), rows)
        print(f"table written to {path}")
    return EXIT_PASS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _p_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backstep",
        description="backstepping boundary stabilization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("kernel", _cmd_kernel, "solve both kernels, dump CSV and residual report"),
        ("simulate", _cmd_simulate, "run one simulation and dump the trajectory"),
        ("verify", _cmd_verify, "full pipeline with envelope checks"),
        ("oracle", _cmd_oracle, "series-vs-Picard comparison table"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--p", type=_p_list, default=None, help="comma-separated p list override")
        p.add_argument("--refine", type=_positive_int, default=1, help="grid refinement factor")
        p.set_defaults(fn=fn)
        if name == "simulate":
            p.add_argument("--target", action="store_true", help="run the target system")
            p.add_argument("--open-loop", action="store_true", help="force U = 0")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"configuration error: {failure_text(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DivergenceError, TransformError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {failure_text(exc)}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
