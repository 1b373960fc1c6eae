"""Command-line front end: kernel solves, simulations, verification runs.

Exit codes: 0 pass, 1 bound violation, 2 configuration error, 3 numerical
failure, decided by the error's type.  A ConfigError, an OSError (an
unwritable output directory, a failed artifact writer) or a MemoryError (a
grid too large for memory) exits 2.  An ArithmeticError exits 3: every
numerical failure the package raises derives from it, as do a float
overflow and numpy's float errors.  numpy's LinAlgError, a ValueError,
exits 3 too.  A failure inside ``verify`` names its pipeline stage.  Every
command validates a scenario the same way, by
:func:`~backstep.verify.validate_scenario`, before any solve, and runs in
:func:`~backstep.verify.run_scope`: on one OpenBLAS thread, so that its
artifacts do not depend on the caller's thread count, and with numpy's
float errors raised, so that none prints a warning.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .coefficients import ConfigError
from .kernel import GoursatProblem, picard_solve, residual
from .simulator import simulate_closed_loop, simulate_target
from .transforms import initial_target_data
from .verify import (
    ScenarioConfig,
    dump_kernel_csv,
    failure_text,
    load_scenario,
    oracle_comparison,
    run_scenario,
    run_scope,
    solve_kernels,
    validate_scenario,
    write_controls,
    write_oracle,
    write_trajectory,
)

EXIT_PASS = 0
EXIT_BOUND = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _refine(config: ScenarioConfig, factor: int) -> ScenarioConfig:
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
    if getattr(args, "p", None):
        config = dataclasses.replace(config, p_list=args.p)
    return _refine(config, args.refine)


def _cmd_kernel(args) -> int:
    config = _load(args)
    validate_scenario(config)
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
            lines.append(f"{name} residual at h={rep.h:.5g}: interior {rep.interior_sup:.4e}")
    report = "\n".join(lines)
    print(report)
    with open(os.path.join(config.outputs, "kernel_report.txt"), "w") as fh:
        fh.write(report + "\n")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    config = _load(args)
    validate_scenario(config)
    ks = config.kernel
    k = None if args.open_loop else picard_solve(
        GoursatProblem.direct(config.spec), ks.n_xi, ks.tol, ks.max_iter)
    w0 = config.initial_data.build(config.sim.grid_m, k)
    if args.target:
        u0 = initial_target_data(w0, k)
        traj = simulate_target(config.spec, u0, config.sim)
        path = write_trajectory(config.outputs, "target.csv", traj)
    else:
        traj = simulate_closed_loop(config.spec, k, w0, config.sim)
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
    validate_scenario(config)
    ks = config.kernel
    rows, sup = oracle_comparison(config.spec, ks.n_xi, ks.tol, ks.max_iter)
    print(f"sup |picard - series| over the region: {sup:.6e}")
    path = write_oracle(os.path.join(config.outputs, "oracle.csv"), rows)
    print(f"table written to {path}")
    return EXIT_PASS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _directory(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty directory name")
    return text


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
        p.add_argument("--out", type=_directory, default=None, help="output directory override")
        p.add_argument("--refine", type=_positive_int, default=1, help="grid refinement factor")
        p.set_defaults(fn=fn)
        if name == "verify":
            p.add_argument("--p", type=_p_list, default=None, help="comma-separated p list override")
        if name == "simulate":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--target", action="store_true", help="run the target system")
            mode.add_argument("--open-loop", action="store_true", help="force U = 0")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with run_scope():
            return args.fn(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"configuration error: {failure_text(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {failure_text(exc)}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
