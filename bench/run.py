#!/usr/bin/env python3
"""Benchmark of the backstep toolkit: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload verify_default --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the same checkout.  One process
runs one workload: it measures set-up in fresh child processes, then times
calls of the workload for ``--seconds`` (at least one call), then checks
the outputs of the last call.  With ``--trace 1`` half of the time goes to
untraced calls and half to calls with a span recorder around each
layer, and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of stdout is one JSON object; the lines before it
are a readable report.  Scratch files go under ``.bench_out/``.

See ``bench/README.md`` for why each workload was chosen and which layer
each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# per-layer times that tile one call: the top-level spans plus verify's self time
ACCOUNTED = ("kernel.solve_s", "kernel.residual_s", "kernel.csv_s", "simulator.closed_s",
             "simulator.target_s", "transforms.s", "norms.trace_s", "norms.alf_s",
             "verify.self_s")


def cap_threads() -> int:
    """Limit BLAS/OpenMP threads to nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_workloads():
    """Import the benchmark workloads against ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "backstep" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {src / 'backstep'}")
    sys.path.insert(0, str(src))
    import backstep
    import workloads

    if Path(backstep.__file__).resolve().parent != (src / "backstep").resolve():
        sys.exit(f"bench: imported backstep from {backstep.__file__}, not {src}")
    return workloads


def probe_setup(args) -> None:
    """Child process: imports, scenario loading and input generation, then stop."""
    cap_threads()
    wl = import_workloads().WORKLOADS[args.workload]()
    wl.setup(args.seed, Path(args.probe_setup))
    print(repr(clock()))


def measure_setup(args) -> list[float]:
    """Process start to the point of the first timed call, in fresh processes."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--probe-setup", str(workdir)]
        try:
            start = clock()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


@dataclass
class Call:
    id: int
    seconds: float
    ok: bool
    artifact_bytes: int = 0


def timed_calls(wl, budget: float, first_id: int, recorder=None):
    """Call the workload until ``budget`` seconds are used (at least once).

    Returns the calls and the result of the last one (None if it raised).
    """
    calls, result = [], None
    start = clock()
    while True:
        cid = first_id + len(calls)
        wl.prepare()
        if recorder is not None:
            recorder.call = cid
        t0 = time.perf_counter()
        try:
            result = wl.call()
        except Exception:  # a failed call is counted, not fatal
            traceback.print_exc()
            result = None
        seconds = time.perf_counter() - t0
        if recorder is not None:
            recorder.call = None
        ok = result is not None and wl.passed(result)
        calls.append(Call(cid, seconds, ok, wl.artifact_bytes() if ok else 0))
        if clock() - start + statistics.median(c.seconds for c in calls) > budget:
            return calls, result


def layer_metrics(spans, artifact_bytes: int) -> dict:
    """Per-layer figures of one traced call (see README for each)."""
    from tracing import self_time

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    solves = named("kernel.solve")
    steps_c = sum(s.attrs.get("steps", 0) for s in named("simulator.closed"))
    steps_t = sum(s.attrs.get("steps", 0) for s in named("simulator.target"))
    closed_s, target_s = total("simulator.closed"), total("simulator.target")
    m = {
        "kernel.solve_s": total("kernel.solve"),
        "kernel.sweeps": sum(s.attrs.get("sweeps", 0) for s in solves),
        "kernel.n_certified": sum(s.attrs.get("n_certified", 0) for s in solves),
    }
    for fam in ("f0", "fxy"):
        for n in (201, 401, 801):
            per = [1e3 * s.duration / s.attrs["sweeps"] for s in solves
                   if s.attrs.get("n_xi") == n and s.attrs.get("sweeps")
                   and s.attrs.get("f_zero") == (fam == "f0")]
            m[f"kernel.sweep_ms.{fam}.n{n}"] = statistics.median(per) if per else 0.0
    m.update({
        "kernel.residual_s": total("kernel.residual"),
        "kernel.csv_s": total("kernel.csv"),
        "simulator.steps": steps_c + steps_t,
        "simulator.closed_s": closed_s,
        "simulator.closed_step_us": 1e6 * closed_s / steps_c if steps_c else 0.0,
        "simulator.target_s": target_s,
        "simulator.target_step_us": 1e6 * target_s / steps_t if steps_t else 0.0,
        "transforms.s": total("transforms"),
        "norms.trace_s": total("norms.trace"),
        "norms.alf_s": total("norms.alf"),
        "norms.calls": sum(1 for s in spans if s.name.startswith("norms.")),
        "verify.self_s": sum(self_time(s, spans) for s in named("verify.run_scenario")),
        "verify.artifact_bytes": artifact_bytes,
    })
    return m


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric(spec_list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def run(args) -> int:
    threads = cap_threads()
    spec = load_spec()
    workloads = import_workloads()
    setup_samples = measure_setup(args)
    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(args.seed, workdir)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print("machine", json.dumps({**machine_info(), "blas_threads": threads}))
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced, result = timed_calls(wl, budget, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_s = statistics.median(c.seconds for c in untraced)
        print(f"run_s: median {run_s:.4f} s of {len(untraced)} calls "
              f"({', '.join(f'{c.seconds:.3f}' for c in untraced)})")
        print(f"setup_s: {', '.join(f'{s:.3f}' for s in setup_samples)}")
        traced = []
        if args.trace:
            from tracing import Recorder

            rec = Recorder()
            workloads.instrument(rec, args.workload)
            traced, result = timed_calls(wl, budget, len(untraced), rec)
            rec.dump(workdir / "spans.json")
            if rec.missing:
                print("trace: missing names " + ", ".join(rec.missing))
        calls = untraced + traced
        try:
            checked = wl.check(result) if result is not None else None
        except Exception:  # report the run as incorrect, still print a result
            traceback.print_exc()
            checked = None
        if checked is not None:
            print("checks", json.dumps(checked["named"]))
        failed = sum(not c.ok for c in calls)
        correct = failed == 0 and checked is not None and checked["correct"]
        if not args.trace:
            # an accuracy figure that could not be computed reads as the worst value
            worst = sys.float_info.max
            values = {
                "setup_s": statistics.median(setup_samples),
                "run_s": run_s,
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": (len(calls) - failed) / len(calls),
                "invariant_err": checked["invariant_err"] if checked else worst,
                "kernel_resid": checked["kernel_resid"] if checked else worst,
            }
            metrics = metric(spec["end_to_end"], values)
        else:
            ok_traced = [c for c in traced if c.ok]
            per_call = [layer_metrics(rec.of_call(c.id), c.artifact_bytes)
                        for c in ok_traced]
            values = {k: statistics.median(pc[k] for pc in per_call)
                      for k in (per_call[0] if per_call else {})}
            traced_s = statistics.median(c.seconds for c in traced)
            values["trace.overhead_s"] = traced_s - run_s
            print(f"traced run_s: median {traced_s:.4f} s of {len(traced)} calls")
            for c, pc in zip(ok_traced, per_call):
                covered = sum(pc[k] for k in ACCOUNTED)
                print(f"traced call {c.id}: layer spans + verify.self_s = {covered:.4f} s "
                      f"of {c.seconds:.4f} s")
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
            if missing:
                print("no traced call succeeded: " + ", ".join(missing), file=sys.stderr)
                correct = False
                values.update(dict.fromkeys(missing, 0.0))
            metrics = metric(spec["per_layer"], values)
        for name, mv in metrics.items():
            print(f"  {name:32s} {mv['value']:.6g} {mv['unit']}")
    finally:
        shutil.rmtree(workdir / "artifacts", ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify_default", "kernel_refine"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        probe_setup(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
