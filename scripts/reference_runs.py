#!/usr/bin/env python3
"""The reference invocations of the command line, one output directory each.

    python3 scripts/reference_runs.py OUTDIR

runs, through ``backstep.cli.main`` and each into ``OUTDIR/<name>``:
``verify`` on default.ini, bench/source_xy.ini and oracle_rx2.ini;
``kernel`` on bench/source_xy.ini; ``simulate`` on default.ini (closed
loop, ``--target`` and ``--open-loop``); and ``oracle`` on
oracle_rx2.ini.  It exits 1 if any run exits non-zero.  Two builds write
byte-identical artifacts when ``artifact_diff.py OLD NEW`` prints
``identical`` for every file of their runs; otherwise it measures how
far apart they are.
"""
import sys
import time
from pathlib import Path

from backstep.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = str(ROOT / "scripts" / "configs" / "default.ini")
ORACLE = str(ROOT / "scripts" / "configs" / "oracle_rx2.ini")
SOURCE = str(ROOT / "bench" / "source_xy.ini")

#: run name -> command-line arguments, without ``--out``
RUNS = {
    "verify_default": ["verify", "--config", DEFAULT],
    "verify_source_xy": ["verify", "--config", SOURCE],
    "verify_oracle_rx2": ["verify", "--config", ORACLE],
    "kernel_source_xy": ["kernel", "--config", SOURCE],
    "simulate_closed": ["simulate", "--config", DEFAULT],
    "simulate_target": ["simulate", "--config", DEFAULT, "--target"],
    "simulate_open_loop": ["simulate", "--config", DEFAULT, "--open-loop"],
    "oracle_rx2": ["oracle", "--config", ORACLE],
}


def run(name: str, outdir) -> int:
    """Exit code of run ``name`` with ``--out outdir/name``."""
    return cli_main([*RUNS[name], "--out", str(Path(outdir) / name)])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = []
    for name in RUNS:
        start = time.perf_counter()
        code = run(name, args[0])
        print(f"{name}: exit {code} in {time.perf_counter() - start:.2f} s", file=sys.stderr)
        if code:
            failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
