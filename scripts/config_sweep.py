#!/usr/bin/env python3
"""Every key of a small scenario, and every value-taking flag, set to each value of a list.

    python3 scripts/config_sweep.py [KEY ...]

The scenario is ``scripts/configs/default.ini`` with ``n_xi`` 101, ``grid_m``
51, ``dt`` 1e-3 and ``t_end`` 0.5, writing to ``out``.  Each of its keys, and
each key of ``SWITCHED`` with the family that reads it switched on, is set in
turn to each of ``VALUES``, and ``verify``, ``simulate --open-loop``,
``kernel`` and ``oracle`` run on the file; then each
flag of ``FLAGS`` is given each of its values on the unchanged file, on the
commands that take it.  Given ``KEY`` arguments, keys or flags such as
``--refine``, the sweep runs only those.
Every case runs in-process through ``backstep.cli.main``, inside one
temporary working directory and with every warning raised as an error;
argparse's rejection of a flag value counts as its exit 2, and its usage
lines are dropped from stderr, leaving the one error line.  A case is
flagged when

* its exit code is outside {0, 1, 2, 3}, or is 1 while no flag failed (1
  means a bound violation, and only ``verify`` checks bounds);
* it exits 3 in ``verify``'s stage ``validate``: a float error there is a
  configuration value that numpy's trap decided, which should exit 2 and
  name its key;
* it prints more than one line to stderr;
* an exception escapes ``cli.main``: a warning, or a traceback exit;
* a command of ``SHARED`` exits 2 on its file or flag value and another
  command does not: every command validates a scenario the same way, so a
  configuration error is every command's.  ``oracle`` alone may exit 2,
  as it rejects every family but its own.

Prints one line per flagged case, a count of the cases per exit code for
each command, and the total; exits 1 if any case is flagged, 2 on an unknown
``KEY``.  The whole sweep (30 keys, 15 values, 4 commands: 1800 cases; then
6 ``--refine`` values on 4 commands and 8 ``--p`` values on ``verify``: 32
cases) takes about 14 s on a 2-core Xeon VM; none is flagged.
"""
import configparser
import contextlib
import io
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from backstep.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = ROOT / "scripts" / "configs" / "default.ini"

#: the small scenario: these keys of default.ini changed
SMALL = {("kernel", "n_xi"): "101", ("sim", "grid_m"): "51", ("sim", "dt"): "1e-3",
         ("sim", "t_end"): "0.5", ("outputs", "directory"): "out"}
VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "1e308 1e308", "-1e308 -1e308", "1e-308",
          "0.1", "abc", "2", "1 2", "3;4")
#: keys the small scenario leaves unset, each with the switch ``{key: value}`` of its section
#: that makes the run read it; switching the initial-data family drops the bump's keys
SWITCHED = (("initial_data", "a", {"family": "constant"}),
            ("initial_data", "a", {"family": "cosine"}),
            ("initial_data", "modes", {"family": "cosine"}),
            ("initial_data", "coeffs", {"family": "polynomial"}),
            ("problem", "c2_a", {"c2_kind": "constant"}),
            ("problem", "c2_a", {"c2_kind": "damped_osc"}),
            ("problem", "c2_b", {"c2_kind": "damped_osc"}))
BUMP = ("center", "width", "height")
COMMANDS = (("verify",), ("simulate", "--open-loop"), ("kernel",), ("oracle",))
#: the commands whose configuration error (exit 2) every other command must share
SHARED = ("verify", "simulate --open-loop", "kernel")
#: (flag, its values, the commands that take it)
FLAGS = (("--refine", ("2", "200000000", "0", "-1", "abc", "1e308"), COMMANDS),
         ("--p", ("1", "inf", "1e308", "0.5", "nan", "2,2.0000001", "abc", ""), (("verify",),)))


def scenario() -> configparser.ConfigParser:
    """The small scenario, as parsed from default.ini with the ``SMALL`` edits."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(DEFAULT)
    for (section, key), value in SMALL.items():
        cp[section][key] = value
    return cp


def keys() -> list:
    """Every (section, key, switch) swept: the small scenario's keys in file order, with
    no switch, then ``SWITCHED``."""
    cp = scenario()
    return [(section, key, {}) for section in cp.sections() for key in cp[section]] + list(SWITCHED)


def run_case(section: str, key: str, value: str, command: tuple, switch=None):
    """(exit code or None, stdout, stderr, escaped exception or None) of one key's case.

    Runs in the current working directory, where the scenario file and the
    outputs go.
    """
    cp = scenario()
    for name, text in (switch or {}).items():
        cp[section][name] = text
        if name == "family":
            for bump_key in BUMP:
                cp.remove_option(section, bump_key)
    cp[section][key] = value
    return _run(cp, command)


def run_flag(flag: str, value: str, command: tuple):
    """:func:`run_case`'s outcome of the small scenario run with ``flag value``."""
    return _run(scenario(), (*command, flag, value))


def _run(cp: configparser.ConfigParser, command: tuple):
    with open("case.ini", "w") as fh:
        cp.write(fh)
    out, err = io.StringIO(), io.StringIO()
    code = escaped = None
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli_main([*command, "--config", "case.ini"])
        except SystemExit as exc:  # argparse rejected a flag: usage lines, then one error line
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines(keepends=True)[-1])
        except BaseException as exc:  # noqa: BLE001 - an escape is what the sweep looks for
            escaped = exc
    return code, out.getvalue(), err.getvalue(), escaped


def problems(code, stdout: str, stderr: str, escaped) -> list:
    """What is wrong with one case's outcome; empty when nothing is."""
    found = []
    if escaped is not None:
        found.append(f"{type(escaped).__name__} escaped: {' '.join(str(escaped).split())}")
    elif code not in (0, 1, 2, 3):
        found.append(f"exit {code}")
    elif code == 1 and "[FAIL]" not in stdout:
        found.append("exit 1 with no failed flag")
    elif code == 3 and stderr.startswith("numerical failure: stage validate: "):
        found.append("exit 3 in stage validate")
    if len(stderr.splitlines()) > 1:
        found.append(f"{len(stderr.splitlines())} stderr lines")
    return found


def disagreement(codes: dict) -> list:
    """What is wrong with one file's or flag value's exit codes across commands,
    ``{command: code}``: a configuration error of a ``SHARED`` command that
    another command ran past; empty when nothing is."""
    rejecting = [command for command in SHARED if codes.get(command) == 2]
    passing = [f"{command} exits {code}" for command, code in codes.items() if code != 2]
    if rejecting and passing:
        return [f"{', '.join(rejecting)} exit 2 but {', '.join(passing)}"]
    return []


def sweep(selected, flags) -> tuple:
    """(flagged lines, {command: Counter of exit codes}) over every case of the
    ``selected`` keys and of the ``flags``, entries of ``FLAGS``."""
    flagged, codes = [], {}

    def record(label, outcomes):
        """Count and check ``outcomes``, ``{command: outcome}``, of one file or flag value."""
        for command, outcome in outcomes.items():
            codes.setdefault(command, Counter())[outcome[0]] += 1
            flagged.extend(f"{label}, {command}: {problem}" for problem in problems(*outcome))
        flagged.extend(f"{label}: {problem}" for problem in
                       disagreement({command: outcome[0] for command, outcome in outcomes.items()}))

    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for section, key, switch in selected:
                label = "".join(f" ({name} = {text})" for name, text in switch.items())
                for value in VALUES:
                    record(f"[{section}] {key} = {value!r}{label}",
                           {" ".join(command): run_case(section, key, value, command, switch)
                            for command in COMMANDS})
            for flag, values, commands in flags:
                for value in values:
                    record(f"{flag} {value!r}", {" ".join(command): run_flag(flag, value, command)
                                                 for command in commands})
        finally:
            os.chdir(cwd)
    return flagged, codes


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    every, flags = keys(), [flag for flag, _, _ in FLAGS]
    unknown = sorted(set(names) - {key for _, key, _ in every} - set(flags))
    if unknown:
        print(f"unknown key {', '.join(unknown)}; the keys are "
              f"{' '.join(dict.fromkeys(key for _, key, _ in every))} {' '.join(flags)}",
              file=sys.stderr)
        return 2
    flagged, codes = sweep([case for case in every if not names or case[1] in names],
                           [entry for entry in FLAGS if not names or entry[0] in names])
    for line in flagged:
        print(line)

    def tally(counts: Counter) -> str:
        return (f"{sum(counts.values())} cases, exit codes "
                f"{', '.join(f'{c}: {n}' for c, n in sorted(counts.items(), key=str))}")

    for command, counts in codes.items():
        print(f"{command}: {tally(counts)}")
    print(f"{tally(sum(codes.values(), Counter()))}; {len(flagged)} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
