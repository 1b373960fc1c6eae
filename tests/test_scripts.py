"""Smoke tests of the scripts, which load against the package and run, a check that
the README's references to the package and to the tests resolve, and one of the
test settings in pyproject.toml."""
import ast
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BENCH = SCRIPTS.parent / "bench"


def load(name: str) -> dict:
    return runpy.run_path(str(SCRIPTS / name), run_name="smoke")


def test_kernel_convergence_study_loads():
    study = load("kernel_convergence_study.py")
    assert callable(study["series_table"]) and callable(study["source_table"])


def write_tree(root, files: dict):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root)


def test_artifact_diff(tmp_path, capsys):
    report = {"fit": [0.5, 2.0], "flags": {"ok": True}, "sweeps": 8, "note": "x"}
    old = write_tree(tmp_path / "old", {
        "a.csv": "t,name,value\n0,p,1e-20\n0.5,q,2.0\n",
        "nan.csv": "t,value\n0,nan\n0.5,0\n",
        "nan.json": json.dumps({"fit": math.nan, "g": 0.0, "k": 2.0}),
        "report.json": json.dumps(report),
        "same.txt": "sweeps 8\n",
        "sub/log.txt": "residual 1.0e-05 after 8 sweeps\n",
    })
    new = write_tree(tmp_path / "new", {
        "a.csv": "t,name,value\n0,p,3e-20\n0.5,q,2.000000000000004\n",
        "nan.csv": "t,value\n0,0\n0.5,0\n",
        "nan.json": json.dumps({"fit": 0.0, "g": math.nan, "k": 2.0}),
        "report.json": json.dumps({**report, "fit": [0.5, 2.5]}),
        "same.txt": "sweeps 8\n",
        "sub/log.txt": "residual 1.5e-05 after 8 sweeps\n",
    })
    main = load("artifact_diff.py")["main"]
    assert main([old, new]) == 0
    # the near-zero entry is measured on its column's scale: 2e-20 / 2.000000000000004;
    # a nan that meets a 0 differs by inf, on a zero scale as on any other, and is never
    # one of the smaller numbers that moved
    assert capsys.readouterr().out.splitlines() == [
        "a.csv  max abs 3.997e-15  max rel 1.998e-15 at value",
        "nan.csv  max abs inf  max rel inf at value",
        "nan.json  max abs inf  max rel inf at $.fit",
        "report.json  max abs 5.000e-01  max rel 2.000e-01 at $.fit[1]",
        "identical  same.txt",
        "sub/log.txt  max abs 5.000e-06  max rel 3.333e-01 at number 0",
    ]


def test_artifact_diff_ranks_on_the_file_scale(tmp_path, capsys):
    # a near-zero residual that moves by most of itself must not hide the real move
    old = write_tree(tmp_path / "old", {
        "log.txt": "residual 5.9e-15, k 1.0 of 100.0\n",
        "report.json": json.dumps({"residual": 5.9e-15, "k": 1.0, "norm": 100.0}),
    })
    new = write_tree(tmp_path / "new", {
        "log.txt": "residual 2.8e-16, k 1.0000000000001 of 100.0\n",
        "report.json": json.dumps({"residual": 2.8e-16, "k": 1.0000000000001, "norm": 100.0}),
    })
    assert load("artifact_diff.py")["main"]([old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "log.txt  max abs 9.992e-14  max rel 9.992e-14 at number 1  (1 smaller moved)",
        "report.json  max abs 9.992e-14  max rel 9.992e-14 at $.k  (1 smaller moved)",
    ]


@pytest.mark.parametrize("rel, text", [
    ("a.csv", "t,name,value\n0,r,1e-20\n0.5,q,2.0\n"),  # a non-numeric column
    ("a.csv", "t,value\n0,1e-20\n"),  # the header
    ("report.json", json.dumps({"sweeps": 9})),  # an integer leaf
    ("report.json", json.dumps({"ok": False})),  # a pass flag
    ("log.txt", "residual 1.0e-05 after 9 sweeps\n"),  # an integer in text
    ("log.txt", "residual 1.0e-05 after 8 steps\n"),  # the words
])
def test_artifact_diff_unequal_field_exits_1(tmp_path, capsys, rel, text):
    base = {"a.csv": "t,name,value\n0,p,1e-20\n0.5,q,2.0\n",
            "report.json": json.dumps({"sweeps": 8, "ok": True}),
            "log.txt": "residual 1.0e-05 after 8 sweeps\n"}
    old = write_tree(tmp_path / "old", base)
    new = write_tree(tmp_path / "new", {**base, rel: text})
    assert load("artifact_diff.py")["main"]([old, new]) == 1
    assert f"{rel}  unequal: " in capsys.readouterr().out


def test_artifact_diff_missing_file(tmp_path, capsys):
    old = write_tree(tmp_path / "old", {"a.csv": "t\n0\n", "b.txt": "x\n"})
    new = write_tree(tmp_path / "new", {"a.csv": "t\n0\n", "c.txt": "x\n"})
    main = load("artifact_diff.py")["main"]
    assert main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "identical  a.csv", f"b.txt  missing in {new}", f"c.txt  missing in {old}"]
    assert main([old]) == 2 and main([old, str(tmp_path / "none")]) == 2


def test_reference_runs(tmp_path):
    refs = load("reference_runs.py")
    assert {args[0] for args in refs["RUNS"].values()} == {"verify", "kernel", "simulate", "oracle"}
    # the oracle entry alone: the others each take up to a second
    assert refs["run"]("oracle_rx2", tmp_path) == 0
    assert (tmp_path / "oracle_rx2" / "oracle.csv").stat().st_size > 0
    assert refs["main"]([]) == 2


def test_config_sweep(tmp_path, monkeypatch):
    """The cases the sweep once flagged, and one case of each exit code, come out clean."""
    import numpy as np
    from backstep import verify

    sweep = load("config_sweep.py")
    run_case, problems = sweep["run_case"], sweep["problems"]
    assert len(sweep["keys"]()) == 30
    assert [command[0] for command in sweep["COMMANDS"]] == [
        "verify", "simulate", "kernel", "oracle"]
    monkeypatch.chdir(tmp_path)
    codes = set()
    constant, cosine = {"family": "constant"}, {"family": "cosine"}
    polynomial, damped = {"family": "polynomial"}, {"c2_kind": "damped_osc"}
    for section, key, value, switch in (
            ("problem", "c2_b", "1e308", {}), ("problem", "f_poly", "1e308", {}),
            ("initial_data", "center", "1e308", {}), ("sim", "dt", "abc", {}),
            ("sim", "dt", "0.1", {}),  # dt = 5 h: no warning
            # float errors that reached numpy's warning before every command raised them
            ("problem", "c1_poly", "1e308 1e308", {}), ("problem", "f_poly", "1e308 1e308", {}),
            ("problem", "c2_b", "1e308", damped), ("initial_data", "a", "1e308", constant),
            ("initial_data", "a", "1e308", cosine), ("initial_data", "modes", "1e308", cosine),
            ("initial_data", "coeffs", "1e308", polynomial),
            ("initial_data", "coeffs", "1e308 1e308", polynomial)):
        for command in sweep["COMMANDS"]:
            code, stdout, stderr, escaped = run_case(section, key, value, command, switch)
            assert problems(code, stdout, stderr, escaped) == [], (key, value, switch, command)
            codes.add(code)
    assert codes == {0, 2, 3}
    # --refine past the largest array index once escaped as ValueError on every command
    for command in sweep["COMMANDS"]:
        code, stdout, stderr, escaped = sweep["run_flag"]("--refine", "200000000", command)
        assert code == 2 and problems(code, stdout, stderr, escaped) == [], command
    # argparse's rejection is exit 2, with its one error line and no usage lines
    code, stdout, stderr, escaped = sweep["run_flag"]("--refine", "abc", ("kernel",))
    assert (code, escaped) == (2, None) and stderr.startswith("backstep kernel: error: ")
    assert problems(code, stdout, stderr, escaped) == []
    # a configuration error is every command's: oracle once ran lambda0 = 0.1 < sup c,
    # which the other three reject; it alone may reject a family not its own
    disagreement = sweep["disagreement"]
    outcomes = {" ".join(command): run_case("problem", "lambda0", "0.1", command)
                for command in sweep["COMMANDS"]}
    assert all(outcome[0] == 2 and problems(*outcome) == [] for outcome in outcomes.values())
    assert disagreement({command: outcome[0] for command, outcome in outcomes.items()}) == []
    assert disagreement({"verify": 2, "simulate --open-loop": 2, "kernel": 2, "oracle": 0}) == [
        "verify, simulate --open-loop, kernel exit 2 but oracle exits 0"]
    assert disagreement({"verify": 0, "simulate --open-loop": 0, "kernel": 0, "oracle": 2}) == []

    # exit 1: a zero kernel in the closed loop fails two envelope flags
    def zero_kernel(spec, k, *args, _real=verify.simulate_closed_loop):
        return _real(spec, dataclasses.replace(k, values_xieta=np.zeros_like(k.values_xieta)),
                     *args)

    monkeypatch.setattr(verify, "simulate_closed_loop", zero_kernel)
    code, stdout, stderr, escaped = run_case("sim", "t_end", "2", ("verify",))
    assert code == 1 and problems(code, stdout, stderr, escaped) == []
    # and what the sweep flags
    assert problems(1, "", "", None) == ["exit 1 with no failed flag"]
    assert problems(0, "", "one\ntwo\n", None) == ["2 stderr lines"]
    assert problems(None, "", "", RuntimeWarning("overflow\nin power")) == [
        "RuntimeWarning escaped: overflow in power"]
    # a float error in verify's validate stage is a configuration value numpy's trap decided
    assert problems(3, "", "numerical failure: stage validate: overflow encountered in add\n",
                    None) == ["exit 3 in stage validate"]
    assert problems(3, "", "numerical failure: stage kernel: overflow encountered in reduce\n",
                    None) == []
    assert problems(4, "", "", None) == ["exit 4"]
    assert sweep["main"](["no_such_key"]) == 2


def test_failing_hypothesis_test_fails_alone(tmp_path):
    """Under the project's warning filters a failing ``@given`` test is one failure:
    the tests after it still run, and no INTERNALERROR ends the session."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n\n\n"
        "def test_passes():\n    pass\n")
    pyproject = SCRIPTS.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject),
                          "-p", "no:cacheprovider", "-q", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert re.search(r"^1 failed, 1 passed in ", run.stdout, re.M), run.stdout[-2000:]


def test_public_surface():
    """backstep exports every name the benchmark imports, and none that only tests reach."""
    import backstep
    from backstep import verify

    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "backstep"
                for alias in node.names}
    assert imported and all(hasattr(backstep, name) for name in imported)
    # the names the benchmark's tracer wraps in backstep.verify
    for name in ("picard_solve", "dump_kernel_csv", "make_compatible", "check_compatibility",
                 "initial_target_data", "simulate_closed_loop", "simulate_target",
                 "norm_trace", "alf", "rho", "gronwall_bound"):
        assert callable(getattr(verify, name)), name
    for name in ("sup_c", "bound_constant_M", "series_coefficients", "tail_bound",
                 "lp_norm", "w1p_norm"):
        assert not hasattr(backstep, name), name


def test_no_unused_imports():
    """Every name a backstep module imports is read in that module; the re-exports of
    ``__init__.py`` are exempt."""
    modules = sorted((SCRIPTS.parent / "src" / "backstep").glob("*.py"))
    assert len(modules) > 5
    unused = []
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_no_unused_private_names():
    """Every module-level ``_name`` a backstep module defines is read somewhere in the
    package outside its own definition: no private helper is there for the tests alone."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SCRIPTS.parent / "src" / "backstep").glob("*.py"))}
    loads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    defined = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    assert len(defined) > 50
    unused = []
    for module, name, stmt in defined:
        own = {id(node) for node in ast.walk(stmt)}
        if not any(read == name and id(node) not in own for read, node in loads):
            unused.append(f"{module}: {name}")
    assert unused == []


def attribute_loads() -> tuple[dict, list]:
    """The parsed ``.py`` files of the package, ``scripts/`` and ``bench/`` by path, and
    every attribute read in them, as ``(name, node)``."""
    root = SCRIPTS.parent
    trees = {path: ast.parse(path.read_text()) for folder in ("src/backstep", "scripts", "bench")
             for path in sorted((root / folder).rglob("*.py"))}
    loads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    return trees, loads


def test_every_result_field_is_read():
    """Every field of a backstep ``@dataclass`` or ``NamedTuple`` is read as an attribute
    in the package, ``scripts/`` or ``bench/``, outside its class's ``__post_init__``: a
    field nothing reads is dead API.  ``report.json``'s schema classes are exempt, as
    ``asdict`` writes every field."""
    trees, loads = attribute_loads()
    fields = []
    for cls in (node for path, tree in trees.items() if path.parent.name == "backstep"
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        marks = [ast.unparse(d) for d in cls.decorator_list] + [ast.unparse(b) for b in cls.bases]
        if cls.name in ("DecayReport", "CompatibilityReport") or not any(
                m.startswith(("dataclass", "NamedTuple")) for m in marks):
            continue
        # a check in __post_init__ is not a reader of the field it checks
        own = {id(node) for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
               and stmt.name == "__post_init__" for node in ast.walk(stmt)}
        fields += [(cls.name, stmt.target.id, own) for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert len(fields) > 40
    unread = [f"{cls}.{name}" for cls, name, own in fields
              if not any(attr == name and id(node) not in own for attr, node in loads)]
    assert unread == []


def test_every_exception_attribute_is_read():
    """Every attribute a backstep exception sets on ``self`` in its ``__init__`` is read
    as an attribute in the package, ``scripts/`` or ``bench/``: what a caller needs of a
    failure its message states, so an attribute nothing reads is dead API."""
    trees, loads = attribute_loads()
    read = {attr for attr, _ in loads}
    exceptions = [(cls, importlib.import_module(f"backstep.{path.stem}"))
                  for path, tree in trees.items() if path.parent.name == "backstep"
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    exceptions = [cls for cls, mod in exceptions
                  if issubclass(getattr(mod, cls.name, object), BaseException)]
    assert len(exceptions) == 5
    unread = [f"{cls.name}.{node.attr}" for cls in exceptions for stmt in cls.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
              for node in ast.walk(stmt) if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "self"
              and node.attr not in read]
    assert unread == []


def test_readme_names_resolve():
    """Every backstep name and test the README cites in backticks exists."""
    import backstep

    root = SCRIPTS.parent
    text = re.sub(r"```.*?```", "", (root / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    modules = {m.name: importlib.import_module(f"backstep.{m.name}")
               for m in pkgutil.iter_modules(backstep.__path__)}
    classes = {name: obj for mod in modules.values() for name, obj in vars(mod).items()
               if inspect.isclass(obj) and obj.__module__.startswith("backstep")}

    def resolves(dotted: str) -> bool:
        head, *attrs = dotted.split(".")
        obj = modules.get(head, classes.get(head))
        for attr in attrs:
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            else:  # a dataclass field without a default is no class attribute
                return dataclasses.is_dataclass(obj) and attr == attrs[-1] and attr in {
                    f.name for f in dataclasses.fields(obj)}
        return True

    dotted = [d for span in spans
              for d in re.findall(r"(?<![\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span)
              if d.split(".")[0] in modules or d.split(".")[0] in classes]
    assert len(dotted) >= 10
    assert [d for d in dotted if not resolves(d)] == []

    def cited_test_exists(ref: str) -> bool:
        path, *scope = ref.split("::")
        body = ast.parse((root / path).read_text()).body
        for name in scope:
            found = [node for node in body if getattr(node, "name", None) == name]
            if not found:
                return False
            body = getattr(found[0], "body", [])
        return True

    tests = [ref for span in spans for ref in re.findall(r"tests/\w+\.py(?:::\w+)+", span)]
    assert len(tests) >= 3
    assert [ref for ref in tests if not cited_test_exists(ref)] == []
