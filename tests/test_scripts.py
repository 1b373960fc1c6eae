"""Smoke tests of the scripts: they load against the package and run."""
import hashlib
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str) -> dict:
    return runpy.run_path(str(SCRIPTS / name), run_name="smoke")


def test_roundtrip_study():
    assert load("roundtrip_study.py")["roundtrip_error"](101, 201, 4) < 1e-6


def test_kernel_convergence_study_loads():
    study = load("kernel_convergence_study.py")
    assert callable(study["series_table"]) and callable(study["source_table"])


def test_artifact_digest(tmp_path, capsys):
    data = b"t,value\r\n0,1\r\n"
    (tmp_path / "run" / "sub").mkdir(parents=True)
    (tmp_path / "run" / "b.csv").write_bytes(data)
    (tmp_path / "run" / "sub" / "a.txt").write_bytes(b"")
    main = load("artifact_digest.py")["main"]
    assert main([str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{hashlib.sha256(data).hexdigest()}  b.csv",
        f"{hashlib.sha256(b'').hexdigest()}  sub/a.txt",
    ]
    assert main([str(tmp_path / "run" / "b.csv")]) == 2


def test_reference_runs(tmp_path):
    refs = load("reference_runs.py")
    assert {args[0] for args in refs["RUNS"].values()} == {"verify", "kernel", "simulate", "oracle"}
    # the oracle entry alone: the others each take up to a second
    assert refs["run"]("oracle_rx2", tmp_path) == 0
    assert (tmp_path / "oracle_rx2" / "oracle.csv").stat().st_size > 0
    assert refs["main"]([]) == 2
