"""Smoke test of the study scripts: they load against the package and run."""
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
