"""scipy and mpmath are test dependencies only: the package must import without them."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env


def _loaded_by_import(module: str) -> str:
    code = f"import sys, countlim, countlim.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env())
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_by_import("scipy") == "False"


def test_import_loads_no_mpmath():
    # gamma_q's coefficient table is frozen in the source, not derived at import
    assert _loaded_by_import("mpmath") == "False"


def test_scipy_only_in_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy", "click"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
