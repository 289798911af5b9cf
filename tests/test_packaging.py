"""scipy is a test dependency only: the package must import without it."""

import subprocess
import sys
from pathlib import Path

import pytest


def test_import_loads_no_scipy():
    code = "import sys, countlim, countlim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_scipy_only_in_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy", "click"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
