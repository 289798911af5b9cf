import importlib.util
import sys
from pathlib import Path

from countlim import special

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_kernel_crossover_prints_its_table(monkeypatch, capsys):
    # the tool sets special._NARROW_LANES while it times both routes: the
    # monkeypatch restores it (and the path the tool adds) if the tool
    # raises, and the tool itself must restore it when it returns
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(special, "_NARROW_LANES", special._NARROW_LANES)
    spec = importlib.util.spec_from_file_location("kernel_crossover", TOOLS / "kernel_crossover.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--counts", "3,25", "--widths", "8,24", "--calls", "2", "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kernel", "count", "8", "24"]
    rows = [line.split() for line in lines[1:5]]
    assert [row[:2] for row in rows] == [["poisson_cdf", "3"], ["poisson_cdf", "25"], ["gamma_q", "3"], ["gamma_q", "25"]]
    assert all(float(ratio) > 0.0 for row in rows for ratio in row[2:])
    assert lines[5].split()[0] == "median" and len(lines[5].split()) == 3
    assert lines[6].startswith("the median ratio nearest 1, where the two cost the same: ")
    assert len(lines) == 7
    assert special._NARROW_LANES == 20
