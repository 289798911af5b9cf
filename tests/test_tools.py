import importlib.util
import os
import sys
from pathlib import Path

import pytest

from countlim import marginal, special

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(monkeypatch, name):
    """The tool's module, loaded from its file; the path entries it adds
    are taken back after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_kernel_crossover_prints_its_table(monkeypatch, capsys):
    # the tool sets special._NARROW_LANES while it times both routes: the
    # monkeypatch restores it if the tool is broken, and the tool itself
    # must restore it when it returns
    monkeypatch.setattr(special, "_NARROW_LANES", special._NARROW_LANES)
    tool = load_tool(monkeypatch, "kernel_crossover")
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


def test_kernel_crossover_restores_the_width_when_a_kernel_raises(monkeypatch):
    # no monkeypatch of special._NARROW_LANES here: the tool restores it
    tool = load_tool(monkeypatch, "kernel_crossover")
    calls = []

    def failing(n, x):
        calls.append(special._NARROW_LANES)
        if len(calls) == 3:
            raise RuntimeError("kernel failed")
        return special.poisson_cdf(n, x)

    monkeypatch.setitem(tool.KERNELS, "poisson_cdf", failing)
    with pytest.raises(RuntimeError, match="kernel failed"):
        tool.main(["--counts", "3", "--widths", "8", "--calls", "1", "--rounds", "1"])
    assert calls[-1] != 20  # it raised while the width was set
    assert special._NARROW_LANES == 20


def test_result_hash_prints_one_repeatable_hash_per_workload_and_seed(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the benchmark's streams import it
    tool = load_tool(monkeypatch, "result_hash")
    solve = marginal._solve
    for _ in range(2):
        tool.main(["--ops", "3", "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [[w, "1"] for w in ("exact_small", "toys_small", "large_count")] * 2
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert lines[:3] == lines[3:]
    assert marginal._solve is solve  # the spy is taken off after each run
    # solves that start from 0, not the Wilson-Hilferty guess, end on
    # other iterations and brackets: the hash sees them
    monkeypatch.setattr(marginal, "_wilson_hilferty_start", lambda crit, alpha: 0.0)
    assert tool.result_hash("exact_small", 1, 3) != lines[0].split()[2]


def test_result_hash_of_cli_mix_repeats_and_writes_nothing_into_the_repository(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the benchmark's streams import it
    tool = load_tool(monkeypatch, "result_hash")

    def files():  # bytecode aside, which an import may write
        return {Path(d, f) for d, _, names in os.walk(tool.ROOT) for f in names
                if not {".git", "__pycache__"} & set(Path(d).parts)}

    before = files()
    for _ in range(2):
        tool.main(["--workloads", "cli_mix", "--ops", "4", "--seeds", "1"])  # each of the four commands once
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].split()[:2] == ["cli_mix", "1"] and len(lines[0].split()[2]) == 64
    assert files() == before
