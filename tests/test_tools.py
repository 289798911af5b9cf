import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from countlim import ConfigError, CountingModel, config, marginal, special

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
    # solves that start from 0, not the Cornish-Fisher guess, end on
    # other iterations and brackets: the hash sees them
    monkeypatch.setattr(marginal, "_start", lambda crit, alpha: 0.0)
    assert tool.result_hash("exact_small", 1, 3) != lines[0].split()[2]


def repository_files(root):
    """Every file under ``root``, bytecode aside, which an import may write."""
    return {Path(d, f) for d, _, names in os.walk(root) for f in names
            if not {".git", "__pycache__"} & set(Path(d).parts)}


def test_result_hash_of_cli_mix_repeats_and_writes_nothing_into_the_repository(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the benchmark's streams import it
    tool = load_tool(monkeypatch, "result_hash")
    before = repository_files(tool.ROOT)
    for _ in range(2):
        tool.main(["--workloads", "cli_mix", "--ops", "4", "--seeds", "1"])  # each of the four commands once
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].split()[:2] == ["cli_mix", "1"] and len(lines[0].split()[2]) == 64
    assert repository_files(tool.ROOT) == before


def test_result_hash_of_kernels_repeats_and_sees_one_temme_coefficient(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the tool imports the benchmark's streams
    tool = load_tool(monkeypatch, "result_hash")
    before = repository_files(tool.ROOT)
    for _ in range(2):
        tool.main(["--workloads", "kernels", "--ops", "40", "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and lines[:4] == lines[4:]
    assert [line.split()[:2] for line in lines[:4]] == [[f"kernels.{k}", "1"] for k in tool.KERNELS]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert len({line.split()[2] for line in lines[:4]}) == 4
    assert repository_files(tool.ROOT) == before
    # the constant coefficient of Temme's folded polynomial, 1e-9 off,
    # changes the lines of the calls that run it, and no other
    fold = special._temme_poly

    def perturbed(a):
        coeffs, norm = fold(a)
        return (*coeffs[:-1], coeffs[-1] * (1.0 + 1e-9)), norm

    monkeypatch.setattr(special, "_temme_poly", perturbed)
    assert [tool.kernel_hash(1, 40, k) != line.split()[2] for k, line in zip(tool.KERNELS, lines)] == [
        False, True, False, True]
    # and so does one handed-back pmf off by 1e-9, on the pmf line alone
    monkeypatch.undo()
    with_pmf = special._poisson_cdf_pmf
    monkeypatch.setattr(special, "_poisson_cdf_pmf", lambda n, x: (with_pmf(n, x)[0], with_pmf(n, x)[1] * (1.0 + 1e-9)))
    assert [tool.kernel_hash(1, 40, k) != line.split()[2] for k, line in zip(tool.KERNELS, lines)] == [
        False, False, False, True]


def test_result_hash_of_configs_repeats_and_sees_each_decision(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the tool imports the benchmark's streams
    tool = load_tool(monkeypatch, "result_hash")
    for _ in range(2):
        tool.main(["--workloads", "configs", "--ops", "2", "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].split()[:2] == ["configs", "1"] and len(lines[0].split()[2]) == 64
    # the corpus holds accepted and refused documents alike, ragged correlations among them
    rng = np.random.default_rng(1)  # as config_hash(1, 2) draws them
    docs = [doc for _ in range(2) for doc in tool.config_mutations(tool.config_draw(rng))]
    accepted = 0
    for doc in docs:
        try:
            config.parse_model(doc)
            accepted += 1
        except ConfigError:
            pass
    assert 0 < accepted < len(docs)
    assert any(doc.get("correlation") == [[1.0], [0.0, 1.0]] for doc in docs)
    # a document refused where it was accepted, or emitted otherwise, changes the hash
    parse, emit = config.parse_model, config.emit_config

    def refuse_zero_count(doc):
        if isinstance(doc, dict) and doc.get("n_obs") == 0:
            raise ConfigError("n_obs is 0")
        return parse(doc)

    monkeypatch.setattr(config, "parse_model", refuse_zero_count)
    assert tool.config_hash(1, 2) != lines[0].split()[2]
    monkeypatch.setattr(config, "parse_model", parse)
    monkeypatch.setattr(config, "emit_config", lambda model: {**emit(model), "n_obs": model.n_obs + 1})
    assert tool.config_hash(1, 2) != lines[0].split()[2]
    monkeypatch.setattr(config, "emit_config", emit)
    # so do an accepted model's repr and its equality with its emitted config's model
    text = CountingModel.__repr__
    monkeypatch.setattr(CountingModel, "__repr__", lambda model: text(model).replace("=", ": "))
    assert tool.config_hash(1, 2) != lines[0].split()[2]
    monkeypatch.setattr(CountingModel, "__repr__", text)
    assert tool.config_hash(1, 2) == lines[0].split()[2]
    monkeypatch.setattr(CountingModel, "__eq__", lambda model, other: False)
    assert tool.config_hash(1, 2) != lines[0].split()[2]
    monkeypatch.undo()
    # and so does a copy that does not rebuild the model it was taken of
    reduce = CountingModel.__reduce__
    monkeypatch.setattr(CountingModel, "__reduce__", lambda model: (reduce(model)[0], (0.5, *reduce(model)[1][1:])))
    assert tool.config_hash(1, 2) != lines[0].split()[2]


def test_result_hash_of_pointwise_repeats_and_sees_each_strength(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the tool imports the benchmark's streams
    tool = load_tool(monkeypatch, "result_hash")
    for _ in range(2):
        tool.main(["--workloads", "pointwise", "--ops", "3", "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].split()[:2] == ["pointwise", "1"] and len(lines[0].split()[2]) == 64
    # the entries read each strength through marginal._strength: one read 1e-9 off changes the hash
    strength = marginal._strength
    monkeypatch.setattr(marginal, "_strength", lambda *args: strength(*args) * (1.0 + 1e-9))
    assert tool.pointwise_hash(1, 3) != lines[0].split()[2]


def test_result_hash_against_a_revision(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the benchmark's streams import it
    tool = load_tool(monkeypatch, "result_hash")
    if shutil.which("git") is None or subprocess.run(
        ["git", "-C", str(tool.ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
    ).returncode:
        pytest.skip("needs git and a checkout with a commit")
    before = repository_files(tool.ROOT)
    codes = [tool.main(["--against", "HEAD", "--ops", "3", "--seeds", "1"]) for _ in range(2)]
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [[w, "1"] for w in ("exact_small", "toys_small", "large_count")] * 2
    # a differing line also says how far the limits moved (see the test below)
    assert all(len(line) == (5 if line[4] == "same" else 8) and len(line[2]) == len(line[3]) == 64 for line in lines)
    assert [line[2] for line in lines[:3]] == [line[2] for line in lines[3:]]  # HEAD's side repeats
    for code, run in zip(codes, (lines[:3], lines[3:])):
        verdicts = [line[4] for line in run]
        assert verdicts == ["same" if line[2] == line[3] else "differs" for line in run]
        assert code == int("differs" in verdicts)
    assert repository_files(tool.ROOT) == before


def test_result_hash_says_how_far_a_differing_workload_moved(monkeypatch, capsys):
    pytest.importorskip("mpmath")  # the benchmark's streams import it
    tool = load_tool(monkeypatch, "result_hash")
    assert tool.moved([(1.0, 3), (2.0, 4)], [(1.0, 3), (2.0 + 4e-9, 2)]) == (
        "max|dmu|/mu=2.0e-09 iterations=7->5 more/fewer=0/1")
    assert tool.moved([(1.0, 3), (2.0, 4), (3.0, 2), (4.0, 3)], [(1.0, 4), (2.0, 5), (3.0, 2), (4.0, 2)]) == (
        "max|dmu|/mu=0.0e+00 iterations=12->13 more/fewer=2/1")
    # solves are paired in order, as far as both sides go
    assert tool.moved([(1.0, 3)], [(1.0, 3), (2.0, 2)]) == "limits=1->2 iterations=3->5 more/fewer=0/0"
    if shutil.which("git") is None or subprocess.run(
        ["git", "-C", str(tool.ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
    ).returncode:
        pytest.skip("needs git and a checkout with a commit")
    # this tree's solves start from 0, HEAD's from their guesses: each limit
    # moves within the solver's tolerance, and this tree's solves take more
    # evaluations; a workload with no limits adds nothing to its line
    monkeypatch.setattr(marginal, "_start", lambda crit, alpha: 0.0)
    gamma_q = special.gamma_q
    monkeypatch.setattr(special, "gamma_q", lambda a, x: gamma_q(a, x) * (1.0 + 1e-9))
    code = tool.main(["--against", "HEAD", "--ops", "3", "--seeds", "1", "--workloads", "exact_small,large_count,kernels"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert code == 1 and [line[:2] + line[4:5] for line in lines[:4]] == [
        ["exact_small", "1", "differs"], ["large_count", "1", "differs"], ["kernels.poisson_cdf", "1", "same"],
        ["kernels.gamma_q", "1", "differs"]]
    assert [line[:2] for line in lines[4:]] == [["kernels.log_poisson_pmf", "1"], ["kernels.pmf", "1"]]
    assert lines[4][4] == "same"
    for line in lines[:2]:
        shift, iterations, paired = line[5:]
        assert shift.startswith("max|dmu|/mu=") and 0.0 < float(shift.split("=")[1]) <= 2e-9
        theirs, ours = map(int, iterations.removeprefix("iterations=").split("->"))
        assert 0 < theirs < ours
        more, fewer = map(int, paired.removeprefix("more/fewer=").split("/"))
        assert more > fewer >= 0
    assert all(len(line) == 5 for line in lines[2:])
