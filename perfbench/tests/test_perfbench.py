"""Tests of the benchmark itself: metric names and units, repeatable traced
counts, seed dependence of the inputs, and refusal without sources.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRACE_OPS = {"cli_mix": 4, "exact_small": 200, "toys_small": 12, "large_count": 2}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_streams():
    assert WORKLOADS == list(workloads.STREAMS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_their_units(workload):
    metrics, tally, _ = run.measure(workload, seed=3, seconds=0.2, setup_repeats=1, min_ops=4)
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert tally.attempted >= 4 and tally.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    first, tally, extras = run.measure_traced(workload, 5, n_ops=TRACE_OPS[workload], import_repeats=1)
    second, _, _ = run.measure_traced(workload, 5, n_ops=TRACE_OPS[workload], import_repeats=1)
    units = _units("per_layer")
    assert {name: m["unit"] for name, m in first.items()} == units
    assert tally.failed == 0 and extras["absent_layers"] == []
    counts = [name for name, unit in units.items() if unit == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["solver.evals"]["value"] > 0
    assert all(first[f"import.{pkg}_s"]["value"] > 0 for pkg in run.IMPORT_PACKAGES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_the_toy_counts(workload, tmp_path):
    ctx = workloads.Context(workloads.Oracle(), tmp_path, run_cli=None)

    def counts(seed):
        stream = workloads.STREAMS[workload](seed, ctx)
        return [next(stream).n_obs for _ in range(40)]

    assert counts(1) == counts(1)
    assert counts(1) != counts(2)


def test_missing_layer_is_left_out():
    tracer = Tracer()
    tracer.absent.add("exact.cls_upper_limit")
    metrics = tracer.layer_metrics()
    assert "exact.cls_upper_limit.s" not in metrics
    assert "exact.bayesian_upper_limit_closed_form.s" in metrics


def test_import_split_sums_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     numpy.core",
        "import time:       100 |        150 |   numpy",
        "import time:        20 |         20 |     scipy._lib",
        "import time:        30 |         50 |   scipy.integrate",
        "import time:         7 |        207 | countlim.exact",
        "import time:         5 |        212 | countlim",
    ])
    assert run.import_split_us(stderr) == {"scipy": 50, "numpy": 150, "click": 0, "countlim": 12}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
