"""scipy and mpmath are test dependencies only: the package must import
without them. The public API is pinned, with the names the benchmark uses."""

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


PUBLIC_API = [
    "BackgroundProcess",
    "ConfigError",
    "ConvergenceError",
    "CountLimError",
    "CountingModel",
    "EquivalenceReport",
    "Integrator",
    "LimitRequest",
    "LimitResult",
    "ModelError",
    "Nuisance",
    "Prior",
    "Response",
    "SampleSet",
    "SystematicsModel",
    "YieldError",
    "bayesian_marginal_upper_limit",
    "bayesian_upper_limit_closed_form",
    "cls_upper_limit",
    "compare_limits",
    "draw_samples",
    "gamma_q",
    "hybrid_cls",
    "hybrid_cls_upper_limit",
    "log_poisson_pmf",
    "marginal_likelihood",
    "marginal_posterior_density",
    "marginal_posterior_tail",
    "poisson_cdf",
    "yields_on_samples",
]


def test_public_api_is_pinned():
    import countlim

    assert sorted(countlim.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(countlim, name) is not None


def test_names_the_benchmark_uses_resolve():
    # perfbench imports these and wraps its LAYERS targets by name, so a
    # deletion that breaks the benchmark fails here first
    import importlib.util

    import countlim
    import countlim.config
    import countlim.marginal

    for name in ("Integrator", "LimitRequest", "draw_samples", "hybrid_cls", "marginal_posterior_tail",
                 "cls_upper_limit", "bayesian_upper_limit_closed_form", "compare_limits"):
        assert callable(getattr(countlim, name))
    assert callable(countlim.config.parse_model)
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, attr, _, _ in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    # the tracer counts the rows of a drawn set with len()
    assert len(countlim.marginal.draw_samples(countlim.SystematicsModel(), None)) == 1
