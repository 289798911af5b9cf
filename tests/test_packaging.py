"""scipy and mpmath are test dependencies only: the package must import
without them, numpy is loaded only where a wide path needs it, and the
CLI loads no click. The public API is pinned, with the names the
benchmark uses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env


def loaded_in_child(module: str, code: str = "", argv=None, cwd=None):
    """Run ``code``, then the CLI with ``argv`` when given, in a child
    interpreter on the source tree. Returns whether ``module`` was in the
    child's ``sys.modules`` as it exited, and the finished process."""
    if argv is not None:
        code += f"\nimport sys\nsys.argv = ['countlim', *{list(argv)!r}]\nfrom countlim.cli import main\nmain()"
    report = f"import atexit, sys\natexit.register(lambda: sys.stderr.write('\\n' + str({module!r} in sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", report + code], capture_output=True, text=True, env=src_env(), cwd=cwd
    )
    return proc.stderr.rsplit("\n", 1)[-1] == "True", proc


IMPORTS = "import countlim, countlim.cli"


def test_import_loads_no_scipy():
    loaded, proc = loaded_in_child("scipy", IMPORTS)
    assert proc.returncode == 0 and not loaded, proc.stderr


def test_import_loads_no_mpmath():
    # gamma_q's coefficient table is frozen in the source, not derived at import
    loaded, proc = loaded_in_child("mpmath", IMPORTS)
    assert proc.returncode == 0 and not loaded, proc.stderr


PLAIN = {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "bkg", "nominal": 1.5}], "n_obs": 3}
BG_SYST = {
    "signal": {"nominal": 1.0},
    "backgrounds": [{"name": "bkg", "nominal": 1.5, "responses": {"p": {"kind": "log_normal", "kappa": 1.2}}}],
    "nuisances": [{"name": "p", "prior": {"kind": "standard_normal"}}],
    "n_obs": 3,
}


@pytest.fixture
def configs(tmp_path):
    for name, doc in (("plain", PLAIN), ("bg", BG_SYST), ("bad", {**PLAIN, "n_obs": -1})):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize(
    ("code", "argv", "exit_code"),
    [
        ("import countlim", None, 0),
        ("import countlim.cli", None, 0),
        ("from countlim import gamma_q, log_poisson_pmf, poisson_cdf\n"
         "poisson_cdf(3, 2.5), gamma_q(4, 2.5), log_poisson_pmf(3, 2.5)", None, 0),
        ("", ["--help"], 0),
        ("", ["limit", "plain.json"], 0),
        ("", ["limit", "plain.json", "--method", "bayes"], 0),
        ("", ["limit", "plain.json", "--method", "both", "--out", "out.json"], 0),
        ("", ["equivalence", "plain.json"], 0),
        ("", ["limit", "bad.json", "--method", "both"], 1),
    ],
)
def test_one_point_path_loads_no_numpy(configs, code, argv, exit_code):
    # a model without nuisances solves on floats and the scalar kernels
    loaded, proc = loaded_in_child("numpy", code, argv, cwd=configs)
    assert proc.returncode == exit_code, proc.stderr
    assert not loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "bg.json", "--samples", "500"],
        ["limit", "bg.json", "--integrator", "gh"],
        ["scan", "plain.json", "--mu-max", "5", "--points", "11"],
    ],
)
def test_wide_paths_load_numpy(configs, argv):
    # so that the test above cannot pass with a child that never ran
    loaded, proc = loaded_in_child("numpy", "", argv, cwd=configs)
    assert proc.returncode == 0, proc.stderr
    assert loaded
    if argv[0] == "scan":  # the grid and the values, on a model without nuisances
        lines = proc.stdout.splitlines()
        assert lines[0] == "mu,value" and len(lines) == 12
        assert lines[1] == "0,1"


def test_one_point_bytes_do_not_depend_on_numpy(configs):
    argv, outs = ["limit", "plain.json", "--method", "both", "--out", "o.json"], []
    for code in ("", "import numpy"):
        loaded, proc = loaded_in_child("numpy", code, argv, cwd=configs)
        assert proc.returncode == 0 and loaded == bool(code), proc.stderr
        outs.append((configs / "o.json").read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["rel_diff"] == 0


@pytest.mark.parametrize(
    ("code", "argv"),
    [("import countlim.cli", None), ("", ["--help"]), ("", ["limit", "bg.json", "--samples", "500"])],
    ids=["import", "help", "wide limit"],
)
def test_cli_loads_no_click(configs, code, argv):
    # the front end is stdlib argparse; click was ~28 ms of every call's import
    loaded, proc = loaded_in_child("click", code, argv, cwd=configs)
    assert proc.returncode == 0, proc.stderr
    assert not loaded


def test_scipy_only_in_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy"]
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
    # perfbench imports these, so a deletion that breaks the benchmark
    # fails here first
    import countlim
    import countlim.config
    import countlim.marginal

    for name in ("Integrator", "LimitRequest", "draw_samples", "hybrid_cls", "marginal_posterior_tail",
                 "cls_upper_limit", "bayesian_upper_limit_closed_form", "compare_limits"):
        assert callable(getattr(countlim, name))
    assert callable(countlim.config.parse_model)
    # the tracer counts the rows of a drawn set with len()
    assert len(countlim.marginal.draw_samples(countlim.SystematicsModel(), None)) == 1


def test_tracer_layers_are_defined_in_their_home_modules():
    # perfbench's tracer wraps each function of its LAYERS by identity and
    # silently leaves a missing one's metrics out: a layer function renamed
    # or moved to another module must fail here rather than blind the split
    import importlib.util

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, attr, _, _ in tracer.LAYERS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} is gone"
        assert (fn.__module__, fn.__name__) == (module, attr), f"{module}.{attr} is defined elsewhere"
