"""Batch command-line front end.

Three commands: ``limit`` solves upper limits (``--method both`` by the
paired solve of ``compare_limits``), ``scan`` tabulates the exclusion or
posterior curves to CSV, ``equivalence`` runs ``compare_limits`` and
classifies the outcome. Results go to ``--out`` (``-`` for stdout) as
JSON or CSV with every float printed to 17 significant digits, so
identical invocations produce byte-identical files. Exit codes: 0
success, 1 configuration or model error, 2 solver error, 3 unexpected
divergence from the ``equivalence`` command.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import click

from .config import load_model
from .equivalence import VERDICT_UNEXPECTED, _paired_limits, compare_limits
from .exceptions import ConfigError, ConvergenceError, ModelError, YieldError
from .marginal import (
    _SCAN_MAX_POINTS,
    Integrator,
    _takes_mc_error,
    bayesian_marginal_upper_limit,
    draw_samples,
    hybrid_cls_upper_limit,
    scan_quantity,
)
from .solver import LimitRequest

_FAIL_CONFIG = 1
_FAIL_SOLVER = 2
_FAIL_DIVERGENCE = 3


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (round-trippable doubles)."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_json_text(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(value, indent) for value in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _write_output(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _config_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _request(cl: float, rel_tol: float) -> LimitRequest:
    """The request for ``--cl`` and a solver tolerance, checked in that order."""
    if not 0.0 < cl < 1.0:
        raise ConfigError(f"--cl must be in (0, 1), got {cl}")
    try:
        return LimitRequest(alpha=1.0 - cl, rel_tol=rel_tol)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _build_integrator(kind: str, samples: int, seed: int, nodes: int) -> Integrator:
    if kind == "mc":
        return Integrator.monte_carlo(samples, seed)
    return Integrator.gauss_hermite(nodes)


def _exit_codes(fn):
    """A command that prints a library error to stderr and exits with its
    code: 1 for a configuration or model error, 2 for a solver error."""

    @functools.wraps(fn)
    def command(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, ModelError, YieldError, ConvergenceError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(_FAIL_CONFIG if isinstance(err, (ConfigError, ModelError)) else _FAIL_SOLVER)

    return command


_integrator_options = [
    click.option(
        "--integrator",
        "integrator_kind",
        type=click.Choice(["mc", "gh"]),
        default="mc",
        show_default=True,
        help="Marginalisation rule for models with nuisances: Monte Carlo or Gauss-Hermite.",
    ),
    click.option("--samples", type=int, default=10000, show_default=True, help="Monte Carlo sample count."),
    click.option("--seed", type=int, default=0, show_default=True, help="Monte Carlo seed (never read from the environment)."),
    click.option("--nodes", type=int, default=16, show_default=True, help="Gauss-Hermite nodes per nuisance dimension."),
]


def _with_integrator_options(fn):
    for option in reversed(_integrator_options):
        fn = option(fn)
    return fn


@click.group()
def cli():
    """Upper limits for single-channel Poisson counting experiments."""


@cli.command("limit")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["cls", "bayes", "both"]), default="cls", show_default=True)
@click.option(
    "--cl",
    type=float,
    default=0.95,
    show_default=True,
    help="Confidence (or credibility) level; the solver targets alpha = 1 - CL, "
    "the CLs exclusion threshold and Bayesian upper tail mass.",
)
@_with_integrator_options
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Root-solver relative tolerance.")
@click.option("--out", type=str, default="-", show_default=True, help="Output path, '-' for stdout.")
@_exit_codes
def cmd_limit(config_path, method, cl, integrator_kind, samples, seed, nodes, tol, out):
    """Solve the upper limit on the signal strength for a model config."""
    model = load_model(config_path)
    req = _request(cl, tol)
    # a model without nuisances solves on its nominal floats: no integrator, sample set or numpy
    integrator = _build_integrator(integrator_kind, samples, seed, nodes) if model.has_systematics else None
    if method == "both":  # the paired solve of compare_limits, keeping the Bayes Monte Carlo error
        res_cls, res_bayes, rel_diff = _paired_limits(model, req, integrator, bayes_error=True)
        results = {"cls": res_cls, "bayes": res_bayes}
    else:
        solver = hybrid_cls_upper_limit if method == "cls" else bayesian_marginal_upper_limit
        results = {method: solver(model, req, integrator)}
    payload = {
        "config_sha256": _config_sha256(config_path),
        "cl": cl,
        "alpha": req.alpha,
        "method": method,
        "integrator": integrator.to_dict() if integrator is not None else None,
        "results": {name: res.to_dict() for name, res in results.items()},
    }
    if method == "both":
        payload["rel_diff"] = rel_diff
    _write_output(out, _json_text(payload) + "\n")


@cli.command("scan")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mu-min", type=float, default=0.0, show_default=True)
@click.option("--mu-max", type=float, required=True)
@click.option("--points", type=int, default=101, show_default=True)
@click.option(
    "--quantity",
    type=click.Choice(["cls", "clsb", "clb", "posterior"]),
    default="cls",
    show_default=True,
)
@_with_integrator_options
@click.option("--out", type=str, default="-", show_default=True, help="Output path, '-' for stdout.")
@_exit_codes
def cmd_scan(config_path, mu_min, mu_max, points, quantity, integrator_kind, samples, seed, nodes, out):
    """Tabulate a quantity on a strength grid as CSV (columns mu,value
    plus stderr for Monte Carlo quantities)."""
    if not (0.0 <= mu_min < mu_max < math.inf):
        raise ConfigError(f"need finite 0 <= mu-min < mu-max, got [{mu_min}, {mu_max}]")
    if not 2 <= points <= _SCAN_MAX_POINTS:
        raise ConfigError(f"--points must be in [2, {_SCAN_MAX_POINTS}], got {points}")
    import numpy as np
    model = load_model(config_path)
    grid = np.linspace(mu_min, mu_max, points)
    integrator = _build_integrator(integrator_kind, samples, seed, nodes) if model.has_systematics else None
    sample_set = draw_samples(model.systematics, integrator)
    values, stderrs = scan_quantity(model, quantity, grid, sample_set, _takes_mc_error(integrator, sample_set))
    lines = ["mu,value,stderr" if stderrs is not None else "mu,value"]
    for i, mu in enumerate(grid):
        row = f"{_fmt_float(mu)},{_fmt_float(values[i])}"
        if stderrs is not None:
            row += f",{_fmt_float(stderrs[i])}"
        lines.append(row)
    _write_output(out, "\n".join(lines) + "\n")


@cli.command("equivalence")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cl", type=float, default=0.95, show_default=True)
@_with_integrator_options
@click.option("--tol", type=float, default=1e-6, show_default=True, help="Relative tolerance for declaring the limits equivalent.")
@click.option("--solver-tol", type=float, default=1e-9, show_default=True, help="Root-solver relative tolerance.")
@click.option("--out", type=str, default="-", show_default=True, help="Output path, '-' for stdout.")
@click.option("--debug-seed-offset", type=int, default=0, hidden=True, help="Offset the Bayesian method's Monte Carlo seed, deliberately breaking the shared-sample contract.")
@_exit_codes
def cmd_equivalence(config_path, cl, integrator_kind, samples, seed, nodes, tol, solver_tol, out, debug_seed_offset):
    """Compare the two limit methods on one shared sample set.

    Exits 3 when the methods diverge although every signal response is the
    identity (which shared samples should make impossible)."""
    model = load_model(config_path)
    req = _request(cl, solver_tol)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"--tol must be a positive finite number, got {tol}")
    integrator = _build_integrator(integrator_kind, samples, seed, nodes)
    bayes_samples = None
    if debug_seed_offset:
        if integrator.kind != "monte_carlo":
            raise ConfigError("--debug-seed-offset requires the Monte Carlo integrator")
        shifted = Integrator.monte_carlo(integrator.n_samples, integrator.seed + debug_seed_offset)
        bayes_samples = draw_samples(model.systematics, shifted)
    report = compare_limits(model, req, integrator, tol=tol, bayes_samples=bayes_samples)
    payload = {
        "config_sha256": _config_sha256(config_path),
        "cl": cl,
        "alpha": req.alpha,
        "integrator": integrator.to_dict(),
        "report": report.to_dict(),
    }
    _write_output(out, _json_text(payload) + "\n")
    if report.verdict == VERDICT_UNEXPECTED:
        sys.exit(_FAIL_DIVERGENCE)


def main():
    cli()


if __name__ == "__main__":
    main()
