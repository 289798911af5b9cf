"""Batch command-line front end.

Three commands: ``limit`` solves upper limits (``--method both`` by the
paired solve of ``compare_limits``), ``scan`` tabulates the exclusion or
posterior curves to CSV, ``equivalence`` runs ``compare_limits`` and
classifies the outcome. Results go to ``--out`` (``-`` for stdout) as
JSON or CSV with every float printed to 17 significant digits, so
identical invocations produce byte-identical files. Exit codes: 0
success, 1 usage, configuration or model error, 2 solver error, 3
unexpected divergence from the ``equivalence`` command; each error is one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from .config import _parse_file, load_model
from .equivalence import _DEFAULT_TOL, VERDICT_UNEXPECTED, compare_limits
from .exceptions import ConfigError, ConvergenceError, ModelError, YieldError
from .marginal import (
    _SCAN_MAX_POINTS,
    _SCAN_QUANTITIES,
    Integrator,
    _paired_limits,
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
        try:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as err:  # a missing directory, a directory, no permission
            raise ConfigError(f"cannot write --out {out}: {err.strerror or err}") from err


def _load(config_path: str):
    """The model in a config file and the SHA-256 of the very bytes it was parsed from."""
    data = Path(config_path).read_bytes()
    return _parse_file(data, config_path), hashlib.sha256(data).hexdigest()


def _request(cl: float, rel_tol: float) -> LimitRequest:
    """The request for ``--cl``, checked here as only the CLI has a cl, and a solver tolerance."""
    if not (0.0 < cl < 1.0 and 1.0 - cl < 1.0):  # alpha = 1 - cl rounds to 1.0 for any cl <= 2**-54
        raise ConfigError(f"--cl must be in (2**-54, 1), got {cl}")
    return LimitRequest(alpha=1.0 - cl, rel_tol=rel_tol)


# the --integrator choices, as the library's kinds
_INTEGRATOR_KINDS = {"mc": "monte_carlo", "gh": "gauss_hermite"}


def cmd_limit(config_path, method, cl, integrator, tol, out):
    """Solve the upper limit on the signal strength for a model config."""
    model, config_sha256 = _load(config_path)
    req = _request(cl, tol)
    if method == "both":  # the paired solve of compare_limits, keeping the Bayes Monte Carlo error
        res_cls, res_bayes, rel_diff = _paired_limits(model, req, integrator, bayes_error=True)
        results = {"cls": res_cls, "bayes": res_bayes}
    else:
        solver = hybrid_cls_upper_limit if method == "cls" else bayesian_marginal_upper_limit
        results = {method: solver(model, req, integrator)}
    payload = {
        "config_sha256": config_sha256,
        "cl": cl,
        "alpha": req.alpha,
        "method": method,
        "integrator": integrator.to_dict() if model.has_systematics else None,
        "results": {name: res.to_dict() for name, res in results.items()},
    }
    if method == "both":
        payload["rel_diff"] = rel_diff
    _write_output(out, _json_text(payload) + "\n")


def cmd_scan(config_path, mu_min, mu_max, points, quantity, integrator, out):
    """Tabulate a quantity on a strength grid as CSV: columns mu,value, and
    stderr on a set drawn by Monte Carlo with 2 or more samples."""
    if not (0.0 <= mu_min < mu_max < math.inf):
        raise ConfigError(f"need finite 0 <= mu-min < mu-max, got [{mu_min}, {mu_max}]")
    if not 2 <= points <= _SCAN_MAX_POINTS:
        raise ConfigError(f"--points must be in [2, {_SCAN_MAX_POINTS}], got {points}")
    import numpy as np
    model = load_model(config_path)
    grid = np.linspace(mu_min, mu_max, points)
    sample_set = draw_samples(model.systematics, integrator)
    values, stderrs = scan_quantity(model, quantity, grid, sample_set)
    lines = ["mu,value,stderr" if stderrs is not None else "mu,value"]
    for i, mu in enumerate(grid):
        row = f"{_fmt_float(mu)},{_fmt_float(values[i])}"
        if stderrs is not None:
            row += f",{_fmt_float(stderrs[i])}"
        lines.append(row)
    _write_output(out, "\n".join(lines) + "\n")


def cmd_equivalence(config_path, cl, integrator, tol, solver_tol, out, debug_seed_offset):
    """Compare the two limit methods on one shared sample set.

    Exits 3 when the methods diverge although every signal response is the
    identity (which shared samples should make impossible)."""
    model, config_sha256 = _load(config_path)
    req = _request(cl, solver_tol)
    bayes_samples = None
    if debug_seed_offset:
        if not model.has_systematics or integrator.kind != "monte_carlo":
            raise ConfigError("--debug-seed-offset requires the Monte Carlo integrator and a model with nuisances")
        shifted = Integrator.monte_carlo(integrator.n_samples, integrator.seed + debug_seed_offset)
        bayes_samples = draw_samples(model.systematics, shifted)
    report = compare_limits(model, req, integrator, tol=tol, bayes_samples=bayes_samples)
    payload = {
        "config_sha256": config_sha256,
        "cl": cl,
        "alpha": req.alpha,
        "integrator": integrator.to_dict() if model.has_systematics else None,
        "report": report.to_dict(),
    }
    _write_output(out, _json_text(payload) + "\n")
    if report.verdict == VERDICT_UNEXPECTED:
        sys.exit(_FAIL_DIVERGENCE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error: one line, exit 1
        print(f"error: {message}", file=sys.stderr)
        sys.exit(_FAIL_CONFIG)


def _config_path(path: str) -> str:
    if not (os.path.isfile(path) and os.access(path, os.R_OK)):
        raise argparse.ArgumentTypeError(f"{path!r} is not a readable file")
    return path


_COMMANDS = {"limit": cmd_limit, "scan": cmd_scan, "equivalence": cmd_equivalence}


def _parser() -> argparse.ArgumentParser:
    # whole option names only, and help at a fixed width with every default shown
    style = {"formatter_class": functools.partial(argparse.ArgumentDefaultsHelpFormatter, width=80),
             "allow_abbrev": False}
    parser = _Parser(prog="countlim", description="Upper limits for single-channel Poisson counting experiments.",
                     **style)
    commands = parser.add_subparsers(dest="command", required=True)
    sub = {name: commands.add_parser(name, help=(fn.__doc__ or "").split("\n\n")[0], description=fn.__doc__,
                                     **style) for name, fn in _COMMANDS.items()}
    for command in sub.values():
        command.add_argument("config_path", type=_config_path, help="Model configuration (JSON).")
    sub["limit"].add_argument("--method", choices=["cls", "bayes", "both"], default="cls",
                              help="Hybrid CLs, marginal Bayesian, or both on one shared sample set.")
    sub["scan"].add_argument("--mu-min", type=float, default=0.0, help="Lowest signal strength of the grid.")
    sub["scan"].add_argument("--mu-max", type=float, required=True, default=argparse.SUPPRESS,
                             help="Highest signal strength of the grid (required).")
    sub["scan"].add_argument("--points", type=int, default=101, help="Grid points, both ends included.")
    sub["scan"].add_argument("--quantity", choices=_SCAN_QUANTITIES, default="cls",
                             help="CLs, its CLs+b and CLb terms, or the posterior density of mu.")
    for name in ("limit", "equivalence"):
        sub[name].add_argument("--cl", type=float, default=0.95, help="Confidence (or credibility) level; the solver "
                               "targets alpha = 1 - CL, the CLs exclusion threshold and Bayesian upper tail mass.")
    for command in sub.values():
        command.add_argument("--integrator", dest="integrator_kind", choices=_INTEGRATOR_KINDS, default="mc",
                             help="Marginalisation rule for models with nuisances: Monte Carlo or Gauss-Hermite.")
        command.add_argument("--samples", type=int, default=Integrator.n_samples, help="Monte Carlo sample count.")
        command.add_argument("--seed", type=int, default=Integrator.seed,
                             help="Monte Carlo seed (never read from the environment).")
        command.add_argument("--nodes", type=int, default=Integrator.nodes_per_dim,
                             help="Gauss-Hermite nodes per nuisance dimension.")
    sub["limit"].add_argument("--tol", type=float, default=LimitRequest.rel_tol, help="Root-solver relative tolerance.")
    sub["equivalence"].add_argument("--tol", type=float, default=_DEFAULT_TOL,
                                    help="Relative tolerance for declaring the limits equivalent.")
    sub["equivalence"].add_argument("--solver-tol", type=float, default=LimitRequest.rel_tol,
                                    help="Root-solver relative tolerance.")
    for command in sub.values():
        command.add_argument("--out", default="-", help="Output path, '-' for stdout.")
    # offsets the Bayesian method's Monte Carlo seed, deliberately breaking the shared-sample contract
    sub["equivalence"].add_argument("--debug-seed-offset", type=int, default=0, help=argparse.SUPPRESS)
    return parser


def main(args=None, standalone_mode=True) -> None:
    """Run one command on ``args`` (default ``sys.argv[1:]``), printing to the current ``sys.stdout``;
    a failure raises ``SystemExit``. ``standalone_mode`` is ignored, kept for click's spelling (perfbench)."""
    options = vars(_parser().parse_args(args))
    try:
        # built, and so checked, from every option for every model: one the kind does not take must keep its default
        kind = _INTEGRATOR_KINDS[options.pop("integrator_kind")]
        options["integrator"] = Integrator(kind, n_samples=options.pop("samples"), seed=options.pop("seed"),
                                           nodes_per_dim=options.pop("nodes"))
        _COMMANDS[options.pop("command")](**options)
    except (ConfigError, ModelError, YieldError, ConvergenceError) as err:  # one error line, then its exit code
        print(f"error: {err}", file=sys.stderr)
        sys.exit(_FAIL_CONFIG if isinstance(err, (ConfigError, ModelError)) else _FAIL_SOLVER)


cli = main.main = main  # the console script, called in process as ``cli.main(args=...)``


if __name__ == "__main__":
    main()
