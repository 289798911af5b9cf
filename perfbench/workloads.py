"""Seeded operation streams for the countlim benchmark, with their checks.

A workload is an endless stream of operations. Each operation is one
request a caller makes to countlim: one exact limit, one
``compare_limits`` call, or one CLI invocation. The seed fixes every
observed count and every Monte Carlo seed; countlim sees only the
generated inputs. Each operation carries a check that runs outside the
timed region and raises :class:`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import countlim
import countlim.cli
from countlim import (
    Integrator,
    LimitRequest,
    draw_samples,
    hybrid_cls,
    marginal_posterior_tail,
)
from countlim.config import parse_model

# Small-count grid of the expected-limit band traffic (toys n_obs ~ Poisson(b)).
SMALL_B = (0.5, 1.5, 5.0, 20.0)
SMALL_S = (0.5, 1.0, 2.0)
ALPHAS = (0.05, 0.1, 0.32)

# Tolerances the checks hold countlim to: the exact-pair agreement and the
# signal-certain equivalence of the acceptance suite, and the pins' tolerance.
PAIR_REL_TOL = 1e-7
EQUIV_REL_TOL = 1e-8
PIN_REL_TOL = 5e-9

# Criterion-4 pinned model (signal log-normal kappa 1.2, b 1.5, n_obs 3,
# alpha 0.05, 32 Gauss-Hermite nodes, solver rel_tol 1e-10); the values
# are the ones pinned in tests/test_acceptance.py.
PIN4_MU_CLS = 6.662710140130535
PIN4_MU_BAYES = 6.887908477502728

VERDICT_EQUIVALENT = "equivalent_within_tol"
VERDICT_EXPECTED = "divergent_as_expected"

# large_count keeps a = n_obs + 1 inside gamma_q's documented a <= 200
# domain except for draws above 199 (probability ~1e-4 at b = 150).
LARGE_B = 150.0
LARGE_S = 10.0
LARGE_KAPPA = 1.05
LARGE_MC_SAMPLES = 2000
LARGE_STRATA = 10


class CheckFailed(Exception):
    """An operation returned a result that fails the benchmark's check."""


@dataclass
class Op:
    """One request: ``call`` is timed, ``check`` runs on its result after."""

    kind: str
    n_obs: int
    limits: int
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """What a stream needs besides its seed: the oracle, a working
    directory for config files and how to run one CLI call."""

    oracle: "Oracle"
    workdir: Path
    run_cli: Callable


class Oracle:
    """Exact upper limit from mpmath, cached per (s, b, n, alpha).

    Solves Q(n+1, mu*s + b) / Q(n+1, b) = alpha at 30 digits; CLs and the
    uniform-prior Bayesian limit share this root when there are no
    systematics.
    """

    def __init__(self):
        self._cache = {}

    def limit(self, s: float, b: float, n: int, alpha: float) -> float:
        key = (s, b, n, alpha)
        if key not in self._cache:
            self._cache[key] = self._solve(s, b, n, alpha)
        return self._cache[key]

    @staticmethod
    def _solve(s, b, n, alpha):
        with mpmath.workdps(30):
            a = n + 1
            q_b = mpmath.gammainc(a, b, regularized=True)

            def f(mu):
                return mpmath.gammainc(a, mu * s + b, regularized=True) / q_b - alpha

            lo, hi = 0, 1
            while f(hi) > 0:
                lo, hi = hi, 2 * hi
            return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


def _require_close(got: float, want: float, rel: float, what: str) -> None:
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want)):
        raise CheckFailed(f"{what}: {got!r} vs {want!r} (rel tol {rel})")


def model_doc(s: float, b: float, n_obs: int, bg_kappas=(), sig_kappa=None) -> dict:
    """Config document: ``b`` split over one background per log-normal
    background nuisance (or one fixed background), optional signal
    log-normal nuisance, standard-normal priors throughout."""
    signal = {"nominal": s}
    nuisances = []
    if bg_kappas:
        backgrounds = []
        for j, kappa in enumerate(bg_kappas):
            backgrounds.append({
                "name": f"b{j}",
                "nominal": b / len(bg_kappas),
                "responses": {f"p{j}": {"kind": "log_normal", "kappa": kappa}},
            })
            nuisances.append({"name": f"p{j}", "prior": {"kind": "standard_normal"}})
    else:
        backgrounds = [{"name": "bkg", "nominal": b}]
    if sig_kappa is not None:
        signal["responses"] = {"sscale": {"kind": "log_normal", "kappa": sig_kappa}}
        nuisances.append({"name": "sscale", "prior": {"kind": "standard_normal"}})
    return {"signal": signal, "backgrounds": backgrounds, "nuisances": nuisances, "n_obs": n_obs}


def exact_ops(oracle: Oracle, s: float, b: float, n: int, alpha: float):
    """The exact pair on one no-systematics toy: two operations."""
    model = parse_model(model_doc(s, b, n))
    req = LimitRequest(alpha=alpha)
    seen = {}

    def check_cls(res):
        _require_close(res.mu_up, oracle.limit(s, b, n, alpha), PIN_REL_TOL, "cls vs oracle")
        seen["cls"] = res.mu_up

    def check_bayes(res):
        _require_close(res.mu_up, oracle.limit(s, b, n, alpha), PIN_REL_TOL, "bayes vs oracle")
        if "cls" in seen:
            _require_close(res.mu_up, seen["cls"], PAIR_REL_TOL, "bayes vs cls")

    yield Op("exact_cls", n, 1, lambda: countlim.cls_upper_limit(model, req), check_cls)
    yield Op("exact_bayes", n, 1, lambda: countlim.bayesian_upper_limit_closed_form(model, req), check_bayes)


def compare_op(doc: dict, req: LimitRequest, integrator: Integrator, pins=None) -> Op:
    """One ``compare_limits`` call; checks the verdict, the certain-signal
    agreement and both criteria at the returned limits."""
    model = parse_model(doc)
    certain = model.signal_is_certain

    def check(rep):
        expected = VERDICT_EQUIVALENT if certain else VERDICT_EXPECTED
        if rep.verdict != expected:
            raise CheckFailed(f"verdict {rep.verdict!r}, expected {expected!r}")
        if certain and not rep.rel_diff <= EQUIV_REL_TOL:
            raise CheckFailed(f"rel_diff {rep.rel_diff!r} above {EQUIV_REL_TOL}")
        samples = draw_samples(model.systematics, integrator)
        tol = 10.0 * req.rel_tol * req.alpha
        for name, value in (
            ("hybrid_cls", hybrid_cls(model, rep.mu_up_cls, samples)),
            ("marginal_posterior_tail", marginal_posterior_tail(model, rep.mu_up_bayes, samples)),
        ):
            if not abs(value - req.alpha) <= tol:
                raise CheckFailed(f"{name} at the limit is {value!r}, alpha {req.alpha}")
        if pins is not None:
            _require_close(rep.mu_up_cls, pins[0], PIN_REL_TOL, "pinned hybrid limit")
            _require_close(rep.mu_up_bayes, pins[1], PIN_REL_TOL, "pinned marginal limit")

    return Op("compare", doc["n_obs"], 2, lambda: countlim.compare_limits(model, req, integrator), check)


def exact_small(seed: int, ctx):
    """Exact limits on no-systematics toys: thousands of tiny solves."""
    rng = np.random.default_rng(seed)
    configs = list(itertools.product(SMALL_B, SMALL_S, ALPHAS))
    while True:
        for i in rng.permutation(len(configs)):
            b, s, alpha = configs[i]
            yield from exact_ops(ctx.oracle, s, b, int(rng.poisson(b)), alpha)


# (background log-normal kappas, signal kappa, Gauss-Hermite nodes): grids
# of 16, 256 and 4096 rows, and the 32-node signal-systematic rule.
SMALL_FAMILIES = (
    ((1.2,), None, 16),
    ((1.2, 1.3), None, 16),
    ((1.1, 1.2, 1.3), None, 16),
    ((), 1.2, 32),
)


def toys_small(seed: int, ctx):
    """compare_limits on small-count toys with Gauss-Hermite nuisances,
    led by one operation on the criterion-4 pinned model. Each cycle
    covers every (family, b, s) cell once in a seeded order, with a
    seeded alpha, so the mix of costs is the same for every seed."""
    rng = np.random.default_rng(seed)
    yield compare_op(
        model_doc(1.0, 1.5, 3, sig_kappa=1.2),
        LimitRequest(alpha=0.05, rel_tol=1e-10),
        Integrator.gauss_hermite(32),
        pins=(PIN4_MU_CLS, PIN4_MU_BAYES),
    )
    cells = list(itertools.product(SMALL_FAMILIES, SMALL_B, SMALL_S))
    while True:
        for i in rng.permutation(len(cells)):
            (bg_kappas, sig_kappa, nodes), b, s = cells[i]
            alpha = ALPHAS[rng.integers(len(ALPHAS))]
            doc = model_doc(s, b, int(rng.poisson(b)), bg_kappas, sig_kappa)
            yield compare_op(doc, LimitRequest(alpha=alpha), Integrator.gauss_hermite(nodes))


def poisson_quantile(mean: float, p: float) -> int:
    """Smallest k with P(N <= k) >= p for N ~ Poisson(mean)."""
    k, term = 0, math.exp(-mean)
    total = term
    while total < p:
        k += 1
        term *= mean / k
        total += term
    return k


def large_count(seed: int, ctx):
    """compare_limits at b = 150 with Monte Carlo marginalisation: every
    criterion evaluation is a 2000-lane kernel over ~150 terms. Each cycle
    draws n_obs once from every decile of Poisson(150) (stratified), in a
    seeded order, each toy with its own Monte Carlo seed."""
    rng = np.random.default_rng(seed)
    while True:
        for decile in rng.permutation(LARGE_STRATA):
            n = poisson_quantile(LARGE_B, (decile + rng.random()) / LARGE_STRATA)
            mc_seed = int(rng.integers(2**63))
            yield compare_op(
                model_doc(LARGE_S, LARGE_B, n, bg_kappas=(LARGE_KAPPA,)),
                LimitRequest(alpha=0.05),
                Integrator.monte_carlo(LARGE_MC_SAMPLES, mc_seed),
            )


def cli_subprocess(src: Path):
    """Runner for one ``python -m countlim.cli`` child process."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        return proc.returncode, proc.stdout

    return run


def cli_in_process(args):
    """The same CLI call made in this process, for the traced run."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            countlim.cli.cli.main(args=list(args), standalone_mode=False)
        except SystemExit as err:
            code = err.code
    return code, out.getvalue().encode("utf-8")


def cli_mix(seed: int, ctx):
    """Four CLI commands cycled on seeded inputs; a call spends most of
    its time importing, so this exercises import, config and output.
    Every repeat of a command must print the same bytes as its first call."""
    rng = np.random.default_rng(seed)
    n_bg, n_plain, n_sig = (int(rng.poisson(1.5)) for _ in range(3))
    mc_seed, scan_seed = (int(rng.integers(2**63)) for _ in range(2))
    paths = {}
    for name, doc in (
        ("bg", model_doc(1.0, 1.5, n_bg, bg_kappas=(1.2,))),
        ("plain", model_doc(1.0, 1.5, n_plain)),
        ("sig", model_doc(1.0, 1.5, n_sig, sig_kappa=1.2)),
    ):
        paths[name] = ctx.workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    alpha = 1.0 - 0.95  # the CLI's default --cl

    def check_limit_bg(text):
        payload = json.loads(text)
        if not payload["rel_diff"] <= EQUIV_REL_TOL:
            raise CheckFailed(f"rel_diff {payload['rel_diff']!r} above {EQUIV_REL_TOL}")
        if any(payload["results"][m]["mu_up_stderr"] is None for m in ("cls", "bayes")):
            raise CheckFailed("Monte Carlo stderr missing")

    def check_limit_plain(text):
        results = json.loads(text)["results"]
        want = ctx.oracle.limit(1.0, 1.5, n_plain, alpha)
        for method in ("cls", "bayes"):
            _require_close(results[method]["mu_up"], want, PIN_REL_TOL, f"cli {method} vs oracle")

    def check_equivalence(text):
        verdict = json.loads(text)["report"]["verdict"]
        if verdict != VERDICT_EXPECTED:
            raise CheckFailed(f"verdict {verdict!r}, expected {VERDICT_EXPECTED!r}")

    def check_scan(text):
        lines = text.splitlines()
        if lines[0] != "mu,value,stderr" or len(lines) != 102:
            raise CheckFailed(f"scan table has header {lines[0]!r} and {len(lines)} lines")
        values = [float(line.split(",")[1]) for line in lines[1:]]
        if values[0] != 1.0 or any(b > a for a, b in zip(values, values[1:])):
            raise CheckFailed("scanned CLs does not start at 1 and decrease")

    commands = (
        ("limit_bg", n_bg, 2, ["limit", str(paths["bg"]), "--method", "both",
                               "--samples", "10000", "--seed", str(mc_seed)], check_limit_bg),
        ("limit_plain", n_plain, 2, ["limit", str(paths["plain"]), "--method", "both"], check_limit_plain),
        ("equivalence", n_sig, 2, ["equivalence", str(paths["sig"]), "--integrator", "gh",
                                   "--nodes", "32"], check_equivalence),
        ("scan", n_bg, 0, ["scan", str(paths["bg"]), "--mu-max", "20", "--points", "101",
                           "--samples", "2000", "--seed", str(scan_seed)], check_scan),
    )
    first_output = {}

    def make_check(kind, check_text):
        def check(result):
            code, out = result
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            if first_output.setdefault(kind, out) != out:
                raise CheckFailed("output differs from the first identical call")
            check_text(out.decode("utf-8"))
        return check

    while True:
        for kind, n, limits, args, check_text in commands:
            yield Op(f"cli_{kind}", n, limits, lambda args=args: ctx.run_cli(args), make_check(kind, check_text))


STREAMS = {
    "cli_mix": cli_mix,
    "exact_small": exact_small,
    "toys_small": toys_small,
    "large_count": large_count,
}
