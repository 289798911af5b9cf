"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from countlim import (
    BackgroundProcess,
    CountingModel,
    Integrator,
    LimitRequest,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
    bayesian_marginal_upper_limit,
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
    cls_value,
    compare_limits,
    draw_samples,
    gamma_q,
    hybrid_cls,
    hybrid_cls_upper_limit,
    log_poisson_pmf,
    marginal_likelihood,
    marginal_posterior_tail,
    poisson_cdf,
)
from helpers import bg_systematic_model, identity_systematic_model, plain_model, src_env
from oracles import bayesian_upper_limit_quadrature

# Pinned regression values for the signal-systematics divergence
# (criterion 4): s_nom=1 with a log-normal kappa=1.2 signal response under
# a standard normal prior, b=1.5, n_obs=3, alpha=0.05, 32-node quadrature,
# solver rel_tol=1e-10. First computed with the quadrature route, then
# frozen.
PIN4_MU_CLS = 6.662710140130535
PIN4_MU_BAYES = 6.887908477502728
PIN4_GAP = 0.22519833737219308


def _pass(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_gamma_identity():
    t0 = time.time()
    nus = np.arange(0, 501) * 0.1
    worst = 0.0
    for n in range(101):
        diff = np.abs(poisson_cdf(n, nus) - gamma_q(n + 1.0, nus))
        worst = max(worst, float(diff.max()))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _pass(1, f"tail-sum vs incomplete-gamma identity, max |diff| = {worst:.2e} "
             f"over the 101 x 501 grid ({elapsed:.2f} s)")


def test_criterion_2_no_systematics_equivalence():
    t0 = time.time()
    grid = list(itertools.product((0.5, 1.0, 2.0), (0.0, 0.5, 1.5, 5.0, 20.0),
                                  (0, 1, 3, 10, 50), (0.05, 0.1, 0.32)))
    assert len(grid) == 225
    worst_closed = 0.0
    worst_quad = 0.0
    for s, b, n_obs, alpha in grid:
        model = plain_model(s=s, b=b, n_obs=n_obs)
        req = LimitRequest(alpha=alpha)
        mu_cls = cls_upper_limit(model, req).mu_up
        mu_bayes = bayesian_upper_limit_closed_form(model, req).mu_up
        mu_quad = bayesian_upper_limit_quadrature(model, req).mu_up
        worst_closed = max(worst_closed, abs(mu_cls - mu_bayes) / mu_cls)
        worst_quad = max(worst_quad, abs(mu_quad - mu_bayes) / mu_bayes)
    elapsed = time.time() - t0
    assert worst_closed <= 1e-7
    assert worst_quad <= 1e-6
    assert elapsed < 30.0
    _pass(2, f"CLs vs closed-form credible limits on 225 configs, max rel diff = "
             f"{worst_closed:.2e}; quadrature route max rel diff = {worst_quad:.2e} "
             f"({elapsed:.1f} s)")


def _background_systematics_configs():
    sn = Prior.standard_normal
    configs = []

    def single(prior, response, b=1.5, n_obs=3):
        return CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("bkg", b, {"p0": response}),),
            n_obs=n_obs,
            systematics=SystematicsModel(nuisances=(Nuisance("p0", prior),)),
        )

    for prior in (sn(), Prior.normal(0.3, 1.2), Prior.log_normal(0.0, 0.25)):
        for response in (Response.log_normal(1.2), Response.linear(0.1)):
            configs.append(single(prior, response))
    for kappa in (1.1, 1.5):
        for b, n_obs in ((0.8, 1), (5.0, 10)):
            configs.append(single(sn(), Response.log_normal(kappa), b=b, n_obs=n_obs))
    for delta in (0.05, 0.1):
        configs.append(single(Prior.normal(-0.2, 0.9), Response.linear(delta), b=2.0, n_obs=5))

    def double(correlation=None, second_prior=None):
        return CountingModel(
            s_nom=1.0,
            backgrounds=(
                BackgroundProcess("b1", 1.0, {"p0": Response.log_normal(1.2)}),
                BackgroundProcess("b2", 0.5, {"p1": Response.log_normal(1.3)}),
            ),
            n_obs=3,
            systematics=SystematicsModel(
                nuisances=(
                    Nuisance("p0", sn()),
                    Nuisance("p1", second_prior or sn()),
                ),
                correlation=correlation,
            ),
        )

    configs.append(double())
    configs.append(double(second_prior=Prior.normal(0.1, 0.8)))
    configs.append(double(correlation=np.array([[1.0, 0.3], [0.3, 1.0]])))
    configs.append(double(correlation=np.array([[1.0, -0.4], [-0.4, 1.0]])))
    configs.append(double(second_prior=Prior.log_normal(0.0, 0.2)))

    def triple(third_response):
        return CountingModel(
            s_nom=1.0,
            backgrounds=(
                BackgroundProcess(
                    "bkg",
                    1.5,
                    {"p0": Response.log_normal(1.2), "p1": Response.linear(0.08),
                     "p2": third_response},
                ),
            ),
            n_obs=4,
            systematics=SystematicsModel(
                nuisances=(Nuisance("p0", sn()), Nuisance("p1", sn()), Nuisance("p2", sn())),
            ),
        )

    configs.append(triple(Response.log_normal(1.15)))
    configs.append(triple(Response.linear(0.05)))
    configs.append(triple(Response.log_normal(0.9)))
    return configs


def test_criterion_3_background_systematics_equivalence():
    t0 = time.time()
    configs = _background_systematics_configs()
    assert len(configs) >= 20
    req = LimitRequest(alpha=0.05, rel_tol=1e-10)
    worst = 0.0
    runs = 0
    gh_runs = 0
    for i, model in enumerate(configs):
        integrators = [Integrator.monte_carlo(10_000, 1000 + i)]
        if model.systematics.all_normal_family:
            integrators.append(Integrator.gauss_hermite(16))
        for integrator in integrators:
            shared = draw_samples(model.systematics, integrator)
            mu_h = hybrid_cls_upper_limit(model, req, integrator, samples=shared).mu_up
            mu_b = bayesian_marginal_upper_limit(model, req, integrator, samples=shared).mu_up
            worst = max(worst, abs(mu_h - mu_b) / max(mu_h, mu_b))
            runs += 1
            gh_runs += integrator.kind == "gauss_hermite"
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert gh_runs >= 10
    assert elapsed < 120.0
    _pass(3, f"hybrid CLs vs marginal Bayes on shared samples: {len(configs)} configs, "
             f"{runs} runs ({gh_runs} quadrature), max rel diff = {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_4_signal_systematics_divergence():
    t0 = time.time()
    model = CountingModel(
        s_nom=1.0,
        backgrounds=(BackgroundProcess("bkg", 1.5),),
        n_obs=3,
        systematics=SystematicsModel(
            nuisances=(Nuisance("sscale", Prior.standard_normal()),),
            signal_responses={"sscale": Response.log_normal(1.2)},
        ),
    )
    req = LimitRequest(alpha=0.05, rel_tol=1e-10)
    integrator = Integrator.gauss_hermite(32)
    shared = draw_samples(model.systematics, integrator)
    mu_h = hybrid_cls_upper_limit(model, req, integrator, samples=shared).mu_up
    mu_b = bayesian_marginal_upper_limit(model, req, integrator, samples=shared).mu_up
    gap = mu_b - mu_h
    elapsed = time.time() - t0
    assert mu_h == pytest.approx(PIN4_MU_CLS, rel=5e-9)
    assert mu_b == pytest.approx(PIN4_MU_BAYES, rel=5e-9)
    assert gap == pytest.approx(PIN4_GAP, abs=1e-6)
    report = compare_limits(model, req, integrator)
    assert report.verdict == "divergent_as_expected"
    assert elapsed < 5.0
    _pass(4, f"uncertain-signal limits differ: hybrid {mu_h:.9f}, bayes {mu_b:.9f}, "
             f"pinned gap {gap:.9f} ({elapsed:.2f} s)")


def test_criterion_5_reduction_consistency():
    t0 = time.time()
    cases = [(b, n_obs) for b in (0.0, 0.5, 1.5, 5.0, 20.0) for n_obs in (0, 3)]
    assert len(cases) == 10
    worst = 0.0
    for i, (b, n_obs) in enumerate(cases):
        marg = identity_systematic_model(s=1.0, b=b, n_obs=n_obs, n_nuisances=1 + i % 2)
        exact = plain_model(s=1.0, b=b, n_obs=n_obs)
        integrator = (
            Integrator.monte_carlo(1000, i) if i % 2 else Integrator.gauss_hermite(8)
        )
        samples = draw_samples(marg.systematics, integrator)
        for mu in (0.0, 2.0, 7.5):
            diff = abs(hybrid_cls(marg, mu, samples) - cls_value(exact, mu))
            worst = max(worst, diff)
            exact_tail = gamma_q(n_obs + 1.0, mu + b) / gamma_q(n_obs + 1.0, b)
            worst = max(worst, abs(marginal_posterior_tail(marg, mu, samples) - exact_tail))
            pmf = math.exp(log_poisson_pmf(n_obs, mu + b))
            worst = max(worst, abs(marginal_likelihood(marg, mu, n_obs, samples) - pmf))
        req = LimitRequest(alpha=0.1, rel_tol=1e-13)
        mu_h = hybrid_cls_upper_limit(marg, req, integrator, samples=samples).mu_up
        mu_e = cls_upper_limit(exact, req).mu_up
        worst = max(worst, abs(mu_h - mu_e) / mu_e)
        mu_bm = bayesian_marginal_upper_limit(marg, req, integrator, samples=samples).mu_up
        mu_bc = bayesian_upper_limit_closed_form(exact, req).mu_up
        worst = max(worst, abs(mu_bm - mu_bc) / mu_bc)
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _pass(5, f"identity-response marginal quantities match exact counterparts on 10 "
             f"configs, max diff = {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_6_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "signal": {"nominal": 1.0},
        "backgrounds": [{"name": "bkg", "nominal": 1.5,
                         "responses": {"bscale": {"kind": "log_normal", "kappa": 1.2}}}],
        "nuisances": [{"name": "bscale", "prior": {"kind": "standard_normal"}}],
        "n_obs": 3,
    }), encoding="utf-8")

    def run(args, out):
        proc = subprocess.run(
            [sys.executable, "-m", "countlim.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    limit_args = ["limit", str(cfg), "--method", "both", "--samples", "4000", "--seed", "11"]
    scan_args = ["scan", str(cfg), "--mu-max", "8", "--points", "17", "--samples", "2000", "--seed", "11"]
    limit_bytes = [run(limit_args, tmp_path / f"limit{i}.json") for i in range(2)]
    scan_bytes = [run(scan_args, tmp_path / f"scan{i}.csv") for i in range(2)]
    elapsed = time.time() - t0
    assert limit_bytes[0] == limit_bytes[1]
    assert scan_bytes[0] == scan_bytes[1]
    assert elapsed < 10.0
    _pass(6, f"repeated CLI runs byte-identical for JSON limits and CSV scans; "
             f"evaluation is single-process vectorised with a fixed pairwise "
             f"reduction tree ({elapsed:.1f} s)")


def test_criterion_7_monte_carlo_convergence():
    t0 = time.time()
    model = bg_systematic_model(kappa=1.2)
    req = LimitRequest(alpha=0.05)
    reference = hybrid_cls_upper_limit(model, req, Integrator.gauss_hermite(32)).mu_up
    errors = {}
    sigmas = {}
    for n in (1_000, 10_000, 100_000):
        res = hybrid_cls_upper_limit(model, req, Integrator.monte_carlo(n, 0))
        errors[n] = abs(res.mu_up - reference)
        sigmas[n] = res.mu_up_stderr
        assert errors[n] <= 3.0 * sigmas[n]
    assert sigmas[1_000] > sigmas[10_000] > sigmas[100_000]
    assert 2.0 <= sigmas[1_000] / sigmas[10_000] <= 5.0
    assert 2.0 <= sigmas[10_000] / sigmas[100_000] <= 5.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(7, "Monte Carlo limits converge to the 32-node quadrature limit within "
             f"3 sigma at n = 1e3, 1e4, 1e5 with stderr ratios "
             f"{sigmas[1_000]/sigmas[10_000]:.2f} and {sigmas[10_000]/sigmas[100_000]:.2f} "
             f"(ideal sqrt(10) = 3.16) ({elapsed:.1f} s)")
