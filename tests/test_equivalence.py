import itertools
import math

import numpy as np
import pytest

from countlim import (
    BackgroundProcess,
    CountingModel,
    Integrator,
    LimitRequest,
    ModelError,
    Nuisance,
    Prior,
    Response,
    SampleSet,
    SystematicsModel,
    bayesian_marginal_upper_limit,
    compare_limits,
    draw_samples,
    hybrid_cls_upper_limit,
    yields_on_samples,
)
from countlim import marginal
from countlim.equivalence import (
    VERDICT_EQUIVALENT,
    VERDICT_EXPECTED,
    VERDICT_UNEXPECTED,
)
from helpers import bg_systematic_model, plain_model, signal_systematic_model, spy_on_draws


def test_no_systematics_equivalent():
    report = compare_limits(
        plain_model(s=1.0, b=1.5, n_obs=3),
        LimitRequest(alpha=0.05),
        Integrator.monte_carlo(100, 1),
    )
    assert report.verdict == VERDICT_EQUIVALENT
    assert report.rel_diff <= 1e-7
    assert not report.signal_uncertain


def test_background_systematic_equivalent():
    report = compare_limits(
        bg_systematic_model(kappa=1.2),
        LimitRequest(alpha=0.05),
        Integrator.monte_carlo(5000, 7),
    )
    assert report.verdict == VERDICT_EQUIVALENT
    assert not report.signal_uncertain
    assert report.mc_stderr is not None


def test_signal_systematic_diverges():
    report = compare_limits(
        signal_systematic_model(kappa=1.2),
        LimitRequest(alpha=0.05),
        Integrator.gauss_hermite(16),
    )
    assert report.verdict == VERDICT_EXPECTED
    assert report.signal_uncertain
    assert report.rel_diff > 0.0
    assert report.mu_up_bayes != report.mu_up_cls


def test_broken_sample_sharing_is_flagged():
    model = bg_systematic_model(kappa=1.2)
    other = draw_samples(model.systematics, Integrator.monte_carlo(500, 999))
    report = compare_limits(
        model,
        LimitRequest(alpha=0.05),
        Integrator.monte_carlo(500, 1),
        bayes_samples=other,
    )
    assert report.verdict == VERDICT_UNEXPECTED
    assert not report.signal_uncertain


@pytest.mark.parametrize(
    ("limit", "message"),
    [
        (hybrid_cls_upper_limit, "nominal signal yield is zero; the CLs limit is undefined"),
        (bayesian_marginal_upper_limit, "nominal signal yield is zero; the posterior for mu is improper"),
        (compare_limits, "nominal signal yield is zero; the CLs limit is undefined"),
    ],
    ids=["hybrid_cls_upper_limit", "bayesian_marginal_upper_limit", "compare_limits"],
)
@pytest.mark.parametrize("integrator", [Integrator.monte_carlo(1000, 2), Integrator.gauss_hermite(8)], ids=["mc", "gh"])
def test_zero_signal_is_refused_before_a_set_is_drawn(monkeypatch, limit, message, integrator):
    draws = spy_on_draws(monkeypatch)
    with pytest.raises(ModelError) as err:
        limit(bg_systematic_model(s=0.0), LimitRequest(alpha=0.05), integrator)
    assert str(err.value) == message
    assert draws == []


@pytest.fixture
def bayes_solve_kernel_calls(monkeypatch):
    """Counts of the ``gamma_q`` calls made inside a solve, on a sample set
    or, through its scalar twin, on the nominal point: in a compare only
    the Bayesian criterion calls it, and its denominator is taken before
    the solve."""
    counts = []  # one per solve, in order
    solving = False
    solve_decreasing = marginal.solve_decreasing

    def counted(kernel):
        def call(*args):
            if solving:
                counts[-1] += 1
            return kernel(*args)

        return call

    def counted_solve(*args):
        nonlocal solving
        counts.append(0)
        solving = True
        try:
            return solve_decreasing(*args)
        finally:
            solving = False

    monkeypatch.setattr(marginal, "_gamma_q_pmf", counted(marginal._gamma_q_pmf))
    monkeypatch.setattr(marginal, "_gamma_q_scalar", counted(marginal._gamma_q_scalar))
    monkeypatch.setattr(marginal, "solve_decreasing", counted_solve)
    return counts


@pytest.mark.parametrize(
    ("model", "integrator", "most_calls", "verdict"),
    [
        (bg_systematic_model(kappa=1.2), Integrator.gauss_hermite(16), 2, VERDICT_EQUIVALENT),
        (bg_systematic_model(s=10.0, b=150.0, n_obs=150, kappa=1.05), Integrator.monte_carlo(2000, 3), 2,
         VERDICT_EQUIVALENT),
        (bg_systematic_model(s=10.0, b=150.0, n_obs=137, kappa=1.05), Integrator.monte_carlo(2000, 8), 2,
         VERDICT_EQUIVALENT),
        (plain_model(s=1.0, b=1.5, n_obs=3), Integrator.gauss_hermite(16), 2, VERDICT_EQUIVALENT),
        # the CLs root times E_w[s] E_w[1/s] is a log-normal signal's Bayes root: one call
        (signal_systematic_model(kappa=1.2), Integrator.gauss_hermite(32), 1, VERDICT_EXPECTED),
    ],
)
def test_bayes_solve_starts_at_the_cls_root(bayes_solve_kernel_calls, model, integrator, most_calls, verdict):
    # with a certain signal the CLs root is the Bayes root: the Bayes solve
    # evaluates mu = 0 (no kernel call), the CLs root and at most one probe;
    # a log-normal signal's, mu = 0 and the CLs root times kappa^(ln kappa)
    report = compare_limits(model, LimitRequest(alpha=0.05), integrator)
    cls_calls, bayes_calls = bayes_solve_kernel_calls
    assert cls_calls == 0
    assert 1 <= bayes_calls <= most_calls
    assert report.verdict == verdict
    assert (report.rel_diff <= report.tol) == (verdict == VERDICT_EQUIVALENT)


@pytest.mark.parametrize("bg_kappa", [None, 1.3], ids=["signal only", "with background"])
@pytest.mark.parametrize("kappa", [1.05, 1.2, 1.5])
def test_log_normal_signal_parts_the_limits_by_kappa_to_the_ln_kappa(kappa, bg_kappa):
    # the Bayes term is the CLs one over s: weighing each sample by 1/s
    # shifts the signal's eta by -ln kappa, so the Bayes criterion is hybrid
    # CLs at mu / (E[s] E[1/s]), E[s] E[1/s] = kappa^(ln kappa), and the Bayes
    # solve started there ends on that one evaluation after mu = 0
    model = signal_systematic_model(kappa=kappa, bg_kappa=bg_kappa)
    integrator, req = Integrator.gauss_hermite(32), LimitRequest(alpha=0.05)
    samples = draw_samples(model.systematics, integrator)
    s, _ = yields_on_samples(model, samples.etas)
    spread = float(np.add.reduce(samples.weights * s)) * float(np.add.reduce(samples.weights / s))
    assert spread == pytest.approx(kappa ** math.log(kappa), rel=4 * 2.0**-52, abs=0.0)
    res_cls, res_bayes, _ = marginal._paired_limits(model, req, integrator)
    assert res_bayes.mu_up / res_cls.mu_up == pytest.approx(spread, rel=2 * req.rel_tol, abs=0.0)
    assert res_bayes.iterations == 2


@pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 0.0)])
def test_bayes_start_stays_at_the_cls_root_where_one_over_s_overflows(monkeypatch, weights):
    # the second sample's signal yield, 2^-1030, has a reciprocal past the
    # float range: E_w[1/s] is inf (NaN at weight 0), and the start falls
    # back to the CLs root without numpy's warning, which the suite makes an
    # error. Its background, 1.5 * 2^20, leaves both criteria the first sample's alone
    model = signal_systematic_model(kappa=2.0, bg_kappa=2.0)
    hand_built = SampleSet(np.array([[0.0, 0.0], [-1030.0, 20.0]]), np.array(weights))
    monkeypatch.setattr(marginal, "draw_samples", lambda systematics, integrator: hand_built)
    starts, solve = [], marginal._solve

    def recorded(crit, req, with_stderr=False, start=None):
        starts.append(start)
        return solve(crit, req, with_stderr, start)

    monkeypatch.setattr(marginal, "_solve", recorded)
    res_cls, res_bayes, _ = marginal._paired_limits(model, LimitRequest(alpha=0.05), Integrator.gauss_hermite(2))
    assert starts == [None, res_cls.mu_up]
    assert res_bayes.mu_up == pytest.approx(res_cls.mu_up, rel=2e-9)


@pytest.mark.parametrize("override", [False, True])
def test_yields_are_taken_once_per_sample_set(monkeypatch, override):
    # both criteria of a compare run on the shared set's yields; a
    # bayes_samples override takes its own
    calls = []
    yields_on_samples = marginal.yields_on_samples

    def counted(model, etas):
        calls.append(etas)
        return yields_on_samples(model, etas)

    monkeypatch.setattr(marginal, "yields_on_samples", counted)
    model = bg_systematic_model(kappa=1.2)
    other = draw_samples(model.systematics, Integrator.monte_carlo(500, 999)) if override else None
    compare_limits(model, LimitRequest(alpha=0.05), Integrator.monte_carlo(500, 1), bayes_samples=other)
    assert len(calls) == 1 + override
    if override:
        assert calls[1] is other.etas


def test_report_deterministic():
    model = bg_systematic_model(kappa=1.3)
    req = LimitRequest(alpha=0.1)
    integ = Integrator.monte_carlo(2000, 123)
    assert compare_limits(model, req, integ) == compare_limits(model, req, integ)


def test_report_serialisable():
    report = compare_limits(
        plain_model(), LimitRequest(alpha=0.05), Integrator.gauss_hermite(4)
    )
    d = report.to_dict()
    assert d["verdict"] == VERDICT_EQUIVALENT
    assert set(d) == {
        "mu_up_cls",
        "mu_up_bayes",
        "rel_diff",
        "signal_uncertain",
        "verdict",
        "tol",
        "mc_stderr",
    }


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        compare_limits(plain_model(), LimitRequest(alpha=0.05), Integrator.gauss_hermite(4), tol=0.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_non_finite_tolerance(tol):
    # tol = inf would call any two limits equivalent
    with pytest.raises(ValueError, match="positive finite"):
        compare_limits(plain_model(), LimitRequest(alpha=0.05), Integrator.gauss_hermite(4), tol=tol)


def test_sweep_with_certain_signal_never_unexpected():
    # 144 configurations varying count, background, prior, response and
    # threshold; every signal response is identity, so any divergence at
    # all would be a defect
    n_obs_values = (0, 1, 3, 10)
    b_values = (0.5, 1.5, 5.0)
    priors = (Prior.standard_normal(), Prior.normal(0.2, 0.8))
    responses = (Response.log_normal(1.1), Response.log_normal(1.3), Response.linear(0.08))
    alphas = (0.05, 0.1)
    integ = Integrator.gauss_hermite(8)
    combos = list(itertools.product(n_obs_values, b_values, priors, responses, alphas))
    assert len(combos) >= 100
    verdicts = set()
    for n_obs, b, prior, resp, alpha in combos:
        model = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("bkg", b, {"pull": resp}),),
            n_obs=n_obs,
            systematics=SystematicsModel(nuisances=(Nuisance("pull", prior),)),
        )
        report = compare_limits(model, LimitRequest(alpha=alpha), integ)
        verdicts.add(report.verdict)
        assert report.verdict != VERDICT_UNEXPECTED
    assert verdicts == {VERDICT_EQUIVALENT}
