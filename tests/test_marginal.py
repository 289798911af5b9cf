import math
from fractions import Fraction

import numpy as np
import pytest

from countlim import (
    ConfigError,
    ConvergenceError,
    CountingModel,
    BackgroundProcess,
    Integrator,
    LimitRequest,
    ModelError,
    Nuisance,
    Prior,
    Response,
    SampleSet,
    SystematicsModel,
    bayesian_marginal_upper_limit,
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
    compare_limits,
    draw_samples,
    gamma_q,
    hybrid_cls,
    hybrid_cls_upper_limit,
    log_poisson_pmf,
    marginal_likelihood,
    marginal_posterior_density,
    marginal_posterior_tail,
    poisson_cdf,
)
from countlim import marginal
from countlim.marginal import (
    _GH_MAX_POINTS,
    _MC_MAX_VALUES,
    _Criterion,
    _bayes_terms,
    _cls_terms,
    _criterion,
    scan_quantity,
)
from helpers import bg_systematic_model, identity_systematic_model, plain_model, signal_systematic_model

# Regression pin: hybrid CLs limit for s=1, b=1.5 with a 20% log-normal
# background systematic (standard normal prior), n_obs=3, alpha=0.05,
# Monte Carlo n=1e5 seed=20240803. First verified against the 32-node
# quadrature limit (pull -1.2 sigma), then frozen.
PIN_HYBRID_MC_1E5 = 6.365512683226769
REF_HYBRID_GH32 = 6.366309056359327


def cdf_oracle(n, nu):
    # independent tail-sum oracle used for the hand-checked examples
    if nu == 0.0:
        return 1.0
    return math.fsum(
        math.exp(-nu + k * math.log(nu) - math.lgamma(k + 1)) for k in range(n + 1)
    )


class TestIntegrator:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Integrator("trapezoid")
        with pytest.raises(ConfigError):
            Integrator.monte_carlo(0, 1)
        with pytest.raises(ConfigError):
            Integrator.monte_carlo(10, -1)
        with pytest.raises(ConfigError):
            Integrator.monte_carlo(10, 2**64)
        with pytest.raises(ConfigError):
            Integrator.gauss_hermite(1)
        with pytest.raises(ConfigError):
            Integrator.gauss_hermite(65)

    def test_to_dict(self):
        assert Integrator.monte_carlo(100, 7).to_dict() == {
            "kind": "monte_carlo",
            "n_samples": 100,
            "seed": 7,
        }
        assert Integrator.gauss_hermite(8).to_dict() == {
            "kind": "gauss_hermite",
            "nodes_per_dim": 8,
        }


class TestDrawSamples:
    def test_monte_carlo_deterministic(self):
        m = bg_systematic_model()
        integ = Integrator.monte_carlo(1000, 42)
        a = draw_samples(m.systematics, integ)
        b = draw_samples(m.systematics, integ)
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.weights, b.weights)

    def test_monte_carlo_seed_changes_samples(self):
        m = bg_systematic_model()
        a = draw_samples(m.systematics, Integrator.monte_carlo(1000, 42))
        b = draw_samples(m.systematics, Integrator.monte_carlo(1000, 43))
        assert not np.array_equal(a.etas, b.etas)

    def test_weights_normalised(self):
        m = bg_systematic_model()
        for integ in (Integrator.monte_carlo(9999, 3), Integrator.gauss_hermite(8)):
            samples = draw_samples(m.systematics, integ)
            assert abs(float(np.sum(samples.weights)) - 1.0) <= 1e-12

    def test_gauss_hermite_node_count_and_moments(self):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(8))
        assert len(samples) == 8
        eta = samples.etas[:, 0]
        w = samples.weights
        assert abs(float(np.sum(w * eta))) <= 1e-14
        assert float(np.sum(w * eta * eta)) == pytest.approx(1.0, rel=1e-12)

    def test_gauss_hermite_tensor_product(self):
        m = identity_systematic_model(n_nuisances=2)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        assert len(samples) == 16
        assert abs(float(np.sum(samples.weights)) - 1.0) <= 1e-12

    def test_gauss_hermite_rejects_log_normal_prior(self):
        m = bg_systematic_model(prior=Prior.log_normal(0.0, 0.3))
        with pytest.raises(ConfigError):
            draw_samples(m.systematics, Integrator.gauss_hermite(8))

    def test_no_nuisances_single_empty_sample(self):
        m = plain_model()
        samples = draw_samples(m.systematics, Integrator.monte_carlo(500, 9))
        assert len(samples) == 1
        assert samples.etas.shape == (1, 0)
        assert samples.weights[0] == 1.0

    def test_nuisances_need_an_integrator(self):
        # once a bare AttributeError on None.kind, from each of these routes
        m = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("b", 1.5, {"lumi": Response.log_normal(1.1)}),),
            n_obs=3,
            systematics=SystematicsModel(nuisances=(Nuisance("lumi", Prior.standard_normal()),)),
        )
        req = LimitRequest(alpha=0.05)
        for route in (
            lambda: draw_samples(m.systematics, None),
            lambda: hybrid_cls_upper_limit(m, req, None),
            lambda: bayesian_marginal_upper_limit(m, req, None),
            lambda: compare_limits(m, req, None),
        ):
            with pytest.raises(ConfigError, match=r"nuisance\(s\) \['lumi'\] need an integrator"):
                route()

    def test_monte_carlo_correlation_is_realised(self):
        corr = np.array([[1.0, 0.7], [0.7, 1.0]])
        sysm = SystematicsModel(
            nuisances=(
                Nuisance("a", Prior.standard_normal()),
                Nuisance("b", Prior.standard_normal()),
            ),
            correlation=corr,
        )
        samples = draw_samples(sysm, Integrator.monte_carlo(200_000, 11))
        observed = np.corrcoef(samples.etas[:, 0], samples.etas[:, 1])[0, 1]
        assert observed == pytest.approx(0.7, abs=0.01)

    def test_gauss_hermite_correlation_is_exact(self):
        # quadrature integrates second moments exactly
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        sysm = SystematicsModel(
            nuisances=(
                Nuisance("a", Prior.standard_normal()),
                Nuisance("b", Prior.normal(1.0, 2.0)),
            ),
            correlation=corr,
        )
        samples = draw_samples(sysm, Integrator.gauss_hermite(12))
        w = samples.weights
        ea = float(np.sum(w * samples.etas[:, 0]))
        eb = float(np.sum(w * samples.etas[:, 1]))
        cov = float(np.sum(w * (samples.etas[:, 0] - ea) * (samples.etas[:, 1] - eb)))
        assert ea == pytest.approx(0.0, abs=1e-13)
        assert eb == pytest.approx(1.0, rel=1e-12)
        assert cov == pytest.approx(0.4 * 2.0, rel=1e-11)

    def test_gauss_hermite_grid_budget(self, monkeypatch):
        # the grid must be refused before anything is allocated
        class GridBuilt(Exception):
            pass

        def no_grid(*args, **kwargs):
            raise GridBuilt

        monkeypatch.setattr(np, "meshgrid", no_grid)
        m = identity_systematic_model(n_nuisances=8)
        with pytest.raises(ConfigError, match=r"16\^8 = 4294967296 points exceeds the budget of 1048576"):
            draw_samples(m.systematics, Integrator.gauss_hermite(16))
        # 16^5 and 64^3 are within the budget and reach the grid
        assert 16**5 <= _GH_MAX_POINTS and 64**3 <= _GH_MAX_POINTS
        for nodes, n_nuisances in ((16, 5), (64, 3)):
            m = identity_systematic_model(n_nuisances=n_nuisances)
            with pytest.raises(GridBuilt):
                draw_samples(m.systematics, Integrator.gauss_hermite(nodes))

    def test_monte_carlo_budget(self, monkeypatch):
        # samples x nuisances is refused before anything is allocated
        class SetAllocated(Exception):
            pass

        def no_allocation(*args, **kwargs):
            raise SetAllocated

        monkeypatch.setattr(np, "empty", no_allocation)
        m = identity_systematic_model(n_nuisances=3)
        k = _MC_MAX_VALUES // 3 + 1
        with pytest.raises(ConfigError, match=rf"{k} x 3 = {3 * k} values exceeds the budget of {_MC_MAX_VALUES}"):
            draw_samples(m.systematics, Integrator.monte_carlo(k, 1))
        with pytest.raises(SetAllocated):
            draw_samples(m.systematics, Integrator.monte_carlo(k - 1, 1))
        # without nuisances no set is drawn, so any sample count is accepted
        plain = draw_samples(plain_model().systematics, Integrator.monte_carlo(100 * _MC_MAX_VALUES, 1))
        assert plain.etas.shape == (1, 0)

    def test_hermite_rule_is_read_only(self):
        nodes, weights = marginal._hermite_rule(16)
        for rule in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                rule[0] = 0.0

    def test_hermite_rule_is_solved_once_per_node_count(self, monkeypatch):
        solved = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counted(deg):
            solved.append(deg)
            return hermgauss(deg)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        marginal._hermite_rule.cache_clear()
        for nodes, model in ((16, identity_systematic_model(n_nuisances=2)), (32, signal_systematic_model())):
            first, second = (draw_samples(model.systematics, Integrator.gauss_hermite(nodes)) for _ in range(2))
            assert np.array_equal(first.etas, second.etas)
            assert np.array_equal(first.weights, second.weights)
        assert solved == [16, 32]

    @pytest.mark.parametrize(
        ("nodes", "model"),
        [
            (16, bg_systematic_model()),
            (16, identity_systematic_model(n_nuisances=2)),
            (32, signal_systematic_model()),
        ],
    )
    def test_cached_rule_gives_the_uncached_sample_set(self, nodes, model):
        # the set as built from a freshly solved rule on every call, bit for bit
        x, w = np.polynomial.hermite.hermgauss(nodes)
        n_nuis = len(model.systematics.nuisances)
        grids = np.meshgrid(*([math.sqrt(2.0) * x] * n_nuis), indexing="ij")
        z = model.systematics.correlate(np.stack([g.ravel() for g in grids], axis=1))
        weights = np.ones(z.shape[0])
        for g in np.meshgrid(*([w / math.sqrt(math.pi)] * n_nuis), indexing="ij"):
            weights *= g.ravel()
        etas = np.stack(
            [nu.prior.from_standard_normal(z[:, j]) for j, nu in enumerate(model.systematics.nuisances)], axis=1
        )
        for _ in range(2):  # the call that fills the cache, and one served from it
            samples = draw_samples(model.systematics, Integrator.gauss_hermite(nodes))
            assert np.array_equal(samples.etas, etas)
            assert np.array_equal(samples.weights, weights / np.sum(weights))

    def test_log_normal_prior_samples_positive(self):
        m = bg_systematic_model(prior=Prior.log_normal(0.0, 0.5))
        samples = draw_samples(m.systematics, Integrator.monte_carlo(5000, 2))
        assert np.all(samples.etas > 0.0)


class TestMarginalLikelihood:
    def test_identity_reduces_to_pmf(self):
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=3)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(1000, 4))
        for mu, n in [(0.0, 0), (1.0, 3), (2.5, 7)]:
            exact = math.exp(log_poisson_pmf(n, mu * 1.0 + 1.5))
            assert marginal_likelihood(m, mu, n, samples) == pytest.approx(exact, rel=1e-13)

    def test_normalised_over_counts(self):
        m = bg_systematic_model(kappa=1.3)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(16))
        total = math.fsum(marginal_likelihood(m, 1.7, n, samples) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_two_node_quadrature_by_hand(self):
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(2))
        # two nodes sit at eta = -1, +1 with weight 1/2 each
        for mu, n in [(0.0, 2), (1.5, 3)]:
            lo = math.exp(log_poisson_pmf(n, mu + 1.5 / 1.2))
            hi = math.exp(log_poisson_pmf(n, mu + 1.5 * 1.2))
            assert marginal_likelihood(m, mu, n, samples) == pytest.approx(
                0.5 * (lo + hi), rel=1e-12
            )


class TestHybridCls:
    def test_unity_at_zero(self):
        for model, integ in [
            (bg_systematic_model(), Integrator.monte_carlo(777, 1)),
            (bg_systematic_model(kappa=1.5), Integrator.gauss_hermite(8)),
        ]:
            samples = draw_samples(model.systematics, integ)
            assert hybrid_cls(model, 0.0, samples) == 1.0

    def test_identity_matches_exact(self):
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=3)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(2048, 3))
        for mu in (0.5, 2.0, 6.0):
            exact = poisson_cdf(3, mu + 1.5) / poisson_cdf(3, 1.5)
            assert abs(hybrid_cls(m, mu, samples) - exact) <= 1e-14

    def test_two_node_quadrature_by_hand(self):
        m = bg_systematic_model(kappa=1.3)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(2))
        b_lo, b_hi = 1.5 / 1.3, 1.5 * 1.3
        mu = 2.0
        expected = (cdf_oracle(3, mu + b_lo) + cdf_oracle(3, mu + b_hi)) / (
            cdf_oracle(3, b_lo) + cdf_oracle(3, b_hi)
        )
        assert hybrid_cls(m, mu, samples) == pytest.approx(expected, rel=1e-12)

    def test_weight_duplication_invariance(self):
        m = bg_systematic_model(kappa=1.4)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(1000, 8))
        doubled = SampleSet(
            np.concatenate([samples.etas, samples.etas]),
            np.concatenate([samples.weights / 2.0, samples.weights / 2.0]),
        )
        for mu in (0.7, 3.0):
            a = hybrid_cls(m, mu, samples)
            b = hybrid_cls(m, mu, doubled)
            assert a == pytest.approx(b, rel=1e-13)


class TestStructuralEquivalence:
    def test_pointwise_with_certain_signal(self):
        # with identity signal responses the hybrid CLs curve and the
        # marginal posterior tail are the same function of mu
        model = CountingModel(
            s_nom=1.0,
            backgrounds=(
                BackgroundProcess("b1", 1.0, {"a": Response.log_normal(1.3)}),
                BackgroundProcess("b2", 0.5, {"b": Response.linear(0.1)}),
            ),
            n_obs=4,
            systematics=SystematicsModel(
                nuisances=(
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("b", Prior.normal(0.0, 0.8)),
                )
            ),
        )
        for integ in (Integrator.monte_carlo(512, 13), Integrator.gauss_hermite(8)):
            samples = draw_samples(model.systematics, integ)
            for mu in np.linspace(0.0, 12.0, 25):
                a = hybrid_cls(model, float(mu), samples)
                t = marginal_posterior_tail(model, float(mu), samples)
                assert abs(a - t) <= 1e-12

    def test_divergence_with_uncertain_signal(self):
        model = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("b", 1.5),),
            n_obs=3,
            systematics=SystematicsModel(
                nuisances=(Nuisance("s", Prior.standard_normal()),),
                signal_responses={"s": Response.log_normal(1.2)},
            ),
        )
        samples = draw_samples(model.systematics, Integrator.gauss_hermite(16))
        diffs = [
            abs(hybrid_cls(model, mu, samples) - marginal_posterior_tail(model, mu, samples))
            for mu in (2.0, 6.0)
        ]
        assert max(diffs) > 1e-4


def _criterion_on(s, b, n_obs, kernel, monte_carlo):
    if monte_carlo:
        model = signal_systematic_model(s=s, b=b, n_obs=n_obs)
        samples = draw_samples(model.systematics, Integrator.monte_carlo(500, 7))
    else:
        model = plain_model(s=s, b=b, n_obs=n_obs)
        samples = draw_samples(model.systematics, None)
    return _criterion(model, kernel, samples)


class TestCriterionSlope:
    @pytest.mark.parametrize("kernel", [_cls_terms, _bayes_terms])
    @pytest.mark.parametrize("s, b, n_obs", [(1.0, 1.5, 3), (2.0, 0.0, 5), (0.5, 3.0, 0), (1.0, 0.0, 0), (10.0, 150.0, 160)])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_matches_central_difference(self, kernel, s, b, n_obs, monte_carlo):
        crit = _criterion_on(s, b, n_obs, kernel, monte_carlo)
        for mu in (0.3, 1.0, 4.0):
            h = 1e-5 * mu
            central = (crit.criterion(mu + h) - crit.criterion(mu - h)) / (2.0 * h)
            value, slope, _ = crit(mu)
            assert value == crit.criterion(mu)
            assert slope == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("kernel", [_cls_terms, _bayes_terms])
    def test_zero_strength_runs_no_kernel(self, kernel):
        model = signal_systematic_model(s=1.0, b=1.5, n_obs=3)
        crit = _criterion(model, kernel, draw_samples(model.systematics, Integrator.monte_carlo(500, 7)))
        h = 1e-6
        forward = (crit.criterion(h) - 1.0) / h
        crit.kernel = None  # any kernel call now fails
        value, slope, _ = crit(0.0)
        assert value == 1.0
        assert slope == pytest.approx(forward, rel=1e-4)

    def test_zero_slope_at_zero_without_background(self):
        crit = _criterion(plain_model(s=1.0, b=0.0, n_obs=50), _cls_terms, draw_samples(plain_model().systematics, None))
        assert crit(0.0) == (1.0, 0.0, 0.0)


class TestCriterionCurvature:
    @pytest.mark.parametrize("kernel", [_cls_terms, _bayes_terms])
    @pytest.mark.parametrize("s, b, n_obs", [(1.0, 1.5, 3), (2.0, 0.0, 5), (0.5, 3.0, 0), (1.0, 0.0, 1), (10.0, 150.0, 160)])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_matches_central_difference_of_the_slope(self, kernel, s, b, n_obs, monte_carlo):
        crit = _criterion_on(s, b, n_obs, kernel, monte_carlo)
        for mu in (0.3, 1.0, 4.0):
            h = 1e-5 * mu
            central = (crit(mu + h)[1] - crit(mu - h)[1]) / (2.0 * h)
            # abs: the difference's rounding, where the curvature crosses 0
            assert crit(mu)[2] == pytest.approx(central, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kernel", [_cls_terms, _bayes_terms])
    @pytest.mark.parametrize("n_obs", [0, 1, 2])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_zero_strength_without_background(self, kernel, n_obs, monte_carlo):
        # x = 0 at mu = 0: pmf (n/x - 1) takes its limit pmf(n - 1; 0) - pmf(n; 0),
        # with no RuntimeWarning (the suite turns them into errors); the
        # forward difference is off by O(h), which abs allows where c'' = 0
        crit = _criterion_on(1.5, 0.0, n_obs, kernel, monte_carlo)
        h = 1e-6
        forward = (crit(h)[1] - crit(0.0)[1]) / h
        curvature = crit(0.0)[2]
        assert curvature == pytest.approx(forward, rel=1e-4, abs=10.0 * h)
        assert (curvature != 0.0) == (n_obs < 2)

    @pytest.mark.parametrize("kernel", [_cls_terms, _bayes_terms])
    def test_zero_count_is_log_linear_on_one_point(self, kernel):
        # at n_obs = 0 the criterion is exp(-mu s): c' = -s c and c'' = s^2 c
        crit = _criterion_on(0.7, 23.0, 0, kernel, False)
        for mu in (0.0, 1.0, 600.0):
            value, slope, curvature = crit(mu)
            assert slope == pytest.approx(-0.7 * value, rel=1e-15)
            assert curvature == pytest.approx(0.49 * value, rel=1e-15)


class TestUpperLimits:
    def test_identity_collapses_to_exact(self):
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=3)
        req = LimitRequest(alpha=0.05)
        res = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(4096, 21))
        assert res.mu_up == pytest.approx(6.3551974403785029762, rel=1e-8)

    def test_monte_carlo_regression_pin(self):
        m = bg_systematic_model(kappa=1.2)
        req = LimitRequest(alpha=0.05)
        res = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(100_000, 20240803))
        assert res.mu_up == pytest.approx(PIN_HYBRID_MC_1E5, rel=5e-9)
        assert abs(res.mu_up - REF_HYBRID_GH32) <= 3.0 * res.mu_up_stderr

    def test_seeds_differ_within_monte_carlo_error(self):
        m = bg_systematic_model(kappa=1.2)
        req = LimitRequest(alpha=0.05)
        r1 = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(10_000, 1))
        r2 = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(10_000, 2))
        assert r1.mu_up != r2.mu_up
        combined = math.hypot(r1.mu_up_stderr, r2.mu_up_stderr)
        assert abs(r1.mu_up - r2.mu_up) <= 3.0 * combined

    def test_monte_carlo_matches_quadrature_at_large_n(self):
        m = bg_systematic_model(kappa=1.2)
        req = LimitRequest(alpha=0.05)
        mc = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(1_000_000, 5))
        gh = hybrid_cls_upper_limit(m, req, Integrator.gauss_hermite(32))
        assert abs(mc.mu_up - gh.mu_up) <= 3.0 * mc.mu_up_stderr

    def test_bayes_identity_matches_closed_form(self):
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=3)
        exact = plain_model(s=1.0, b=1.5, n_obs=3)
        req = LimitRequest(alpha=0.05, rel_tol=1e-13)
        marginal = bayesian_marginal_upper_limit(m, req, Integrator.monte_carlo(1024, 6))
        closed = bayesian_upper_limit_closed_form(exact, req)
        assert abs(marginal.mu_up - closed.mu_up) / closed.mu_up <= 1e-12

    def test_background_only_shared_samples_agree(self):
        m = bg_systematic_model(kappa=1.2)
        req = LimitRequest(alpha=0.05)
        for integ in (Integrator.monte_carlo(10_000, 17), Integrator.gauss_hermite(16)):
            samples = draw_samples(m.systematics, integ)
            a = hybrid_cls_upper_limit(m, req, integ, samples=samples)
            b = bayesian_marginal_upper_limit(m, req, integ, samples=samples)
            assert abs(a.mu_up - b.mu_up) / a.mu_up <= 1e-8

    def test_stderr_reported_for_monte_carlo_only(self):
        m = bg_systematic_model()
        req = LimitRequest(alpha=0.05)
        mc = hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(2000, 3))
        gh = hybrid_cls_upper_limit(m, req, Integrator.gauss_hermite(8))
        assert mc.mu_up_stderr is not None and mc.mu_up_stderr > 0.0
        assert mc.criterion_stderr is not None and mc.criterion_stderr > 0.0
        assert gh.mu_up_stderr is None

    def test_no_nuisances_is_the_exact_limit(self):
        # the nominal one-point set runs the exact routes' arithmetic
        m = plain_model(s=2.0, b=1.5, n_obs=3)
        req = LimitRequest(alpha=0.05)
        samples = draw_samples(m.systematics, None)
        assert hybrid_cls_upper_limit(m, req, None, samples=samples) == cls_upper_limit(m, req)
        assert bayesian_marginal_upper_limit(m, req, None) == bayesian_upper_limit_closed_form(m, req)

    @pytest.mark.parametrize("limit", [hybrid_cls_upper_limit, bayesian_marginal_upper_limit])
    def test_vanishing_log_slope_at_zero_solves(self, limit):
        # b ~ 5e-138, n_obs = 2: at mu = 0 the log slope c'/c is ~ -1e-275,
        # whose square underflows to 0; the limit is that of b = 0
        req = LimitRequest(alpha=0.05)
        m = bg_systematic_model(s=1.0, b=4.7e-138, n_obs=2, kappa=1.2)
        res = limit(m, req, Integrator.monte_carlo(2, 0))
        assert res.mu_up == pytest.approx(cls_upper_limit(plain_model(s=1.0, b=0.0, n_obs=2), req).mu_up, rel=1e-9)

    def test_underflowed_denominator_is_typed(self):
        m = bg_systematic_model(s=1.0, b=2000.0, n_obs=0, kappa=1.05)
        req = LimitRequest(alpha=0.05)
        integ = Integrator.monte_carlo(100, 1)
        with pytest.raises(ConvergenceError, match=r"CLb = 0.0 at n_obs = 0, b in \["):
            hybrid_cls_upper_limit(m, req, integ)
        with pytest.raises(ConvergenceError, match=r"Q\(n_obs \+ 1, b\) = 0.0"):
            bayesian_marginal_upper_limit(m, req, integ)

    def test_stderr_finite_for_tiny_denominator(self):
        # CLb is ~6e-311 here, and squaring it, as the textbook form of the
        # delta method does, underflows. At n_obs = 0 every sample's CLs is
        # exp(-mu*s), so the Monte Carlo error is zero.
        m = bg_systematic_model(s=1.0, b=800.0, n_obs=0, kappa=1.05)
        res = hybrid_cls_upper_limit(m, LimitRequest(alpha=0.05), Integrator.monte_carlo(100, 1))
        assert res.mu_up == pytest.approx(math.log(20.0), rel=1e-6)
        assert 0.0 <= res.criterion_stderr <= 1e-12
        assert 0.0 <= res.mu_up_stderr <= 1e-9
        # the slope divides by the same denormal CLb, and is still -s * CLs
        crit = _criterion(m, _cls_terms, draw_samples(m.systematics, Integrator.monte_carlo(100, 1)))
        value, slope, _ = crit(res.mu_up)
        assert slope == pytest.approx(-value, rel=1e-9)

    @pytest.mark.parametrize(
        "limit, kernel", [(hybrid_cls_upper_limit, _cls_terms), (bayesian_marginal_upper_limit, _bayes_terms)]
    )
    @pytest.mark.parametrize("model", [bg_systematic_model(kappa=1.2), signal_systematic_model(n_obs=5)])
    def test_stderr_matches_finite_difference_slope(self, limit, kernel, model):
        # the analytic slope replaces a central difference at h = 1e-5 * mu_up
        integ = Integrator.monte_carlo(2000, 3)
        res = limit(model, LimitRequest(alpha=0.05), integ)
        crit = _criterion(model, kernel, draw_samples(model.systematics, integ))
        h = 1e-5 * res.mu_up
        slope = (crit.criterion(res.mu_up + h) - crit.criterion(res.mu_up - h)) / (2.0 * h)
        assert math.isfinite(res.mu_up_stderr)
        assert res.mu_up_stderr == pytest.approx(res.criterion_stderr / abs(slope), rel=1e-5)

    def test_stderr_reuses_the_evaluation_at_the_lower_end(self):
        # the solve ends on its converged lower end after signing the bracket
        # just past it: the stderr takes that end's terms and slope from the
        # last two evaluations, where it once ran the kernel there again
        m = bg_systematic_model(s=1.0, b=1.5, n_obs=1, kappa=1.05)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(200, 0))
        crit = _criterion(m, _cls_terms, samples)
        kernel, calls = crit.kernel, []
        crit.kernel = lambda n, s, x: calls.append(x) or kernel(n, s, x)
        res = marginal._solve(crit, LimitRequest(alpha=0.05), with_stderr=True)
        assert len(calls) == res.iterations - 1  # each evaluation but mu = 0's, and no more
        assert res.mu_up == res.bracket[0] and crit.recent[1][0] == res.bracket[1]
        fresh = _criterion(m, _cls_terms, samples)
        _, slope, _ = fresh(res.mu_up)
        assert res.criterion_stderr == fresh.ratio_stderr(fresh.terms(res.mu_up))
        assert res.mu_up_stderr == res.criterion_stderr / abs(slope)

    def test_ratio_stderr_where_the_numerator_tracks_the_denominator(self):
        # numerator = denominator * (1 + ~1e-9 eps): var(u) + var(v) - 2 cov(u, v)
        # of the scaled terms u, v cancels there. The terms are dyadic, with
        # means of exactly 1/2 and sums that round nowhere, so the reference
        # is the two-pass variance in exact rationals.
        k = 2048
        rng = np.random.default_rng(5)
        m = rng.integers(-(2**10), 2**10, k // 2)
        e = rng.integers(-(2**12), 2**12, k // 2)
        den = 0.5 + np.concatenate([m, -m]) * 2.0**-12
        num = den + np.concatenate([e, -e]) * 2.0**-42
        crit = _Criterion(lambda n, s, x: den, 3, np.ones(k), np.ones(k), np.full(k, 1.0 / k))
        a = sum(map(Fraction, num.tolist())) / k
        b = sum(map(Fraction, den.tolist())) / k
        d = [Fraction(u) / a - Fraction(v) / b for u, v in zip(num.tolist(), den.tolist())]
        mean = sum(d) / k
        var = sum((x - mean) ** 2 for x in d) / (k - 1)
        want = math.sqrt((a / b) ** 2 * var / k)
        assert crit.ratio_stderr(num) == pytest.approx(want, rel=1e-12)

    def test_degenerate_signal_rejected(self):
        m = CountingModel(
            s_nom=0.0,
            backgrounds=(BackgroundProcess("b", 1.5),),
            n_obs=3,
            systematics=SystematicsModel(nuisances=(Nuisance("a", Prior.standard_normal()),)),
        )
        req = LimitRequest(alpha=0.05)
        with pytest.raises(ModelError):
            hybrid_cls_upper_limit(m, req, Integrator.monte_carlo(100, 1))
        with pytest.raises(ModelError):
            bayesian_marginal_upper_limit(m, req, Integrator.monte_carlo(100, 1))

    def test_zero_signal_sample_rejected_for_bayes(self):
        # linear signal response reaching zero at eta = -2 exactly
        m = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("b", 1.5),),
            n_obs=3,
            systematics=SystematicsModel(
                nuisances=(Nuisance("a", Prior.standard_normal()),),
                signal_responses={"a": Response.linear(0.5)},
            ),
        )
        samples = SampleSet(np.array([[0.0], [-2.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ModelError, match="sample 1"):
            marginal_posterior_tail(m, 1.0, samples)


class TestMarginalPosterior:
    def test_identity_matches_exact_density(self):
        # the closed form pmf(n_obs; mu*s + b) * s / Q(n_obs + 1, b), at s = 1
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=3)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(8))
        for mu in (0.0, 1.0, 4.0):
            a = marginal_posterior_density(m, mu, samples)
            exact = math.exp(log_poisson_pmf(3, mu + 1.5)) / gamma_q(4.0, 1.5)
            assert a == pytest.approx(exact, rel=1e-12)

    def test_integrates_to_one(self):
        from scipy.integrate import quad

        m = bg_systematic_model(kappa=1.3)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(16))
        total, _ = quad(
            lambda mu: marginal_posterior_density(m, mu, samples), 0.0, 80.0, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_tail_is_one_at_zero(self):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(8))
        assert marginal_posterior_tail(m, 0.0, samples) == 1.0


class TestScanQuantity:
    def test_cls_column_matches_pointwise(self):
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(2000, 9))
        mus = np.linspace(0.0, 8.0, 9)
        values, stderrs = scan_quantity(m, "cls", mus, samples, with_stderr=True)
        assert values[0] == 1.0
        assert stderrs is not None and stderrs.shape == mus.shape
        for i, mu in enumerate(mus):
            assert values[i] == pytest.approx(hybrid_cls(m, float(mu), samples), rel=1e-14)

    def test_stderr_where_every_term_underflows(self):
        # CLs+b = exp(-1000) on every sample: the value and its error are 0
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=0)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(2, 0))
        values, stderrs = scan_quantity(m, "cls", np.array([0.0, 1e3]), samples, with_stderr=True)
        assert values[1] == 0.0
        assert stderrs[1] == 0.0

    def test_zero_strength_runs_no_kernel_where_the_signal_overflows(self):
        # s = inf on the second sample: 0 * s + b would be a NaN lane, once
        # counted as CLs+b = 1 there. The yields now refuse such a sample
        # (tests/test_model.py), so the engine is built on it directly.
        crit = _Criterion(_cls_terms, 3, np.array([1.0, math.inf]), np.array([1.5, 1.5]), np.array([0.5, 0.5]))
        assert crit.mean(crit.terms(0.0)) == crit.den < 1.0

    def test_no_stderr_for_quadrature(self):
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(8))
        values, stderrs = scan_quantity(m, "clsb", np.array([0.0, 1.0]), samples, with_stderr=False)
        assert stderrs is None
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_grid_must_be_finite_and_nonnegative(self, bad):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scan_quantity(m, "cls", np.array([0.0, bad]), samples, with_stderr=False)

    def test_unknown_quantity(self):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        with pytest.raises(ValueError):
            scan_quantity(m, "pvalue", np.array([0.0]), samples, with_stderr=False)
