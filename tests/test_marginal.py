import json
import math
import statistics
import sys
import types
import warnings
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
    YieldError,
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
from countlim import marginal, special
from countlim.marginal import (
    _BAYES,
    _CLS,
    _GH_CACHED_VALUES,
    _GH_MAX_POINTS,
    _MC_MAX_VALUES,
    _Criterion,
    _criterion,
    scan_quantity,
)
from helpers import bg_systematic_model, identity_systematic_model, plain_model, pmf_bound, signal_systematic_model

# Regression pin: hybrid CLs limit for s=1, b=1.5 with a 20% log-normal
# background systematic (standard normal prior), n_obs=3, alpha=0.05,
# Monte Carlo n=1e5 seed=20240803. First verified against the 32-node
# quadrature limit (pull -1.2 sigma), then frozen.
PIN_HYBRID_MC_1E5 = 6.365512683226769
REF_HYBRID_GH32 = 6.366309056359327


def _correlated_model():
    """Two correlated normal nuisances on one log-normal background."""
    return CountingModel(
        s_nom=1.0,
        backgrounds=(BackgroundProcess("bkg", 1.5, {"a": Response.log_normal(1.2), "b": Response.log_normal(1.1)}),),
        n_obs=3,
        systematics=SystematicsModel(
            nuisances=(Nuisance("a", Prior.standard_normal()), Nuisance("b", Prior.normal(0.5, 2.0))),
            correlation=np.array([[1.0, 0.4], [0.4, 1.0]]),
        ),
    )


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

    @pytest.mark.parametrize(
        ("kind", "name", "value"),
        [
            ("monte_carlo", "n_samples", 100.5),  # once a bare TypeError
            ("monte_carlo", "seed", 1.5),  # once ran seed 1, while to_dict said 1.5
            ("gauss_hermite", "nodes_per_dim", 8.0),  # once numpy's own TypeError
            ("monte_carlo", "n_samples", True),  # once a bare TypeError
        ],
    )
    def test_count_fields_are_integers(self, kind, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            Integrator(kind, **{name: value})

    def test_factories_do_not_truncate(self):
        # Integrator.monte_carlo(100.5, 1) once ran 100 samples
        with pytest.raises(ConfigError, match="n_samples must be an integer, got 100.5"):
            Integrator.monte_carlo(100.5, 1)
        with pytest.raises(ConfigError, match="nodes_per_dim must be an integer, got 8.5"):
            Integrator.gauss_hermite(8.5)

    def test_numpy_integers_become_int(self):
        integ = Integrator.monte_carlo(np.int64(100), np.uint64(2**64 - 1))
        assert integ == Integrator.monte_carlo(100, 2**64 - 1)
        assert [type(v) for v in integ.to_dict().values()] == [str, int, int]
        assert type(Integrator.gauss_hermite(np.int32(8)).nodes_per_dim) is int
        json.dumps(integ.to_dict())

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

    @pytest.mark.parametrize(("etas", "weights"), [((0, 1), (0,)), ((0, 0), (0,))])
    def test_an_empty_set_is_refused_where_it_is_made(self, etas, weights):
        # once accepted, and every limit or scan on it then failed inside the
        # criterion on numpy's "zero-size array to reduction operation minimum"
        with pytest.raises(ConfigError, match=r"^SampleSet\.etas must be a nonempty \(K, J\) matrix of finite numbers, got "):
            SampleSet(np.zeros(etas), np.ones(weights))

    # (etas, weights, a piece of the refusal) of hand-built sets that once
    # passed: on s = 1, b = 1.5 with a kappa = 1.5 log-normal background,
    # n_obs = 3 and etas (0, 1), weights (2, 2) read a CLb of 3.49 and four
    # times the marginal likelihood, (-1, 2) a CLs limit of 4.71, (nan, 1)
    # a NaN likelihood, and a NaN eta a background yield of "0 x inf"
    SUMS = r"weights must sum to 1 within 1e-12, got "
    REFUSED_SETS = {
        "weights summing to 4": ([[0.0], [1.0]], [2.0, 2.0], SUMS + "4.0"),
        "a negative weight": ([[0.0], [1.0]], [-1.0, 2.0], "weights must be nonnegative, got -1.0"),
        "a NaN weight": ([[0.0], [1.0]], [math.nan, 1.0], "weights must be nonnegative, got nan"),
        "an infinite weight": ([[0.0], [1.0]], [math.inf, 0.0], SUMS + "inf"),
        "no weight at all": ([[0.0], [1.0]], [0.0, 0.0], SUMS + "0.0"),
        "weights 2e-12 over 1": ([[0.0], [1.0]], [0.5, 0.5 + 2e-12], SUMS + r"1\.000000000002"),
        "a NaN eta": ([[math.nan], [1.0]], [0.5, 0.5], r"etas must be a nonempty \(K, J\) matrix of finite numbers"),
        "an infinite eta": ([[0.0, 1.0], [-math.inf, 1.0]], [0.5, 0.5], r"etas must be .* of finite numbers"),
    }

    @pytest.mark.parametrize("case", REFUSED_SETS)
    def test_a_set_breaking_its_rules_is_refused(self, case):
        etas, weights, text = self.REFUSED_SETS[case]
        with pytest.raises(ConfigError, match=f"^SampleSet\\.{text}"):
            SampleSet(np.array(etas), np.array(weights))

    def test_weights_within_the_tolerance_are_accepted(self):
        for weights in ([0.5, 0.5 + 5e-13], [0.5, 0.5 - 5e-13], [1.0, 0.0], np.full(10, 0.1)):
            samples = SampleSet(np.zeros((len(weights), 1)), np.array(weights))
            assert samples.weights.tolist() == list(weights)

    def test_a_prior_that_overflows_a_drawn_nuisance_is_refused_by_name(self):
        # normal(0, 1e308) gives etas of -inf and +inf, once refused only
        # by the yields, as a response's factor; the set refuses them, and
        # the draw names the nuisance, typed like a yield, with no numpy
        # warning (the suite makes one an error)
        m = bg_systematic_model(prior=Prior.normal(0.0, 1e308))
        with pytest.raises(YieldError, match=r"nuisance 'bscale' overflowed to -?inf at sample \d+$") as err:
            draw_samples(m.systematics, Integrator.monte_carlo(100, 0))
        assert not math.isfinite(err.value.eta[0])
        assert err.value.sample_index >= 0

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

    def test_monte_carlo_budget_of_an_int_too_long_to_print(self):
        # formatting the count once raised Python's bare ValueError past 4,300 digits
        m = identity_systematic_model(n_nuisances=2)
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ConfigError, match=f"= an int of more than {digits} digits values exceeds the budget"):
            draw_samples(m.systematics, Integrator.monte_carlo(10**5000, 0))

    def test_hermgauss_runs_once_per_kept_grid(self, monkeypatch):
        solved = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counted(deg):
            solved.append(deg)
            return hermgauss(deg)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        marginal._kept_hermite_grid.cache_clear()
        # each kept (nodes, J) grid solves its rule once, a repeated draw nothing;
        # 32^3 points are above the cache's cap, and solve theirs on each draw
        for nodes, n_nuisances in ((16, 1), (16, 2), (32, 1), (32, 3)):
            model = identity_systematic_model(n_nuisances=n_nuisances)
            first, second = (draw_samples(model.systematics, Integrator.gauss_hermite(nodes)) for _ in range(2))
            assert np.array_equal(first.etas, second.etas)
            assert np.array_equal(first.weights, second.weights)
        assert solved == [16, 16, 32, 32, 32]

    @pytest.mark.parametrize(
        ("nodes", "model"),
        [
            (16, bg_systematic_model()),
            (16, identity_systematic_model(n_nuisances=2)),
            (32, signal_systematic_model()),
            (16, _correlated_model()),
            *((16, identity_systematic_model(n_nuisances=j)) for j in (1, 3)),
            *((32, identity_systematic_model(n_nuisances=j)) for j in (1, 2, 3)),
        ],
    )
    def test_cached_rule_gives_the_uncached_sample_set(self, nodes, model):
        # the set as built from a freshly solved rule and meshgrid on every
        # call, bit for bit; 32^3 points are above the cache's cap
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

    @pytest.mark.parametrize(
        ("nodes", "model"),
        [(16, identity_systematic_model(n_nuisances=2)), (16, _correlated_model()),
         (32, identity_systematic_model(n_nuisances=3))],  # above the cache's cap
    )
    def test_writing_into_a_set_changes_no_later_draw(self, nodes, model):
        integrator = Integrator.gauss_hermite(nodes)
        first = draw_samples(model.systematics, integrator)
        etas, weights = first.etas.copy(), first.weights.copy()
        first.etas[...] = -1.0
        first.weights[...] = 7.0
        second = draw_samples(model.systematics, integrator)
        assert np.array_equal(second.etas, etas)
        assert np.array_equal(second.weights, weights)
        assert not np.shares_memory(first.etas, second.etas) and not np.shares_memory(first.weights, second.weights)

    def test_grid_above_the_cap_is_built_and_not_kept(self):
        # 32^3 points and their weights are 4 x 32768 values > 2^16
        assert 32**3 * 4 > _GH_CACHED_VALUES >= 16**3 * 4
        model = identity_systematic_model(n_nuisances=3)
        marginal._kept_hermite_grid.cache_clear()
        big = draw_samples(model.systematics, Integrator.gauss_hermite(32))
        assert marginal._kept_hermite_grid.cache_info().currsize == 0
        assert big.etas.shape == (32**3, 3) and math.fsum(big.weights) == pytest.approx(1.0, rel=1e-15)
        # integrates second moments exactly, as the grid must
        assert float(np.sum(big.weights * big.etas[:, 2] ** 2)) == pytest.approx(1.0, rel=1e-13)
        draw_samples(model.systematics, Integrator.gauss_hermite(16))
        assert marginal._kept_hermite_grid.cache_info().currsize == 1

    def test_cached_grids_are_read_only_and_bounded(self):
        z, weights = marginal._kept_hermite_grid(16, 2)
        for grid in (z, weights):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.0
        # every grid the cache may keep, over the node counts Integrator
        # accepts and every J, pins under the documented 8.4 MiB in all
        kept = [
            nodes**j * (j + 1)
            for nodes in range(2, 65)
            for j in range(1, 21)
            if nodes**j * (j + 1) <= _GH_CACHED_VALUES
        ]
        assert 8 * sum(kept) <= 8.43 * 2**20
        assert max(kept) * 8 <= 512 * 2**10

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

    @pytest.mark.parametrize("mu", ["3", True, None, [1.0]])
    @pytest.mark.parametrize("quantity", [hybrid_cls, marginal_posterior_density])
    def test_a_strength_that_is_no_real_number_is_refused(self, quantity, mu):
        # float("3") once made hybrid_cls(model, "3", samples) return CLs at mu = 3
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        with pytest.raises(ConfigError, match=rf"^{quantity.__name__}\.mu must be a finite and nonnegative real number, got "):
            quantity(m, mu, samples)


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


def _criterion_on(s, b, n_obs, method, monte_carlo):
    if monte_carlo:
        model = signal_systematic_model(s=s, b=b, n_obs=n_obs)
        samples = draw_samples(model.systematics, Integrator.monte_carlo(500, 7))
    else:
        model = plain_model(s=s, b=b, n_obs=n_obs)
        samples = draw_samples(model.systematics, None)
    return _criterion(model, method, samples)


class TestCriterionSlope:
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize("s, b, n_obs", [(1.0, 1.5, 3), (2.0, 0.0, 5), (0.5, 3.0, 0), (1.0, 0.0, 0), (10.0, 150.0, 160)])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_matches_central_difference(self, method, s, b, n_obs, monte_carlo):
        crit = _criterion_on(s, b, n_obs, method, monte_carlo)
        for mu in (0.3, 1.0, 4.0):
            h = 1e-5 * mu
            central = (crit.criterion(mu + h) - crit.criterion(mu - h)) / (2.0 * h)
            value, slope, _, _ = crit(mu)
            assert value == crit.criterion(mu)
            assert slope == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_zero_strength_runs_no_kernel(self, method):
        model = signal_systematic_model(s=1.0, b=1.5, n_obs=3)
        crit = _criterion(model, method, draw_samples(model.systematics, Integrator.monte_carlo(500, 7)))
        h = 1e-6
        forward = (crit.criterion(h) - 1.0) / h
        crit.kernel = None  # any kernel call now fails
        value, slope, _, _ = crit(0.0)
        assert value == 1.0
        assert slope == pytest.approx(forward, rel=1e-4)

    def test_zero_slope_at_zero_without_background(self):
        crit = _criterion(plain_model(s=1.0, b=0.0, n_obs=50), _CLS, draw_samples(plain_model().systematics, None))
        assert crit(0.0)[:3] == (1.0, 0.0, 0.0)


class TestCriterionCurvature:
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize("s, b, n_obs", [(1.0, 1.5, 3), (2.0, 0.0, 5), (0.5, 3.0, 0), (1.0, 0.0, 1), (10.0, 150.0, 160)])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_matches_central_difference_of_the_slope(self, method, s, b, n_obs, monte_carlo):
        crit = _criterion_on(s, b, n_obs, method, monte_carlo)
        for mu in (0.3, 1.0, 4.0):
            h = 1e-5 * mu
            central = (crit(mu + h)[1] - crit(mu - h)[1]) / (2.0 * h)
            # abs: the difference's rounding, where the curvature crosses 0
            assert crit(mu)[2] == pytest.approx(central, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize("n_obs", [0, 1, 2])
    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_zero_strength_without_background(self, method, n_obs, monte_carlo):
        # x = 0 at mu = 0: pmf (n/x - 1) takes its limit pmf(n - 1; 0) - pmf(n; 0),
        # with no RuntimeWarning (the suite turns them into errors); the
        # forward difference is off by O(h), which abs allows where c'' = 0
        crit = _criterion_on(1.5, 0.0, n_obs, method, monte_carlo)
        h = 1e-6
        forward = (crit(h)[1] - crit(0.0)[1]) / h
        curvature = crit(0.0)[2]
        assert curvature == pytest.approx(forward, rel=1e-4, abs=10.0 * h)
        assert (curvature != 0.0) == (n_obs < 2)

    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_zero_count_is_log_linear_on_one_point(self, method):
        # at n_obs = 0 the criterion is exp(-mu s): c' = -s c and c'' = s^2 c
        crit = _criterion_on(0.7, 23.0, 0, method, False)
        for mu in (0.0, 1.0, 600.0):
            value, slope, curvature, _ = crit(mu)
            assert slope == pytest.approx(-0.7 * value, rel=1e-15)
            assert curvature == pytest.approx(0.49 * value, rel=1e-15)

    def test_zero_count_at_a_huge_signal_yield(self):
        # s^2 overflows above s ~ 1.3e154, once with numpy's RuntimeWarning
        # (the suite turns them into errors): the curvature is inf, so the
        # solve takes no Halley factor, and both limits are ln 20 / s
        rep = compare_limits(bg_systematic_model(s=1e300, b=2.0, n_obs=0), LimitRequest(alpha=0.05), Integrator.gauss_hermite(6))
        assert rep.mu_up_cls == rep.mu_up_bayes == 2.9957322735539905e-300
        for method in (_CLS, _BAYES):
            assert _criterion_on(1e300, 2.0, 0, method, True)(1e-300)[2] == math.inf

    @pytest.mark.parametrize(
        "model, integrator, limits",
        [
            (bg_systematic_model(s=1e200, b=2.0, n_obs=3), Integrator.monte_carlo(100, 1), ["0x1.256cff7e69bfep-662"] * 2),
            # kappa^eta spreads s over the nodes: pmf' takes both signs, once inf - inf in the mean
            (
                signal_systematic_model(s=1e200, b=2.0, n_obs=3),
                Integrator.gauss_hermite(48),
                ["0x1.326684ca314c8p-662", "0x1.3cc1b9cbcde47p-662"],
            ),
        ],
    )
    def test_cls_at_a_huge_signal_yield(self, model, integrator, limits):
        # for CLs at n >= 1 the curvature holds s^2 too (for Bayes, s): the
        # limits are pinned to the bit, and the solves raise no warning
        rep = compare_limits(model, LimitRequest(alpha=0.05), integrator)
        assert [rep.mu_up_cls.hex(), rep.mu_up_bayes.hex()] == limits


# (model, integrator): a wide Monte Carlo set straddling n_obs = 160 or above
# n_obs = 100, a narrow Gauss-Hermite grid, and the nominal point
_HAND_OFF_SETS = {
    "wide, both tails": (bg_systematic_model(s=10.0, b=150.0, n_obs=160, kappa=1.05), Integrator.monte_carlo(2000, 1)),
    "wide, lower tail": (bg_systematic_model(s=10.0, b=150.0, n_obs=100, kappa=1.05), Integrator.monte_carlo(2000, 1)),
    "narrow": (bg_systematic_model(s=1.0, b=1.5, n_obs=3), Integrator.gauss_hermite(16)),
    "one point": (plain_model(s=10.0, b=150.0, n_obs=160), None),
}


def _hand_off_criterion(method, case):
    model, integrator = _HAND_OFF_SETS[case]
    return _criterion(model, method, draw_samples(model.systematics, integrator) if integrator else None)


def _derivatives_from(crit, pmf, x):
    """The criterion's slope and curvature at x from a given pmf(n; x), in
    the order ``__call__`` forms them, for n >= 1 and x > 0."""
    dpmf = crit.n * (pmf / x) - pmf
    return crit.mean(crit.d1_scale * pmf) / crit.den, crit.mean(crit.d2_scale * dpmf) / crit.den


class TestPmfFromTheKernel:
    @pytest.mark.parametrize("case", sorted(_HAND_OFF_SETS))
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_slope_and_curvature_from_the_kernel_pmf(self, method, case):
        # every kernel call hands back pmf(n; x) built from its route's
        # prefactor, and the criterion takes it, at mu = 0 the denominator's:
        # on poisson_cdf's lower tail, where the prefactor is that pmf, the
        # bits of exp(log_poisson_pmf) (pmf_terms; on a narrow set, the scalar
        # walk's math against numpy's, within an ulp), and elsewhere within
        # the hand-off's few ulp (tests/test_special.py). So against the slope
        # and curvature formed from pmf_terms, where every lane takes the lower
        # tail the criterion's keep their bits, and elsewhere they agree closely
        crit = _hand_off_criterion(method, case)
        n = crit.n
        for mu in (0.0, 0.5, 2.0, 5.0, 20.0):
            x = crit.x_at(mu)
            terms, pmf = crit.kernel(n, crit.s, x)
            want = crit.pmf_terms(mu)
            got = crit(mu)
            assert np.array_equal(terms, crit.terms(mu)) and np.array_equal(got[3], terms)
            assert got[0] == crit.criterion(mu)
            # numpy's log and exp on a wide set, the math module's on the nominal point
            same_form = case != "narrow" and method is _CLS
            lower = np.asarray(x >= n) if same_form else np.zeros(np.shape(x), bool)
            assert np.asarray(pmf)[lower].tolist() == np.asarray(want)[lower].tolist()
            bound = pmf_bound(n, x)
            assert np.all(np.abs(pmf / want - 1.0) <= bound)
            bound = float(np.max(bound))
            full = _derivatives_from(crit, want, x)
            if lower.all():  # the same pmf, and the same n (pmf / x) - pmf from it
                assert got[1:3] == full
                continue
            assert got[1] == pytest.approx(full[0], rel=bound, abs=0.0)
            # the curvature's pmf (n/x - 1) may cancel over the lanes: each
            # term moves by its pmf's error and the rounding of n pmf/x
            spread = crit.mean(np.abs(crit.d2_scale) * want * (n / x + 1.0)) / crit.den
            assert abs(got[2] - full[1]) <= bound * spread

    def test_every_call_returns_its_pmf(self):
        # either method, on a float, a narrow array and wide ones on one route,
        # gathered over both tails, or n-d: the terms are the public kernel's,
        # bit for bit, and the pmf takes their shape, near exp(log_poisson_pmf)
        wide = np.linspace(170.0, 250.0, 2000)
        both = np.append(wide, [150.0, 20.0, 1700.0, 90.0])
        kernels = {"cls": (_CLS, lambda x: poisson_cdf(160, x)), "bayes": (_BAYES, lambda x: gamma_q(161.0, x) / 10.0)}
        for x in (170.0, wide[: special._NARROW_LANES], wide, both, both.reshape(3, -1)):
            for method, kernel in kernels.values():
                terms, pmf = method.wide(160, 10.0, x) if isinstance(x, np.ndarray) else method.one_point(160, 10.0, x)
                assert np.shape(terms) == np.shape(pmf) == np.shape(x)
                assert np.array_equal(terms, kernel(x))
                got, lanes = np.asarray(pmf), np.asarray(x)
                want = np.exp(log_poisson_pmf(160, lanes))
                kept = want > 0.0  # at x = 1700 both underflow
                assert np.all(np.abs(got[kept] / want[kept] - 1.0) <= pmf_bound(160, lanes[kept]))
                assert not np.any(got[~kept])

    @pytest.mark.parametrize("case", sorted(_HAND_OFF_SETS))
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_one_kernel_call_and_no_pmf_of_its_own_per_evaluation(self, monkeypatch, method, case):
        # an evaluation makes exactly one kernel call, none at mu = 0, and
        # forms no pmf of its own: log_poisson_pmf, the one pmf marginal
        # takes from special but the kernels', serves the posterior density alone
        crit = _hand_off_criterion(method, case)
        assert crit.x_positive
        calls = {"kernel": 0, "log_poisson_pmf": 0}

        def counted(name, body):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or body(*args)

        crit.kernel = counted("kernel", crit.kernel)
        monkeypatch.setattr(marginal, "log_poisson_pmf", counted("log_poisson_pmf", marginal.log_poisson_pmf))
        for evaluations, mu in enumerate((0.0, 0.5, 2.0, 5.0, 20.0)):
            crit(mu)
            assert calls == {"kernel": evaluations, "log_poisson_pmf": 0}

    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_a_lane_at_zero_takes_one_kernel_call(self, monkeypatch, method):
        # a background that reaches 0 on a lane: there the criterion takes
        # the derivative's limit from the kernel's pmf, with the one kernel
        # call of any evaluation, none at mu = 0, and no pmf of its own
        m = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("b", 1.5, {"a": Response.linear(0.5)}),),
            n_obs=2,
            systematics=SystematicsModel(nuisances=(Nuisance("a", Prior.standard_normal()),)),
        )
        crit = _criterion(m, method, SampleSet(np.linspace(-2.0, 2.0, 64)[:, None], np.full(64, 1.0 / 64)))
        assert not crit.x_positive
        kernel, calls = crit.kernel, []
        crit.kernel = lambda *args: calls.append("kernel") or kernel(*args)
        monkeypatch.setattr(marginal, "log_poisson_pmf", lambda *args: calls.append("pmf"))
        crit(0.0)
        crit(1.5)
        assert calls == ["kernel"]


class TestPmfWithoutMasks:
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize(
        ("model", "integrator"),
        [
            (bg_systematic_model(s=10.0, b=150.0, n_obs=160, kappa=1.05), Integrator.monte_carlo(2000, 1)),
            (bg_systematic_model(n_obs=3), Integrator.gauss_hermite(16)),
            (signal_systematic_model(n_obs=1), Integrator.gauss_hermite(32)),
        ],
    )
    def test_positive_lanes_give_the_masked_formula(self, method, model, integrator):
        # every b > 0, so no lane of x = mu*s + b is 0 and no mask is made:
        # the slope and curvature are the masked formula's on the kernel's
        # pmf, and pmf_terms is exp(n ln x - x - ln n!) on every lane
        crit = _criterion(model, method, draw_samples(model.systematics, integrator))
        assert crit.x_positive
        n = model.n_obs
        for mu in (0.0, 0.5, 3.0, 40.0):
            x = crit.x_at(mu)
            pmf = crit.kernel(n, crit.s, x)[1]
            zero = x == 0.0
            safe = np.where(zero, 1.0, x)
            dpmf = n * (pmf / safe) - pmf
            dpmf[zero] = float(n == 1)
            want = crit.mean(crit.d1_scale * pmf) / crit.den, crit.mean(crit.d2_scale * dpmf) / crit.den
            assert crit(mu)[1:3] == want
            assert crit.pmf_terms(mu).tolist() == np.exp(n * np.log(safe) - x - math.lgamma(n + 1.0)).tolist()

    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize("n_obs", [0, 1, 2, 5])
    def test_zero_background_lane_takes_the_limit(self, method, n_obs):
        # a linear background response reaches 0 at eta = -2, the first
        # lane: there x = 0 at mu = 0, and the pmf and the slope and
        # curvature take their limits, with no RuntimeWarning (the suite
        # turns them into errors)
        m = CountingModel(
            s_nom=1.0,
            backgrounds=(BackgroundProcess("b", 1.5, {"a": Response.linear(0.5)}),),
            n_obs=n_obs,
            systematics=SystematicsModel(nuisances=(Nuisance("a", Prior.standard_normal()),)),
        )
        samples = SampleSet(np.linspace(-2.0, 2.0, 64)[:, None], np.full(64, 1.0 / 64))
        crit = _criterion(m, method, samples)
        assert crit.b[0] == 0.0 and not crit.x_positive
        pmf = crit.pmf_terms(0.0)
        assert pmf[0] == crit.den_pmf[0] == float(n_obs == 0)
        rest = crit.b[1:]
        assert pmf[1:].tolist() == np.exp(n_obs * np.log(rest) - rest - math.lgamma(n_obs + 1.0)).tolist()
        value, slope, curvature, _ = crit(0.0)
        assert value == 1.0 and math.isfinite(slope) and math.isfinite(curvature)
        # at b = 0 the nominal point, on floats, takes the limits: pmf(n; 0) =
        # [n = 0] and d pmf/dx = [n = 1] - [n = 0], with CLb = Q(n + 1, 0) = 1
        limit = _criterion(plain_model(s=1.0, b=0.0, n_obs=n_obs), method)
        assert limit(0.0)[:3] == (1.0, -float(n_obs == 0), float(n_obs == 0) - float(n_obs == 1))
        # the set's slope and curvature are the weighted means of its lanes',
        # each the one-point criterion's on that lane's b, the zero lane's limit included
        for mu in (0.0, 1.5):
            lanes = np.array([self._lane_derivatives(method, n_obs, float(b), mu) for b in crit.b])
            got = crit(mu)
            for k in (1, 2):
                want = crit.mean(lanes[:, k - 1]) / crit.den
                assert got[k] == pytest.approx(want, rel=1e-13, abs=1e-13 * crit.mean(np.abs(lanes[:, k - 1])))

    @staticmethod
    def _lane_derivatives(method, n_obs, b, mu):
        # the slope and curvature terms of one lane: its criterion's, times its denominator
        one = _criterion(plain_model(s=1.0, b=b, n_obs=n_obs), method)
        _, slope, curvature, _ = one(mu)
        return slope * one.den, curvature * one.den


class TestNominalPointSet:
    # draw_samples(SystematicsModel(), None), one empty point of weight 1,
    # stands for the nominal yields of a model without nuisances only
    CALLS = {
        "hybrid_cls": lambda m, samples: hybrid_cls(m, 2.0, samples),
        "marginal_posterior_tail": lambda m, samples: marginal_posterior_tail(m, 2.0, samples),
        "hybrid_cls_upper_limit": lambda m, samples: hybrid_cls_upper_limit(m, LimitRequest(0.05), None, samples),
        "bayesian_marginal_upper_limit": lambda m, samples: bayesian_marginal_upper_limit(
            m, LimitRequest(0.05), None, samples
        ),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("points", [1, 2])
    def test_model_with_nuisances_refuses_a_set_without_them(self, call, points):
        one_point = draw_samples(SystematicsModel(), None)
        samples = one_point if points == 1 else SampleSet(np.zeros((2, 0)), np.full(2, 0.5))
        with pytest.raises(ConfigError, match=rf"^yields_on_samples\.etas must have shape \(K, 1\), got \({points}, 0\)$"):
            self.CALLS[call](bg_systematic_model(kappa=1.5), samples)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_model_without_nuisances_takes_its_floats(self, call):
        m = plain_model()
        assert self.CALLS[call](m, draw_samples(m.systematics, None)) == self.CALLS[call](m, None)


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

    def test_the_error_follows_the_set(self):
        # the Monte Carlo error is read from the set a limit solves on; the
        # integrator passed beside a set draws nothing and decides nothing
        m = bg_systematic_model()
        req = LimitRequest(alpha=0.05)
        gh = draw_samples(m.systematics, Integrator.gauss_hermite(16))
        for limit in (hybrid_cls_upper_limit, bayesian_marginal_upper_limit):
            assert limit(m, req, Integrator.monte_carlo(100, 1), samples=gh).mu_up_stderr is None
        own = Integrator.monte_carlo(2000, 1)
        mc = draw_samples(m.systematics, own)
        for limit in (hybrid_cls_upper_limit, bayesian_marginal_upper_limit):
            want = limit(m, req, own, samples=mc)
            assert want.mu_up_stderr > 0.0 and want.criterion_stderr > 0.0
            for integrator in (Integrator.gauss_hermite(16), None):
                res = limit(m, req, integrator, samples=mc)
                assert (res.mu_up_stderr, res.criterion_stderr) == (want.mu_up_stderr, want.criterion_stderr)
        assert hybrid_cls_upper_limit(m, req, None, samples=mc).mu_up_stderr == 0.004772952055874471

    @pytest.mark.parametrize(
        ("model", "limit", "n_samples"),
        [
            (bg_systematic_model(s=10.0, b=150.0, n_obs=150, kappa=1.05), hybrid_cls_upper_limit, 2000),
            (bg_systematic_model(n_obs=3, kappa=1.2), hybrid_cls_upper_limit, 2000),
            (signal_systematic_model(n_obs=3, kappa=1.2), hybrid_cls_upper_limit, 2000),
            (signal_systematic_model(n_obs=3, kappa=1.2), bayesian_marginal_upper_limit, 2000),
            (bg_systematic_model(b=3.0, n_obs=10, kappa=2.0), hybrid_cls_upper_limit, 200),
        ],
        ids=["large count", "background kappa", "signal kappa cls", "signal kappa bayes", "wide background"],
    )
    def test_monte_carlo_error_is_calibrated(self, model, limit, n_samples):
        # over 200 seeds the spread of the limits is what their stated
        # errors say: the ratios read 0.956, 0.888, 0.899, 0.927 and 0.981
        req = LimitRequest(alpha=0.05)
        results = [limit(model, req, Integrator.monte_carlo(n_samples, seed)) for seed in range(200)]
        ratio = statistics.stdev(r.mu_up for r in results) / statistics.median(r.mu_up_stderr for r in results)
        assert 0.8 <= ratio <= 1.25

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
        crit = _criterion(m, _CLS, draw_samples(m.systematics, Integrator.monte_carlo(100, 1)))
        value, slope, _, _ = crit(res.mu_up)
        assert slope == pytest.approx(-value, rel=1e-9)

    @pytest.mark.parametrize(
        "limit, method", [(hybrid_cls_upper_limit, _CLS), (bayesian_marginal_upper_limit, _BAYES)]
    )
    @pytest.mark.parametrize("model", [bg_systematic_model(kappa=1.2), signal_systematic_model(n_obs=5)])
    def test_stderr_matches_finite_difference_slope(self, limit, method, model):
        # the analytic slope replaces a central difference at h = 1e-5 * mu_up
        integ = Integrator.monte_carlo(2000, 3)
        res = limit(model, LimitRequest(alpha=0.05), integ)
        crit = _criterion(model, method, draw_samples(model.systematics, integ))
        h = 1e-5 * res.mu_up
        slope = (crit.criterion(res.mu_up + h) - crit.criterion(res.mu_up - h)) / (2.0 * h)
        assert math.isfinite(res.mu_up_stderr)
        assert res.mu_up_stderr == pytest.approx(res.criterion_stderr / abs(slope), rel=1e-5)

    @pytest.mark.parametrize(("b", "n_obs", "seed", "end"), [(5.0, 1, 1, 0), (1.5, 5, 0, 1)],
                             ids=["lower_end", "upper_end"])
    @pytest.mark.parametrize(
        ("limit", "method"),
        [
            (hybrid_cls_upper_limit, _CLS),
            (bayesian_marginal_upper_limit, _BAYES),
            (lambda *args: marginal._paired_limits(*args, bayes_error=True)[1], _BAYES),
        ],
        ids=["cls", "bayes", "paired_bayes"],
    )
    def test_stderr_comes_from_the_evaluation_the_solve_ended_on(self, limit, method, b, n_obs, seed, end,
                                                                 monkeypatch):
        # at n_obs = 1, b = 5 on this set the last Halley step lands just
        # short of the root, so the solve ends on its converged lower end
        # after a probe signs the bracket just past it; at n_obs = 5, b = 1.5
        # it ends on its last point, the upper end. The paired Bayesian solve
        # starts at the CLs root and ends as the CLs one did. Either way the
        # stderr takes the terms and slope of the returned end's own
        # evaluation, with no kernel call after it
        m = bg_systematic_model(s=1.0, b=b, n_obs=n_obs, kappa=1.05)
        integ = Integrator.monte_carlo(200, seed)
        solve, solves = marginal._solve, []

        def spied(crit, *args, **kwargs):
            kernel, calls = crit.kernel, []
            crit.kernel = lambda n, s, x: calls.append(x) or kernel(n, s, x)
            solves.append((solve(crit, *args, **kwargs), calls))
            return solves[-1][0]

        monkeypatch.setattr(marginal, "_solve", spied)
        res = limit(m, LimitRequest(alpha=0.05), integ)
        for solved, calls in solves:
            assert len(calls) == solved.iterations - 1  # each evaluation but mu = 0's, and no more
        assert solves[-1][0] is res and res.mu_up == res.bracket[end]
        fresh = _criterion(m, method, draw_samples(m.systematics, integ))
        _, slope, _, _ = fresh(res.mu_up)
        assert res.criterion_stderr == fresh.ratio_stderr(fresh.terms(res.mu_up))
        assert res.mu_up_stderr == res.criterion_stderr / abs(slope)

    @pytest.mark.parametrize(
        ("model", "integrator", "rel"),
        [
            (bg_systematic_model(s=10.0, b=150.0, n_obs=160, kappa=1.05), Integrator.monte_carlo(2000, 1), 1e-3),
            (signal_systematic_model(kappa=1.2), Integrator.gauss_hermite(32), 0.11),
        ],
    )
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_sample_set_solve_starts_at_the_quantile(self, model, integrator, rel, method):
        # the guess is the second point evaluated, the first the kernel
        # runs at: c(0) = 1 is recorded, not computed. On the large-count
        # set it is the quantile of X - B, within 1e-3 of the root; on the
        # uncertain-signal one, at the mean signal yield, within 11%
        crit = _criterion(model, method, draw_samples(model.systematics, integrator))
        start = marginal._start(crit, 0.05)
        mus = []
        solve = marginal.solve_decreasing

        def recorded(criterion, *args):
            return solve(lambda mu: mus.append(mu) or criterion(mu), *args)

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(marginal, "solve_decreasing", recorded)
            res = marginal._solve(crit, LimitRequest(alpha=0.05))
        assert mus[0] == start > 0.0 and 0.0 not in mus and res.iterations == len(mus) + 1
        assert start == pytest.approx(res.mu_up, rel=rel)

    def test_no_start_on_a_vanishing_mean_signal(self):
        # every sample's signal yield is 0: the guess would divide by it
        crit = _Criterion(_CLS, 3, np.zeros(4), np.full(4, 1.5), np.full(4, 0.25))
        assert marginal._start(crit, 0.05) == 0.0

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
        method = types.SimpleNamespace(wide=lambda n, s, x: (den, None))
        crit = _Criterion(method, 3, np.ones(k), np.ones(k), np.full(k, 1.0 / k))
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


def mean_yield_start(crit, alpha):
    """The Wilson-Hilferty start on the weighted means of the yields: the
    reference the quantile of X - B is measured against."""
    n = crit.n
    if n == 0:
        return 0.0
    a = n + 1.0
    s, b = (crit.s, crit.b) if crit.w is None else (crit.mean(crit.s), crit.mean(crit.b))
    p = alpha * (crit.den * s if crit.bayes else crit.den)
    if not (0.0 < p < 1.0 and s > 0.0):
        return 0.0
    z = statistics.NormalDist().inv_cdf(p)
    x0 = a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * math.sqrt(a))) ** 3
    start = (x0 - b) / s
    return start if x0 > b and math.isfinite(start) else 0.0


def certain_signal_grid():
    """(model, integrator): 32 seeded certain-signal sets, b in [20, 150]
    split over one or two backgrounds, each with a log-normal nuisance of
    kappa in [1.05, 1.2], s in [1, 10] and n_obs ~ Poisson(b), at least 10
    (28 here); by turns a 2000-sample Monte Carlo set and a 16-node
    Gauss-Hermite grid (16 or 256 points)."""
    rng = np.random.default_rng(0)
    for i in range(32):
        n_bkg = 1 + i % 2
        b, kappa, s = float(rng.uniform(20.0, 150.0)), float(rng.uniform(1.05, 1.2)), float(rng.uniform(1.0, 10.0))
        n_obs = max(10, int(rng.poisson(b)))
        model = CountingModel(
            s_nom=s,
            backgrounds=tuple(BackgroundProcess(f"b{j}", b / n_bkg, {f"p{j}": Response.log_normal(kappa)})
                              for j in range(n_bkg)),
            n_obs=n_obs,
            systematics=SystematicsModel(nuisances=tuple(Nuisance(f"p{j}", Prior.standard_normal())
                                                         for j in range(n_bkg))),
        )
        monte_carlo = (i // 2) % 2 == 0
        yield model, Integrator.monte_carlo(2000, int(rng.integers(2**32))) if monte_carlo else Integrator.gauss_hermite(16)


@pytest.fixture(scope="module")
def grid_solves():
    """Per grid set and method: the start, the solve from it and the solve
    from the mean-yield start, each with the Monte Carlo error where the set
    takes one."""
    req = LimitRequest(alpha=0.05)
    solves = []
    for model, integrator in certain_signal_grid():
        samples = draw_samples(model.systematics, integrator)
        for method in (_CLS, _BAYES):
            crit = _criterion(model, method, samples)
            with_stderr = marginal._takes_mc_error(samples)
            start = marginal._start(crit, req.alpha)
            solves.append((integrator, start, marginal._solve(crit, req, with_stderr),
                           marginal._solve(crit, req, with_stderr, start=mean_yield_start(crit, req.alpha))))
    return solves


class TestCumulantStart:
    # the start is the quantile of X - B that the set's cumulants give, and
    # on a set whose signal yield is one s on every sample it is the root's

    def test_start_lies_within_1e3_of_the_root_on_gauss_hermite_grids(self, grid_solves):
        misses = [abs(start - res.mu_up) / res.mu_up for integ, start, res, _ in grid_solves
                  if integ.kind == "gauss_hermite"]
        assert len(misses) == 32
        assert sum(miss <= 1e-3 for miss in misses) >= 0.95 * len(misses)

    def test_start_lies_within_the_monte_carlo_error_on_monte_carlo_sets(self, grid_solves):
        # the cumulants are the set's own, but the root also moves with the
        # few samples in the background's tail, by about the limit's Monte
        # Carlo error (1.04 of it at most here): where the spread of b
        # dominates, by more than 1e-3
        misses = [(abs(start - res.mu_up) / res.mu_up, res.mu_up_stderr / res.mu_up)
                  for integ, start, res, _ in grid_solves if integ.kind == "monte_carlo"]
        assert len(misses) == 32
        assert all(miss <= max(1e-3, 2.0 * stderr) for miss, stderr in misses), misses
        assert sum(miss <= 1e-3 for miss, _ in misses) >= 0.75 * len(misses)

    def test_no_solve_takes_more_evaluations_than_from_the_mean_yields(self, grid_solves):
        pairs = [(res.iterations, old.iterations) for _, _, res, old in grid_solves]
        assert all(new <= old for new, old in pairs), pairs
        assert sum(new for new, _ in pairs) <= 0.75 * sum(old for _, old in pairs)
        # and both starts find the same root, within the solver's tolerance
        assert all(res.mu_up == pytest.approx(old.mu_up, rel=2e-9) for _, _, res, old in grid_solves)

    @pytest.mark.parametrize("n_obs", [3, 20, 150])
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_one_formula_on_the_nominal_point_and_on_a_set(self, method, n_obs):
        # a set whose yields are the nominal ones on every sample gives B no
        # spread, so its start is the nominal point's, to rounding
        model = identity_systematic_model(s=2.0, b=float(n_obs), n_obs=n_obs)
        one_point = _criterion(model, method)
        on_set = _criterion(model, method, draw_samples(model.systematics, Integrator.gauss_hermite(16)))
        assert one_point.w is None and len(on_set.w) == 16
        start = marginal._start(one_point, 0.05)
        assert start > 0.0 and marginal._start(on_set, 0.05) == pytest.approx(start, rel=1e-12)

    @pytest.mark.parametrize(("b", "kappa", "skew"), [(20.0, 1.05, 1.0), (150.0, 1.2, -1.0)])
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_start_at_either_sign_of_the_skew(self, b, kappa, skew, method):
        # X - B is skewed right where X's spread dominates and left where the
        # background's does: the expansion holds on both sides
        model = bg_systematic_model(s=5.0, b=b, n_obs=int(b), kappa=kappa)
        crit = _criterion(model, method, draw_samples(model.systematics, Integrator.gauss_hermite(16)))
        d = crit.b - crit.mean(crit.b)
        assert math.copysign(1.0, 2.0 * (model.n_obs + 1) - float(np.add.reduce(crit.w * d**3))) == skew
        start = marginal._start(crit, 0.05)
        res = marginal._solve(crit, LimitRequest(alpha=0.05))
        assert start == pytest.approx(res.mu_up, rel=1e-3)
        assert mean_yield_start(crit, 0.05) != pytest.approx(res.mu_up, rel=1e-2)

    @pytest.mark.parametrize(
        ("model", "integrator"),
        [
            (plain_model(s=2.0, b=20.0, n_obs=25), None),
            (bg_systematic_model(s=2.0, b=20.0, n_obs=25, kappa=1.1), Integrator.monte_carlo(1, 3)),
            (signal_systematic_model(s=2.0, b=20.0, n_obs=25, kappa=1.1), Integrator.monte_carlo(2000, 3)),
            (signal_systematic_model(s=2.0, b=20.0, n_obs=25, kappa=1.1), Integrator.gauss_hermite(16)),
            (bg_systematic_model(s=2.0, b=5.0, n_obs=9, kappa=1.1), Integrator.monte_carlo(2000, 3)),
            (bg_systematic_model(s=2.0, b=5.0, n_obs=9, kappa=1.1), Integrator.gauss_hermite(16)),
            (bg_systematic_model(s=2.0, b=20.0, n_obs=13, kappa=1.2), Integrator.gauss_hermite(16)),
        ],
        ids=["one point", "one sample", "uncertain signal mc", "uncertain signal gh", "n_obs 9 mc", "n_obs 9 gh",
             "n_obs 13 gh"],
    )
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    @pytest.mark.parametrize("alpha", [0.05, 0.32])
    def test_other_sets_start_from_the_quantile(self, model, integrator, method, alpha):
        # one point, one sample, small counts and an uncertain signal take
        # the same start: with a certain signal within 1e-3 of the root, and
        # with no more evaluations than from the mean yields; with an
        # uncertain one, at the mean signal yield, no further from the root
        # than the mean-yield start
        samples = draw_samples(model.systematics, integrator) if integrator else None
        crit = _criterion(model, method, samples)
        req = LimitRequest(alpha=alpha)
        start, old = marginal._start(crit, alpha), mean_yield_start(crit, alpha)
        res = marginal._solve(crit, req)
        assert start > 0.0
        if model.signal_is_certain:
            assert start == pytest.approx(res.mu_up, rel=1e-3)
            assert res.iterations <= marginal._solve(crit, req, start=old).iterations
        else:
            assert abs(start - res.mu_up) <= abs(old - res.mu_up)

    @pytest.mark.parametrize(
        ("model", "integrator", "rel"),
        [
            # CLb ~ 4e-4, so that p = alpha CLb lies past the normal's upper
            # 3.5 quantile: the expansion still lands within 1% of the root
            (bg_systematic_model(s=2.0, b=40.0, n_obs=18, kappa=1.1), Integrator.gauss_hermite(16), 0.01),
            # background yields up to ~4e53 on a set whose CLb is ~0.5: their
            # sixth powers would overflow, with numpy's RuntimeWarning (an
            # error in this suite), so the solve starts from 0
            (bg_systematic_model(s=1.0, b=5.0, n_obs=12, kappa=1e15), Integrator.monte_carlo(2000, 1), None),
        ],
        ids=["far tail", "wild spread"],
    )
    @pytest.mark.parametrize("method", [_CLS, _BAYES])
    def test_far_tail_and_wild_spread(self, model, integrator, rel, method):
        crit = _criterion(model, method, draw_samples(model.systematics, integrator))
        clb = crit.den * crit.s_max if crit.bayes else crit.den
        assert -statistics.NormalDist().inv_cdf(0.05 * clb) > 3.5 or crit.b_max > 1e52
        start = marginal._start(crit, 0.05)
        res = marginal._solve(crit, LimitRequest(alpha=0.05))
        assert res.mu_up > 0.0
        assert start == (0.0 if rel is None else pytest.approx(res.mu_up, rel=rel))


class TestZeroNominalSignal:
    # the Bayesian entries once refused a zero nominal signal with another
    # text than the Bayesian limits: "signal yield is zero; the posterior for
    # mu is degenerate" on one point, and "... at sample 0; ..." on a sample set
    @staticmethod
    def sets():
        plain = plain_model(s=0.0)
        syst = bg_systematic_model(s=0.0)
        return [(plain, draw_samples(plain.systematics, None)),
                (syst, draw_samples(syst.systematics, Integrator.monte_carlo(50, 3)))]

    @pytest.mark.parametrize("entry", [
        marginal_posterior_tail,
        marginal_posterior_density,
        lambda m, mu, samples: scan_quantity(m, "posterior", [0.0, mu], samples),
    ], ids=["tail", "density", "scan"])
    def test_bayes_entries_refuse_it_as_the_limits_do(self, entry):
        req = LimitRequest(alpha=0.05)
        for m, samples in self.sets():
            with pytest.raises(ModelError) as limit:
                bayesian_marginal_upper_limit(m, req, None, samples)
            with pytest.raises(ModelError) as pointwise:
                entry(m, 1.0, samples)
            assert str(pointwise.value) == str(limit.value) == _BAYES.zero_signal

    def test_cls_refuses_it_and_clsb_and_clb_scans_take_it(self):
        for m, samples in self.sets():
            with pytest.raises(ModelError, match=_CLS.zero_signal):
                hybrid_cls(m, 1.0, samples)
            with pytest.raises(ModelError, match=_CLS.zero_signal):
                scan_quantity(m, "cls", [0.0, 1.0], samples)
            clsb = scan_quantity(m, "clsb", [0.0, 1.0], samples)[0]
            clb = scan_quantity(m, "clb", [0.0, 1.0], samples)[0]
            assert clsb.tolist() == clb.tolist() == [clb[0]] * 2 and 0.0 < clb[0] < 1.0


class TestNominalYields:
    # with no sample set, the entries once ran a model with systematics on
    # its nominal yields and returned its no-systematics value: hybrid_cls
    # read 0.36634 at mu = 3 with a 1.5 log-normal background, 0.37256 on GH16
    ENTRIES = {
        "cls": lambda m, samples: hybrid_cls(m, 3.0, samples),
        "tail": lambda m, samples: marginal_posterior_tail(m, 3.0, samples),
        "density": lambda m, samples: marginal_posterior_density(m, 3.0, samples),
        **{f"scan_{q}": lambda m, samples, q=q: scan_quantity(m, q, [0.0, 3.0], samples)[0].tolist()
           for q in ("cls", "clsb", "clb", "posterior")},
    }
    # the nominal values at s = 1, b = 1.5, n_obs = 3, pinned by repr
    PLAIN = {
        "cls": 0.36634365231875987,
        "tail": 0.36634365231876004,
        "density": 0.18057100915508853,
        "scan_cls": [1.0, 0.36634365231875987],
        "scan_clsb": [0.9343575456215498, 0.3422959558345909],
        "scan_clb": [0.9343575456215498, 0.9343575456215498],
        "scan_posterior": [0.13432835820895514, 0.18057100915508853],
    }

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("model", [bg_systematic_model(kappa=1.5), signal_systematic_model(kappa=1.5)],
                             ids=["background", "signal"])
    def test_no_set_refuses_a_model_with_systematics(self, name, model):
        with pytest.raises(ModelError, match="identity responses"):
            self.ENTRIES[name](model, None)

    @pytest.mark.parametrize("name", ENTRIES)
    def test_no_set_and_the_one_point_set_keep_the_nominal_bits(self, name):
        m = plain_model()
        entry = self.ENTRIES[name]
        assert entry(m, None) == entry(m, draw_samples(m.systematics, None)) == self.PLAIN[name]
        # nuisances that move no yield leave the nominal yields every sample's
        assert entry(identity_systematic_model(), None) == self.PLAIN[name]


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

    @pytest.mark.parametrize("n_obs", [3, 0])
    @pytest.mark.parametrize("nuisance", [False, True], ids=["one point", "monte carlo"])
    def test_zero_where_the_mean_overflows(self, n_obs, nuisance):
        # x = mu*s + b is inf at s = 1e10, mu = 1e300, where the pmf's limit
        # is 0: n ln x - x once made it inf - inf, and the density NaN
        m = (bg_systematic_model if nuisance else plain_model)(s=1e10, b=1.5, n_obs=n_obs)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(50, 1) if nuisance else None)
        assert marginal_posterior_density(m, 1e300, samples) == 0.0


class TestOverflowedMean:
    # s = 1e10 at mu = 1e300 on a 50-sample Monte Carlo set: x = mu*s + b
    # overflows on every sample, which once let numpy warn of the overflow
    # (and of inf - inf for the density); every quantity is 0 there
    CALLS = {
        "hybrid_cls": lambda m, samples: hybrid_cls(m, 1e300, samples),
        "marginal_posterior_tail": lambda m, samples: marginal_posterior_tail(m, 1e300, samples),
        "marginal_posterior_density": lambda m, samples: marginal_posterior_density(m, 1e300, samples),
        "marginal_likelihood": lambda m, samples: marginal_likelihood(m, 1e300, 3, samples),
        "scan_quantity": lambda m, samples: [
            scan_quantity(m, q, np.array([0.0, 1e300]), samples)[i][1]
            for q in ("cls", "clsb", "clb", "posterior") for i in (0, 1) if q != "clb"
        ],
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_no_warning_and_zero(self, call):
        m = bg_systematic_model(s=1e10, b=1.5, n_obs=3)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(50, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.CALLS[call](m, samples)
        assert got == ([0.0] * 6 if call == "scan_quantity" else 0.0)

    def test_lanes_past_the_overflow_take_the_limit(self, monkeypatch):
        # one lane of x overflows, the other does not: only the second call
        # has a bound that can overflow, the one call that silences numpy's
        # warning, and the lane at x = inf takes the kernel's pmf there, 0,
        # with a derivative of 0
        crit = _Criterion(_BAYES, 3, np.array([1e-9, 1e300]), np.array([1.5, 1.5]), np.array([0.5, 0.5]))
        errstate, silenced = np.errstate, []
        monkeypatch.setattr(np, "errstate", lambda **kw: silenced.append(kw) or errstate(**kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crit(1.0)
            assert silenced == []
            value, slope, curvature, _ = crit(1e10)
            x = crit.x_at(1e10)
            pmf = crit.kernel(3, crit.s, x)[1]
            assert crit.pmf_terms(1e10).tolist() == [math.exp(log_poisson_pmf(3, float(x[0]))), 0.0]
        assert x[1] == math.inf and pmf[1] == 0.0 and silenced == [{"over": "ignore"}] * 3
        assert slope == -0.5 * pmf[0] / crit.den
        dpmf = 3 * (pmf[0] / x[0]) - pmf[0]
        assert curvature == 0.5 * (-1e-9 * dpmf) / crit.den
        assert 0.0 < value < 1.0 and math.isfinite(curvature)


class TestScanQuantity:
    def test_cls_column_matches_pointwise(self):
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(2000, 9))
        mus = np.linspace(0.0, 8.0, 9)
        values, stderrs = scan_quantity(m, "cls", mus, samples)
        assert values[0] == 1.0
        assert stderrs is not None and stderrs.shape == mus.shape
        for i, mu in enumerate(mus):
            assert values[i] == pytest.approx(hybrid_cls(m, float(mu), samples), rel=1e-14)

    def test_stderr_where_every_term_underflows(self):
        # CLs+b = exp(-1000) on every sample: the value and its error are 0
        m = identity_systematic_model(s=1.0, b=1.5, n_obs=0)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(2, 0))
        values, stderrs = scan_quantity(m, "cls", np.array([0.0, 1e3]), samples)
        assert values[1] == 0.0
        assert stderrs[1] == 0.0

    def test_zero_strength_runs_no_kernel_where_the_signal_overflows(self):
        # s = inf on the second sample: 0 * s + b would be a NaN lane, once
        # counted as CLs+b = 1 there. The yields now refuse such a sample
        # (tests/test_model.py), so the engine is built on it directly.
        crit = _Criterion(_CLS, 3, np.array([1.0, math.inf]), np.array([1.5, 1.5]), np.array([0.5, 0.5]))
        assert crit.mean(crit.terms(0.0)) == crit.den < 1.0

    @pytest.mark.parametrize("quantity", ["cls", "clsb", "clb", "posterior"])
    @pytest.mark.parametrize(("nodes", "n_nuisances"), [(8, 1), (2, 1), (2, 2)])
    def test_no_stderr_on_a_quadrature(self, quantity, nodes, n_nuisances):
        # the errors are those of an equal-weight Monte Carlo mean: on the
        # 8-node set they once read CLs 0.810 +- 0.027, a number with no
        # meaning; a 2-node rule has equal weights (any 2^J grid does), and
        # was once let through with errors such as 0.0326 and 0.0418, then
        # refused when asked for. A set not drawn by Monte Carlo gives none
        m = bg_systematic_model(kappa=1.2)
        if n_nuisances == 2:
            responses = {"a": Response.log_normal(1.2), "b": Response.linear(0.1)}
            m = CountingModel(
                s_nom=1.0,
                backgrounds=(BackgroundProcess("bkg", 1.5, responses),),
                n_obs=3,
                systematics=SystematicsModel(nuisances=tuple(Nuisance(n, Prior.standard_normal()) for n in "ab")),
            )
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(nodes))
        if nodes == 2:  # equal weights: a comparison of weights let this set through
            assert len(set(samples.weights.tolist())) == 1
        values, stderrs = scan_quantity(m, quantity, np.array([0.0, 2.0]), samples)
        assert stderrs is None and values.shape == (2,)

    # the values a scan gave on each set before its errors were read from the set
    NO_STDERR_VALUES = {
        "monte carlo, 1 sample": {
            "cls": ["0x1.0000000000000p+0", "0x1.1eeeb20a05d2ap-1"],
            "clsb": ["0x1.d82e91e7eddc1p-1", "0x1.089e2557cfaebp-1"],
            "clb": ["0x1.d82e91e7eddc1p-1"] * 2,
            "posterior": ["0x1.3009602555ebep-3", "0x1.d86d0c9ebc754p-3"],
        },
        "gauss-hermite 8": {
            "cls": ["0x1.0000000000000p+0", "0x1.264a52ad75179p-1"],
            "clsb": ["0x1.da5b9aab039f6p-1", "0x1.10a775a6ee00fp-1"],
            "clb": ["0x1.da5b9aab039f6p-1"] * 2,
            "posterior": ["0x1.18366d11da6a8p-3", "0x1.d75c5ab144210p-3"],
        },
        "gauss-hermite 2": {
            "cls": ["0x1.0000000000000p+0", "0x1.263c477cb008dp-1"],
            "clsb": ["0x1.da5faf974cef5p-1", "0x1.109ccb4640078p-1"],
            "clb": ["0x1.da5faf974cef5p-1"] * 2,
            "posterior": ["0x1.18a72df658dc0p-3", "0x1.d74c6f2bd3bcfp-3"],
        },
        "hand-built": {
            "cls": ["0x1.0000000000000p+0", "0x1.1c15ffa9658aep-1"],
            "clsb": ["0x1.cd7c41c688625p-1", "0x1.000ec084e4176p-1"],
            "clb": ["0x1.cd7c41c688625p-1"] * 2,
            "posterior": ["0x1.45a31d49c1c21p-3", "0x1.d5973336752efp-3"],
        },
    }

    @pytest.mark.parametrize("which", sorted(NO_STDERR_VALUES))
    def test_no_stderr_off_a_monte_carlo_set_of_two_or_more(self, which):
        # errors come where a limit on the set would take one, and nowhere else:
        # a one-sample Monte Carlo set, a quadrature and a set built by hand
        # (equal weights, 3 samples) give the values alone, bit for bit
        m = bg_systematic_model(kappa=1.2)
        samples = {
            "monte carlo, 1 sample": lambda: draw_samples(m.systematics, Integrator.monte_carlo(1, 9)),
            "gauss-hermite 8": lambda: draw_samples(m.systematics, Integrator.gauss_hermite(8)),
            "gauss-hermite 2": lambda: draw_samples(m.systematics, Integrator.gauss_hermite(2)),
            "hand-built": lambda: SampleSet(np.array([[-1.0], [0.5], [2.0]]), np.full(3, 1.0 / 3.0)),
        }[which]()
        for quantity, hexes in self.NO_STDERR_VALUES[which].items():
            values, stderrs = scan_quantity(m, quantity, np.array([0.0, 2.0]), samples)
            assert stderrs is None
            assert [x.hex() for x in values.tolist()] == hexes

    def test_monte_carlo_stderr_bits(self):
        # the errors of an equal-weight Monte Carlo set, which a scan on it
        # gives unasked, bit for bit as when they were asked for by a flag
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(500, 9))
        expected = {
            "cls": ["0x0.0p+0", "0x1.59478186cbfbcp-10", "0x1.7dc036e65627cp-10"],
            "clsb": ["0x1.904d9b1a80960p-10", "0x1.3f80c5cab35a3p-9", "0x1.f02c21676075bp-10"],
            "clb": ["0x1.904d9b1a80960p-10"] * 3,
            "posterior": ["0x1.b5d9754cd02f4p-10", "0x1.bcf725ed17e9fp-11", "0x1.9cf96c984b676p-12"],
        }
        for quantity, hexes in expected.items():
            _, stderrs = scan_quantity(m, quantity, np.array([0.0, 1.0, 3.0]), samples)
            assert [x.hex() for x in stderrs.tolist()] == hexes

    def test_no_stderr_for_quadrature(self):
        m = bg_systematic_model(kappa=1.2)
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(8))
        values, stderrs = scan_quantity(m, "clsb", np.array([0.0, 1.0]), samples)
        assert stderrs is None
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_grid_must_be_finite_and_nonnegative(self, bad):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scan_quantity(m, "cls", np.array([0.0, bad]), samples)

    def test_unknown_quantity(self):
        m = bg_systematic_model()
        samples = draw_samples(m.systematics, Integrator.gauss_hermite(4))
        with pytest.raises(ValueError):
            scan_quantity(m, "pvalue", np.array([0.0]), samples)
