import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from countlim import (
    ConvergenceError,
    CountLimError,
    Integrator,
    LimitRequest,
    ModelError,
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
    draw_samples,
    hybrid_cls,
    marginal_posterior_density,
)
from countlim import marginal
from countlim.marginal import _BAYES, _CLS, _criterion, _start, scan_quantity
from helpers import bg_systematic_model, identity_systematic_model, plain_model
from oracles import bayesian_upper_limit_quadrature

# Frozen oracle values, computed with an mpmath bisection on the tail-sum
# and incomplete-gamma ratios at 40 digits before this module was written.
ORACLE_MU_UP_CLS = 6.3551974403785029762  # s=1, b=1.5, n_obs=3, alpha=0.05
ORACLE_CLS_AT_6356 = 0.049973102763732327899
ORACLE_MU_UP_BAYES_B5 = 2.6707849463743038758  # s=1, b=5, n_obs=1, alpha=0.1
ORACLE_POSTERIOR_AT_0 = 9.0 / 67.0  # s=1, b=1.5, n_obs=3
ORACLE_MU_UP_N1E5 = 621.51642837697398471  # s=1, b=1e5, n_obs=1e5, alpha=0.05 (30 digits)


# The pointwise quantities of a model without nuisances are those of the
# marginal routines on its one-point sample set.
def cls_value(model, mu):
    return hybrid_cls(model, mu, draw_samples(model.systematics, None))


def posterior_density(model, mu):
    return marginal_posterior_density(model, mu, draw_samples(model.systematics, None))


def scan(model, quantity, mus):
    samples = draw_samples(model.systematics, None)
    return scan_quantity(model, quantity, np.asarray(mus, dtype=float), samples)[0]


class TestClsValue:
    def test_background_free_closed_form(self):
        m = plain_model(s=1.0, b=0.0, n_obs=0)
        assert cls_value(m, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-14)

    def test_unity_at_zero(self):
        for m in [plain_model(), plain_model(s=2.0, b=0.0, n_obs=4)]:
            assert cls_value(m, 0.0) == 1.0

    def test_grid_scan_oracle_point(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        assert cls_value(m, 6.356) == pytest.approx(ORACLE_CLS_AT_6356, rel=1e-13)
        assert cls_value(m, 6.356) == pytest.approx(0.05, abs=5e-5)

    def test_strictly_decreasing_and_continuous(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        mus = np.linspace(0.0, 20.0, 300)
        vals = np.array([cls_value(m, mu) for mu in mus])
        assert np.all(np.diff(vals) < 0.0)

    def test_degenerate_signal(self):
        m = plain_model(s=0.0, b=1.5, n_obs=3)
        with pytest.raises(ModelError, match="nominal signal yield is zero; the CLs limit is undefined"):
            cls_value(m, 1.0)
        with pytest.raises(ModelError, match="nominal signal yield is zero; the CLs limit is undefined"):
            scan(m, "cls", [1.0])

    def test_degenerate_signal_with_nuisances(self):
        # the refusal of hybrid_cls_upper_limit, on any sample set
        m = identity_systematic_model(s=0.0)
        samples = draw_samples(m.systematics, Integrator.monte_carlo(100, 1))
        with pytest.raises(ModelError, match="nominal signal yield is zero; the CLs limit is undefined"):
            hybrid_cls(m, 1.0, samples)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, -1.0])
    def test_refuses_mu_outside_the_domain(self, mu):
        # mu = nan once gave CLs = 1.07, and mu = inf gave NaN
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cls_value(plain_model(s=1.0, b=1.5, n_obs=3), mu)

    def test_component_values(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        clsb = scan(m, "clsb", [0.0, 2.0])
        clb = scan(m, "clb", [0.0, 2.0])
        assert clsb[0] == clb[0] == clb[1]
        assert cls_value(m, 2.0) == pytest.approx(clsb[1] / clb[1], rel=1e-15)
        assert scan(m, "cls", [2.0])[0] == cls_value(m, 2.0)


class TestClsUpperLimit:
    def test_rejects_systematics(self):
        # with a zero signal too: the identity check comes first
        for route in (cls_upper_limit, bayesian_upper_limit_closed_form):
            for model in (bg_systematic_model(), bg_systematic_model(s=0.0)):
                with pytest.raises(ModelError, match="identity responses"):
                    route(model, LimitRequest(alpha=0.05))

    def test_background_free_closed_form(self):
        m = plain_model(s=1.0, b=0.0, n_obs=0)
        res = cls_upper_limit(m, LimitRequest(alpha=0.05))
        assert res.mu_up == pytest.approx(math.log(20.0), rel=1e-9)
        assert res.bracket[0] <= res.mu_up <= res.bracket[1]

    def test_scaling_with_signal_yield(self):
        m = plain_model(s=2.0, b=0.0, n_obs=0)
        res = cls_upper_limit(m, LimitRequest(alpha=0.05))
        assert res.mu_up == pytest.approx(math.log(20.0) / 2.0, rel=1e-9)

    def test_oracle_model(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        res = cls_upper_limit(m, LimitRequest(alpha=0.05))
        assert res.mu_up == pytest.approx(ORACLE_MU_UP_CLS, rel=1e-9)

    def test_criterion_at_solution_contract(self):
        for n_obs, alpha in [(0, 0.05), (3, 0.05), (50, 0.32), (10, 0.1)]:
            m = plain_model(s=1.0, b=0.5, n_obs=n_obs)
            req = LimitRequest(alpha=alpha)
            res = cls_upper_limit(m, req)
            assert abs(res.criterion_at_solution - alpha) <= 10.0 * req.rel_tol * alpha


class TestBayesianClosedForm:
    def test_background_free_closed_form(self):
        m = plain_model(s=1.0, b=0.0, n_obs=0)
        res = bayesian_upper_limit_closed_form(m, LimitRequest(alpha=0.05))
        assert res.mu_up == pytest.approx(math.log(20.0), rel=1e-9)

    def test_agrees_with_cls(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        req = LimitRequest(alpha=0.05)
        cls_res = cls_upper_limit(m, req)
        bayes_res = bayesian_upper_limit_closed_form(m, req)
        assert abs(cls_res.mu_up - bayes_res.mu_up) / cls_res.mu_up <= 1e-8

    def test_gamma_grid_oracle(self):
        m = plain_model(s=1.0, b=5.0, n_obs=1)
        res = bayesian_upper_limit_closed_form(m, LimitRequest(alpha=0.1))
        assert res.mu_up == pytest.approx(ORACLE_MU_UP_BAYES_B5, rel=1e-9)

    def test_degenerate_signal(self):
        with pytest.raises(ModelError):
            bayesian_upper_limit_closed_form(plain_model(s=0.0), LimitRequest(alpha=0.05))


class TestPosteriorDensity:
    def test_exponential_posterior(self):
        m = plain_model(s=1.0, b=0.0, n_obs=0)
        assert posterior_density(m, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert posterior_density(m, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_normalised(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        total, _ = quad(lambda mu: posterior_density(m, mu), 0.0, 80.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_density_at_zero(self):
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        assert posterior_density(m, 0.0) == pytest.approx(ORACLE_POSTERIOR_AT_0, rel=1e-13)
        assert scan(m, "posterior", [0.0])[0] == posterior_density(m, 0.0)

    def test_nonnegative(self):
        m = plain_model(s=0.5, b=5.0, n_obs=2)
        assert all(posterior_density(m, mu) >= 0.0 for mu in np.linspace(0, 50, 101))

    def test_degenerate_signal(self):
        with pytest.raises(ModelError):
            posterior_density(plain_model(s=0.0), 1.0)

    def test_credibility_mass_below_limit(self):
        # the tail condition restated as an integral of the density
        m = plain_model(s=1.0, b=1.5, n_obs=3)
        alpha = 0.05
        res = cls_upper_limit(m, LimitRequest(alpha=alpha))
        mass, _ = quad(lambda mu: posterior_density(m, mu), 0.0, res.mu_up, limit=200)
        assert mass == pytest.approx(1.0 - alpha, abs=1e-7)


class TestQuadratureRoute:
    @pytest.mark.parametrize(
        ("s", "b", "n_obs", "alpha"),
        [(1.0, 0.0, 0, 0.05), (1.0, 1.5, 3, 0.05), (0.5, 5.0, 10, 0.1), (2.0, 20.0, 50, 0.32)],
    )
    def test_matches_closed_form(self, s, b, n_obs, alpha):
        m = plain_model(s=s, b=b, n_obs=n_obs)
        req = LimitRequest(alpha=alpha)
        closed = bayesian_upper_limit_closed_form(m, req)
        quadr = bayesian_upper_limit_quadrature(m, req)
        assert abs(closed.mu_up - quadr.mu_up) / closed.mu_up <= 1e-6


class TestUnderflowedDenominator:
    # CLb = Q(1, 800) = exp(-800) is below the float64 range
    @pytest.mark.parametrize(
        ("route", "name"),
        [(cls_upper_limit, "CLb"), (bayesian_upper_limit_closed_form, r"Q\(n_obs \+ 1, b\)")],
    )
    def test_limit_raises_typed_error(self, route, name):
        m = plain_model(s=1.0, b=800.0, n_obs=0)
        with pytest.raises(ConvergenceError, match=name + r" = 0.0 at n_obs = 0, b = 800.0"):
            route(m, LimitRequest(alpha=0.05))

    def test_values_raise_typed_error(self):
        m = plain_model(s=1.0, b=800.0, n_obs=0)
        for value in (lambda: cls_value(m, 1.0), lambda: posterior_density(m, 1.0)):
            with pytest.raises(ConvergenceError):
                value()


@pytest.mark.parametrize("alpha", [1e-200, 1e-300])
def test_tiny_alpha(alpha):
    # the interpolation's products of criterion differences underflow here
    m = plain_model(s=1.0, b=1.5, n_obs=3)
    req = LimitRequest(alpha=alpha)
    cls_res = cls_upper_limit(m, req)
    bayes_res = bayesian_upper_limit_closed_form(m, req)
    assert abs(cls_res.mu_up - bayes_res.mu_up) / cls_res.mu_up <= 1e-7
    for res in (cls_res, bayes_res):
        assert abs(res.criterion_at_solution - alpha) <= 10.0 * req.rel_tol * alpha


_EXACT_ROUTES = [cls_upper_limit, bayesian_upper_limit_closed_form]


@pytest.mark.parametrize("route", _EXACT_ROUTES)
@pytest.mark.parametrize("b", [60.0, 69.0])
def test_tiny_alpha_past_the_underflow_is_refused(route, b):
    # at n_obs = 0 both criteria are exp(-mu s) for every b, so the root of
    # alpha = 1e-300 is 300 ln 10 = 690.78; but the numerator exp(-b - mu)
    # underflows to 0 near mu = 745 - b, above the target and short of it
    with pytest.raises(ConvergenceError, match="underflows") as err:
        route(plain_model(s=1.0, b=b, n_obs=0), LimitRequest(alpha=1e-300))
    lo, hi = err.value.bracket
    assert lo < hi < 300.0 * math.log(10.0)
    assert len(err.value.history) == err.value.iterations
    assert err.value.history[-1][0] in (lo, hi)


@pytest.mark.parametrize("route", _EXACT_ROUTES)
@pytest.mark.parametrize(("b", "rel"), [(23.0, 1e-14), (40.0, 1e-10)])
def test_tiny_alpha_short_of_the_underflow_solves(route, b, rel):
    # the numerator at the root is 1e-310 for b = 23 and 4e-318 for b = 40:
    # subnormal, with ~20 bits left at b = 40, but not 0
    res = route(plain_model(s=1.0, b=b, n_obs=0), LimitRequest(alpha=1e-300))
    assert res.mu_up == pytest.approx(300.0 * math.log(10.0), rel=rel)
    assert res.criterion_at_solution > 0.0


# mpmath root of log Q(4, mu + 60) / Q(4, 60) = log 1e-300, at 50 digits
ORACLE_MU_UP_SUBNORMAL = 698.33944350516580636


@pytest.mark.xfail(
    strict=True,
    reason="the numerator at the root is subnormal, ~10 bits, until the criteria are taken in log space",
)
@pytest.mark.parametrize("route", _EXACT_ROUTES)
def test_subnormal_numerator_at_the_root(route):
    # the target alpha Q(4, 60) = 3.3e-322 keeps ~10 bits: both routes return
    # a limit with no error, 698.3295 (CLs) and 698.3335 (Bayes), well off
    # the root. This flips to a pass once the criteria work on log values.
    res = route(plain_model(s=1.0, b=60.0, n_obs=3), LimitRequest(alpha=1e-300))
    assert res.mu_up == pytest.approx(ORACLE_MU_UP_SUBNORMAL, rel=5e-9)


def test_large_count_limits_agree():
    # Q(1e5 + 1, 1e5 + mu) is taken near x = a, where the series and the
    # continued fraction would need more than 500 steps
    m = plain_model(s=1.0, b=1e5, n_obs=100_000)
    req = LimitRequest(alpha=0.05)
    cls_res = cls_upper_limit(m, req)
    bayes_res = bayesian_upper_limit_closed_form(m, req)
    assert abs(cls_res.mu_up - bayes_res.mu_up) / cls_res.mu_up <= 1e-7
    for res in (cls_res, bayes_res):
        assert res.mu_up == pytest.approx(ORACLE_MU_UP_N1E5, rel=1e-9)


def test_monotone_data_dependence():
    for s in (0.5, 2.0):
        for b in (0.0, 1.5, 5.0):
            previous = -1.0
            for n_obs in (0, 1, 3, 10):
                res = cls_upper_limit(plain_model(s=s, b=b, n_obs=n_obs), LimitRequest(alpha=0.1))
                assert res.mu_up >= previous
                previous = res.mu_up


def _outcome(route, model, req):
    """The limit of ``route``, or the class of the error that refuses it."""
    try:
        return route(model, req)
    except CountLimError as err:
        return type(err)


@pytest.fixture
def from_zero(monkeypatch):
    """``_outcome`` with the Cornish-Fisher start switched off, so that
    every solve starts from mu = 0 alone."""

    def outcome(route, model, req):
        with monkeypatch.context() as patched:
            patched.setattr(marginal, "_start", lambda crit, alpha: 0.0)
            return _outcome(route, model, req)

    return outcome


class TestCornishFisherStart:
    @pytest.mark.parametrize(
        ("s", "b", "n_obs", "alpha"),
        [
            (1.0, 69.0, 3, 1e-300),  # p = alpha * Q(4, 69) underflows to 0
            (1.0, 1.5, 1, 0.999),  # the quantile lies at or below b: the start is not positive
            (1.0, 5.0, 2, 0.9999),  # the same
            (1e-300, 1.5, 3, 0.05),  # start ~6e300, beyond the solver's 2**64 cap
            (1e-310, 1.5, 3, 0.05),  # start overflows to inf (the Bayes denominator to inf)
        ],
    )
    @pytest.mark.parametrize(
        ("route", "method"), [(cls_upper_limit, _CLS), (bayesian_upper_limit_closed_form, _BAYES)]
    )
    def test_fallback_is_the_solve_from_zero(self, from_zero, s, b, n_obs, alpha, route, method):
        model = plain_model(s=s, b=b, n_obs=n_obs)
        try:
            crit = _criterion(model, method, draw_samples(model.systematics, None))
        except ConvergenceError:
            pass
        else:
            start = _start(crit, alpha)
            assert start == 0.0 or start > 2.0**64
        req = LimitRequest(alpha=alpha)
        assert _outcome(route, model, req) == from_zero(route, model, req)

    def test_start_is_near_the_root(self):
        # the guess alone is within 1e-4 of the limit at n_obs = 3
        model = plain_model(s=1.0, b=1.5, n_obs=3)
        crit = _criterion(model, _CLS, draw_samples(model.systematics, None))
        assert _start(crit, 0.05) == pytest.approx(ORACLE_MU_UP_CLS, rel=1e-4)

    def test_exact_small_solves_end_after_two_kernel_calls(self, monkeypatch, tmp_path):
        # the first 4,000 operations of the benchmark's exact_small stream at
        # seed 1: a start within ~1e-3 of the root lets at least 95% of the
        # solves with n_obs >= 1 end after two kernel calls past the
        # denominator's, at the start and at the one step from it
        pytest.importorskip("mpmath")  # the benchmark's streams import it
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        calls = []
        for method in (_CLS, _BAYES):
            kernel = method.one_point
            monkeypatch.setattr(method, "one_point", lambda n, s, x, kernel=kernel: calls.append(x) or kernel(n, s, x))
        stream = workloads.exact_small(1, workloads.Context(workloads.Oracle(), tmp_path, None))
        ends = []
        for _ in range(4000):
            op = next(stream)
            del calls[:]
            res = op.call()
            assert len(calls) == res.iterations  # the denominator, and each evaluation but mu = 0's
            if op.n_obs >= 1:
                ends.append(len(calls) - 1)
        assert sum(end == 2 for end in ends) >= 0.95 * len(ends)

    def test_no_solve_is_won_or_lost(self, from_zero):
        # every configuration solved from mu = 0 still solves, to the same
        # root (two converged points lie within 2 rel_tol of each other),
        # and every one refused is refused with the same class
        solved = refused = 0
        for b in (0.5, 5.0, 50.0, 150.0, 300.0, 700.0):
            counts = {1, 3, int(2 * b + 10)} | {int(f * b) for f in (0.0, 0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)}
            for n_obs, alpha, s in itertools.product(
                sorted(counts), (0.5, 0.05, 1e-3, 1e-10, 1e-40, 1e-100), (0.1, 1.0, 10.0)
            ):
                model = plain_model(s=s, b=b, n_obs=n_obs)
                req = LimitRequest(alpha=alpha)
                for route in _EXACT_ROUTES:
                    config = (route.__name__, s, b, n_obs, alpha)
                    got, expected = _outcome(route, model, req), from_zero(route, model, req)
                    if isinstance(expected, type):
                        assert got is expected, config
                        refused += n_obs > 0
                    else:
                        assert not isinstance(got, type), config
                        assert got.mu_up == pytest.approx(expected.mu_up, rel=2e-9), config
                        solved += 1
        assert solved > 2000 and refused > 0
