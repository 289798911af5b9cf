import itertools
import math
import statistics

import pytest

from countlim import (
    ConvergenceError,
    Integrator,
    LimitRequest,
    LimitResult,
    bayesian_marginal_upper_limit,
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
    hybrid_cls_upper_limit,
    log_poisson_pmf,
    poisson_cdf,
)
from countlim.solver import solve_decreasing
from helpers import bg_systematic_model, plain_model


def exponential(rate, b=0.0):
    """exp(-rate * mu - b) / exp(-b) with its slope and curvature: the
    criterion of a zero count over a background b, as the engine builds it."""
    den = math.exp(-b)

    def criterion(mu):
        term = math.exp(-rate * mu - b)
        return term / den, -(rate * term) / den, (rate * rate * term) / den

    return criterion


def poisson_ratio(n, b):
    """P(N <= n; mu + b) / P(N <= n; b) with its slope, -pmf(n; x) / P(N <= n; b),
    and curvature, -pmf(n; x) (n/x - 1) / P(N <= n; b), at x = mu + b."""
    den = poisson_cdf(n, b)

    def criterion(mu):
        x = mu + b
        pmf = math.exp(log_poisson_pmf(n, x))
        # at x = 0, pmf (n/x - 1) is its limit pmf(n - 1; 0) - pmf(n; 0)
        dpmf = pmf * (n / x - 1.0) if x else float(n == 1) - float(n == 0)
        return poisson_cdf(n, x) / den, -pmf / den, -dpmf / den

    return criterion


class TestSolveDecreasing:
    def test_closed_form_exponential(self):
        root, crit, evals, bracket = solve_decreasing(exponential(1.0), 0.05, 1e-9, 200)
        assert root == pytest.approx(math.log(20.0), rel=1e-9)
        assert crit == pytest.approx(0.05, rel=1e-8)
        assert bracket[0] <= root <= bracket[1]
        assert evals <= 4

    def test_root_below_one(self):
        root, _, _, _ = solve_decreasing(exponential(50.0), 0.5, 1e-10, 200)
        assert root == pytest.approx(math.log(2.0) / 50.0, rel=1e-9)

    def test_large_root_brackets_by_expanding(self):
        root, _, _, _ = solve_decreasing(exponential(1.0 / 5e4), 0.05, 1e-9, 200)
        assert root == pytest.approx(5e4 * math.log(20.0), rel=1e-9)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-13])
    def test_criterion_tolerance_contract(self, rel_tol):
        # steep criterion: large count makes the curve highly elastic
        target = 0.05
        criterion = poisson_ratio(50, 30.0)
        root, crit, _, bracket = solve_decreasing(criterion, target, rel_tol, 200)
        assert abs(crit - target) <= 10.0 * rel_tol * target
        assert criterion(root)[0] == crit
        assert bracket[0] <= root <= bracket[1]

    def test_bracket_is_sign_checked(self):
        criterion = poisson_ratio(10, 3.0)
        root, _, _, (lo, hi) = solve_decreasing(criterion, 0.1, 1e-9, 200)
        assert lo <= root <= hi
        assert criterion(lo)[0] > 0.1 >= criterion(hi)[0]

    def test_zero_slope_at_zero(self):
        # b = 0, n_obs = 50: pmf(50; 0) = 0, so the slope at mu = 0 is 0
        criterion = poisson_ratio(50, 0.0)
        assert criterion(0.0) == (1.0, 0.0, 0.0)
        root, crit, evals, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
        assert abs(crit - 0.05) <= 1e-9 * 0.05
        assert criterion(root)[0] == crit
        assert lo <= root <= hi
        assert evals <= 12

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 37.0])
    @pytest.mark.parametrize("target", [1e-3, 0.05, 0.32])
    def test_zero_count_solves_in_four_evaluations(self, rate, target):
        # log c(mu) = -rate * mu is linear: one Newton step lands on the root,
        # once the expansion from mu = 0 (at most 8 at first) has passed it
        root, _, evals, (lo, hi) = solve_decreasing(exponential(rate), target, 1e-9, 200)
        assert root == pytest.approx(-math.log(target) / rate, rel=1e-9)
        assert lo <= root <= hi
        assert evals <= 4

    def test_tiny_target(self):
        # alpha = 1e-300: the Newton step works on log c, so nothing underflows
        criterion = poisson_ratio(1, 0.0)
        root, crit, _, (lo, hi) = solve_decreasing(criterion, 1e-300, 1e-9, 200)
        assert abs(crit - 1e-300) <= 10.0 * 1e-9 * 1e-300
        assert lo <= root <= hi
        # exp(-mu) * (1 + mu) = 1e-300
        assert root - math.log1p(root) == pytest.approx(300.0 * math.log(10.0), rel=1e-9)

    def test_underflowed_edge_is_refused(self):
        # exp(-mu) flushed to 0 from mu = 50 on, far above the root ln(1e30):
        # the bracket closes on the flush edge, which is not a root
        def criterion(mu):
            value = math.exp(-mu) if mu < 50.0 else 0.0
            return value, -value, value

        with pytest.raises(ConvergenceError, match="underflows") as err:
            solve_decreasing(criterion, 1e-30, 1e-9, 200)
        lo, hi = err.value.bracket
        assert lo < 50.0 <= hi <= 50.0 * (1.0 + 1e-14)
        assert len(err.value.history) == err.value.iterations
        assert (hi, 0.0) in err.value.history

    def test_underflowed_point_inside_a_solve_is_passed(self):
        # exp(-mu) (1 + mu) flushed to 0 from mu = 5 on: the expansion from
        # mu = 0, where the slope is 0, lands on mu = 8 in the flushed
        # region, which only closes the bracket; the root (4.74) still solves
        def criterion(mu):
            value = math.exp(-mu) * (1.0 + mu) if mu < 5.0 else 0.0
            if not value:
                return 0.0, 0.0, 0.0
            return value, -mu * math.exp(-mu), (mu - 1.0) * math.exp(-mu)

        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(criterion, 0.05, 1e-9, 2)
        assert err.value.history[-1] == (8.0, 0.0)
        root, crit, _, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
        assert root - math.log1p(root) == pytest.approx(math.log(20.0), rel=1e-9)
        assert abs(crit - 0.05) <= 10.0 * 1e-9 * 0.05
        assert lo <= root <= hi

    def test_non_convergence_reports_bracket(self):
        # exp(-mu) = 0.05 now takes two or three evaluations (mu = 0, one
        # Newton step, perhaps a point past the root), so allow only one
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(exponential(1.0), 0.05, 1e-12, 1)
        assert err.value.bracket is not None
        assert err.value.iterations is not None

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_non_convergence_reports_history(self, max_iter):
        criterion = poisson_ratio(50, 30.0)
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(criterion, 0.05, 1e-12, max_iter)
        history = err.value.history
        assert len(history) == err.value.iterations == max_iter
        assert history[0] == (0.0, 1.0)
        assert all(criterion(mu)[0] == value for mu, value in history)

    def test_criterion_already_below_target(self):
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(lambda mu: (0.01 * math.exp(-mu), -0.01 * math.exp(-mu), 0.01 * math.exp(-mu)), 0.05, 1e-9, 100)
        assert err.value.history == [(0.0, 0.01)]

    def test_nan_criterion_is_refused(self):
        with pytest.raises(ConvergenceError, match="NaN") as err:
            solve_decreasing(lambda mu: (math.nan, math.nan, math.nan) if mu else (1.0, -1.0, 1.0), 0.05, 1e-9, 100)
        assert len(err.value.history) == 2

    def test_flat_criterion_hits_expansion_cap(self):
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(lambda mu: (1.0, 0.0, 0.0), 0.05, 1e-9, 100)
        assert "bracket" in str(err.value)
        assert err.value.bracket[1] > 2.0**64

    def test_evaluation_budget_on_the_exact_grid(self):
        # criterion 2's 225 configurations, both exact routes
        evals, zero_count_evals = [], []
        for s, b, n_obs, alpha in itertools.product(
            (0.5, 1.0, 2.0), (0.0, 0.5, 1.5, 5.0, 20.0), (0, 1, 3, 10, 50), (0.05, 0.1, 0.32)
        ):
            model = plain_model(s=s, b=b, n_obs=n_obs)
            req = LimitRequest(alpha=alpha)
            pair = [cls_upper_limit(model, req).iterations, bayesian_upper_limit_closed_form(model, req).iterations]
            evals += pair
            if n_obs == 0:
                zero_count_evals += pair
        assert statistics.median(evals) <= 5
        assert max(evals) <= 9
        assert max(zero_count_evals) <= 3

    @pytest.mark.parametrize("route", [hybrid_cls_upper_limit, bayesian_marginal_upper_limit])
    def test_evaluation_budget_at_large_count(self, route):
        # s = 10, b = 150 with a 5% log-normal background systematic on 2000
        # Monte Carlo samples, one n_obs per Poisson(150) decile
        req = LimitRequest(alpha=0.05)
        for decile in range(10):
            n_obs = next(n for n in itertools.count() if poisson_cdf(n, 150.0) >= (decile + 0.5) / 10.0)
            model = bg_systematic_model(s=10.0, b=150.0, n_obs=n_obs, kappa=1.05)
            res = route(model, req, Integrator.monte_carlo(2000, decile))
            assert res.iterations <= 5, (n_obs, res)

    def test_vanishing_log_slope(self):
        # b = 4.7e-138, n = 2: at mu = 0, g' = c'/c ~ -1e-275, and g'^2
        # underflows to 0; the Halley factor must not divide by it
        criterion = poisson_ratio(2, 4.7e-138)
        root, crit, _, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
        assert lo <= root <= hi
        assert abs(crit - 0.05) <= 10.0 * 1e-9 * 0.05

    def test_log_slope_that_underflows_to_zero(self):
        # c(0) = 4 with a subnormal slope: g' = c'/c rounds to -0.0 while
        # g'' does not, and the solve must take the expansion step, not
        # divide by g'. Past 0 the criterion is 4 exp(-mu^2/2).
        def criterion(mu):
            if mu == 0.0:
                return 4.0, -5e-324, 1.0
            value = 4.0 * math.exp(-0.5 * mu * mu)
            return value, -mu * value, (mu * mu - 1.0) * value

        root, crit, _, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 50)
        assert root == pytest.approx(math.sqrt(2.0 * math.log(80.0)), rel=1e-9)
        assert lo <= root <= hi

    @pytest.mark.parametrize("curvature", [1e300, -1e300, math.inf, math.nan])
    def test_out_of_range_halley_factor_takes_the_newton_step(self, curvature):
        # a curvature that puts 1/(1 - h) outside (0.5, 2) is not used: the
        # solve runs Newton's steps, which are exact on log-linear c
        def criterion(mu):
            value, slope, _ = exponential(1.0)(mu)
            return value, slope, curvature

        root, _, evals, _ = solve_decreasing(criterion, 0.05, 1e-9, 200)
        assert root == pytest.approx(math.log(20.0), rel=1e-15)
        assert evals == solve_decreasing(exponential(1.0), 0.05, 1e-9, 200)[2]

    @pytest.mark.parametrize("rate, b", [(0.3, 23.0), (0.7, 23.0), (3.0, 5.0), (3.0, 23.0)])
    def test_log_linear_criterion_keeps_the_newton_step(self, rate, b):
        # g'' = c''/c - g'^2 is rounding noise here; scaled by f = ln(1e300)
        # it would throw the root off by up to 6e-14, so Newton's step is kept
        root, _, _, _ = solve_decreasing(exponential(rate, b), 1e-300, 1e-9, 200)
        assert root == pytest.approx(300.0 * math.log(10.0) / rate, rel=2e-15)


class TestLimitRequest:
    def test_defaults(self):
        req = LimitRequest(alpha=0.05)
        assert req.rel_tol == 1e-9
        assert req.max_iter == 200

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            LimitRequest(alpha=alpha)

    @pytest.mark.parametrize("max_iter", [1.5, 200.0, "200", None])
    def test_max_iter_is_an_integer(self, max_iter):
        # max_iter = 1.5 was once accepted, and len(history) == 1.5 never held
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            LimitRequest(alpha=0.05, max_iter=max_iter)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            LimitRequest(alpha=0.05, rel_tol=0.0)
        with pytest.raises(ValueError):
            LimitRequest(alpha=0.05, max_iter=0)

    @pytest.mark.parametrize("rel_tol", [1.0, 2.0, math.inf, math.nan])
    def test_tolerance_below_one(self, rel_tol):
        # rel_tol = inf once accepted mu = 8 with CLs 0.016 against alpha 0.05
        with pytest.raises(ValueError, match=r"rel_tol must be in \(0, 1\)"):
            LimitRequest(alpha=0.05, rel_tol=rel_tol)


def test_limit_result_to_dict():
    res = LimitResult(1.5, 0.05, 12, (1.4, 1.6))
    d = res.to_dict()
    assert d["mu_up"] == 1.5
    assert d["bracket"] == [1.4, 1.6]
    assert d["mu_up_stderr"] is None
