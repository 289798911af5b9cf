import itertools
import math
import statistics

import mpmath
import numpy as np
import pytest

from countlim import (
    ConvergenceError,
    Integrator,
    LimitRequest,
    LimitResult,
    bayesian_marginal_upper_limit,
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
    compare_limits,
    hybrid_cls_upper_limit,
    log_poisson_pmf,
    poisson_cdf,
)
from countlim import marginal
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


@pytest.fixture
def recorded_solves(monkeypatch):
    """Each solve the limit routines make: its result, its target and the
    criterion values it evaluated, by mu."""
    solves = []

    def recorded(criterion, target, *args):
        values = {}

        def evaluate(mu):
            result = criterion(mu)
            values[mu] = result[0]
            return result

        solves.append((solve_decreasing(evaluate, target, *args), target, values))
        return solves[-1][0]

    monkeypatch.setattr(marginal, "solve_decreasing", recorded)
    return solves


def large_count_toys():
    """(n_obs, model, integrator): s = 10, b = 150 with a 5% log-normal
    background systematic on 2000 Monte Carlo samples, one n_obs per
    Poisson(150) decile."""
    for decile in range(10):
        n_obs = next(n for n in itertools.count() if poisson_cdf(n, 150.0) >= (decile + 0.5) / 10.0)
        model = bg_systematic_model(s=10.0, b=150.0, n_obs=n_obs, kappa=1.05)
        yield n_obs, model, Integrator.monte_carlo(2000, decile)


def assert_brackets_signed(solves):
    # both ends of every bracket were evaluated, the criterion is above the
    # target at lo and not above it at hi, and the limit is one of the ends
    for (mu, _, _, (lo, hi)), target, values in solves:
        assert values[lo] > target >= values[hi]
        assert mu in (lo, hi)


class TestSolveDecreasing:
    def test_closed_form_exponential(self):
        root, (crit, *_), evals, bracket = solve_decreasing(exponential(1.0), 0.05, 1e-9, 200)
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
        root, (crit, *_), _, bracket = solve_decreasing(criterion, target, rel_tol, 200)
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
        root, (crit, *_), evals, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
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
        root, (crit, *_), _, (lo, hi) = solve_decreasing(criterion, 1e-300, 1e-9, 200)
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
        root, (crit, *_), _, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
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

    def test_evaluation_budget_on_the_exact_grid(self, recorded_solves):
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
        # the Wilson-Hilferty start and the step aimed past the root take
        # the median to 3 and keep the maximum at 5; n_obs = 0 starts from
        # mu = 0, where one Newton step is exact, and a start there would
        # cost a fourth
        assert statistics.median(evals) <= 3
        assert max(evals) <= 5
        assert max(zero_count_evals) <= 3
        assert len(recorded_solves) == len(evals)
        assert_brackets_signed(recorded_solves)

    @pytest.mark.parametrize("route", [hybrid_cls_upper_limit, bayesian_marginal_upper_limit])
    def test_evaluation_budget_at_large_count(self, route):
        # each route starts at the Wilson-Hilferty guess on the mean yields
        req = LimitRequest(alpha=0.05)
        for n_obs, model, integrator in large_count_toys():
            res = route(model, req, integrator)
            assert res.iterations <= 4, (n_obs, res)

    def test_evaluation_budget_of_a_large_count_compare(self, recorded_solves, monkeypatch):
        # on the same toys the CLs solve ends just past its root; the Bayes
        # solve starts there and ends on it, after mu = 0 and one kernel
        # call. Only the CLs limit takes a Monte Carlo error: the report
        # carries no other.
        ratio_stderr, stderrs = marginal._Criterion.ratio_stderr, []
        monkeypatch.setattr(
            marginal._Criterion, "ratio_stderr", lambda crit, terms: stderrs.append(crit) or ratio_stderr(crit, terms)
        )
        req = LimitRequest(alpha=0.05)
        for compares, (n_obs, model, integrator) in enumerate(large_count_toys(), 1):
            report = compare_limits(model, req, integrator)
            (cls_res, _, _), (bayes_res, _, _) = recorded_solves[-2:]
            assert cls_res[2] <= 4 and bayes_res[2] == 2, (n_obs, cls_res, bayes_res)
            assert report.rel_diff == 0.0
            assert len(stderrs) == compares and not stderrs[-1].bayes
        assert len(recorded_solves) == 20
        assert_brackets_signed(recorded_solves)

    def test_vanishing_log_slope(self):
        # b = 4.7e-138, n = 2: at mu = 0, g' = c'/c ~ -1e-275, and g'^2
        # underflows to 0; the Halley factor must not divide by it
        criterion = poisson_ratio(2, 4.7e-138)
        root, (crit, *_), _, (lo, hi) = solve_decreasing(criterion, 0.05, 1e-9, 200)
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

    def test_probe_only_signs_the_bracket(self):
        # exp(-mu) = 0.05 is log-linear, so the step is Newton's and is not
        # aimed past the root: it lands converged a hair short of ln 20, and
        # a probe rel_tol past that point signs the bracket. Give the probe
        # lo's distance from the target, one ulp nearer: the converged point
        # is still the answer.
        criterion, target = exponential(1.0), 0.05
        history = []

        def recorded(mu):
            history.append(criterion(mu))
            return history[-1]

        _, _, evals, (lo, probe) = solve_decreasing(recorded, target, 1e-9, 200)
        lo_value = history[-2][0]
        # the last two evaluations are the converged point and its probe
        assert criterion(lo)[0] == lo_value > target > history[-1][0]
        assert probe == pytest.approx(lo * (1.0 + 1e-9), rel=1e-15)

        mirrored = math.nextafter(target - (lo_value - target), target)

        def nudged(mu):
            value, slope, curvature = criterion(mu)
            return (mirrored if mu == probe else value), slope, curvature

        root, (crit, *_), evals_nudged, bracket = solve_decreasing(nudged, target, 1e-9, 200)
        assert (root, crit, evals_nudged, bracket) == (lo, lo_value, evals, (lo, probe))

    @pytest.mark.parametrize(
        ("n", "b", "target"), [(3, 1.5, 0.05), (10, 3.0, 0.1), (50, 30.0, 0.05), (150, 150.0, 0.05)]
    )
    def test_halley_solve_ends_past_the_root_without_a_probe(self, n, b, target):
        # the last Halley step is aimed rel_tol/4 past the root: the point
        # where the solve converges is the upper end of its bracket, and no
        # probe follows it
        criterion, history = poisson_ratio(n, b), []

        def recorded(mu):
            history.append(mu)
            return criterion(mu)

        mu, (value, *_), evals, (lo, hi) = solve_decreasing(recorded, target, 1e-9, 200)
        assert mu == hi == history[-1] and evals == len(history)
        assert criterion(lo)[0] > target >= value
        with mpmath.workdps(30):
            den = mpmath.gammainc(n + 1, b, regularized=True)
            root = mpmath.findroot(lambda m: mpmath.gammainc(n + 1, m + b, regularized=True) / den - target, mu)
        assert 0.0 < mu - root <= 1e-9 * mu


class TestStart:
    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_jump_counts_against_max_iter(self, max_iter):
        # the jump is the second evaluation: with max_iter = 1 it is never made
        criterion = poisson_ratio(50, 30.0)
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(criterion, 0.05, 1e-12, max_iter, start=5.0)
        history = err.value.history
        assert len(history) == err.value.iterations == max_iter
        assert history[0] == (0.0, 1.0)
        assert [mu for mu, _ in history[1:]] == [5.0][: max_iter - 1]

    @pytest.mark.parametrize(
        ("criterion", "target"),
        [
            (exponential(1.0), 0.05),
            (poisson_ratio(10, 3.0), 0.1),
            (poisson_ratio(50, 30.0), 0.05),
            (poisson_ratio(1, 0.0), 1e-300),
        ],
    )
    @pytest.mark.parametrize("factor", [1e-6, 0.5, 1.0, 1.3, 8.0, 1e3])
    def test_any_start_finds_the_root(self, criterion, target, factor):
        # below the root, at it and past it, even where c has underflowed to 0
        root = solve_decreasing(criterion, target, 1e-14, 200)[0]
        mu, (value, *_), _, (lo, hi) = solve_decreasing(criterion, target, 1e-9, 200, start=factor * root)
        assert mu == pytest.approx(root, rel=1e-9)
        assert abs(value - target) <= 10.0 * 1e-9 * target
        assert lo <= mu <= hi

    def test_start_is_evaluated_second(self):
        history = []

        def recorded(mu):
            history.append(mu)
            return exponential(1.0)(mu)

        solve_decreasing(recorded, 0.05, 1e-9, 200, start=100.0)
        # a start 33 times past the root: the growth cap does not apply to it
        assert history[:2] == [0.0, 100.0]

    @pytest.mark.parametrize("start", [0.0, -1.0, 2.0**65, math.inf, math.nan])
    def test_ignored_start_changes_nothing(self, start):
        # 2**65 lies beyond the bracket cap, where a solve from 0 gives up
        for criterion, target in ((exponential(1.0), 0.05), (poisson_ratio(50, 30.0), 0.05)):
            expected = solve_decreasing(criterion, target, 1e-9, 200)
            assert solve_decreasing(criterion, target, 1e-9, 200, start=start) == expected
        refusals = []
        for kwargs in ({}, {"start": start}):
            with pytest.raises(ConvergenceError) as err:
                solve_decreasing(lambda mu: (1.0, 0.0, 0.0), 0.05, 1e-9, 100, **kwargs)
            refusals.append((str(err.value), err.value.history))
        assert refusals[1] == refusals[0]


class Declared:
    """A criterion object that declares c(0) = ``value_at_zero``, as
    ``marginal._Criterion`` does, and records the points it is called at."""

    def __init__(self, criterion, value_at_zero=1.0):
        self.criterion, self.value_at_zero, self.points = criterion, value_at_zero, []

    def __call__(self, mu):
        self.points.append(mu)
        return self.criterion(mu)


class TestDeclaredValueAtZero:
    @pytest.mark.parametrize("start", [0.3, 3.0, 30.0])
    def test_started_solve_does_not_evaluate_zero(self, start):
        declared = Declared(poisson_ratio(10, 3.0))
        full = solve_decreasing(poisson_ratio(10, 3.0), 0.1, 1e-9, 200, start)
        assert solve_decreasing(declared, 0.1, 1e-9, 200, start) == full
        assert declared.points[0] == start and 0.0 not in declared.points

    def test_solve_without_a_start_evaluates_zero(self):
        # the first Newton step needs the slope there
        declared = Declared(exponential(1.0))
        assert solve_decreasing(declared, 0.05, 1e-9, 200) == solve_decreasing(exponential(1.0), 0.05, 1e-9, 200)
        assert declared.points[0] == 0.0

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_refusal_is_the_full_paths(self, max_iter):
        refusals = []
        for criterion in (poisson_ratio(50, 30.0), Declared(poisson_ratio(50, 30.0))):
            with pytest.raises(ConvergenceError) as err:
                solve_decreasing(criterion, 0.05, 1e-12, max_iter, start=5.0)
            refusals.append((str(err.value), err.value.history, err.value.bracket, err.value.iterations))
        assert refusals[1] == refusals[0]
        assert refusals[1][1][0] == (0.0, 1.0)

    def test_declared_value_not_above_the_target_is_evaluated(self):
        declared = Declared(lambda mu: (0.01 * math.exp(-mu), -0.01 * math.exp(-mu), 0.01 * math.exp(-mu)), 0.01)
        with pytest.raises(ConvergenceError, match="not above the target") as err:
            solve_decreasing(declared, 0.05, 1e-9, 100, start=2.0)
        assert declared.points == [0.0] and err.value.history == [(0.0, 0.01)]


def exact_grid_criteria():
    """(criterion, alpha, start) on criterion 2's 225 configurations: both
    exact routes from their Wilson-Hilferty starts, and the Bayes route
    again from the CLs root, as ``compare_limits`` starts it."""
    for s, b, n_obs, alpha in itertools.product(
        (0.5, 1.0, 2.0), (0.0, 0.5, 1.5, 5.0, 20.0), (0, 1, 3, 10, 50), (0.05, 0.1, 0.32)
    ):
        model = plain_model(s=s, b=b, n_obs=n_obs)
        cls, bayes = (marginal._criterion(model, method) for method in (marginal._CLS, marginal._BAYES))
        yield cls, alpha, marginal._wilson_hilferty_start(cls, alpha)
        yield bayes, alpha, marginal._wilson_hilferty_start(bayes, alpha)
        yield bayes, alpha, cls_upper_limit(model, LimitRequest(alpha=alpha)).mu_up


def sample_set_criteria():
    """(criterion, alpha, start) on one Monte Carlo and one Gauss-Hermite
    set of a log-normal background model, both kernels."""
    for integrator in (Integrator.monte_carlo(2000, 3), Integrator.gauss_hermite(16)):
        for n_obs, alpha in itertools.product((0, 1, 3, 10, 40), (0.05, 0.32)):
            model = bg_systematic_model(s=1.0, b=5.0, n_obs=n_obs, kappa=1.3)
            samples = marginal.draw_samples(model.systematics, integrator)
            for method in (marginal._CLS, marginal._BAYES):
                crit = marginal._criterion(model, method, samples)
                yield crit, alpha, marginal._wilson_hilferty_start(crit, alpha)


@pytest.fixture
def criterion_points(monkeypatch):
    """The mu of every ``_Criterion`` call, in order."""
    points, call = [], marginal._Criterion.__call__

    def recorded(crit, mu):
        points.append(mu)
        return call(crit, mu)

    monkeypatch.setattr(marginal._Criterion, "__call__", recorded)
    return points


class TestShortcutAgainstTheFullPath:
    """A ``_Criterion`` declares c(0) = 1, so a started solve records it
    and jumps; wrapped in a plain function it takes the full path, which
    evaluates mu = 0. Both give the same solve."""

    @pytest.mark.parametrize("criteria", [exact_grid_criteria, sample_set_criteria], ids=["exact_grid", "sample_sets"])
    def test_same_solve_and_points(self, criteria, criterion_points):
        started = total = 0
        for crit, alpha, start in criteria():
            total += 1
            del criterion_points[:]
            direct = solve_decreasing(crit, alpha, 1e-9, 200, start)
            direct_points = criterion_points[:]
            del criterion_points[:]
            full = solve_decreasing(lambda mu: crit(mu), alpha, 1e-9, 200, start)
            # the same point, value, slope, curvature, numerator terms, count and bracket
            (mu, (*derivatives, terms), *rest), (full_mu, (*full_derivatives, full_terms), *full_rest) = direct, full
            assert (mu, derivatives, rest) == (full_mu, full_derivatives, full_rest)
            assert np.array_equal(terms, full_terms)
            assert criterion_points[0] == 0.0
            if start > 0.0:
                started += 1
                assert direct_points == criterion_points[1:]
            else:
                assert direct_points == criterion_points
        # every solve with n_obs >= 1, and the Bayes solves from the CLs root
        assert started >= 0.75 * total

    @pytest.mark.parametrize("monte_carlo", [False, True])
    @pytest.mark.parametrize("method", [marginal._CLS, marginal._BAYES])
    def test_no_kernel_or_pmf_at_zero(self, method, monte_carlo, criterion_points):
        model = bg_systematic_model(s=1.0, b=1.5, n_obs=3) if monte_carlo else plain_model(s=1.0, b=1.5, n_obs=3)
        samples = marginal.draw_samples(model.systematics, Integrator.monte_carlo(500, 1)) if monte_carlo else None
        crit = marginal._criterion(model, method, samples)
        kernel_x, pmf_x = [], []
        kernel_call, pmf_call = crit.kernel, crit.pmf_and_derivative
        crit.kernel = lambda n, s, x: kernel_x.append(x) or kernel_call(n, s, x)
        crit.pmf_and_derivative = lambda x, *edges: pmf_x.append(x) or pmf_call(x, *edges)
        start = marginal._wilson_hilferty_start(crit, 0.05)
        assert start > 0.0
        _, _, evals, _ = solve_decreasing(crit, 0.05, 1e-9, 200, start)
        # every call is at a mu > 0, where x = mu*s + b is not b
        assert len(criterion_points) == len(kernel_x) == evals - 1 and 0.0 not in criterion_points
        assert not any(np.array_equal(x, crit.b) for x in kernel_x + pmf_x)
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(crit, 0.05, 1e-9, 2, start)
        assert err.value.history[0] == (0.0, 1.0) and len(err.value.history) == 2
        assert len(kernel_x) == evals

    @pytest.mark.parametrize("method", [marginal._CLS, marginal._BAYES])
    def test_one_evaluation_with_a_start(self, method):
        crit = marginal._criterion(plain_model(s=1.0, b=1.5, n_obs=3), method)
        with pytest.raises(ConvergenceError, match="within 1 iterations") as err:
            solve_decreasing(crit, 0.05, 1e-9, 1, marginal._wilson_hilferty_start(crit, 0.05))
        assert err.value.history == [(0.0, 1.0)] and err.value.iterations == 1


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
