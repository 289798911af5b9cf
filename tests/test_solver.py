import math

import pytest

from countlim import ConvergenceError, LimitRequest, LimitResult, poisson_cdf
from countlim.solver import _interpolate, solve_decreasing


class TestSolveDecreasing:
    def test_closed_form_exponential(self):
        root, crit, evals, bracket = solve_decreasing(lambda mu: math.exp(-mu), 0.05, 1e-9, 200)
        assert root == pytest.approx(math.log(20.0), rel=1e-9)
        assert crit == pytest.approx(0.05, rel=1e-8)
        assert bracket[0] <= root <= bracket[1]
        assert evals < 60

    def test_root_below_one(self):
        root, _, _, _ = solve_decreasing(lambda mu: math.exp(-50.0 * mu), 0.5, 1e-10, 200)
        assert root == pytest.approx(math.log(2.0) / 50.0, rel=1e-9)

    def test_large_root_brackets_by_doubling(self):
        root, _, _, _ = solve_decreasing(lambda mu: math.exp(-mu / 5e4), 0.05, 1e-9, 200)
        assert root == pytest.approx(5e4 * math.log(20.0), rel=1e-9)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-13])
    def test_criterion_tolerance_contract(self, rel_tol):
        # steep criterion: large count makes the curve highly elastic
        target = 0.05

        def criterion(mu):
            return poisson_cdf(50, mu + 30.0) / poisson_cdf(50, 30.0)

        root, crit, _, _ = solve_decreasing(criterion, target, rel_tol, 200)
        assert abs(crit - target) <= 10.0 * rel_tol * target
        assert criterion(root) == crit

    def test_non_convergence_reports_bracket(self):
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(lambda mu: math.exp(-mu), 0.05, 1e-12, 3)
        assert err.value.bracket is not None
        assert err.value.iterations is not None

    def test_criterion_already_below_target(self):
        with pytest.raises(ConvergenceError):
            solve_decreasing(lambda mu: 0.01 * math.exp(-mu), 0.05, 1e-9, 100)

    def test_interpolation_survives_underflowing_products(self):
        # each product of two differences is ~1e-620, which underflows to 0
        pts = [(1.0, 3e-310), (3.0, -1e-310), (2.0, 1e-310)]
        cand = _interpolate(pts, 2.0, 3.0)
        assert cand is None or 2.0 < cand < 3.0

    def test_flat_criterion_hits_doubling_cap(self):
        with pytest.raises(ConvergenceError) as err:
            solve_decreasing(lambda mu: 1.0, 0.05, 1e-9, 100)
        assert "bracket" in str(err.value) or err.value.bracket is not None


class TestLimitRequest:
    def test_defaults(self):
        req = LimitRequest(alpha=0.05)
        assert req.rel_tol == 1e-9
        assert req.max_iter == 200
        assert req.mu_prior == "uniform"

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            LimitRequest(alpha=alpha)

    def test_only_uniform_prior(self):
        with pytest.raises(ValueError):
            LimitRequest(alpha=0.05, mu_prior="jeffreys")

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            LimitRequest(alpha=0.05, rel_tol=0.0)
        with pytest.raises(ValueError):
            LimitRequest(alpha=0.05, max_iter=0)


def test_limit_result_to_dict():
    res = LimitResult(1.5, 0.05, 12, (1.4, 1.6))
    d = res.to_dict()
    assert d["mu_up"] == 1.5
    assert d["bracket"] == [1.4, 1.6]
    assert d["mu_up_stderr"] is None
