import math

import numpy as np
import pytest

from countlim import ConvergenceError, gamma_q, log_poisson_pmf, poisson_cdf

# Reference values computed with mpmath at 50 digits:
#   gammainc(a, x, inf, regularized=True)
GAMMA_Q_TABLE = {
    (1.0, 0.693147): 0.50000009027998082638,
    (4.0, 1.5): 0.93435754562154990866,
    (0.5, 0.25): 0.47950012218695346232,
    (2.5, 7.0): 0.015609416100266914735,
    (10.0, 3.0): 0.99889751186988452026,
    (30.0, 30.0): 0.47571698610631993096,
    (51.0, 63.0): 0.053702717830453196902,
    (101.0, 50.0): 0.99999999984302540276,
    (1.5, 0.001): 0.99997622594634804943,
    (200.0, 180.0): 0.9251419650158404181,
    (200.0, 500.0): 3.7272816423111791189e-53,
}

# P(N <= n) for N ~ Poisson(x), computed with mpmath at 50 digits as
#   gammainc(n + 1, x, inf, regularized=True)
# on n in {0, 1, 3, 10, 30, 100, 150, 300, 1000, 3000, 10000} and
# x in n * {0.5, 0.8, 1, 1.2, 1.5} plus n +- 5 sqrt(n) where nonnegative.
POISSON_CDF_TABLE = {
    (0, 0.0): 1.0,
    (1, 0.5): 0.90979598956895013541,
    (1, 0.8): 0.80879213541099884861,
    (1, 1.0): 0.73575888234288464319,
    (1, 1.2): 0.66262726620684462867,
    (1, 1.5): 0.55782540037107457233,
    (1, 6.0): 0.017351265236664508961,
    (3, 1.5): 0.93435754562154990866,
    (3, 2.4000000000000004): 0.77872291103631685472,
    (3, 3.0): 0.64723188878223125873,
    (3, 3.5999999999999996): 0.51521611046614860196,
    (3, 4.5): 0.34229595583459106891,
    (3, 11.660254037844386): 0.0029762235984633211228,
    (10, 5.0): 0.98630473140161706178,
    (10, 8.0): 0.81588579255854649345,
    (10, 10.0): 0.5830397501929855073,
    (10, 12.0): 0.34722941755417166919,
    (10, 15.0): 0.11846441152901508815,
    (10, 25.811388300841898): 0.00035235752463434942149,
    (30, 2.613872124741693): 1.0,
    (30, 15.0): 0.99980268685031174902,
    (30, 24.0): 0.904151598220515426,
    (30, 30.0): 0.54835151257791142615,
    (30, 36.0): 0.18062554245725561016,
    (30, 45.0): 0.011597729543089793651,
    (30, 57.38612787525831): 0.000053004700727310733658,
    (100, 50.0): 0.99999999984302540276,
    (100, 80.0): 0.98683114512406614551,
    (100, 100.0): 0.52656219852999847038,
    (100, 120.0): 0.034668034694424962309,
    (100, 150.0): 9.0502595708578737626e-6,
    (150, 75.0): 0.99999999999999170041,
    (150, 88.76275643042055): 0.99999999881580667957,
    (150, 120.0): 0.99644803489476473258,
    (150, 150.0): 0.52169717970747686643,
    (150, 180.0): 0.012206138282834642718,
    (150, 211.23724356957945): 5.5178264872146358247e-6,
    (150, 225.0): 6.6175140471851854501e-8,
    (300, 150.0): 1.0,
    (300, 213.39745962155612): 0.99999999068720437149,
    (300, 240.0): 0.99991728897964811682,
    (300, 300.0): 0.51534875726292385266,
    (300, 360.0): 0.00064136202201262810443,
    (300, 386.6025403784439): 2.6815003877842323255e-6,
    (300, 450.0): 3.2886235546361791483e-14,
    (1000, 500.0): 1.0,
    (1000, 800.0): 0.99999999999561997169,
    (1000, 841.886116991581): 0.99999994599647880787,
    (1000, 1000.0): 0.50840936716850599121,
    (1000, 1158.113883008419): 1.0794242240566273095e-6,
    (1000, 1200.0): 1.5531469821142221561e-9,
    (1000, 1500.0): 3.3135975777893505887e-43,
    (3000, 1500.0): 1.0,
    (3000, 2400.0): 1.0,
    (3000, 2726.138721247417): 0.99999988494980640852,
    (3000, 3000.0): 0.50485556398892019467,
    (3000, 3273.861278752583): 6.3777795904269871857e-7,
    (3000, 3600.0): 4.0179280407735409917e-25,
    (3000, 4500.0): 1.4823015453062330206e-125,
    (10000, 5000.0): 1.0,
    (10000, 8000.0): 1.0,
    (10000, 9500.0): 0.99999982339727104356,
    (10000, 10000.0): 0.50265958121900762527,
    (10000, 10500.0): 4.4980275073306997145e-7,
    (10000, 12000.0): 3.9946284855549772928e-79,
    (10000, 15000.0): 3.2963647912201342267e-413,
}


class TestLogPoissonPmf:
    def test_empty_process(self):
        assert log_poisson_pmf(0, 0.0) == 0.0

    def test_zero_count(self):
        assert log_poisson_pmf(0, 2.5) == pytest.approx(-2.5, rel=1e-15)

    def test_direct_evaluation(self):
        # ln(1.5**3 / 6) - 1.5 with exact rationals
        expected = math.log(0.5625) - 1.5
        assert log_poisson_pmf(3, 1.5) == pytest.approx(expected, rel=1e-14)
        assert log_poisson_pmf(3, 1.5) == pytest.approx(-2.0753641449035618549, rel=1e-14)

    def test_zero_mean_positive_count(self):
        assert log_poisson_pmf(2, 0.0) == -math.inf

    def test_no_overflow_at_large_count(self):
        assert math.isfinite(log_poisson_pmf(10_000, 10_000.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            log_poisson_pmf(1, -0.5)
        with pytest.raises(ValueError):
            log_poisson_pmf(1.5, 1.0)

    def test_array_matches_scalar(self):
        nus = np.array([0.0, 0.3, 2.5, 40.0])
        out = log_poisson_pmf(4, nus)
        for i, nu in enumerate(nus):
            assert out[i] == log_poisson_pmf(4, float(nu))

    @pytest.mark.parametrize("nu", [0.05, 1.0, 7.3, 50.0, 300.0])
    def test_normalization(self, nu):
        top = math.ceil(nu + 20.0 * math.sqrt(nu) + 20.0)
        total = math.fsum(math.exp(log_poisson_pmf(n, nu)) for n in range(top + 1))
        assert 1.0 - 1e-9 <= total <= 1.0 + 1e-12


def assert_decreasing(vals):
    """Nonincreasing everywhere, strictly decreasing away from the
    saturated plateaus at 1.0 and 0.0 (where float64 cannot resolve the
    mathematically strict decrease)."""
    diffs = np.diff(vals)
    assert np.all(diffs <= 0.0)
    interior = (vals[:-1] < 1.0 - 1e-13) & (vals[1:] > 1e-300)
    assert np.any(interior)
    assert np.all(diffs[interior] < 0.0)


class TestPoissonCdf:
    def test_zero_mean(self):
        assert poisson_cdf(5, 0.0) == 1.0

    def test_single_term(self):
        assert poisson_cdf(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_term_by_term_sum(self):
        # independent oracle: exact partial sums of the pmf series
        expected = math.exp(-1.5) * math.fsum([1.0, 1.5, 1.125, 0.5625])
        assert poisson_cdf(3, 1.5) == pytest.approx(expected, rel=1e-14)
        assert poisson_cdf(3, 1.5) == pytest.approx(0.93435754562154990866, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 2, 17, 150])
    def test_strictly_decreasing_in_mean(self, n):
        nus = np.linspace(0.01, max(60.0, 2.5 * n), 400)
        assert_decreasing(poisson_cdf(n, nus))

    def test_array_matches_scalar(self):
        # means below, at and above n, so both tails' walks are taken
        cases = {6: [0.0, 0.2, 1.5, 12.0, 250.0], 150: [0.0, 0.3, 100.0, 149.5, 150.0, 151.0, 400.0]}
        for n, means in cases.items():
            nus = np.array(means)
            out = poisson_cdf(n, nus)
            for i, nu in enumerate(nus):
                assert out[i] == poisson_cdf(n, float(nu))

    @pytest.mark.parametrize(("n", "x"), sorted(POISSON_CDF_TABLE))
    def test_reference_values_at_large_counts(self, n, x):
        ref = POISSON_CDF_TABLE[(n, x)]
        for got in (poisson_cdf(n, x), float(poisson_cdf(n, np.array([x]))[0])):
            if ref > 1e-290:
                assert abs(got - ref) <= 1e-14 * (n + x + 1.0) * ref
            else:
                assert 0.0 <= got <= 1e-290

    def test_far_tail_is_zero_without_error(self):
        assert poisson_cdf(2, 5000.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_cdf(3, -1.0)
        with pytest.raises(ValueError):
            poisson_cdf(-3, 1.0)


class TestGammaQ:
    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x); x here is ln(2) rounded to 6 digits
        assert gamma_q(1.0, 0.693147) == pytest.approx(0.5, abs=1e-6)

    def test_full_integral(self):
        assert gamma_q(4.0, 0.0) == 1.0

    def test_matches_poisson_cdf(self):
        assert gamma_q(4.0, 1.5) == pytest.approx(poisson_cdf(3, 1.5), abs=1e-13)

    @pytest.mark.parametrize(("a", "x"), sorted(GAMMA_Q_TABLE))
    def test_reference_values(self, a, x):
        assert gamma_q(a, x) == pytest.approx(GAMMA_Q_TABLE[(a, x)], rel=1e-12)

    @pytest.mark.parametrize("a", [0.3, 1.0, 4.0, 37.5, 120.0])
    def test_strictly_decreasing_in_x(self, a):
        xs = np.linspace(0.01, 4.0 * a + 50.0, 500)
        assert_decreasing(gamma_q(a, xs))

    def test_array_matches_scalar(self):
        xs = np.array([0.0, 0.4, 3.0, 5.1, 200.0])
        out = gamma_q(4.2, xs)
        for i, x in enumerate(xs):
            assert out[i] == gamma_q(4.2, float(x))

    def test_bounds(self):
        xs = np.linspace(0.0, 400.0, 1000)
        vals = gamma_q(33.0, xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_q(-2.0, 1.0)
        with pytest.raises(ValueError):
            gamma_q(2.0, -1.0)


def test_identity_between_routes_spot_grid():
    # the full n in [0, 100] x nu in [0, 50] sweep runs in the acceptance
    # suite; this keeps a coarse version close to the implementation
    for n in (0, 1, 5, 33, 100, 150, 199):
        nus = np.linspace(0.0, 50.0 if n <= 100 else 300.0, 101)
        diff = np.abs(poisson_cdf(n, nus) - gamma_q(n + 1.0, nus))
        assert float(diff.max()) <= 1e-12


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, Exception)
