import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from countlim import ConvergenceError, gamma_q, log_poisson_pmf, poisson_cdf
from countlim import special
from oracles import erfcx_mp, erfcx_table

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
    # Temme's route (a > 20, 0.1 a <= x <= 2 a): both edges, the ulp just
    # outside each (series below, continued fraction above) and a +- sqrt(a);
    # at 3 a and 4 a the expansion would miss the bound (by 2x to 3600x)
    (21.0, 2.0999999999999996): 0.99999999999998452588,
    (21.0, 2.1): 0.99999999999998452588,
    (21.0, 16.41742430504416): 0.84362085725294851961,
    (21.0, 25.58257569495584): 0.15699153782562666018,
    (21.0, 42.0): 0.0001270656140066638034,
    (21.0, 42.00000000000001): 0.00012706561400666331352,
    (21.0, 63.0): 2.5212564132933236152e-10,
    (21.0, 84.0): 5.4298704237064951565e-17,
    (151.0, 15.1): 1.0,
    (151.0, 15.100000000000001): 1.0,
    (151.0, 138.7117942725555): 0.84162827208479323899,
    (151.0, 163.2882057274445): 0.15840275469693197125,
    (151.0, 302.0): 2.4134430037814710777e-22,
    (151.0, 302.00000000000006): 2.4134430037814015921e-22,
    (151.0, 604.0): 1.6160220781116061564e-108,
    (1001.0, 100.1): 1.0,
    (1001.0, 100.10000000000001): 1.0,
    (1001.0, 969.3614159608873): 0.84138596151739872244,
    (1001.0, 1032.6385840391129): 0.15861585054208846117,
    (1001.0, 2002.0): 5.035491474630023174e-136,
    (1001.0, 2002.0000000000002): 5.0354914746294495645e-136,
    (10001.0, 1000.0999999999999): 1.0,
    (10001.0, 1000.1): 1.0,
    (10001.0, 9900.995000124994): 0.84134880739884522465,
    (10001.0, 10101.004999875006): 0.15865124995180733643,
    (10001.0, 20002.0): 6.647694286978124286e-1336,
    (10001.0, 20002.000000000004): 6.6476942869660297831e-1336,
    (100001.0, 10000.099999999999): 1.0,
    (100001.0, 10000.1): 1.0,
    (100001.0, 99684.77065284828): 0.84134515025805197054,
    (100001.0, 100000.0): 0.50084104309934012387,
    (100001.0, 100317.22934715172): 0.15865485155568777563,
    (100001.0, 200002.0): 3.3037747808398706229e-13330,
    (100001.0, 200002.00000000003): 3.3037747807917934109e-13330,
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


# Lane counts either side of the kernels' narrow-call crossover: at most
# special._NARROW_LANES lanes run the scalar twin lane by lane, more run
# the array walks.
NARROW = special._NARROW_LANES
WIDE = NARROW + 1


def assert_twins_agree(array_out, scalar_out, n, xs):
    """The array walks against the scalar twins on wide calls. Within 16
    ulp: the array walks run converged lanes on to the slowest lane's end,
    numpy's exp can round differently from math.exp, and the routes that
    return 1 - sum magnify the sum's last bits by up to 6.4 (Q(1, 2)). The
    worst seen on 352,000 lanes (n from 0 to 147) was 8 ulp. On a lane where
    numpy's log rounds differently from math.log, that difference is carried
    through the prefactor exp((n + 1) ln x - ...) on top."""
    log_gap = np.zeros_like(xs)
    positive = xs > 0.0
    log_gap[positive] = np.abs(np.log(xs[positive]) - [math.log(x) for x in xs[positive].tolist()])
    bound = 16.0 * np.spacing(scalar_out) + 2.0 * (n + 1.0) * log_gap
    assert np.all(np.abs(array_out - scalar_out) <= bound)


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

    # means below, at and above n, so both tails' walks are taken
    MEANS = {6: [0.0, 0.2, 1.5, 12.0, 250.0], 150: [0.0, 0.3, 100.0, 149.5, 150.0, 151.0, 400.0]}

    @pytest.mark.parametrize("n", sorted(MEANS))
    def test_narrow_array_is_the_scalar_twin(self, n):
        nus = np.resize(self.MEANS[n], NARROW)
        out = poisson_cdf(n, nus)
        assert out.shape == nus.shape
        assert out.tolist() == [poisson_cdf(n, x) for x in nus.tolist()]

    def test_array_matches_scalar(self):
        # wide calls: the array walks
        for n in (0, 1, 3, 6, 17, 40, 100, 150):
            nus = np.random.default_rng(n).uniform(0.0, 2.5 * n + 10.0, 400)
            means = self.MEANS.get(n, [])
            nus[: len(means)] = means
            assert_twins_agree(poisson_cdf(n, nus), np.array([poisson_cdf(n, x) for x in nus.tolist()]), n, nus)

    @pytest.mark.parametrize(("n", "x"), sorted(POISSON_CDF_TABLE))
    def test_reference_values_at_large_counts(self, n, x):
        ref = POISSON_CDF_TABLE[(n, x)]
        # the scalar twin, and the array walks on a wide call of copies
        for got in (poisson_cdf(n, x), *poisson_cdf(n, np.full(WIDE, x)).tolist()):
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

    @pytest.mark.parametrize(("a", "x"), sorted(GAMMA_Q_TABLE))
    def test_reference_values_on_both_twins(self, a, x):
        ref = GAMMA_Q_TABLE[(a, x)]
        # the scalar twin, and the array routes on a wide call of copies
        for got in (gamma_q(a, x), *gamma_q(a, np.full(WIDE, x)).tolist()):
            if ref > 1e-290:
                assert abs(got - ref) <= 1e-14 * (a + x + 1.0) * ref
            else:
                assert 0.0 <= got <= 1e-290

    @pytest.mark.parametrize("a", [0.3, 1.0, 4.0, 21.0, 37.5, 120.0, 151.0, 1001.0])
    def test_strictly_decreasing_in_x(self, a):
        # dense either side of where the routes switch: x = 0.1 a, a + 1, 2 a
        edges = np.array([0.1 * a, a + 1.0, 2.0 * a])
        near = edges[:, None] * (1.0 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6]))
        xs = np.union1d(np.linspace(0.01, 4.0 * a + 50.0, 500), near.ravel())
        assert_decreasing(gamma_q(a, xs))

    # every route: zero, series, continued fraction and (a > 20) Temme's
    XS = [0.0, 0.4, 3.0, 5.1, 200.0, 21.0, 33.0, 77.5]

    @pytest.mark.parametrize("a", [4.2, 31.0])
    def test_narrow_array_is_the_scalar_twin(self, a):
        xs = np.resize(self.XS, NARROW)
        out = gamma_q(a, xs)
        assert out.shape == xs.shape
        assert out.tolist() == [gamma_q(a, x) for x in xs.tolist()]

    def test_array_matches_scalar(self):
        # wide calls: the array routes
        for n in (0, 1, 3, 6, 17, 40, 100, 150):
            xs = np.random.default_rng(n).uniform(0.0, 2.5 * n + 10.0, 400)
            xs[: len(self.XS)] = self.XS
            a = n + 1.0
            assert_twins_agree(gamma_q(a, xs), np.array([gamma_q(a, x) for x in xs.tolist()]), n, xs)

    @pytest.mark.parametrize("a", [21.0, 151.0, 1001.0, 100001.0])
    def test_twins_agree_in_temme_region(self, a):
        # eta comes from the same arithmetic in both twins, so they differ
        # only where numpy's exp and math.exp round differently, by at most
        # 2 ulp of Q
        xs = np.random.default_rng(7).uniform(0.1 * a, 2.0 * a, 400)
        out = gamma_q(a, xs)
        for got, x in zip(out, xs):
            want = gamma_q(a, float(x))
            assert abs(got - want) <= 2.0 * np.spacing(want)

    def test_temme_table_matches_its_recurrence(self):
        # Rederive the coefficient table in exact rationals. Row 0: the
        # Taylor coefficients in eta of 1/mu - 1/eta, where
        # eta^2/2 = mu - ln(1 + mu); mu = sum_m c_m eta^m follows from
        # mu dmu/deta = eta (1 + mu). Row k: d[k][j] = (j + 2) d[k-1][j+2]
        # - d[k-1][1] d[0][j]. Every entry must be the correctly rounded value.
        table = special._TEMME_D
        rows, cols = len(table), len(table[0])
        width = cols + 2 * (rows - 1)
        c = [Fraction(0), Fraction(1)]
        for m in range(2, width + 3):
            acc = c[m - 1] - sum((m + 1 - i) * c[i] * c[m + 1 - i] for i in range(2, m))
            c.append(acc / (m + 1))
        v = c[1:]  # mu / eta
        w = [Fraction(1)]  # eta / mu
        for n in range(1, width + 1):
            w.append(-sum(v[k] * w[n - k] for k in range(1, n + 1)))
        d = [w[1:]]
        for _ in range(1, rows):
            prev = d[-1]
            d.append([(j + 2) * prev[j + 2] - prev[1] * d[0][j] for j in range(len(prev) - 2)])
        assert d[0][:3] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135)]
        assert d[1][0] == Fraction(-1, 540)
        assert all(len(row) == cols for row in table)
        for k in range(rows):
            assert list(table[k]) == [float(q) for q in d[k][:cols]], f"row {k}"

    def test_temme_takes_no_erfc(self, monkeypatch):
        # erfc comes from the erfcx kernel: no per-lane math.erfc loop
        def refuse(z):
            raise AssertionError("math.erfc called")

        monkeypatch.setattr(math, "erfc", refuse)
        xs = np.linspace(0.5 * 151.0, 1.5 * 151.0, WIDE)
        assert_twins_agree(gamma_q(151.0, xs), np.array([gamma_q(151.0, x) for x in xs.tolist()]), 150, xs)

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


class TestErfcx:
    # the ends of every piece of the table (z = 16/j - 2), where the
    # continued fraction takes over (z = 14), and the floats either side
    EDGES = [16.0 / j - 2.0 for j in range(1, 9)]
    ZS = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 400.0, 2001),
                np.geomspace(1e-9, 30.0, 400),
                EDGES,
                np.nextafter(EDGES, math.inf),
                np.nextafter(EDGES[:-1], 0.0),
            ]
        )
    )

    def test_table_matches_its_generator(self):
        assert special._ERFCX_TABLE == erfcx_table()

    def test_matches_mpmath(self):
        got = special._erfcx_array(self.ZS)
        with mpmath.workdps(30):
            worst = max(abs(mpmath.mpf(v) / erfcx_mp(z) - 1) for v, z in zip(got.tolist(), self.ZS.tolist()))
        assert self.ZS.size >= 2000
        assert worst <= 1e-15

    def test_twins_give_the_same_bits(self):
        zs = np.concatenate([self.ZS, [1e3, 1e8, 1e200, math.inf]])
        assert special._erfcx_array(zs).tolist() == [special._erfcx_scalar(z) for z in zs.tolist()]

    def test_far_tail(self):
        # erfcx(z) = (1 - 1/(2 z^2) + ...) / (sqrt(pi) z): the leading term
        # alone is exact to double precision from z = 1e8; 0 at z = inf
        with mpmath.workdps(30):
            want = [erfcx_mp(1e3), erfcx_mp(1e7)] + [1 / (mpmath.sqrt(mpmath.pi) * z) for z in (1e8, 1e200)]
        for z, w in zip((1e3, 1e7, 1e8, 1e200), want):
            assert abs(special._erfcx_scalar(z) / w - 1) <= 1e-15
        assert special._erfcx_scalar(math.inf) == 0.0


_INF_INPUTS = {
    "scalar": math.inf,
    "narrow": np.array([2.0, math.inf, 0.0]),
    "wide": np.concatenate([np.linspace(0.0, 400.0, special._NARROW_LANES), [math.inf]]),
}


@pytest.mark.parametrize("x", list(_INF_INPUTS.values()), ids=list(_INF_INPUTS))
@pytest.mark.parametrize(
    "kernel, limit",
    [
        (lambda x: poisson_cdf(3, x), 0.0),
        (lambda x: poisson_cdf(0, x), 0.0),
        (lambda x: gamma_q(4.0, x), 0.0),
        (lambda x: gamma_q(31.0, x), 0.0),
        (lambda x: log_poisson_pmf(3, x), -math.inf),
        (lambda x: log_poisson_pmf(0, x), -math.inf),
    ],
    ids=["poisson_cdf", "poisson_cdf n=0", "gamma_q", "gamma_q temme", "log_poisson_pmf", "log_poisson_pmf n=0"],
)
def test_infinite_mean_gives_the_limit(kernel, limit, x):
    # poisson_cdf(3, inf) was NaN, gamma_q(4, inf) ran 500 fraction steps
    got = kernel(x)
    if isinstance(x, np.ndarray):
        finite = x < math.inf
        assert got[~finite].tolist() == [limit]
        assert np.allclose(got[finite], [kernel(v) for v in x[finite].tolist()], rtol=1e-13, atol=0.0)
    else:
        assert got == limit


_NAN_INPUTS = {
    "scalar": math.nan,
    "narrow, NaN first": np.array([math.nan, -1.0]),
    "narrow, NaN after a valid lane": np.array([1.0, math.nan, 2.0]),
    "narrow, NaN after an inf lane": np.array([math.inf, math.nan]),
    "wide": np.concatenate([np.linspace(0.0, 9.0, special._NARROW_LANES), [math.nan]]),
    "wide, NaN first": np.concatenate([[math.nan], np.linspace(0.0, 9.0, special._NARROW_LANES)]),
}


@pytest.mark.parametrize("x", list(_NAN_INPUTS.values()), ids=list(_NAN_INPUTS))
@pytest.mark.parametrize(
    "kernel",
    [lambda x: poisson_cdf(3, x), lambda x: gamma_q(4.0, x), lambda x: log_poisson_pmf(3, x)],
    ids=["poisson_cdf", "gamma_q", "log_poisson_pmf"],
)
def test_nan_is_refused_like_a_negative_mean(kernel, x):
    # poisson_cdf(3, nan) once returned 1.0, and [nan, -1.0] passed min() < 0
    with pytest.raises(ValueError, match="must be nonnegative"):
        kernel(x)


def test_nan_shape_parameter_is_refused():
    with pytest.raises(ValueError, match="a must be positive"):
        gamma_q(math.nan, 1.0)


def test_identity_between_routes_spot_grid():
    # the full n in [0, 100] x nu in [0, 50] sweep runs in the acceptance
    # suite; this keeps a coarse version close to the implementation
    for n in (0, 1, 5, 33, 100, 150, 199):
        nus = np.linspace(0.0, 50.0 if n <= 100 else 300.0, 101)
        diff = np.abs(poisson_cdf(n, nus) - gamma_q(n + 1.0, nus))
        assert float(diff.max()) <= 1e-12


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, Exception)
