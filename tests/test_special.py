import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from countlim import ConfigError, ConvergenceError, gamma_q, log_poisson_pmf, poisson_cdf
from countlim import special
from oracles import erfcx_mp, erfcx_table

# Reference values computed with mpmath at 50 digits:
#   gammainc(a, x, inf, regularized=True)
# on integer a, the only a that gamma_q takes
GAMMA_Q_TABLE = {
    (1.0, 0.693147): 0.50000009027998082638,
    (2.0, 0.001): 0.99999950033320836666,
    (4.0, 1.5): 0.93435754562154990866,
    (10.0, 3.0): 0.99889751186988452026,
    # the continued fraction for a <= 20 (x >= a + 1): its edge and the
    # float above it at a = 1 and a = 20, and further along its route
    (1.0, 2.0): 0.13533528323661269189,
    (1.0, 2.0000000000000004): 0.13533528323661263179,
    (2.0, 7.0): 0.007295055724436129664,
    (3.0, 60.0): 1.629586652937822435e-23,
    (5.0, 12.0): 0.0076003906810669954715,
    (12.0, 30.0): 0.000063877025399273364991,
    (20.0, 21.0): 0.38426277226434216061,
    (20.0, 21.000000000000004): 0.38426277226434186722,
    (30.0, 30.0): 0.47571698610631993096,
    (51.0, 63.0): 0.053702717830453196902,
    (101.0, 50.0): 0.99999999984302540276,
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

    # a count that is not an integer of some numeric type: once, int()
    # truncated np.float32(2.5) to 2 and took a string or a bool
    NOT_COUNTS = [np.float32(2.5), np.float64(2.5), Fraction(5, 2), "3", True, np.True_, None]

    @pytest.mark.parametrize("n", NOT_COUNTS, ids=repr)
    @pytest.mark.parametrize("kernel", [log_poisson_pmf, poisson_cdf])
    def test_non_integer_counts_are_refused(self, kernel, n):
        for nu in (2.5, np.linspace(0.0, 9.0, 3), np.linspace(0.0, 9.0, 30)):
            with pytest.raises(ConfigError, match=rf"^{kernel.__name__}\.n must be an integer of at least 0 within the float range, got "):
                kernel(n, nu)

    @pytest.mark.parametrize("n", [2, np.int64(2), np.uint8(2), 2.0, np.float32(2.0), Fraction(4, 2)], ids=repr)
    @pytest.mark.parametrize("kernel", [log_poisson_pmf, poisson_cdf])
    def test_integral_counts_of_any_type_pass(self, kernel, n):
        assert kernel(n, 2.5) == kernel(2, 2.5)

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
# Widths the array routes took over from the scalar twins when the
# crossover came down from 40 lanes: the 32-node rule's sets among them.
MOVED = (32, 40)
assert NARROW < min(MOVED)


def assert_twins_agree(array_out, scalar_out, n, xs):
    """The array routes against the scalar twins on wide calls. Within 16
    ulp: on the series the arrays sum by baby steps and giant steps where
    the twins walk forward, numpy's exp can round differently from
    math.exp, and the routes that return 1 - sum magnify the sum's last
    bits by up to 6.4 (a = 1, x just below 2). On 40 x 400 uniform lanes at
    each n from 0 to 147, where the logs agree, the worst seen was 24 ulp
    on gamma_q's series (n = 0) and 20 for poisson_cdf (n = 96): random
    lanes can exceed this bound, though the seeded lanes tested here do
    not, so it flags a broken route, not every last-bit drift. gamma_q's
    fraction is held to the same bits wherever the prefactors agree
    (``test_fraction_twins_give_the_same_bits``). On a lane where numpy's
    log rounds differently from math.log, that difference is carried
    through the prefactor exp((n + 1) ln x - ...) on top."""
    log_gap = np.zeros_like(xs)
    positive = xs > 0.0
    log_gap[positive] = np.abs(np.log(xs[positive]) - [math.log(x) for x in xs[positive].tolist()])
    bound = 16.0 * np.spacing(scalar_out) + 2.0 * (n + 1.0) * log_gap
    assert np.all(np.abs(array_out - scalar_out) <= bound)


def assert_lanes_are_independent_of_the_call(kernel, first, edge, inner):
    """Each lane of one wide call on a route, from its edge inward (linspace
    and geomspace to ``inner``), is the same x in a wide call of copies, bit
    for bit, whatever that call's width: a lane's value depends on (first,
    x) alone."""
    xs = np.union1d(np.linspace(edge, inner, 200), np.geomspace(edge, inner, 200))
    got = kernel(first, xs).tolist()
    for width in (WIDE, *MOVED):
        assert got == [kernel(first, np.full(width, x))[0] for x in xs.tolist()]


def loop_coeffs(factors, m: float) -> list[float]:
    """The scalar loop's coefficient list at ratio m: c_0 = 1 and
    c_j = c_{j-1} * f_j, up to the first j with (f_1 m) ... (f_j m)
    <= 1e-18, which is left out; highest power first."""
    coeffs = [1.0]
    c = reach = 1.0
    for f in factors:
        c *= f
        reach *= f * m
        if reach <= 1e-18:
            break
        coeffs.append(c)
    return coeffs[::-1]


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
        # and lanes spread evenly over both tails, out to n = 1500, on calls
        # just wide enough for the array walks and as wide as 40
        for n, width in itertools.product((6, 150, 1500), (WIDE, *MOVED)):
            nus = np.linspace(0.2, 2.5 * n, width)
            assert (nus < n).any() and (nus >= n).any()
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

    @pytest.mark.parametrize("n", [150, 1000, 10000])
    def test_longest_series_beside_far_lanes(self, n):
        # one wide call holds each tail's longest series, x = n (y = 1) and
        # the float below n (z -> n/(n + 1)), beside far lanes, x = 3n and
        # n/3: each tail's polynomial, cut at its edge, holds its longest lane
        xs = np.resize([float(n), 3.0 * n, math.nextafter(n, 0.0), n / 3.0], WIDE)
        got = poisson_cdf(n, xs)
        with mpmath.workdps(30):
            refs = [float(mpmath.gammainc(n + 1, x, mpmath.inf, regularized=True)) for x in xs[:4].tolist()]
        for x, g, ref in zip(xs.tolist(), got.tolist(), itertools.cycle(refs)):
            if ref > 1e-290:
                assert abs(g - ref) <= 1e-14 * (n + x + 1.0) * ref
            else:
                assert 0.0 <= g <= 1e-290

    # the largest gap seen between the twins on 100,000 uniform lanes in
    # [0, 2.5 n + 10] where the logs agree: 38 ulp at n = 1500, 84 at 1e4.
    # The forward walk and the polynomial round differently, and both
    # carry the rounding of 1/x or n/x into the j-th term j times.
    LARGE_TWIN_ULPS = {1500: 64.0, 10000: 128.0}

    @pytest.mark.parametrize("n", sorted(LARGE_TWIN_ULPS))
    def test_twins_agree_at_large_counts(self, n):
        nus = np.random.default_rng(n).uniform(0.0, 2.5 * n + 10.0, 400)
        nus[:3] = [float(n), math.nextafter(n, 0.0), n + 0.5]
        scalar_out = np.array([poisson_cdf(n, x) for x in nus.tolist()])
        log_gap = np.abs(np.log(nus) - [math.log(x) for x in nus.tolist()])
        bound = self.LARGE_TWIN_ULPS[n] * np.spacing(scalar_out) + 2.0 * (n + 1.0) * log_gap
        assert np.all(np.abs(poisson_cdf(n, nus) - scalar_out) <= bound)

    @pytest.mark.parametrize("n", [1, 2, 20, 150, 1500, 10000, 100000])
    @pytest.mark.parametrize("m", [0.01, 0.5, 0.9, 0.99, 0.999, 1.0])
    def test_series_cut_where_its_tail_is_below_half_an_ulp(self, n, m):
        # at each route's largest ratio, 1 on both Poisson tails, the
        # polynomial keeps every term above 1e-18; on a lane of m times
        # that ratio it drops terms that sum to below half an ulp of the
        # lane's sum (at least 1) for n <= 1e5. And gamma_q's lower series,
        # factors s / (a + j) in x / s, whose largest x is below a + 1
        # (a <= 20) or 0.1 a
        tails = [
            (("lower", n), lambda: (k / n for k in range(n, 0, -1)), 1.0),
            (("upper", n), lambda: ((n + 1) / k for k in itertools.count(n + 2)), 1.0),
        ]
        for a in (1.0, 2.0, 20.0, 21.0, 151.0):
            bound, s = special._series_bound(a)
            tails.append((("gamma", a), lambda a=a, s=s: (s / (a + j) for j in itertools.count(1)), bound / s))
        for key, factors, edge in tails:
            coeffs = special._series_table(*key)[::-1].tolist()
            assert coeffs[0] == 1.0
            assert min(c * edge**j for j, c in enumerate(coeffs)) > 1e-18
            ratio = m * edge
            term = coeffs[-1] * ratio ** (len(coeffs) - 1)
            dropped = []
            for f in itertools.islice(factors(), len(coeffs) - 1, None):
                term *= f * ratio
                dropped.append(term)
                if term < 1e-40:
                    break
            assert not dropped or dropped[0] <= 1e-18
            assert math.fsum(dropped) < 0.5 * np.spacing(1.0)

    @pytest.mark.parametrize("n", [0, 1, 150, 10000, 100000])
    @pytest.mark.parametrize("m", [1e-300, 0.5, 1.0 - 2.0**-52, 1.0])
    def test_table_cut_is_the_loops_list(self, n, m):
        # each tail's table at count n holds the coefficients the scalar
        # loop builds from the same factors, bit for bit, cut at the tail's
        # largest ratio 1, after ~9.1 sqrt(n) + 27 factors at most; the
        # loop's list cut at a lane of ratio m is its lowest powers
        for route, factors in (
            ("lower", lambda: (k / n for k in range(n, 0, -1))),
            ("upper", lambda: ((n + 1) / k for k in itertools.count(n + 2))),
        ):
            table = special._series_table(route, n).tolist()
            assert table == loop_coeffs(factors(), 1.0)
            lane = loop_coeffs(factors(), m)
            assert table[len(table) - len(lane) :] == lane
            assert len(table) <= 9.2 * math.sqrt(n) + 30

    def test_tables_are_built_in_one_try(self, monkeypatch):
        # each try lays out its factors with one np.arange: both tails of
        # every count, and gamma_q's series at every a, take one try,
        # however long their table
        tries = []
        arange = np.arange
        monkeypatch.setattr(np, "arange", lambda *args: tries.append(args) or arange(*args))
        keys = [(route, n) for n in [*range(2001), 10000] for route in ("lower", "upper")]
        keys += [("gamma", float(a)) for a in [*range(1, 202), 1e5 + 1, 1e60, 1e300]]
        for key in keys:
            tries.clear()
            special._series_table(*key)
            assert len(tries) == 1, key

    @pytest.mark.parametrize("a", [1.0, 20.0, 21.0, 1e60, 1e300])
    def test_gamma_series_table_cut_is_the_loops_list(self, a):
        # the series lanes lie below a + 1, and below 0.1 a where Temme's
        # route takes a > 20; in x / s, s the power of two above that bound,
        # the table for a is the loop's list, cut where the bound ends it
        bound = TestGammaQ.series_edge(a)
        edge, s = special._series_bound(a)
        assert edge == bound < s <= 2.0 * bound
        assert math.frexp(s)[0] == 0.5
        table = special._series_table("gamma", a)
        assert table.tolist() == loop_coeffs((s / (a + j) for j in itertools.count(1)), bound / s)
        assert len(table) <= 64

    def test_horner_takes_every_coefficient(self):
        y = np.array([0.0, 0.5, 1.0, 2.0])
        assert special._horner([4.0, 3.0, 2.0, 1.0], y).tolist() == [1.0, 3.25, 10.0, 49.0]
        assert special._horner([1.0], y).tolist() == [1.0] * 4
        # a float takes the same loop, and gives a float
        assert [special._horner((4.0, 3.0, 2.0, 1.0), v) for v in y.tolist()] == [1.0, 3.25, 10.0, 49.0]
        assert [special._horner((1.0,), v) for v in (-2.0, 0.0, 3.0)] == [1.0] * 3
        assert type(special._horner((4.0, 3.0), 0.5)) is float

    def test_series_sum_is_exact_on_small_integers(self):
        # every degree up to 40: one coefficient, whole blocks of K (d = K B)
        # and one coefficient past them (d = K B + 1), on lanes where every
        # partial sum is exact in float64
        y = np.array([0.0, 0.5, 1.0, -1.0, 2.0])
        shapes = set()
        for d in range(41):
            k = max(2, math.isqrt(2 * d))
            shapes.add(min(d % k, 2) if d else "one")
            coeffs = [float(1 + (7 * j) % 3) for j in range(d + 1)]
            exact = []
            for v in y.tolist():
                p = Fraction(0)
                for c in coeffs:
                    p = p * Fraction(v) + Fraction(c)
                exact.append(float(p))
            assert special._series_sum(special._block_matrix(coeffs), y).tolist() == exact
        assert shapes == {"one", 0, 1, 2}

    @staticmethod
    def tail_coeffs(n, m):
        """Each Poisson tail's coefficients at count n, and the largest
        ratio of lanes to try on it: m, and below n/(n + 1) for the upper."""
        z = min(m, math.nextafter(n / (n + 1.0), 0.0))
        return (
            (special._series_table("lower", n).tolist(), m),
            (special._series_table("upper", n).tolist(), z),
        )

    @staticmethod
    def assert_series_sum_near_mpmath(coeffs, values, lanes):
        """Every lane within 8 ulp of the polynomial with these rounded
        coefficients at that lane's value, summed by mpmath at 40 digits."""
        with mpmath.workdps(40):
            refs = {v: float(mpmath.polyval(coeffs, mpmath.mpf(v))) for v in values}
        got = special._series_sum(special._block_matrix(coeffs), lanes)
        ref = np.array([refs[v] for v in lanes.tolist()])
        assert np.all(np.abs(got - ref) <= 8.0 * np.spacing(ref))

    @pytest.mark.parametrize("n", [150, 1500, 10000, 100000])
    @pytest.mark.parametrize("m", [0.999, 1.0])
    def test_series_sum_near_mpmath(self, n, m):
        rng = np.random.default_rng(n)
        for coeffs, ratio in self.tail_coeffs(n, m):
            lanes = np.append(rng.uniform(0.0, ratio, 15), ratio)
            self.assert_series_sum_near_mpmath(coeffs, lanes.tolist(), lanes)

    @pytest.mark.parametrize("blocks, extra", [(0, 41), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_series_sum_on_every_lane_of_a_block(self, blocks, extra):
        # the matrix product may round a lane by where it sits in its block
        # of lanes: 97 values recur at every offset of calls around the block
        count = blocks * special._LANE_BLOCK + extra
        values = np.append(np.random.default_rng(count).uniform(0.0, 1.0, 96), 1.0)
        for coeffs, ratio in self.tail_coeffs(150, 1.0):
            lanes = np.resize(values * ratio, count)
            self.assert_series_sum_near_mpmath(coeffs, set(lanes.tolist()), lanes)

    def test_far_tail_is_zero_without_error(self):
        assert poisson_cdf(2, 5000.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_cdf(3, -1.0)
        with pytest.raises(ValueError):
            poisson_cdf(-3, 1.0)


# a log grid of integer shapes on Temme's route, from 61 to 1e5 + 1
TEMME_LOG_GRID = [round(v) for v in np.geomspace(61.0, 100001.0, 12).tolist()]


def temme_rationals(rows: int, cols: int) -> list[list[Fraction]]:
    """Temme's coefficient rows d[k][j], k < rows and j < cols, in exact
    rationals. Row 0: the Taylor coefficients in eta of 1/mu - 1/eta, where
    eta^2/2 = mu - ln(1 + mu); mu = sum_m c_m eta^m follows from
    mu dmu/deta = eta (1 + mu). Row k: d[k][j] = (j + 2) d[k-1][j+2]
    - d[k-1][1] d[0][j], so row k needs 2 (rows - 1 - k) more columns than
    ``cols``: 25 rows of 25 columns start from a row 0 of width 73."""
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
    return [row[:cols] for row in d]


def temme_fold(rows, a: float) -> tuple[float, ...]:
    """sum_k C_k(eta) a^-k over ``rows`` as one polynomial in eta, highest
    power first, in ``special._temme_poly``'s order of operations."""
    coeffs = []
    for j in range(len(rows[0]) - 1, -1, -1):
        c = 0.0
        for row in reversed(rows):
            c = c / a + row[j]
        coeffs.append(c)
    return tuple(coeffs)


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
        # the scalar twin, and the array routes on a wide call where x is the
        # lane that sets the series' degree (its largest) or the fraction
        # lane nearest its route's edge (its smallest), beside lanes further
        # along its route held to mpmath
        edge = np.geomspace(1e-3, 1.0, WIDE) if x < a + 1.0 else np.geomspace(1.0, 8.0, WIDE)
        xs = x * edge
        with mpmath.workdps(30):
            refs = [GAMMA_Q_TABLE[(a, x)] if xi == x else float(mpmath.gammainc(a, xi, regularized=True))
                    for xi in xs.tolist()]
        outs = [gamma_q(a, x), *gamma_q(a, xs).tolist()]
        for xi, got, ref in zip([x, *xs.tolist()], outs, [GAMMA_Q_TABLE[(a, x)], *refs]):
            if ref > 1e-290:
                assert abs(got - ref) <= 1e-14 * (a + xi + 1.0) * ref
            else:
                assert 0.0 <= got <= 1e-290

    @pytest.mark.parametrize("a", [1e60, 1e200, 1e300])
    def test_series_route_at_a_huge_shape(self, a):
        # every lane's prefactor e^-x x^a / Gamma(a) is 0 and raw powers of x
        # overflow: the series must stay finite and raise no warning
        xs = np.geomspace(1e-6, 0.099, WIDE) * a
        assert gamma_q(a, xs).tolist() == [1.0] * WIDE

    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0, 20.0, 21.0, 120.0, 151.0, 1001.0])
    def test_strictly_decreasing_in_x(self, a):
        # dense either side of where the routes switch: x = 0.1 a, a + 1, 2 a
        edges = np.array([0.1 * a, a + 1.0, 2.0 * a])
        near = edges[:, None] * (1.0 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6]))
        xs = np.union1d(np.linspace(0.01, 4.0 * a + 50.0, 500), near.ravel())
        assert_decreasing(gamma_q(a, xs))

    # every route: zero, series, continued fraction and (a > 20) Temme's
    XS = [0.0, 0.4, 3.0, 5.1, 200.0, 21.0, 33.0, 77.5]

    @pytest.mark.parametrize("a", [5.0, 31.0])
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
        # and lanes spread evenly over every route, on calls just wide enough
        # for the array routes and as wide as 40
        for n, width in itertools.product((0, 6, 30, 150), (WIDE, *MOVED)):
            xs = np.linspace(0.2, 2.5 * n + 10.0, width)
            a = n + 1.0
            assert_twins_agree(gamma_q(a, xs), np.array([gamma_q(a, x) for x in xs.tolist()]), n, xs)

    @staticmethod
    def series_edge(a):
        """The bound the series route's lanes stay below."""
        return a + 1.0 if a <= special._TEMME_MIN_A else special._TEMME_LO * a

    @staticmethod
    def fraction_edge(a):
        """The smallest x on the continued fraction's route."""
        return a + 1.0 if a <= special._TEMME_MIN_A else math.nextafter(special._TEMME_HI * a, math.inf)

    @pytest.mark.parametrize("a", [2.0, 5.0, 12.0, 20.0, 21.0, 151.0])
    def test_fraction_lanes_are_independent_of_the_call(self, a):
        # the fraction's depth comes from a alone
        assert_lanes_are_independent_of_the_call(gamma_q, a, self.fraction_edge(a), 20.0 * a + 50.0)

    def test_fraction_twins_give_the_same_bits(self):
        # both twins take the fraction's operations in one order, so they
        # differ only where numpy rounds the prefactor e^-x x^a / Gamma(a)
        # differently from the math module
        rng = np.random.default_rng(16)
        lanes = agreed = 0
        for a in range(1, 201):
            edge = self.fraction_edge(a)
            xs = np.append(rng.uniform(edge, 4.0 * a + 50.0, 200), edge)
            pref = np.exp(a * np.log(xs) - xs - math.lgamma(a))
            same = pref == [math.exp(a * math.log(x) - x - math.lgamma(a)) for x in xs.tolist()]
            got = gamma_q(a, xs)
            assert got[same].tolist() == [gamma_q(a, x) for x in xs[same].tolist()]
            lanes, agreed = lanes + xs.size, agreed + int(same.sum())
        assert agreed >= 0.9 * lanes

    def test_half_eta_sq_is_the_same_on_floats_and_arrays(self):
        # one body on the math module's functions and on numpy's: frexp
        # and ldexp are exact and the rest is + - * /, so every lane of
        # Temme's s = (x - a) / a in [-0.9, 1] gives the same bits
        edges = [-0.9, 1.0, 0.0, 5e-324, -5e-324, math.nextafter(-0.9, 0.0), math.nextafter(1.0, 0.0)]
        edges += [math.sqrt(0.5) - 1.0, math.nextafter(math.sqrt(0.5) - 1.0, 0.0), 1e-300, -1e-300]
        ss = np.concatenate([np.random.default_rng(25).uniform(-0.9, 1.0, 20000), np.linspace(-0.9, 1.0, 2001), edges])
        got = special._half_eta_sq(ss, special._numpy())
        assert got.tolist() == [special._half_eta_sq(s, special._MATH) for s in ss.tolist()]

    def test_temme_twins_give_the_same_bits(self):
        # Temme's route runs one body on floats and on arrays, so the two
        # differ only where numpy rounds exp(-a eta^2 / 2) differently from
        # the math module
        rng = np.random.default_rng(21)
        lanes = agreed = 0
        for a in [*range(21, 201), 1001, 10001, 100001]:
            xs = np.append(rng.uniform(0.1 * a, 2.0 * a, 200), [0.1 * a, a, 2.0 * a])
            ah = a * special._half_eta_sq((xs - a) / a, special._numpy())
            same = np.exp(-ah) == [math.exp(-v) for v in ah.tolist()]
            got = gamma_q(float(a), xs)
            assert got[same].tolist() == [gamma_q(float(a), x) for x in xs[same].tolist()]
            lanes, agreed = lanes + xs.size, agreed + int(same.sum())
        assert agreed >= 0.9 * lanes

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
        # Every entry must be the correctly rounded value of its rational.
        table = special._TEMME_D
        rows, cols = len(table), len(table[0])
        d = temme_rationals(rows, cols)
        assert d[0][:3] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135)]
        assert d[1][0] == Fraction(-1, 540)
        assert (rows, cols) == (14, 25) and all(len(row) == cols for row in table)
        for k in range(rows):
            assert list(table[k]) == [float(q) for q in d[k]], f"row {k}"

    def test_dropped_temme_rows_are_below_a_double(self):
        # DiDonato and Morris's rows 14-24, as polynomials of the table's 25
        # columns, add at most 2^-64 of Q anywhere on the route: with D their
        # sum over k of C_k(eta) a^-k, |D| e^(-a eta^2/2) / sqrt(2 pi a) <= 2^-64 Q
        kept = len(special._TEMME_D)
        dropped = temme_rationals(25, 25)[kept:]
        with mpmath.workdps(20):
            rows = [[mpmath.mpf(q.numerator) / q.denominator for q in row] for row in dropped]
            worst = 0.0
            for a in [*range(21, 61), *TEMME_LOG_GRID]:
                # D as one polynomial in eta, highest power first
                scale = [mpmath.mpf(a) ** -(kept + k) for k in range(len(rows))]
                poly = [sum(row[j] * f for row, f in zip(rows, scale)) for j in range(24, -1, -1)]
                for x in [*np.linspace(0.1 * a, 2.0 * a, 58).tolist(), 0.1 * a, 2.0 * a]:
                    lam = mpmath.mpf(x) / a
                    h = lam - 1 - mpmath.log(lam)
                    eta = mpmath.sign(lam - 1) * mpmath.sqrt(2 * h)
                    bound = abs(mpmath.polyval(poly, eta)) * mpmath.exp(-a * h) / mpmath.sqrt(2 * mpmath.pi * a)
                    q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                    worst = max(worst, float(bound / q) * 2.0**64)
        assert 0.0 < worst <= 1.0

    def test_temme_fold_is_the_25_row_fold_from_a_50(self):
        # from a = 50 on, rows 14-24 change no bit of the folded polynomial
        full = [[float(q) for q in row] for row in temme_rationals(25, 25)]
        for a in [*range(50, 2001), *TEMME_LOG_GRID]:
            assert special._temme_poly(float(a))[0] == temme_fold(full, float(a)), a

    def test_temme_lanes_below_a_50_are_within_an_ulp_of_the_25_row_fold(self, monkeypatch):
        # below a = 50 rows 14-24 move low bits of the highest powers' folded
        # coefficients; no lane of Q moves by more than 1 ulp
        full = [[float(q) for q in row] for row in temme_rationals(25, 25)]
        rng = np.random.default_rng(30)
        for a in range(21, 50):
            xs = np.append(rng.uniform(0.1 * a, 2.0 * a, 400), [0.1 * a, a, 2.0 * a])
            folded = (temme_fold(full, float(a)), special._temme_poly(float(a))[1])
            monkeypatch.setattr(special, "_temme_poly", lambda _: folded)
            want = gamma_q(float(a), xs)
            monkeypatch.undo()
            got = gamma_q(float(a), xs)
            assert np.all(np.abs(got - want) <= np.spacing(want)), a

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

    @pytest.mark.parametrize("a", ["4", True, np.True_, np.float32(2.5), None], ids=repr)
    def test_strings_bools_and_fractions_are_refused(self, a):
        # float() once took '4' and True as a = 4 and a = 1
        with pytest.raises(ValueError, match="a must be an integer"):
            gamma_q(a, 2.5)

    @pytest.mark.parametrize("a", [4, np.int64(4), 4.0, np.float32(4.0)], ids=repr)
    def test_integral_shape_parameters_of_any_type_pass(self, a):
        assert gamma_q(a, 2.5) == gamma_q(4.0, 2.5)


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
    with pytest.raises(ConfigError, match=r"^\w+\.(nu|x) must be a nonnegative real number or an integer or float array"):
        kernel(x)


@pytest.mark.parametrize(
    ("kernel", "first", "at_2", "at_2_5"),
    [
        (poisson_cdf, 3, "0x1.b6d8e2def382cp-1", "0x1.83e104d812c50p-1"),
        (gamma_q, 4, "0x1.b6d8e2def382ep-1", "0x1.83e104d812c52p-1"),
        (log_poisson_pmf, 3, "-0x1.b65a77bb2c91ep+0", "-0x1.8afaa90d8cf50p+0"),
    ],
    ids=["poisson_cdf", "gamma_q", "log_poisson_pmf"],
)
def test_each_input_takes_its_branch(kernel, first, at_2, at_2_5):
    # the kernels test for an array without importing numpy; with numpy
    # loaded, every kind of input keeps its branch, its bits and its type
    for x, want in ((2, at_2), (np.int64(2), at_2), (2.5, at_2_5), (np.float64(2.5), at_2_5)):
        got = kernel(first, x)
        assert type(got) is float and got.hex() == want
    got = kernel(first, np.array(2.5))
    assert type(got) is np.ndarray and got.shape == () and float(got).hex() == at_2_5
    # a list was once a bare TypeError
    with pytest.raises(ConfigError, match=rf"^{kernel.__name__}\.(nu|x) must be .*, got \[1\.0, 2\.0\]$"):
        kernel(first, [1.0, 2.0])


def test_nan_shape_parameter_is_refused():
    with pytest.raises(ConfigError, match="^gamma_q.a must be an integer of at least 1 within the float range, got nan$"):
        gamma_q(math.nan, 1.0)


_FINITE_INPUTS = {
    "scalar": 1.0,
    "narrow": np.array([0.0, 1.0, 2.0]),
    "wide": np.linspace(0.0, 9.0, special._NARROW_LANES + 1),
}


@pytest.mark.parametrize("x", list(_FINITE_INPUTS.values()), ids=list(_FINITE_INPUTS))
def test_infinite_shape_parameter_is_refused(x):
    # gamma_q(inf, 1.0) was 0.0 on the scalar path and NaN on a wide array,
    # where the limit is 1
    with pytest.raises(ConfigError, match="^gamma_q.a must be an integer of at least 1 within the float range, got inf$"):
        gamma_q(math.inf, x)


@pytest.mark.parametrize("x", list(_FINITE_INPUTS.values()), ids=list(_FINITE_INPUTS))
def test_non_integer_shape_parameter_is_refused(x):
    # the calculator passes a = n_obs + 1, and the routes are checked on
    # integer a only: at a = 0.01 to 0.126 the lower series once missed its
    # bound by up to 18.5x
    for a in (0.3, 0.5, 0.75, 1.5, 2.5, 4.2, 37.5, 1e15 + 0.5):
        with pytest.raises(ValueError, match="a must be an integer"):
            gamma_q(a, x)


def test_identity_between_routes_spot_grid():
    # the full n in [0, 100] x nu in [0, 50] sweep runs in the acceptance
    # suite; this keeps a coarse version close to the implementation
    for n in (0, 1, 5, 33, 100, 150, 199):
        nus = np.linspace(0.0, 50.0 if n <= 100 else 300.0, 101)
        diff = np.abs(poisson_cdf(n, nus) - gamma_q(n + 1.0, nus))
        assert float(diff.max()) <= 1e-12


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, Exception)


# (kernel, first argument, low and high end of the lanes of one route)
_ONE_ROUTE = {
    "poisson_cdf lower tail": (poisson_cdf, 150, 150.0, 400.0),
    "poisson_cdf upper tail": (poisson_cdf, 150, 0.5, 149.9),
    "gamma_q Temme": (gamma_q, 151.0, 15.1, 302.0),
    "gamma_q series, a > 20": (gamma_q, 151.0, 0.01, 15.0),
    "gamma_q fraction, a > 20": (gamma_q, 151.0, 302.5, 700.0),
    "gamma_q series": (gamma_q, 7.0, 0.01, 7.9),
    "gamma_q fraction": (gamma_q, 7.0, 8.0, 40.0),
}


def _mixed_call(rng, lanes, others):
    # lanes and others in one array, the lanes at sorted random places
    mixed = np.empty(lanes.size + len(others))
    at = np.sort(rng.choice(mixed.size, lanes.size, replace=False))
    mixed[at] = lanes
    mixed[np.setdiff1d(np.arange(mixed.size), at)] = rng.permutation(others)
    return mixed, at


@pytest.mark.parametrize("ends", [[0.0, math.inf], []], ids=["with 0 and inf", "positive and finite"])
@pytest.mark.parametrize("route", sorted(_ONE_ROUTE))
def test_one_route_call_is_the_same_lanes_of_a_mixed_call(route, ends):
    # a wide call whose lanes all take one route runs it on the whole array,
    # with no masks; a mixed call gathers the same lanes, in the same order,
    # beside lanes of the other routes (and 0 and inf, routes of their
    # own), and must give their bits
    kernel, first, lo, hi = _ONE_ROUTE[route]
    rng = np.random.default_rng(len(route))
    lanes = np.append(rng.uniform(lo, hi, 300), [lo, hi])
    others = list(ends)
    for k, f, l, h in _ONE_ROUTE.values():
        if k is kernel and f == first and (l, h) != (lo, hi):
            others.extend(rng.uniform(l, h, 50).tolist())
    mixed, at = _mixed_call(rng, lanes, others)
    assert kernel(first, lanes).tolist() == kernel(first, mixed)[at].tolist()


@pytest.mark.parametrize("route", sorted(_ONE_ROUTE))
def test_wide_array_of_any_shape_takes_the_bits_of_its_flat_lanes(route):
    # a wide n-d array on one route once reached the series sums unflattened
    # and raised numpy's broadcast ValueError; on one route, or beside 0 and
    # inf, each lane keeps its bits flat and the result takes the shape
    kernel, first, lo, hi = _ONE_ROUTE[route]
    lanes = np.random.default_rng(len(route)).uniform(lo, hi, 60)
    for flat in (lanes, np.append(lanes[:-2], [0.0, math.inf])):
        want = kernel(first, flat).tolist()
        for x in (flat.reshape(5, 12), flat.reshape(3, 4, 5), flat.reshape(12, 5).T):
            got = kernel(first, x)
            assert got.shape == x.shape and got.ravel().tolist() == kernel(first, x.ravel()).tolist()
        assert kernel(first, flat.reshape(3, 4, 5)).ravel().tolist() == want


_ROUTE_PAIRS = [
    (route, other)
    for route, (kernel, first, _, _) in sorted(_ONE_ROUTE.items())
    for other, (k, f, _, _) in sorted(_ONE_ROUTE.items())
    if other != route and k is kernel and f == first
]


@pytest.mark.parametrize(("route", "other"), _ROUTE_PAIRS)
def test_one_route_call_is_the_same_lanes_of_a_two_route_call(route, other):
    # both Poisson tails; gamma_q's series and fraction at a <= 20; and at
    # a > 20 Temme's route beside the series or the fraction (and those
    # two): lanes all positive and finite, so each route's lanes are
    # gathered by one mask and that route runs on them directly
    kernel, first, lo, hi = _ONE_ROUTE[route]
    _, _, other_lo, other_hi = _ONE_ROUTE[other]
    rng = np.random.default_rng(len(route) + 7 * len(other))
    lanes = np.append(rng.uniform(lo, hi, 300), [lo, hi])
    mixed, at = _mixed_call(rng, lanes, rng.uniform(other_lo, other_hi, 60).tolist() + [other_lo, other_hi])
    assert 0.0 < mixed.min() and mixed.max() < math.inf
    assert kernel(first, lanes).tolist() == kernel(first, mixed)[at].tolist()


# (kernel, first argument, the cuts between its routes in x): n on the
# Poisson tails; a + 1 for gamma_q at a <= 20, and 0.1 a and 2 a above
_CUTS = {
    "poisson_cdf, n = 0": (poisson_cdf, 0, []),
    **{f"poisson_cdf, n = {n}": (poisson_cdf, n, [float(n)]) for n in (1, 150)},
    **{f"gamma_q, a = {a:g}": (gamma_q, a, [a + 1.0]) for a in (1.0, 20.0)},
    **{f"gamma_q, a = {a:g}": (gamma_q, a, [0.1 * a, 2.0 * a]) for a in (21.0, 151.0)},
}
# what each route's body is named: the scalar twin's, or the wide table's
_ROUTE_OF = {"_lower_series_scalar": "series", "_lower_series_array": "series", "_temme": "Temme",
             "_upper_cf": "fraction", "_upper_tail_array": "upper tail", "_lower_tail_cdf": "lower tail",
             "_at_ends": "0 or inf"}


def _scalar_route(monkeypatch, kernel, first, x: float) -> str:
    # the route of the scalar twin at x, from the bodies it calls; the
    # Poisson walks are inline, so their prefactor's count names the tail
    taken = []
    with monkeypatch.context() as patch:
        if kernel is poisson_cdf:
            log_pmf = special._log_pmf
            tails = {first: "lower tail", first + 1: "upper tail"}
            patch.setattr(special, "_log_pmf", lambda k, *rest: taken.append(tails[k]) or log_pmf(k, *rest))
        else:
            for name in ("_lower_series_scalar", "_temme", "_upper_cf"):
                body = getattr(special, name)
                patch.setattr(special, name, lambda *args, body=body: taken.append(_ROUTE_OF[body.__name__]) or body(*args))
        kernel(first, x)
    assert len(taken) <= 1
    return taken[0] if taken else "0 or inf"


def _wide_routes(monkeypatch, kernel, first, x: np.ndarray) -> list[str]:
    # the route each lane of a wide call takes, from the lanes each body of
    # the kernel's table is handed
    handed = []

    def spy(body):
        return lambda first, lanes, ns: handed.append((_ROUTE_OF[body.__name__], lanes.copy())) or body(first, lanes, ns)

    table = "_poisson_routes" if kernel is poisson_cdf else "_gamma_routes"
    routes = getattr(special, table)
    with monkeypatch.context() as patch:
        patch.setattr(special, table, lambda first: (routes(first)[0], tuple(map(spy, routes(first)[1]))))
        kernel(first, x)
    assert sum(lanes.size for _, lanes in handed) == x.size
    taken = {}
    for route, lanes in handed:
        for lane in lanes.tolist():
            assert taken.setdefault(lane, route) == route
    return [taken[lane] for lane in x.tolist()]


@pytest.mark.parametrize("case", _CUTS)
def test_wide_lanes_take_the_scalar_twins_route(monkeypatch, case):
    # at every cut and the float either side of it, and at 0, the least
    # positive float and inf: alone, as a one-route call, and all in one
    # mixed call, each lane of a wide call takes the twin's route
    kernel, first, cuts = _CUTS[case]
    xs = [0.0, math.ulp(0.0), 1e-3, math.inf]
    xs += [y for c in cuts for y in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
    want = [_scalar_route(monkeypatch, kernel, first, x) for x in xs]
    assert len(set(want)) == 2 + len(cuts)  # every route, 0 and inf's included
    for x, route in zip(xs, want):
        assert _wide_routes(monkeypatch, kernel, first, np.full(WIDE, x)) == [route] * WIDE
    rng = np.random.default_rng(len(case))
    order = rng.permutation(np.repeat(np.arange(len(xs)), -(-WIDE // len(xs))))
    assert _wide_routes(monkeypatch, kernel, first, np.array(xs)[order]) == [want[i] for i in order]


# (kernel, first argument, the route's edge, a lane further in)
_SERIES_ROUTES = {
    **{f"poisson_cdf lower tail, n = {n}": (poisson_cdf, n, float(n), 20.0 * n + 50.0) for n in (5, 150, 1500)},
    **{f"poisson_cdf upper tail, n = {n}": (poisson_cdf, n, math.nextafter(n, 0.0), 1e-3) for n in (5, 150, 1500)},
    **{
        f"gamma_q series, a = {a:g}": (gamma_q, a, math.nextafter(TestGammaQ.series_edge(a), 0.0), 1e-3)
        for a in (2.0, 5.0, 20.0, 21.0)
    },
}


@pytest.mark.parametrize("route", sorted(_SERIES_ROUTES))
def test_series_lanes_are_independent_of_the_call(route):
    # each series' polynomial is cut where its route's edge ends it, set by
    # the count alone, not by the call's largest ratio
    assert_lanes_are_independent_of_the_call(*_SERIES_ROUTES[route])


def test_series_tables_stay_bounded(monkeypatch):
    # every count 0..2000 on both Poisson tails and gamma_q's series: the
    # block-matrix cache keeps the 256 tables last used, each
    # cut where its route's edge ends it, so at most 9.2 sqrt(2000) + 30
    # floats a table, and with each matrix's zero padding no more in all
    # (0.9 MB for the cache) however long the run
    blocks, keys = special._series_blocks, []
    monkeypatch.setattr(special, "_series_blocks", lambda *key: keys.append(key) or blocks(*key))
    blocks.cache_clear()
    for n in range(2001):
        xs = np.linspace(0.5, 2.0 * n + 10.0, WIDE)
        poisson_cdf(n, xs)
        gamma_q(n + 1.0, xs / 10.0)
    maxsize = blocks.cache_parameters()["maxsize"]
    cached = list(dict.fromkeys(reversed(keys)))[:maxsize]
    assert blocks.cache_info().currsize == len(cached) == maxsize
    bound = 9.2 * math.sqrt(2000) + 30
    assert all(np.count_nonzero(blocks(*key)) <= bound for key in cached)
    floats = sum(blocks(*key).size for key in cached)
    assert floats <= maxsize * bound


def test_series_block_matrices_stay_bounded():
    # each table's block matrix for _series_sum, cached beside the tables:
    # the cache keeps the maxsize last used, every one read-only, and
    # one rebuilt after cache_clear has the same bits
    blocks = special._series_blocks
    keys = [(route, n) for n in range(200) for route in ("lower", "upper")] + [("gamma", n + 1.0) for n in range(200)]
    built = [blocks(*key) for key in keys]
    maxsize = blocks.cache_parameters()["maxsize"]
    assert blocks.cache_info().currsize == maxsize < len(keys)
    assert not any(matrix.flags.writeable for matrix in built)
    with pytest.raises(ValueError):
        built[-1][0, 0] = 1.0
    blocks.cache_clear()
    for key, matrix in zip(keys, built):
        again = blocks(*key)
        assert again is not matrix
        assert again.shape == matrix.shape and again.tobytes() == matrix.tobytes()
        # the table lowest power first, zero-padded to whole rows of K
        table = special._series_table(*key)
        assert matrix.shape[1] == max(2, math.isqrt(2 * (table.size - 1)))
        assert matrix.ravel().tolist() == table[::-1].tolist() + [0.0] * (matrix.size - table.size)
    # the matrix of a plain coefficient list sums as the cached one does
    y = np.linspace(0.0, 1.0, 50)
    for key in keys[-3:]:
        plain = special._block_matrix(special._series_table(*key).tolist())
        assert special._series_sum(plain, y).tolist() == special._series_sum(blocks(*key), y).tolist()
