import itertools
import math

import numpy as np
import pytest

from countlim import (
    BackgroundProcess,
    CountingModel,
    ModelError,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
    YieldError,
    draw_samples,
    log_poisson_pmf,
    marginal_likelihood,
    yields_on_samples,
)


def model_with(signal_responses=None, bkg_responses=None, nuisances=None, s=1.0,
               bkgs=((("bkg", 1.5)),), n_obs=3, correlation=None):
    nuisances = nuisances or ()
    return CountingModel(
        s_nom=s,
        backgrounds=tuple(
            BackgroundProcess(name, b, (bkg_responses or {}).get(name, {}))
            for name, b in bkgs
        ),
        n_obs=n_obs,
        systematics=SystematicsModel(
            nuisances=tuple(nuisances),
            signal_responses=signal_responses or {},
            correlation=correlation,
        ),
    )


def signal_yield(model, eta):
    """s(eta) at one nuisance vector: a one-row yields_on_samples."""
    return float(yields_on_samples(model, np.array([eta], dtype=float))[0][0])


def background_yield(model, eta):
    """b(eta) at one nuisance vector: a one-row yields_on_samples."""
    return float(yields_on_samples(model, np.array([eta], dtype=float))[1][0])


def likelihood(model, mu, n):
    """Poisson(n; mu*s + b) of a model without nuisances: the marginal
    likelihood on its one-point sample set."""
    return marginal_likelihood(model, mu, n, draw_samples(model.systematics, None))


class TestYields:
    def test_signal_empty_product(self):
        m = model_with(s=2.0)
        assert signal_yield(m, []) == 2.0

    def test_signal_log_normal_at_one(self):
        m = model_with(
            signal_responses={"a": Response.log_normal(1.2)},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        assert signal_yield(m, [1.0]) == pytest.approx(1.2, rel=1e-15)

    def test_signal_log_normal_negative_pull(self):
        m = model_with(
            signal_responses={"a": Response.log_normal(1.2)},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        assert signal_yield(m, [-2.0]) == pytest.approx(1.2**-2, rel=1e-14)

    def test_background_sum_of_nominals(self):
        m = model_with(bkgs=(("p1", 1.0), ("p2", 0.5)))
        assert background_yield(m, []) == 1.5

    def test_background_linear(self):
        m = model_with(
            bkg_responses={"bkg": {"a": Response.linear(0.2)}},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        assert background_yield(m, [1.0]) == pytest.approx(1.8, rel=1e-15)

    def test_linear_zero_boundary(self):
        m = model_with(
            bkg_responses={"bkg": {"a": Response.linear(0.2)}},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        assert background_yield(m, [-5.0]) == 0.0
        with pytest.raises(YieldError, match="negative factor") as err:
            background_yield(m, [-6.0])
        assert err.value.eta.tolist() == [-6.0]
        assert err.value.sample_index == 0

    def test_background_permutation_invariance(self):
        bkgs = (("p1", 0.7), ("p2", 1.1), ("p3", 0.2))
        values = set()
        for perm in itertools.permutations(bkgs):
            values.add(background_yield(model_with(bkgs=perm), []))
        assert len(values) == 1

    def test_nominal_at_prior_mode(self):
        m = model_with(
            signal_responses={"a": Response.log_normal(1.4)},
            bkg_responses={"bkg": {"a": Response.log_normal(0.8)}},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        assert signal_yield(m, [0.0]) == 1.0
        assert background_yield(m, [0.0]) == 1.5

    def test_eta_dimension_mismatch(self):
        m = model_with(nuisances=[Nuisance("a", Prior.standard_normal())])
        with pytest.raises(ValueError, match=r"expected \(K, 1\)"):
            signal_yield(m, [0.0, 1.0])


class TestFullLikelihood:
    # without nuisances the full likelihood is the Poisson pmf at the
    # nominal yields, the marginal likelihood on the one-point set
    def test_reduces_to_poisson(self):
        m = model_with(s=1.0, bkgs=(("bkg", 2.5),), n_obs=0)
        assert likelihood(m, 0.0, 0) == pytest.approx(math.exp(-2.5), rel=1e-15)

    def test_composition(self):
        m = model_with(s=1.0, bkgs=(("bkg", 1.5),), n_obs=3)
        assert likelihood(m, 1.0, 3) == pytest.approx(math.exp(log_poisson_pmf(3, 2.5)), rel=1e-15)

    def test_exact_identity_reduction(self):
        m = model_with(s=0.7, bkgs=(("bkg", 1.2), ("x", 0.4)), n_obs=5)
        for mu, n in [(0.0, 0), (1.3, 5), (4.0, 2)]:
            assert likelihood(m, mu, n) == pytest.approx(math.exp(log_poisson_pmf(n, mu * 0.7 + 1.6)), rel=1e-15)

    def test_negative_mu_rejected(self):
        m = model_with()
        with pytest.raises(ValueError):
            likelihood(m, -0.1, 3)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        # NaN once gave a likelihood of 0.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            likelihood(model_with(), mu, 3)


class TestVectorisedYields:
    def test_matches_scalar_rows(self):
        m = model_with(
            signal_responses={"a": Response.log_normal(1.3)},
            bkg_responses={"bkg": {"a": Response.linear(0.1), "b": Response.log_normal(0.9)}},
            nuisances=[
                Nuisance("a", Prior.standard_normal()),
                Nuisance("b", Prior.normal(0.2, 0.7)),
            ],
        )
        etas = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]])
        s, b = yields_on_samples(m, etas)
        for k, (ea, eb) in enumerate(etas):
            assert s[k] == pytest.approx(1.3**ea, rel=1e-15)
            assert b[k] == pytest.approx(1.5 * (1.0 + 0.1 * ea) * 0.9**eb, rel=1e-15)
            assert (s[k], b[k]) == (signal_yield(m, [ea, eb]), background_yield(m, [ea, eb]))

    def test_reports_offending_sample(self):
        m = model_with(
            bkg_responses={"bkg": {"a": Response.linear(0.5)}},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        etas = np.array([[0.0], [-1.0], [-3.0], [-4.0]])
        with pytest.raises(YieldError) as err:
            yields_on_samples(m, etas)
        assert err.value.sample_index == 2

    @pytest.mark.parametrize("label", ["signal", "background 'bkg'"])
    def test_linear_factor_crossing_zero_beside_log_normal_is_refused(self, label):
        # only linear factors are scanned for a sign; a log-normal factor on
        # the same yield, whatever its size, does not hide the crossing
        resp = {"a": Response.log_normal(1.5), "b": Response.linear(0.25)}
        m = model_with(
            signal_responses=resp if label == "signal" else None,
            bkg_responses={"bkg": resp} if label != "signal" else None,
            nuisances=[Nuisance("a", Prior.standard_normal()), Nuisance("b", Prior.standard_normal())],
        )
        etas = np.array([[0.0, 0.0], [2.0, -4.0], [-3.0, -3.0], [1.0, -4.5], [0.0, -5.0]])
        with pytest.raises(YieldError, match=f"factor for {label} at sample 3") as err:
            yields_on_samples(m, etas)
        assert err.value.sample_index == 3
        assert err.value.eta.tolist() == [1.0, -4.5]
        # at -4 the factor is 0: a zero yield, not an error
        s, b = yields_on_samples(m, etas[:3])
        assert (s if label == "signal" else b)[1] == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_zero_times_overflowed_factor_is_refused(self):
        # 0 * inf is NaN, which the kernels refuse; the yields say where it arose
        m = model_with(
            bkgs=(("bkg", 1.5), ("empty", 0.0)),
            bkg_responses={"empty": {"a": Response.log_normal(1e300)}},
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        with pytest.raises(YieldError, match="background yield is 0 x inf at sample 1") as err:
            yields_on_samples(m, np.array([[0.5], [3.0]]))
        assert err.value.eta.tolist() == [3.0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("label", ["signal", "background"])
    def test_overflowed_yield_is_refused(self, label):
        # kappa^eta overflows to inf on sample 1, a lane the kernels once
        # turned into CLb = NaN or 500 continued-fraction steps
        resp = {"a": Response.log_normal(1e300)}
        m = model_with(
            signal_responses=resp if label == "signal" else None,
            bkg_responses={"bkg": resp} if label == "background" else None,
            nuisances=[Nuisance("a", Prior.standard_normal())],
        )
        with pytest.raises(YieldError, match=f"{label} yield overflowed to inf at sample 1") as err:
            yields_on_samples(m, np.array([[0.5], [3.0]]))
        assert err.value.sample_index == 1
        assert err.value.eta.tolist() == [3.0]


def yields_by_the_old_fold(model, etas):
    """yields_on_samples as it was once written: each product of factors
    from np.ones(K) and the background sum from np.zeros(K)."""
    names = model.systematics.names

    def product(responses):
        factor = np.ones(etas.shape[0])
        for j, name in enumerate(names):
            resp = responses.get(name)
            if resp is not None and not resp.is_identity:
                factor *= resp.factor(etas[:, j])
        return factor

    s = model.s_nom * product(model.systematics.signal_responses)
    b = np.zeros(etas.shape[0])
    for bkg in model.backgrounds:
        b += bkg.b_nom * product(bkg.responses)
    return s, b


class TestYieldsFromTheFirstFactor:
    """Each yield starts from its first factor or term, not from ones or
    zeros, with the same bits."""

    NUISANCES = [Nuisance("a", Prior.standard_normal()), Nuisance("b", Prior.standard_normal())]
    # the linear factor 1 + 0.25 eta_b is exactly 0 at eta_b = -4
    ETAS = np.concatenate([
        np.random.default_rng(5).standard_normal((64, 2)),
        [[0.0, -4.0], [-0.0, 0.0], [3.5, -4.0], [-1e-300, 1e-300]],
    ])

    @pytest.mark.parametrize(
        "model",
        [
            model_with(  # an identity-only background beside a log-normal signal
                signal_responses={"a": Response.log_normal(1.3)},
                bkg_responses={"bkg": {"a": Response.identity(), "b": Response.identity()}},
                nuisances=NUISANCES,
            ),
            model_with(  # a zero nominal background
                bkgs=(("bkg", 0.0),),
                bkg_responses={"bkg": {"a": Response.log_normal(1.2)}},
                nuisances=NUISANCES,
            ),
            model_with(  # nominal backgrounds of -0.0, which the sum from zeros made 0.0
                bkgs=(("neg", -0.0), ("flat", -0.0)),
                bkg_responses={"neg": {"b": Response.log_normal(0.8)}},
                nuisances=NUISANCES,
            ),
            model_with(  # a linear factor that reaches exactly 0, on both yields
                signal_responses={"a": Response.log_normal(1.1), "b": Response.linear(0.25)},
                bkg_responses={"bkg": {"b": Response.linear(0.25), "a": Response.log_normal(1.4)}},
                nuisances=NUISANCES,
            ),
            model_with(  # three backgrounds, one of them with no response
                s=2.5,
                bkgs=(("x", 0.7), ("y", 3.1), ("z", 1e-3)),
                bkg_responses={
                    "x": {"a": Response.log_normal(1.2), "b": Response.linear(0.1)},
                    "z": {"b": Response.log_normal(2.0)},
                },
                nuisances=NUISANCES,
            ),
            model_with(s=2, bkgs=(), nuisances=NUISANCES),  # an integer signal and no background
        ],
        ids=["identity_background", "zero_background", "negative_zero_backgrounds", "linear_zero", "three_backgrounds", "no_background"],
    )
    def test_same_bits_as_the_old_fold(self, model):
        s, b = yields_on_samples(model, self.ETAS)
        old_s, old_b = yields_by_the_old_fold(model, self.ETAS)
        assert s.dtype == b.dtype == np.float64
        assert s.tobytes() == old_s.tobytes()
        assert b.tobytes() == old_b.tobytes()


class TestValidation:
    def test_negative_signal(self):
        with pytest.raises(ModelError):
            CountingModel(s_nom=-1.0, backgrounds=(), n_obs=0)

    def test_negative_background(self):
        with pytest.raises(ModelError):
            BackgroundProcess("b", -0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, value):
        # s_nom = nan once ran into a bracket expansion to 7.4e19
        with pytest.raises(ModelError, match="finite"):
            CountingModel(s_nom=value, backgrounds=(BackgroundProcess("b", 1.0),), n_obs=0)
        with pytest.raises(ModelError, match="finite"):
            BackgroundProcess("b", value)
        with pytest.raises(ModelError, match="finite"):
            Response.log_normal(value)
        with pytest.raises(ModelError, match="finite"):
            Response.linear(value)
        with pytest.raises(ModelError, match="finite"):
            Prior.normal(value, 1.0)
        with pytest.raises(ModelError, match="finite"):
            Prior.log_normal(0.0, value)

    def test_all_zero_yields(self):
        with pytest.raises(ModelError):
            CountingModel(s_nom=0.0, backgrounds=(), n_obs=1)

    def test_duplicate_background_names(self):
        with pytest.raises(ModelError):
            model_with(bkgs=(("p", 1.0), ("p", 2.0)))

    def test_duplicate_nuisance_names(self):
        with pytest.raises(ModelError):
            SystematicsModel(
                nuisances=(
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("a", Prior.standard_normal()),
                )
            )

    def test_unknown_nuisance_reference(self):
        with pytest.raises(ModelError):
            model_with(signal_responses={"ghost": Response.log_normal(1.1)})
        with pytest.raises(ModelError):
            model_with(bkg_responses={"bkg": {"ghost": Response.linear(0.1)}})

    def test_bad_counts(self):
        with pytest.raises(ModelError):
            CountingModel(s_nom=1.0, backgrounds=(), n_obs=-1)

    @pytest.mark.parametrize("n_obs", [True, False, np.bool_(True), 3.0, np.float64(3.0)])
    def test_count_that_is_not_an_integer(self, n_obs):
        # a bool is Integral in Python but not a count; parse_model refuses it too
        with pytest.raises(ModelError, match="nonnegative integer"):
            CountingModel(s_nom=1.0, backgrounds=[BackgroundProcess("b", 1.5)], n_obs=n_obs)

    @pytest.mark.parametrize("n_obs", [3, np.int64(3), np.uint8(3)])
    def test_numpy_integer_count(self, n_obs):
        assert CountingModel(s_nom=1.0, backgrounds=[BackgroundProcess("b", 1.5)], n_obs=n_obs).n_obs == 3

    def test_response_parameter_checks(self):
        with pytest.raises(ModelError):
            Response.log_normal(0.0)
        with pytest.raises(ModelError):
            Response("mystery")

    def test_prior_parameter_checks(self):
        with pytest.raises(ModelError):
            Prior.normal(0.0, 0.0)
        with pytest.raises(ModelError):
            Prior.log_normal(0.0, -1.0)
        with pytest.raises(ModelError):
            Prior("mystery")

    def test_correlation_must_be_symmetric(self):
        with pytest.raises(ModelError):
            model_with(
                nuisances=[
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("b", Prior.standard_normal()),
                ],
                correlation=[[1.0, 0.2], [0.3, 1.0]],
            )

    def test_correlation_must_have_unit_diagonal(self):
        with pytest.raises(ModelError):
            model_with(
                nuisances=[
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("b", Prior.standard_normal()),
                ],
                correlation=[[1.1, 0.0], [0.0, 1.0]],
            )

    def test_correlation_must_be_positive_definite(self):
        with pytest.raises(ModelError):
            model_with(
                nuisances=[
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("b", Prior.standard_normal()),
                ],
                correlation=[[1.0, 1.0], [1.0, 1.0]],
            )

    def test_correlation_dimension_matches_gaussian_subset(self):
        with pytest.raises(ModelError):
            model_with(
                nuisances=[
                    Nuisance("a", Prior.standard_normal()),
                    Nuisance("b", Prior.log_normal(0.0, 0.3)),
                ],
                correlation=[[1.0, 0.0], [0.0, 1.0]],
            )
