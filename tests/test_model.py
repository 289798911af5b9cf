import itertools
import math
import sys

import numpy as np
import pytest

from countlim import (
    BackgroundProcess,
    ConfigError,
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
    def test_identity_factor_is_one_on_every_finite_eta(self):
        # 1.0 + 0.0 * eta, as a linear response of delta = 0, bit for bit
        etas = np.array([0.0, -0.0, 1.0, -3.5, 5e-324, -1e308, 1.7976931348623157e308])
        assert Response.identity().factor(etas).tobytes() == np.ones(etas.size).tobytes()
        with np.errstate(invalid="ignore"):  # 0.0 * inf
            assert np.isnan(Response.identity().factor(np.array([math.inf, -math.inf, math.nan]))).all()

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
        with pytest.raises(ConfigError, match=r"^yields_on_samples\.etas must have shape \(K, 1\), got \(1, 2\)$"):
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

    # each float field, by constructor and by classmethod: an int beyond the
    # float range once raised OverflowError, a string or None TypeError, and
    # True was taken as 1.0, as the classmethods took "3" (they called float())
    MAKERS = {
        "CountingModel": lambda v: CountingModel(s_nom=v, backgrounds=(BackgroundProcess("b", 1.0),), n_obs=0),
        "BackgroundProcess": lambda v: BackgroundProcess("b", v),
        "Response": lambda v: Response("log_normal", kappa=v),
        "Prior": lambda v: Prior("normal", loc=v),
        "Response.log_normal": Response.log_normal,
        "Response.linear": Response.linear,
        "Prior.normal": lambda v: Prior.normal(v, 1.0),
        "Prior.log_normal": lambda v: Prior.log_normal(0.0, v),
    }

    @pytest.mark.parametrize(("value", "message"), [
        (10**400, "finite"),
        (-(10**400), "finite"),
        ("3", r"\.(s_nom|b_nom|kappa|delta|loc|scale) must be a real number, got '3'"),
        (None, r"\.(s_nom|b_nom|kappa|delta|loc|scale) must be a real number, got None"),
        (True, r"\.(s_nom|b_nom|kappa|delta|loc|scale) must be a real number, got True"),
    ], ids=["int above", "int below", "str", "None", "True"])
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_float_fields_refuse_what_is_no_double(self, make, value, message):
        with pytest.raises(ModelError, match=message):
            make(value)

    def test_classmethods_store_numpy_scalars_as_floats(self):
        normal = Prior.normal(np.float64(0.5), np.float32(2.0))
        log_normal = Prior.log_normal(np.int64(0), np.float64(0.3))
        stored = [Response.log_normal(np.float32(1.5)).kappa, Response.linear(np.int64(0)).delta]
        stored += [normal.loc, normal.scale, log_normal.loc, log_normal.scale]
        assert stored == [1.5, 0.0, 0.5, 2.0, 0.0, 0.3] and {type(x) for x in stored} == {float}

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


GAUSSIAN_PAIR = (Nuisance("a", Prior.standard_normal()), Nuisance("b", Prior.normal(0.0, 2.0)))


class TestTypedFields:
    """Every constructor refuses a field of the wrong type or range with a
    ModelError naming the class and the field."""

    # each of these was once accepted, or raised a bare AttributeError
    WRONG = [
        ("BackgroundProcess.name", lambda: BackgroundProcess(None, 1.0)),
        ("CountingModel.backgrounds", lambda: CountingModel(s_nom=1.0, backgrounds=(1.5,), n_obs=0)),
        ("SystematicsModel.nuisances", lambda: SystematicsModel(nuisances=("a",))),
        ("SystematicsModel.signal_responses", lambda: SystematicsModel(GAUSSIAN_PAIR, {"a": "log_normal"})),
        ("BackgroundProcess.responses", lambda: BackgroundProcess("b", 1.0, {"a": "linear"})),
        ("Nuisance.prior", lambda: Nuisance("a", "p")),
        ("Nuisance.name", lambda: Nuisance(1, Prior.standard_normal())),
        ("BackgroundProcess.responses", lambda: BackgroundProcess("b", 1.0, ["x"])),
        ("CountingModel.systematics", lambda: CountingModel(1.0, (BackgroundProcess("b", 1.0),), 0, systematics=None)),
        ("Response.kind", lambda: Response(["identity"])),
        ("Prior.kind", lambda: Prior(None)),
    ]

    @pytest.mark.parametrize(("where", "make"), WRONG, ids=[f"{w}-{i}" for i, (w, _) in enumerate(WRONG)])
    def test_a_field_of_the_wrong_type_is_refused(self, where, make):
        owner, name = where.split(".")
        with pytest.raises(ModelError, match=rf"^{owner}\.{name} must ") as err:
            make()
        assert err.value.field == name

    @pytest.mark.parametrize("make", [
        lambda: Response("identity", kappa=2.0),
        lambda: Response("linear", kappa=2.0, delta=0.1),
        lambda: Response("log_normal", kappa=1.2, delta=0.1),
        lambda: Prior("standard_normal", loc=1.0),
        lambda: Prior("standard_normal", scale=2.0),
    ], ids=["identity kappa", "linear kappa", "log_normal delta", "standard_normal loc", "standard_normal scale"])
    def test_a_parameter_its_kind_does_not_take_is_refused(self, make):
        # emit_config once dropped it, so the model did not round-trip
        message = r"^(Response|Prior)\.(kappa|delta|loc|scale) must be [01]\.0 for kind \w+, got "
        with pytest.raises(ModelError, match=message):
            make()

    def test_a_parameter_its_kind_does_not_take_may_keep_its_default(self):
        assert Response("identity", kappa=1, delta=0.0) == Response.identity()
        assert Prior("standard_normal", loc=np.float64(0.0), scale=1) == Prior.standard_normal()

    @pytest.mark.parametrize("nuisances", [(), (Nuisance("a", Prior.log_normal(0.0, 0.3)),)], ids=["none", "log-normal"])
    @pytest.mark.parametrize("correlation", [np.zeros((0, 0)), [], [[1.0]]], ids=["0x0", "empty", "1x1"])
    def test_a_correlation_without_a_gaussian_nuisance_is_refused(self, nuisances, correlation):
        # a 0 x 0 matrix once constructed, and emitted "correlation": [], which parse_model refused
        with pytest.raises(ModelError, match="^SystematicsModel.correlation must be None without a Gaussian-prior"):
            SystematicsModel(nuisances, correlation=correlation)

    @pytest.mark.parametrize("correlation", [
        [[1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]], [[1.0, 0.0]], [1.0, 0.0], 1.0, [[[1.0]], [[1.0]]], np.eye(3),
    ], ids=["ragged first", "ragged second", "one row", "flat", "scalar", "3-d", "3x3"])
    def test_a_correlation_of_the_wrong_shape_is_refused(self, correlation):
        # a ragged one once raised numpy's ValueError, a traceback from the CLI
        with pytest.raises(ModelError, match=r"^SystematicsModel.correlation must be a 2 x 2 matrix, a row and a column"):
            SystematicsModel(GAUSSIAN_PAIR, correlation=correlation)

    @pytest.mark.parametrize(("entry", "got"), [
        (math.nan, "nan"), (math.inf, "inf"), (10**400, "1" + "0" * 400), (True, "True"), (np.bool_(False), "np.False_"),
        ("0.5", "'0.5'"), (None, "None"), ([0.5], r"\[0.5\]"),
    ], ids=["nan", "inf", "int above", "True", "np.False_", "str", "None", "list"])
    def test_a_correlation_entry_that_is_no_finite_real_is_refused(self, entry, got):
        # NaN once read "must be symmetric", and a bool was taken as 0 or 1
        message = rf"^SystematicsModel.correlation\[0\]\[1\] must be a finite real number, got {got}$"
        with pytest.raises(ModelError, match=message):
            SystematicsModel(GAUSSIAN_PAIR, correlation=[[1.0, entry], [0.0, 1.0]])

    def test_a_correlation_is_stored_as_a_float_array(self):
        for correlation in ([[1, 0], [0, 1]], np.eye(2, dtype=np.float32), ((1.0, 0.5), (0.5, np.int64(1)))):
            stored = SystematicsModel(GAUSSIAN_PAIR, correlation=correlation).correlation
            assert stored.dtype == np.float64 and stored.shape == (2, 2)
            assert stored.tolist() == np.asarray(correlation, dtype=float).tolist()


class TestFrozenAfterConstruction:
    """A model cannot change after it is built, nor be changed through the
    values its caller passed in."""

    def test_the_correlation_is_read_only(self):
        # a write once changed what emit_config emitted, while sampling kept the old Cholesky factor
        sm = SystematicsModel(GAUSSIAN_PAIR, correlation=[[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            sm.correlation[0, 1] = 5.0
        assert sm == SystematicsModel(GAUSSIAN_PAIR, correlation=[[1.0, 0.5], [0.5, 1.0]])

    def test_each_response_mapping_is_the_models_own(self):
        # a key the caller added later once bypassed the declared-nuisance check
        signal, background = {"a": Response.log_normal(1.2)}, {"b": Response.linear(0.1)}
        model = model_with(signal_responses=signal, bkg_responses={"bkg": background}, nuisances=GAUSSIAN_PAIR)
        signal["ghost"] = background["ghost"] = Response.log_normal(2.0)
        assert list(model.systematics.signal_responses) == ["a"]
        assert list(model.backgrounds[0].responses) == ["b"]


class TestRefusedWhereTheModelIsMade:
    def test_backgrounds_that_sum_past_the_float_range(self):
        # once a model of b_nom_total = inf, which the solver refused with exit 2
        bkgs = (("a", 1e308), ("b", 1e308))
        with pytest.raises(ModelError, match=r"^CountingModel\.backgrounds must sum to a finite nominal yield, got inf$") as err:
            model_with(bkgs=bkgs)
        assert err.value.field == "backgrounds"

    @pytest.mark.parametrize(("make", "got"), [
        (lambda: CountingModel(s_nom=1.0, backgrounds=(10**5000,)), "a tuple holding an int"),
        (lambda: CountingModel(s_nom=1.0, n_obs=-10**5000), "an int"),
        (lambda: SystematicsModel(GAUSSIAN_PAIR, correlation=[[1.0, 10**5000], [0.0, 1.0]]), "an int"),
    ], ids=["in a sequence", "a count", "a correlation entry"])
    def test_an_int_too_long_to_print(self, make, got):
        # Python's repr refuses an int past 4,300 digits: once a bare ValueError in place of the refusal
        with pytest.raises(ModelError, match=f"got {got} of more than {sys.get_int_max_str_digits()} digits$"):
            make()
