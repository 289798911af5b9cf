"""One refusal table over the library's public entries: each bad argument is
refused with a ConfigError (also a ValueError) reading ``function.argument
must ...``, whichever entry takes it and whatever is wrong with it."""

import math
import re
import sys

import numpy as np
import pytest

from countlim import (
    ConfigError,
    CountingModel,
    Integrator,
    ModelError,
    SampleSet,
    draw_samples,
    gamma_q,
    hybrid_cls,
    log_poisson_pmf,
    marginal_likelihood,
    marginal_posterior_density,
    marginal_posterior_tail,
    poisson_cdf,
    yields_on_samples,
)
from countlim import marginal, special
from countlim.marginal import scan_quantity
from helpers import bg_systematic_model, identity_systematic_model

MODEL = bg_systematic_model()
SAMPLES = draw_samples(MODEL.systematics, Integrator.gauss_hermite(4))
WIDE = np.linspace(0.0, 9.0, 30)  # wider than special._NARROW_LANES

# tools/result_hash.py's ODD_VALUES that no argument below takes
ODD = {"None": None, "a string": "x", "a bool": True, "a list": [1.0], "NaN": math.nan, "-1": -1}
# and what no mean takes beyond them
NOT_MEANS = {
    **ODD,
    "a numeric string": "2.5",
    "a list of floats": [1.0, 2.0],
    "a numpy bool": np.True_,
    "a bool array": np.array([True, False]),
    "a string array": np.array(["1.0"]),
    "an object array": np.array([1.0, None]),
    "a narrow array with NaN": np.array([1.0, math.nan]),
    "a narrow array with -1": np.array([2.0, -1.0]),
    "a wide array with NaN": np.append(WIDE, math.nan),
    "a wide array with -1": np.append(WIDE, -1.0),
}
# 10**400 once passed the int fast path and escaped as a bare OverflowError
NOT_COUNTS = {**ODD, "inf": math.inf, "a fraction": 2.5, "a numeric string": "3", "a numpy bool": np.True_,
              "an int past the float range": 10**400}
NOT_STRENGTHS = {**ODD, "inf": math.inf, "a numeric string": "3", "a 0-d array": np.array(1.0)}
NOT_GRIDS = {
    **{f"{what} grid": grid for what, grid in NOT_STRENGTHS.items() if what != "a list"},
    "a grid holding NaN": [0.0, math.nan],
    "a grid holding -1": np.array([0.0, -1.0]),
    "a grid holding inf": np.array([0.0, math.inf]),
    "a grid holding a string": [0.0, "1"],
    "a 2-d grid": np.array([[0.0, 1.0], [2.0, 3.0]]),
    "a 2-d list": [[0.0, 1.0]],
    "a string array": np.array(["0.5", "1.0"]),
    "a bool array": np.array([True, False]),
}
ROW = np.zeros((2, 1))
HALVES = np.full(2, 0.5)
NOT_SETS = {
    "ragged etas": ([[0.0], [1.0, 2.0]], HALVES, "etas"),
    "NaN etas": ([[math.nan], [0.0]], HALVES, "etas"),
    "infinite etas": ([[math.inf], [0.0]], HALVES, "etas"),
    "string etas": ([["x"], [0.0]], HALVES, "etas"),
    "no etas": (None, HALVES, "etas"),
    "1-d etas": (np.zeros(2), HALVES, "etas"),
    "empty etas": (np.zeros((0, 1)), np.zeros(0), "etas"),
    "ragged weights": (ROW, [0.5, [0.5]], "weights"),
    "too few weights": (ROW, np.ones(1), "weights"),
    "2-d weights": (ROW, np.full((2, 1), 0.5), "weights"),
    "NaN weights": (ROW, np.array([math.nan, 1.0]), "weights"),
    "negative weights": (ROW, np.array([-1.0, 2.0]), "weights"),
    "weights summing to 2": (ROW, np.ones(2), "weights"),
}

TABLE = {
    # (the call, the argument it must name)
    **{f"poisson_cdf n {k}": (lambda v=v: poisson_cdf(v, 2.5), "poisson_cdf.n") for k, v in NOT_COUNTS.items()},
    **{f"log_poisson_pmf n {k}": (lambda v=v: log_poisson_pmf(v, 2.5), "log_poisson_pmf.n") for k, v in NOT_COUNTS.items()},
    **{f"gamma_q a {k}": (lambda v=v: gamma_q(v, 2.5), "gamma_q.a") for k, v in {**NOT_COUNTS, "0": 0}.items()},
    **{f"poisson_cdf nu {k}": (lambda v=v: poisson_cdf(3, v), "poisson_cdf.nu") for k, v in NOT_MEANS.items()},
    **{f"log_poisson_pmf nu {k}": (lambda v=v: log_poisson_pmf(3, v), "log_poisson_pmf.nu") for k, v in NOT_MEANS.items()},
    **{f"gamma_q x {k}": (lambda v=v: gamma_q(4.0, v), "gamma_q.x") for k, v in NOT_MEANS.items()},
    **{f"{f.__name__} mu {k}": (lambda f=f, v=v: f(MODEL, v, SAMPLES), f"{f.__name__}.mu")
       for f in (hybrid_cls, marginal_posterior_tail, marginal_posterior_density) for k, v in NOT_STRENGTHS.items()},
    **{f"marginal_likelihood mu {k}": (lambda v=v: marginal_likelihood(MODEL, v, 3, SAMPLES), "marginal_likelihood.mu")
       for k, v in NOT_STRENGTHS.items()},
    # a bad n once was refused as log_poisson_pmf.n, a function the caller never called
    **{f"marginal_likelihood n {k}": (lambda v=v: marginal_likelihood(MODEL, 1.0, v, SAMPLES), "marginal_likelihood.n")
       for k, v in NOT_COUNTS.items()},
    **{f"scan_quantity quantity {k}": (lambda v=v: scan_quantity(MODEL, v, [1.0], SAMPLES), "scan_quantity.quantity")
       for k, v in {**ODD, "an unknown name": "pvalue", "a name in a list": ["cls"]}.items()},
    **{f"scan_quantity mus {k}": (lambda v=v: scan_quantity(MODEL, "cls", v, SAMPLES), "scan_quantity.mus")
       for k, v in NOT_GRIDS.items()},
    **{f"SampleSet {k}": (lambda e=e, w=w: SampleSet(e, w), f"SampleSet.{name}") for k, (e, w, name) in NOT_SETS.items()},
    **{f"yields_on_samples etas {k}": (lambda v=v: yields_on_samples(MODEL, v), "yields_on_samples.etas")
       for k, v in {"of width 2": np.zeros((3, 2)), "of width 0": np.zeros((3, 0)), "1-d": np.zeros(3),
                    "None": None, "ragged": [[0.0], [0.0, 1.0]], "holding a string": [["x"]]}.items()},
}


@pytest.mark.parametrize("case", TABLE)
def test_each_bad_argument_is_refused_by_name(case):
    call, where = TABLE[case]
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value).startswith(f"{where} must ")
    assert err.value.field == where.split(".")[1]
    assert isinstance(err.value, ValueError)


INT_PAST_FLOAT = 2**1024 - 2**970  # the least int that float() overflows on
COUNT_RULE = r"at most 2\.5599833278516383e\+305, got \d+$"


@pytest.mark.parametrize("n", [10**400, INT_PAST_FLOAT, 2**1023, special._COUNT_MAX + 1])
def test_count_past_the_greatest_is_refused_in_one_line(n):
    # past the float range, once a bare OverflowError from a kernel, or from
    # a limit on the model; below it, 2**1023 too, from lgamma(n + 2)
    for call, where in ((lambda: poisson_cdf(n, 2.5), "poisson_cdf.n"), (lambda: gamma_q(n, 2.5), "gamma_q.a")):
        with pytest.raises(ConfigError, match=rf"^{where} must be an integer of at least \d and {COUNT_RULE}"):
            call()
    with pytest.raises(ModelError, match=rf"^CountingModel.n_obs must be a nonnegative integer {COUNT_RULE}"):
        CountingModel(s_nom=1.0, n_obs=n)


@pytest.mark.parametrize("n", [1e306, 2.0**1023, math.nextafter(float(special._COUNT_MAX), math.inf)])
def test_float_count_past_the_greatest_is_refused_in_one_line(n):
    # an integral float too, which a shortcut in gamma_q past _count once
    # passed on to lgamma(a) and a bare OverflowError: every a goes through it
    rule = rf"at most 2\.5599833278516383e\+305, got {re.escape(repr(n))}$"
    for call, where in ((lambda: poisson_cdf(n, 2.5), "poisson_cdf.n"), (lambda: gamma_q(n, 2.5), "gamma_q.a")):
        with pytest.raises(ConfigError, match=rf"^{where} must be an integer of at least \d and {rule}"):
            call()
    with pytest.raises(ModelError, match=rf"^CountingModel.n_obs must be a nonnegative integer {rule}"):
        CountingModel(s_nom=1.0, n_obs=n)


def test_greatest_count_is_a_count():
    # the greatest n whose ln (n + 1)! = lgamma(n + 2) is finite, as an int
    # and as a float, and the kernels run at it
    n = special._COUNT_MAX
    assert math.isfinite(math.lgamma(n + 2)) and float(n) == n
    with pytest.raises(OverflowError):
        math.lgamma(math.nextafter(float(n), math.inf) + 2.0)
    assert CountingModel(s_nom=1.0, n_obs=n).n_obs == special._count(poisson_cdf, "n", n) == n
    assert special._count(poisson_cdf, "n", float(n)) == n
    assert poisson_cdf(n, 2.5) == gamma_q(n, 2.5) == gamma_q(float(n), 2.5) == 1.0


@pytest.mark.parametrize("grid", [np.zeros, lambda k: [0.0] * k, range], ids=["array", "list", "range"])
def test_scan_grid_past_its_budget_is_refused_before_it_runs(monkeypatch, grid):
    # only the CLI once held a scan to its budget: scan_quantity ran a
    # grid of 2**22 points on a one-point set for 13 s, to 285 MB
    budget = 2**20
    with pytest.raises(ConfigError, match=rf"^scan_quantity.mus must hold at most {budget} points, got {budget + 1}$"):
        scan_quantity(MODEL, "cls", grid(budget + 1), SAMPLES)
    monkeypatch.setattr(marginal, "_SCAN_MAX_POINTS", 4)
    assert len(scan_quantity(MODEL, "cls", grid(4), SAMPLES)[0]) == 4
    with pytest.raises(ConfigError, match="^scan_quantity.mus must hold at most 4 points, got 5$"):
        scan_quantity(MODEL, "cls", grid(5), SAMPLES)


def test_unsized_scan_grid_is_read_one_point_past_its_budget(monkeypatch):
    # a generator has no len: one of 2**20 + 1 strengths was once tabulated whole, in 3.1 s
    read = []

    def grid(k):
        for i in range(k):
            read.append(i)
            yield 0.5

    monkeypatch.setattr(marginal, "_SCAN_MAX_POINTS", 4)
    assert len(scan_quantity(MODEL, "cls", grid(4), SAMPLES)[0]) == 4
    read.clear()
    with pytest.raises(ConfigError, match="^scan_quantity.mus must hold at most 4 points, got 5$"):
        scan_quantity(MODEL, "cls", grid(1000), SAMPLES)
    assert len(read) == 5


def test_grid_too_large_to_print_is_refused_by_its_budget():
    # 64^2400 has more than 4,300 digits: formatting the grid's size once
    # raised Python's bare ValueError in place of the budget's ConfigError
    systematics = identity_systematic_model(n_nuisances=2400).systematics
    digits = sys.get_int_max_str_digits()
    with pytest.raises(ConfigError, match=rf"= 64\^2400 = an int of more than {digits} digits points exceeds the budget"):
        draw_samples(systematics, Integrator.gauss_hermite(64))


@pytest.mark.parametrize(
    "call",
    [
        lambda: poisson_cdf(3, True),  # once 0.98101, the CDF at nu = 1
        lambda: poisson_cdf(3, "2.5"),  # once 0.75758, at nu = 2.5
        lambda: gamma_q(2, "1"),  # once 0.73576
        lambda: log_poisson_pmf(3, "2"),  # once -1.71232
        lambda: gamma_q(2, None),  # once a bare TypeError
        lambda: poisson_cdf(3, [1.0, 2.0]),  # once a bare TypeError
        lambda: scan_quantity(MODEL, "cls", np.zeros((2, 2)), SAMPLES),  # once a bare TypeError
        lambda: scan_quantity(MODEL, "cls", ["x"], SAMPLES),  # once numpy's ValueError
        lambda: SampleSet([[0.0], [1.0, 2.0]], HALVES),  # once numpy's ValueError
    ],
    ids=["poisson_cdf bool", "poisson_cdf string", "gamma_q string", "log_poisson_pmf string", "gamma_q None",
         "poisson_cdf list", "scan 2-d grid", "scan string grid", "ragged set"],
)
def test_calls_once_answered_or_untyped_are_refused(call):
    with pytest.raises(ConfigError):
        call()


def test_valid_arguments_of_every_kind_pass():
    # the forms each rule accepts: ints, numpy integers and integral floats
    # as counts; reals, integer and float arrays (empty, narrow, wide) and
    # inf as means; reals of any type as strengths; sequences as grids
    for n in (3, np.int64(3), 3.0, np.float32(3.0)):
        assert poisson_cdf(n, 2.5) == poisson_cdf(3, 2.5)
        assert gamma_q(n + 1, 2.5) == gamma_q(4.0, 2.5)
    for nu in (np.arange(3), np.zeros(0), np.float32([1.5]), WIDE, math.inf, 10**400):
        poisson_cdf(3, nu), log_poisson_pmf(3, nu), gamma_q(4.0, nu)
    for mu in (1, np.float64(1.0), np.int64(1), 1.0):
        assert hybrid_cls(MODEL, mu, SAMPLES) == hybrid_cls(MODEL, 1.0, SAMPLES)
    want = scan_quantity(MODEL, "cls", np.array([0.0, 1.0]), SAMPLES)[0].tolist()
    for grid in ([0.0, 1.0], (0, 1), range(2), np.array([0, 1]), np.float32([0.0, 1.0]), []):
        assert scan_quantity(MODEL, "cls", grid, SAMPLES)[0].tolist() == want[: len(grid)]
