"""The ten immutable records pinned by behaviour: equality, hashing,
``repr``, immutability, pickling, deep copies and ``to_dict``. The texts
and rules here are those the records had as frozen dataclasses."""

import copy
import math
import pickle
from collections.abc import Mapping

import numpy as np
import pytest

from countlim import (
    BackgroundProcess,
    CountingModel,
    EquivalenceReport,
    Integrator,
    LimitRequest,
    LimitResult,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
)

P, Q = Prior.standard_normal(), Prior.normal(0.5, 2.0)
P_TEXT = "Prior(kind='standard_normal', loc=0.0, scale=1.0)"
Q_TEXT = "Prior(kind='normal', loc=0.5, scale=2.0)"
KAPPA_TEXT = "Response(kind='log_normal', kappa=1.2, delta=0.0)"
DELTA_TEXT = "Response(kind='linear', kappa=1.0, delta=0.1)"


def systematics(rho=0.5):
    return SystematicsModel(nuisances=(Nuisance("p", P), Nuisance("q", Q)),
                            signal_responses={"p": Response.linear(0.1)}, correlation=[[1.0, rho], [rho, 1.0]])


def background(b=1.5):
    return BackgroundProcess("bkg", b, {"q": Response.log_normal(1.2)})


SYST_TEXT = (f"SystematicsModel(nuisances=(Nuisance(name='p', prior={P_TEXT}), Nuisance(name='q', prior={Q_TEXT})), "
             f"signal_responses={{'p': {DELTA_TEXT}}}, correlation=array([[1. , 0.5],\n       [0.5, 1. ]]))")
BKG_TEXT = f"BackgroundProcess(name='bkg', b_nom=1.5, responses={{'q': {KAPPA_TEXT}}})"

# each record: a builder of one instance, one that differs from it in a
# field, the parent's repr, and whether it hashes (or the TypeError's text)
RECORDS = {
    "Response": (lambda: Response.log_normal(1.2), lambda: Response.log_normal(1.3), KAPPA_TEXT, True),
    "Prior": (lambda: Prior.normal(0.5, 2.0), lambda: Prior.normal(0.5, 2.5), Q_TEXT, True),
    "Nuisance": (lambda: Nuisance("q", Q), lambda: Nuisance("q", P), f"Nuisance(name='q', prior={Q_TEXT})", True),
    "BackgroundProcess": (background, lambda: background(2.5), BKG_TEXT, "unhashable type: 'dict'"),
    "SystematicsModel": (systematics, lambda: systematics(0.25), SYST_TEXT, "unhashable type: 'SystematicsModel'"),
    "CountingModel": (
        lambda: CountingModel(1.0, (background(),), 3, systematics()),
        lambda: CountingModel(1.0, (background(),), 4, systematics()),
        f"CountingModel(s_nom=1.0, backgrounds=({BKG_TEXT},), n_obs=3, systematics={SYST_TEXT})",
        "unhashable type: 'dict'",
    ),
    "LimitRequest": (lambda: LimitRequest(0.05), lambda: LimitRequest(0.05, rel_tol=1e-8),
                     "LimitRequest(alpha=0.05, rel_tol=1e-09, max_iter=200)", True),
    "LimitResult": (
        lambda: LimitResult(1.0, 0.05, 3, (0.9, 1.0)),
        lambda: LimitResult(1.0, 0.05, 3, (0.9, 1.0), mu_up_stderr=0.01),
        "LimitResult(mu_up=1.0, criterion_at_solution=0.05, iterations=3, bracket=(0.9, 1.0), "
        "mu_up_stderr=None, criterion_stderr=None)",
        True,
    ),
    "Integrator": (lambda: Integrator.monte_carlo(500, 7), lambda: Integrator.monte_carlo(500, 8),
                   "Integrator(kind='monte_carlo', n_samples=500, seed=7, nodes_per_dim=16)", True),
    "EquivalenceReport": (
        lambda: EquivalenceReport(2.5, 2.5, 0.0, False, "equivalent_within_tol", 1e-6),
        lambda: EquivalenceReport(2.5, 2.5, 0.0, False, "equivalent_within_tol", 1e-7),
        "EquivalenceReport(mu_up_cls=2.5, mu_up_bayes=2.5, rel_diff=0.0, signal_uncertain=False, "
        "verdict='equivalent_within_tol', tol=1e-06, mc_stderr=None)",
        True,
    ),
}
FIELDS = {
    "Response": ("kind", "kappa", "delta"),
    "Prior": ("kind", "loc", "scale"),
    "Nuisance": ("name", "prior"),
    "BackgroundProcess": ("name", "b_nom", "responses"),
    "SystematicsModel": ("nuisances", "signal_responses", "correlation"),
    "CountingModel": ("s_nom", "backgrounds", "n_obs", "systematics"),
    "LimitRequest": ("alpha", "rel_tol", "max_iter"),
    "LimitResult": ("mu_up", "criterion_at_solution", "iterations", "bracket", "mu_up_stderr", "criterion_stderr"),
    "Integrator": ("kind", "n_samples", "seed", "nodes_per_dim"),
    "EquivalenceReport": ("mu_up_cls", "mu_up_bayes", "rel_diff", "signal_uncertain", "verdict", "tol", "mc_stderr"),
}
each_record = pytest.mark.parametrize("name", list(RECORDS))


@each_record
def test_equal_and_unequal_instances(name):
    make, other, _, _ = RECORDS[name]
    record = make()
    assert record == make() and not record != make()
    assert record != other() and not record == other()
    assert record.__eq__(object()) is NotImplemented
    assert record != object() and record != repr(record)


@each_record
def test_hash_is_that_of_the_fields_or_refused(name):
    make, _, _, hashes = RECORDS[name]
    record = make()
    if hashes is True:
        assert hash(record) == hash(make()) == hash(tuple(getattr(record, f) for f in FIELDS[name]))
    else:
        with pytest.raises(TypeError, match=f"^{hashes}$"):
            hash(record)


@each_record
def test_repr_names_every_field(name):
    make, _, text, _ = RECORDS[name]
    assert repr(make()) == text


@each_record
def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    for field in (FIELDS[name][0], FIELDS[name][-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == RECORDS[name][0]() and not hasattr(record, "extra")


@each_record
def test_pickle_and_deepcopy_give_an_equal_record(name):
    record = RECORDS[name][0]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[name][0], 1.0)
    if name == "SystematicsModel":  # the Cholesky factor is rebuilt with it
        z = np.array([[1.0, 1.0]])
        assert np.array_equal(twin.correlate(z), record.correlate(z))


def held(value):
    """Each mapping and array ``value`` holds, through records (fields and derived values), tuples and mappings."""
    if isinstance(value, (np.ndarray, Mapping)):
        yield value
    if isinstance(value, Mapping):
        value = tuple(value.values())
    elif hasattr(value, "_fields"):
        value = tuple(vars(value).values())
    if isinstance(value, tuple):
        for item in value:
            yield from held(item)


@each_record
def test_nothing_a_built_record_holds_can_change(name):
    record = RECORDS[name][0]()
    found = list(held(record))
    if name in ("BackgroundProcess", "SystematicsModel", "CountingModel"):
        assert any(isinstance(x, Mapping) for x in found)
    if name in ("SystematicsModel", "CountingModel"):  # the correlation and its Cholesky factor
        assert sum(isinstance(x, np.ndarray) for x in found) == 2
    for x in found:
        if isinstance(x, Mapping):
            for change in (lambda: x.__setitem__("p", Response.identity()), lambda: x.update(p=Response.identity()),
                           lambda: x.pop("p"), lambda: x.clear()):
                with pytest.raises((TypeError, AttributeError)):
                    change()
        else:
            with pytest.raises(ValueError):
                x[0, 0] = 0.5
            while isinstance(x, np.ndarray):  # the array, and each array it is a view of
                with pytest.raises(ValueError):
                    x.setflags(write=True)
                x = x.base
    assert record == RECORDS[name][0]() and repr(record) == RECORDS[name][2]


@each_record
def test_to_dict(name):
    record = RECORDS[name][0]()
    want = {
        "LimitResult": {"mu_up": 1.0, "criterion_at_solution": 0.05, "iterations": 3, "bracket": [0.9, 1.0],
                        "mu_up_stderr": None, "criterion_stderr": None},
        "Integrator": {"kind": "monte_carlo", "n_samples": 500, "seed": 7},
        "EquivalenceReport": {"mu_up_cls": 2.5, "mu_up_bayes": 2.5, "rel_diff": 0.0, "signal_uncertain": False,
                              "verdict": "equivalent_within_tol", "tol": 1e-6, "mc_stderr": None},
    }.get(name)
    if want is None:
        assert not hasattr(record, "to_dict")
    else:
        assert record.to_dict() == want
        assert list(record.to_dict()) == list(want)


def test_systematics_model_leaves_another_type_to_it():
    assert SystematicsModel().__eq__(()) is NotImplemented
    assert SystematicsModel() == SystematicsModel() and SystematicsModel() != ()


def test_identity_factor_is_one_on_finite_nuisances():
    with np.errstate(invalid="ignore"):  # 0 * inf
        factor = Response.identity().factor(np.array([0.5, -2.0, math.inf]))
    assert factor[:2].tolist() == [1.0, 1.0] and math.isnan(factor[2])
    assert Response.log_normal(2.0).factor(np.array([1.0])).tolist() == [2.0]
