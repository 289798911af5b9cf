"""The run settings, ``LimitRequest``, ``Integrator`` and ``compare_limits``'
``tol``, refuse each bad value once, in the library, with a ConfigError
naming the class (or function) and the field."""

import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from countlim import ConfigError, Integrator, LimitRequest, compare_limits

from helpers import plain_model


def compare(tol):
    return compare_limits(plain_model(), LimitRequest(0.05), None, tol=tol)


# each of these was once accepted, or a bare TypeError
REFUSED = [
    ("LimitRequest.max_iter", lambda: LimitRequest(0.05, max_iter=True)),
    ("LimitRequest.max_iter", lambda: LimitRequest(0.05, max_iter=np.bool_(True))),
    ("LimitRequest.alpha", lambda: LimitRequest("0.05")),
    ("LimitRequest.alpha", lambda: LimitRequest(None)),
    ("LimitRequest.rel_tol", lambda: LimitRequest(0.05, rel_tol=None)),
    ("LimitRequest.rel_tol", lambda: LimitRequest(0.05, rel_tol=True)),
    ("Integrator.n_samples", lambda: Integrator("gauss_hermite", n_samples=5, nodes_per_dim=8)),
    ("Integrator.seed", lambda: Integrator("gauss_hermite", seed=3)),
    ("Integrator.nodes_per_dim", lambda: Integrator("monte_carlo", n_samples=5, nodes_per_dim=1000)),
    ("Integrator.kind", lambda: Integrator(None)),
    ("compare_limits.tol", lambda: compare(True)),
    ("compare_limits.tol", lambda: compare("x")),
    ("compare_limits.tol", lambda: compare(None)),
]


@pytest.mark.parametrize(("where", "make"), REFUSED, ids=[f"{w}-{i}" for i, (w, _) in enumerate(REFUSED)])
def test_a_bad_run_setting_is_refused_once_typed(where, make):
    owner, name = where.split(".")
    with pytest.raises(ConfigError, match=rf"^{owner}\.{name} must ") as err:
        make()
    assert isinstance(err.value, ValueError)
    assert err.value.field == name


def test_settings_are_stored_as_python_numbers():
    req = LimitRequest(np.float64(0.05), rel_tol=np.float32(0.25), max_iter=np.int64(20))
    assert [type(v) for v in (req.alpha, req.rel_tol, req.max_iter)] == [float, float, int]
    assert type(compare(np.float64(1e-6)).tol) is float


COUNTS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([10000, 2**64 - 1, 2**64, -(2**64)]),
    st.integers(-3, 70).map(np.int64),
    st.sampled_from([1.0, 16.0, 0.5, True, False, None, "16"]),
)


def count(default):
    """A value for an Integrator field: its default, as an int or numpy's, or any of COUNTS."""
    return st.one_of(st.just(default), st.just(np.int64(default)), COUNTS)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["monte_carlo", "gauss_hermite", "trapezoid"]),
       fields=st.fixed_dictionaries({}, optional={"n_samples": count(10000), "seed": count(0),
                                                  "nodes_per_dim": count(16)}))
def test_every_integrator_that_constructs_round_trips(kind, fields):
    # an unused field once constructed, and to_dict dropped it
    try:
        integ = Integrator(kind, **fields)
    except ConfigError as err:
        event(f"refused at {str(err).split()[0]}")
        return
    event("accepted")
    assert Integrator(**integ.to_dict()) == integ
    assert Integrator(**json.loads(json.dumps(integ.to_dict()))) == integ
