"""Fuzz the CLI over random model configs and options, valid and invalid.

Every call must end with a documented exit code (0 success, 1 config or
model error, 2 solver error) and never with an uncaught exception or a
traceback. A call with an invalid option value must exit 1. The examples
are derandomised, so every run tests the same 100 calls. Hypothesis
favours the smallest draws, so the smallest draw of every choice below is
a valid one; one config in five carries a defect.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from helpers import run_cli

NUISANCE_NAMES = ("p0", "p1", "p2")
OVER_BUDGET = "100000000000"  # Monte Carlo samples or scan points, far above either budget

responses = st.one_of(
    st.builds(lambda k: {"kind": "log_normal", "kappa": k}, st.floats(min_value=1.01, max_value=2.0)),
    st.builds(lambda d: {"kind": "linear", "delta": d}, st.floats(min_value=-0.3, max_value=0.3)),
    st.just({"kind": "identity"}),
)
priors = st.one_of(
    st.just({"kind": "standard_normal"}),
    st.builds(lambda m, sd: {"kind": "normal", "mean": m, "sd": sd},
              st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.1, max_value=2.0)),
    st.builds(lambda m, s: {"kind": "log_normal", "mu": m, "sigma": s},
              st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.05, max_value=0.5)),
)

# each defect makes the config invalid, or pushes it to the edge of the numeric domain
DEFECTS = (
    lambda doc: doc["signal"].update(nominal=-1.0),
    lambda doc: doc["signal"].update(nominal=0.0),
    lambda doc: doc["signal"].update(nominal="1.5"),
    lambda doc: doc.update(n_obs=-1),
    lambda doc: doc.update(n_obs=2.5),
    lambda doc: doc.update(extra=1),
    lambda doc: doc["signal"]["responses"].update(nowhere={"kind": "identity"}),
    lambda doc: doc["signal"]["responses"].update(p0={"kind": "log_normal", "kappa": -0.5}),
    lambda doc: doc["backgrounds"].append({"name": "neg", "nominal": -2.0}),
    lambda doc: doc["backgrounds"].append({"name": "huge", "nominal": 1e300}),
    lambda doc: doc.update(n_obs=400),
    # written out in full: a count past the float range once raised a bare OverflowError
    lambda doc: doc.update(n_obs=10**400),
    lambda doc: doc.update(correlation=[[1.0, 2.0], [2.0, 1.0]]),
    # a ragged row once raised numpy's ValueError, a traceback
    lambda doc: doc.update(correlation=[[1.0], [0.0, 1.0]]),
)


@st.composite
def configs(draw):
    names = list(NUISANCE_NAMES[: draw(st.integers(0, 3))])
    response_maps = st.dictionaries(st.sampled_from(names), responses, max_size=2) if names else st.just({})
    doc = {
        "signal": {"nominal": draw(st.floats(min_value=0.05, max_value=20.0)), "responses": draw(response_maps)},
        "backgrounds": [
            {"name": f"b{i}", "nominal": draw(st.floats(min_value=0.0, max_value=300.0)),
             "responses": draw(response_maps)}
            for i in range(draw(st.integers(0, 2)))
        ],
        "nuisances": [{"name": name, "prior": draw(priors)} for name in names],
        "n_obs": draw(st.integers(0, 200)),
    }
    if len(names) == 2 and draw(st.booleans()):
        rho = draw(st.floats(min_value=-0.9, max_value=0.9))
        doc["correlation"] = [[1.0, rho], [rho, 1.0]]
    if draw(st.integers(0, 4)) == 4:
        draw(st.sampled_from(DEFECTS))(doc)
    return doc


integrator_options = st.one_of(
    st.builds(lambda n, s: ["--integrator", "mc", "--samples", str(n), "--seed", str(s)],
              st.integers(2, 200), st.integers(0, 3)),
    st.builds(lambda n: ["--integrator", "gh", "--nodes", str(n)], st.integers(2, 8)),
    st.sampled_from([["--samples", "0"], ["--seed", "-1"], ["--integrator", "gh", "--nodes", "1"],
                     ["--nodes", "1"], ["--integrator", "gh", "--samples", "0"], ["--samples", OVER_BUDGET]]),
)
levels = st.sampled_from(["0.95", "0.9", "0.68", "0.999", "0", "1"])
tolerances = st.sampled_from(["1e-9", "1e-12", "1e-4", "0", "inf"])

# option values refused whatever the config, the integrator's included; the
# Monte Carlo budget is checked only where a set is drawn, for a model with
# nuisances
REFUSED = {("--cl", "0"), ("--cl", "1"), ("--tol", "0"), ("--tol", "inf"), ("--solver-tol", "0"),
           ("--solver-tol", "inf"), ("--mu-max", "0"), ("--mu-max", "inf"), ("--points", "1"),
           ("--points", OVER_BUDGET)}
REFUSED_INTEGRATOR = {("--samples", "0"), ("--seed", "-1"), ("--nodes", "1")}
REFUSED_SAMPLE_SET = {("--samples", OVER_BUDGET)}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["limit", "equivalence", "scan"]))
    if command == "limit":
        args = ["--method", draw(st.sampled_from(["both", "cls", "bayes"])), "--cl", draw(levels),
                "--tol", draw(tolerances)]
    elif command == "equivalence":
        args = ["--cl", draw(levels), "--solver-tol", draw(tolerances),
                "--tol", draw(st.sampled_from(["1e-6", "0", "inf"]))]
    else:
        args = ["--quantity", draw(st.sampled_from(["cls", "clsb", "clb", "posterior"])),
                "--mu-max", draw(st.sampled_from(["10", "1e3", "0", "inf"])),
                "--points", draw(st.sampled_from(["11", "2", "1", OVER_BUDGET]))]
    return command, args + draw(integrator_options)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs(), invocation=invocations())
def test_cli_exits_with_a_documented_code(doc, invocation):
    command, args = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # an uncaught exception other than SystemExit propagates out of run_cli and fails the example
        code, out, err = run_cli([command, str(path), *args])
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    options = set(zip(args, args[1:]))
    if options & (REFUSED | REFUSED_INTEGRATOR) or (options & REFUSED_SAMPLE_SET and doc["nuisances"]):
        assert code == 1, err
    if code == 0 and command != "scan":
        payload = json.loads(out)
        results = payload["results"].values() if command == "limit" else [payload["report"]]
        for res in results:
            assert all(math.isfinite(v) for v in res.values() if isinstance(v, float))
