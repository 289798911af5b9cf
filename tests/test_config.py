import copy
import json
import math
import pickle
import re
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from countlim import (
    BackgroundProcess,
    ConfigError,
    CountingModel,
    ModelError,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
)
from countlim.config import emit_config, load_model, parse_model
from helpers import run_cli

MINIMAL = {"signal": {"nominal": 1.0}, "backgrounds": [], "n_obs": 0}

FULL = {
    "signal": {
        "nominal": 1.0,
        "responses": {"jes": {"kind": "log_normal", "kappa": 1.15}},
    },
    "backgrounds": [
        {
            "name": "continuum",
            "nominal": 1.5,
            "responses": {
                "jes": {"kind": "log_normal", "kappa": 1.2},
                "lumi": {"kind": "linear", "delta": 0.05},
            },
        },
        {"name": "peaking", "nominal": 0.4},
    ],
    "nuisances": [
        {"name": "jes", "prior": {"kind": "standard_normal"}},
        {"name": "lumi", "prior": {"kind": "normal", "mean": 0.0, "sd": 1.0}},
        {"name": "scale", "prior": {"kind": "log_normal", "mu": 0.0, "sigma": 0.3}},
    ],
    "correlation": [[1.0, 0.25], [0.25, 1.0]],
    "n_obs": 3,
}


class TestParse:
    def test_minimal(self):
        model = parse_model(MINIMAL)
        assert model.s_nom == 1.0
        assert model.backgrounds == ()
        assert model.n_obs == 0
        assert not model.has_systematics

    def test_full(self):
        model = parse_model(FULL)
        assert model.b_nom_total == pytest.approx(1.9)
        assert model.systematics.names == ("jes", "lumi", "scale")
        assert model.systematics.signal_responses["jes"] == Response.log_normal(1.15)
        assert model.systematics.nuisances[2].prior == Prior.log_normal(0.0, 0.3)
        assert model.systematics.correlation.shape == (2, 2)
        assert not model.signal_is_certain

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="signall: unknown key"):
            parse_model({"signall": {"nominal": 1.0}, "n_obs": 0})

    def test_unknown_nested_key_is_path_qualified(self):
        doc = json.loads(json.dumps(FULL))
        doc["backgrounds"][0]["responses"]["jes"]["kapa"] = 1.2
        with pytest.raises(ConfigError, match=r"backgrounds\[0\].responses.jes.kapa"):
            parse_model(doc)

    def test_unknown_prior_kind(self):
        doc = json.loads(json.dumps(FULL))
        doc["nuisances"][1]["prior"] = {"kind": "cauchy"}
        with pytest.raises(ConfigError, match=r"nuisances\[1\].prior.kind"):
            parse_model(doc)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="signal.nominal: missing"):
            parse_model({"signal": {}, "n_obs": 0})
        with pytest.raises(ConfigError, match="n_obs: missing"):
            parse_model({"signal": {"nominal": 1.0}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="signal.nominal: CountingModel.s_nom must be a real number"):
            parse_model({"signal": {"nominal": "one"}, "n_obs": 0})
        with pytest.raises(ConfigError, match="n_obs: CountingModel.n_obs must be a nonnegative integer"):
            parse_model({"signal": {"nominal": 1.0}, "n_obs": 2.5})
        with pytest.raises(ConfigError, match="backgrounds: expected a list"):
            parse_model({"signal": {"nominal": 1.0}, "backgrounds": {}, "n_obs": 0})

    def test_negative_n_obs(self):
        with pytest.raises(ConfigError, match="n_obs"):
            parse_model({"signal": {"nominal": 1.0}, "n_obs": -1})

    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            ({"signal": {"nominal": -1.0}, "backgrounds": [{"name": "b", "nominal": 1.0}], "n_obs": 1},
             r"signal\.nominal: CountingModel\.s_nom"),
            ({"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": -1.0}], "n_obs": 1},
             r"backgrounds\[0\]\.nominal: BackgroundProcess\.b_nom"),
            (
                {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "a", "nominal": 1.0}, {"name": "b", "nominal": -2}],
                 "n_obs": 1},
                r"backgrounds\[1\]\.nominal: BackgroundProcess\.b_nom",
            ),
        ],
        ids=["signal", "background", "second background"],
    )
    def test_negative_nominal_yield_is_a_path_qualified_config_error(self, doc, path):
        with pytest.raises(ConfigError, match=rf"^{path} must be finite and nonnegative, got -[12]\.0$"):
            parse_model(doc)

    def test_negative_nominal_yield_exits_1(self, tmp_path):
        for doc, message in (
            ({"signal": {"nominal": -1.0}, "n_obs": 1}, "signal.nominal: CountingModel.s_nom"),
            ({"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": -1.0}], "n_obs": 1},
             "backgrounds[0].nominal: BackgroundProcess.b_nom"),
        ):
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = run_cli(["limit", str(cfg)])
            assert code == 1 and f"{message} must be finite and nonnegative" in err

    def test_bad_parameter_values(self):
        doc = json.loads(json.dumps(FULL))
        doc["signal"]["responses"]["jes"]["kappa"] = -2.0
        with pytest.raises(ConfigError, match="kappa"):
            parse_model(doc)
        doc = json.loads(json.dumps(FULL))
        doc["nuisances"][1]["prior"]["sd"] = 0.0
        with pytest.raises(ConfigError, match="sd"):
            parse_model(doc)

    def test_non_finite_numbers(self):
        # json.loads accepts NaN and Infinity, and so would the model
        for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
            text = json.dumps(FULL).replace('"nominal": 1.5', f'"nominal": {literal}')
            with pytest.raises(ConfigError, match=r"backgrounds\[0\].nominal: BackgroundProcess\.b_nom must be finite"):
                parse_model(json.loads(text))
        doc = json.loads(json.dumps(FULL))
        doc["correlation"][0][1] = float("nan")
        message = r"correlation: SystematicsModel\.correlation\[0\]\[1\] must be a finite real number"
        with pytest.raises(ConfigError, match=message):
            parse_model(doc)

    def test_model_invariants_become_config_errors(self):
        doc = json.loads(json.dumps(FULL))
        doc["correlation"] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ConfigError, match="positive definite"):
            parse_model(doc)
        doc = json.loads(json.dumps(MINIMAL))
        doc["signal"]["nominal"] = 0.0
        with pytest.raises(ConfigError, match="positive"):
            parse_model(doc)

    def test_unknown_response_reference(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["signal"]["responses"] = {"ghost": {"kind": "identity"}}
        with pytest.raises(ConfigError, match="ghost"):
            parse_model(doc)


# the canonical config node of each response and prior kind, and the value it stands for
CANONICAL = {
    (Response, "identity"): ({"kind": "identity"}, Response.identity()),
    (Response, "log_normal"): ({"kind": "log_normal", "kappa": 1.5}, Response.log_normal(1.5)),
    (Response, "linear"): ({"kind": "linear", "delta": -0.25}, Response.linear(-0.25)),
    (Prior, "standard_normal"): ({"kind": "standard_normal"}, Prior.standard_normal()),
    (Prior, "normal"): ({"kind": "normal", "mean": -0.25, "sd": 1.5}, Prior.normal(-0.25, 1.5)),
    (Prior, "log_normal"): ({"kind": "log_normal", "mu": -0.25, "sigma": 1.5}, Prior.log_normal(-0.25, 1.5)),
}
KIND_CASES = [
    (cls, kind, place)
    for cls in (Response, Prior)
    for kind in cls.KINDS
    for place in (("signal", "background") if cls is Response else ("nuisance",))
]


class TestRoundTrip:
    @pytest.mark.parametrize(("cls", "kind", "place"), KIND_CASES, ids=[f"{k}-{p}" for _, k, p in KIND_CASES])
    def test_every_kind_round_trips(self, cls, kind, place):
        node, value = CANONICAL[cls, kind]
        responses = {"a": node} if cls is Response else {}
        doc = {
            "signal": {"nominal": 1.0, "responses": responses if place == "signal" else {}},
            "backgrounds": [{"name": "bkg", "nominal": 1.5, "responses": responses if place == "background" else {}}],
            "nuisances": [{"name": "a", "prior": node if cls is Prior else {"kind": "standard_normal"}}],
            "n_obs": 3,
        }
        model = parse_model(doc)
        parsed = {
            "signal": model.systematics.signal_responses.get("a"),
            "background": model.backgrounds[0].responses.get("a"),
            "nuisance": model.systematics.nuisances[0].prior,
        }
        assert parsed[place] == value
        assert json.dumps(emit_config(model)) == json.dumps(doc)  # equal, key order included

    @pytest.mark.parametrize("doc", [MINIMAL, FULL])
    def test_parse_emit_parse(self, doc):
        model = parse_model(doc)
        assert parse_model(emit_config(model)) == model

    def test_emitted_document_is_json_serialisable(self):
        doc = emit_config(parse_model(FULL))
        text = json.dumps(doc)
        assert parse_model(json.loads(text)) == parse_model(FULL)

    @pytest.mark.parametrize("real", [np.float32, np.float64, np.int64], ids=lambda t: t.__name__)
    @pytest.mark.parametrize("integer", [np.int64, np.uint8], ids=lambda t: t.__name__)
    def test_numpy_scalars_in_a_model_round_trip(self, real, integer):
        # a model once kept numpy's scalars as given: parse_model refused the
        # emitted np.float32(2.0) and np.int64(3), and json.dumps a float32
        systematics = SystematicsModel(
            nuisances=(
                Nuisance("a", Prior("normal", loc=real(1), scale=real(2))),
                Nuisance("c", Prior("log_normal", loc=real(0), scale=real(1))),
            ),
            signal_responses={"c": Response("linear", delta=real(1))},
        )
        responses = {"a": Response("log_normal", kappa=real(2)), "c": Response("linear", delta=real(0))}
        background = BackgroundProcess("b", real(1), responses)
        model = CountingModel(s_nom=real(2), backgrounds=(background,), n_obs=integer(3), systematics=systematics)
        stored = [model.s_nom, model.backgrounds[0].b_nom]
        for resp in (*model.backgrounds[0].responses.values(), *model.systematics.signal_responses.values()):
            stored += [resp.kappa, resp.delta]
        for nu in model.systematics.nuisances:
            stored += [nu.prior.loc, nu.prior.scale]
        assert [type(x) for x in stored] == [float] * 12 and type(model.n_obs) is int
        assert parse_model(emit_config(model)) == model
        assert parse_model(json.loads(json.dumps(emit_config(model)))) == model

    def test_correlation_survives(self):
        model = parse_model(FULL)
        doc = emit_config(model)
        assert np.array_equal(np.asarray(doc["correlation"]), model.systematics.correlation)


# values no field takes, or only some do, and keys no mapping of responses
# takes ("z" names no nuisance): each value or key drawn below is one of
# them one time in ODD_ONE_IN
ODD = st.sampled_from([None, True, np.bool_(True), "1.5", [1.0], {}, math.nan, math.inf, -math.inf, 10**400,
                       -(10**400), -1, 0, np.float32(1.5), np.int64(2), "log_normal", "cauchy"])
ODD_KEYS = st.sampled_from([None, 1, "z"])
ODD_ONE_IN = 40
NAMES = ("a", "b", "c")
RESPONSE_PARAMS = {"kappa": st.floats(0.5, 2.0), "delta": st.floats(-0.3, 0.3)}
PRIOR_PARAMS = {"loc": st.floats(-1.0, 1.0), "scale": st.floats(0.1, 2.0)}


def odd(draw) -> bool:
    return draw(st.integers(0, ODD_ONE_IN - 1)) == 0


def some(draw, make, odd_values=ODD):
    """``make()``, or one time in ``ODD_ONE_IN`` a draw of ``odd_values``."""
    return draw(odd_values) if odd(draw) else make()


def correlation_rows(draw, k):
    """A k x k matrix as lists, symmetric with a unit diagonal, at times of
    a size off by one, with a ragged last row or with odd entries."""
    k = max(k + draw(st.sampled_from([0] * 6 + [-1, 1])), 0)
    rho = {(i, j): some(draw, lambda: draw(st.floats(-0.6, 0.6))) for i in range(k) for j in range(i)}
    rows = [[1.0 if i == j else rho[max(i, j), min(i, j)] for j in range(k)] for i in range(k)]
    if rows and odd(draw):
        rows[-1].pop()
    return rows


@st.composite
def constructed(draw):
    """A model built by its constructors from drawn arguments, or the error refusing them."""
    def value(strategy):
        return some(draw, lambda: draw(strategy))

    def kinded(cls, params):
        kind = value(st.sampled_from(list(cls.KINDS)))
        taken = cls.KINDS.get(kind, {}).values() if isinstance(kind, str) else ()
        # a parameter the kind does not take is passed one time in ODD_ONE_IN
        return cls(kind, **{attr: value(valid) for attr, valid in params.items() if attr in taken or odd(draw)})

    def responses():
        count = draw(st.integers(0, min(2, len(names))))
        return {some(draw, lambda: draw(st.sampled_from(names)), ODD_KEYS):
                some(draw, lambda: kinded(Response, RESPONSE_PARAMS)) for _ in range(count)}

    names = NAMES[: draw(st.integers(0, 3))]
    try:
        prior = lambda: kinded(Prior, PRIOR_PARAMS)  # noqa: E731
        nuisances = tuple(Nuisance(value(st.just(name)), some(draw, prior)) for name in names)
        correlation = None
        if draw(st.integers(0, 2)) == 0:
            correlation = correlation_rows(draw, sum(nu.prior.is_normal_family for nu in nuisances))
            if draw(st.booleans()):
                correlation = np.array(correlation, dtype=object)  # of lists, where a row is ragged
        systematics = SystematicsModel(value(st.just(nuisances)), responses(), correlation)
        backgrounds = tuple(BackgroundProcess(value(st.just(f"b{i}")), value(st.floats(0.0, 50.0)), responses())
                            for i in range(draw(st.integers(0, 2))))
        return CountingModel(value(st.floats(0.0, 10.0)), value(st.just(backgrounds)), value(st.integers(0, 50)),
                             value(st.just(systematics)))
    except ModelError as err:
        return err


@st.composite
def documents(draw):
    """A config document, at times with odd values, an unknown kind, a
    misshapen correlation or optional keys left out."""
    def value(strategy):
        return some(draw, lambda: draw(strategy))

    def kinded(kinds, params):
        kind = value(st.sampled_from(list(kinds)))
        keys = kinds.get(kind, {}) if isinstance(kind, str) else {}
        return {"kind": kind, **{key: value(params[attr]) for key, attr in keys.items()}}

    def responses():
        count = draw(st.integers(0, min(2, len(names))))
        return {some(draw, lambda: draw(st.sampled_from(names)), st.just("z")): kinded(Response.KINDS, RESPONSE_PARAMS)
                for _ in range(count)}

    names = NAMES[: draw(st.integers(0, 3))]
    doc = {
        "signal": {"nominal": value(st.floats(0.0, 10.0)), "responses": responses()},
        "backgrounds": [{"name": value(st.just(f"b{i}")), "nominal": value(st.floats(0.0, 50.0)),
                         "responses": responses()} for i in range(draw(st.integers(0, 2)))],
        "nuisances": [{"name": value(st.just(name)), "prior": kinded(Prior.KINDS, PRIOR_PARAMS)} for name in names],
        "n_obs": value(st.integers(0, 50)),
    }
    if draw(st.integers(0, 2)) == 0:
        gaussian = sum(nu["prior"]["kind"] in ("standard_normal", "normal") for nu in doc["nuisances"])
        doc["correlation"] = correlation_rows(draw, gaussian)
    for node, key in [(doc["signal"], "responses"), (doc, "backgrounds"), (doc, "nuisances"),
                      *((bkg, "responses") for bkg in doc["backgrounds"])]:
        if not node[key] and draw(st.booleans()):
            del node[key]
    return doc


def with_defaults(doc):
    """``doc`` with the optional keys it leaves out set to their defaults, as ``emit_config`` writes them."""
    doc = copy.deepcopy(doc)
    doc["signal"].setdefault("responses", {})
    for key in ("backgrounds", "nuisances"):
        doc.setdefault(key, [])
    for bkg in doc["backgrounds"]:
        bkg.setdefault("responses", {})
    return doc


def derived(model) -> tuple:
    """What a model derives on construction, its systematics' included."""
    syst = model.systematics
    return (model.b_nom_total, model.has_systematics, model.signal_is_certain, model.all_responses_identity,
            syst.names, syst.gaussian_indices, syst.all_normal_family)


def test_a_tampered_record_is_refused_on_load():
    # a copy is rebuilt through the constructor, so it passes every check the original did
    bkg = BackgroundProcess("bkg", 1.5)
    object.__setattr__(bkg, "b_nom", -1.0)
    text = pickle.dumps(bkg)
    with pytest.raises(ModelError, match=r"^BackgroundProcess\.b_nom must be finite and nonnegative, got -1\.0$"):
        pickle.loads(text)


class TestRoundTripProperty:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(model=constructed())
    def test_every_model_the_constructors_accept_round_trips(self, model):
        # a model of untyped fields once constructed, and failed to parse back
        event(f"refused at {str(model).split()[0]}" if isinstance(model, ModelError) else "accepted")
        if isinstance(model, ModelError):
            return
        assert parse_model(emit_config(model)) == model
        assert parse_model(json.loads(json.dumps(emit_config(model)))) == model
        # a copy is rebuilt through the constructors: equal, derived alike, read-only
        for twin in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert twin == model and repr(twin) == repr(model)
            assert derived(twin) == derived(model)
            assert all(type(bkg.responses) is MappingProxyType for bkg in twin.backgrounds)
            assert type(twin.systematics.signal_responses) is MappingProxyType

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(doc=documents())
    def test_every_document_parse_model_accepts_re_emits_to_itself(self, doc):
        # a ragged correlation once raised numpy's ValueError: every refusal is a ConfigError
        try:
            model = parse_model(doc)
        except ConfigError as err:
            event(f"refused at {str(err).split(':')[0]}")
            return
        event("accepted")
        emitted = emit_config(model)
        assert emitted == with_defaults(doc)
        text = json.dumps(emitted)
        assert json.dumps(emit_config(parse_model(json.loads(text)))) == text


def leaves(node, path=""):
    """The config path of each value in ``node`` that is no object or list, with a setter for it."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        where = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from leaves(value, where)
        else:
            yield where, lambda new, node=node, key=key: node.__setitem__(key, new)


class TestInnermostNode:
    LEAVES = [where for where, _ in leaves(json.loads(json.dumps(FULL)))]

    @pytest.mark.parametrize("value", [None, math.nan, [1.0]], ids=["None", "nan", "list"])
    @pytest.mark.parametrize("where", LEAVES)
    def test_a_bad_value_is_refused_at_its_own_node(self, where, value):
        doc = json.loads(json.dumps(FULL))
        dict(leaves(doc))[where](value)
        # the model refuses a correlation entry: the message names it after the node
        prefix = f"correlation: SystematicsModel.{where} " if where.startswith("correlation") else f"{where}: "
        with pytest.raises(ConfigError, match="^" + re.escape(prefix)):
            parse_model(doc)


class TestLoadModel:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(FULL), encoding="utf-8")
        assert load_model(path) == parse_model(FULL)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_model(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            load_model(path)

    def test_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MINIMAL).replace('"n_obs": 0', '"n_obs": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_model(path)
