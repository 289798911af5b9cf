import json

import numpy as np
import pytest

from countlim import BackgroundProcess, ConfigError, CountingModel, Nuisance, Prior, Response, SystematicsModel
from countlim.config import _KINDS, emit_config, load_model, parse_model
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
        with pytest.raises(ConfigError, match="signal.nominal: expected a number"):
            parse_model({"signal": {"nominal": "one"}, "n_obs": 0})
        with pytest.raises(ConfigError, match="n_obs: expected an integer"):
            parse_model({"signal": {"nominal": 1.0}, "n_obs": 2.5})
        with pytest.raises(ConfigError, match="backgrounds: expected a list"):
            parse_model({"signal": {"nominal": 1.0}, "backgrounds": {}, "n_obs": 0})

    def test_negative_n_obs(self):
        with pytest.raises(ConfigError, match="n_obs"):
            parse_model({"signal": {"nominal": 1.0}, "n_obs": -1})

    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            ({"signal": {"nominal": -1.0}, "backgrounds": [{"name": "b", "nominal": 1.0}], "n_obs": 1}, "signal"),
            ({"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": -1.0}], "n_obs": 1}, r"backgrounds\[0\]"),
            (
                {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "a", "nominal": 1.0}, {"name": "b", "nominal": -2}],
                 "n_obs": 1},
                r"backgrounds\[1\]",
            ),
        ],
        ids=["signal", "background", "second background"],
    )
    def test_negative_nominal_yield_is_a_path_qualified_config_error(self, doc, path):
        with pytest.raises(ConfigError, match=rf"^{path}\.nominal: must be nonnegative, got -[12]\.0$"):
            parse_model(doc)

    def test_negative_nominal_yield_exits_1(self, tmp_path):
        for doc in ({"signal": {"nominal": -1.0}, "n_obs": 1},
                    {"signal": {"nominal": 1.0}, "backgrounds": [{"name": "b", "nominal": -1.0}], "n_obs": 1}):
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = run_cli(["limit", str(cfg)])
            assert code == 1 and "nominal: must be nonnegative" in err

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
            with pytest.raises(ConfigError, match=r"backgrounds\[0\].nominal: expected a finite number"):
                parse_model(json.loads(text))
        doc = json.loads(json.dumps(FULL))
        doc["correlation"][0][1] = float("nan")
        with pytest.raises(ConfigError, match=r"correlation\[0\]\[1\]: expected a finite number"):
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
    for cls, kinds in _KINDS.items()
    for kind in kinds
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
