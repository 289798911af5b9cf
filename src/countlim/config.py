"""Model configuration files: JSON schema, parsing and round-tripping.

Schema (all unknown keys are rejected with path-qualified errors):

    {
      "signal":      {"nominal": number, "responses": {name: response}},
      "backgrounds": [{"name": str, "nominal": number,
                       "responses": {name: response}}],
      "nuisances":   [{"name": str, "prior": prior}],
      "correlation": [[...], ...],          # optional, Gaussian priors only
      "n_obs":       integer
    }

    response: {"kind": "identity"}
            | {"kind": "log_normal", "kappa": number > 0}
            | {"kind": "linear", "delta": number}
    prior:    {"kind": "standard_normal"}
            | {"kind": "normal", "mean": number, "sd": number > 0}
            | {"kind": "log_normal", "mu": number, "sigma": number > 0}

Parsing checks only JSON's shape: objects, lists, the ``kind`` string,
and unknown and missing keys. Every type and range rule is the model's;
``_node`` names the config node of a field the model refuses. Each kind's
keys are its class's ``KINDS``, read by parsing and emitting alike.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from .exceptions import ConfigError, ModelError
from .model import (
    BackgroundProcess,
    CountingModel,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
)

__all__ = ["load_model", "parse_model", "emit_config"]


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key

def _object(node, path: str, keys=None) -> dict:
    """``node``, refused unless a JSON object with no key outside ``keys`` (if given)."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object, got {type(node).__name__}")
    if keys is not None:
        for key in node:
            if key not in keys:
                raise ConfigError(f"{_at(path, key)}: unknown key")
    return node

def _require_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"{path}: expected a list, got {type(node).__name__}")
    return node

def _take(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{_at(path, key)}: missing required key")
    return node[key]


@contextlib.contextmanager
def _node(path: str, **keys):
    """Where the model object of the config node at ``path`` is built: a
    :class:`ModelError` becomes a :class:`ConfigError` prefixed by the path
    ``keys`` gives for the field it refuses, or else by ``path``."""
    try:
        yield
    except ModelError as err:
        raise ConfigError(f"{keys.get(err.field, path)}: {err}") from err


def _parse_kind(cls, node, path: str):
    """The ``cls`` (a :class:`Response` or :class:`Prior`) a config node states, by ``cls.KINDS``."""
    kind = _take(_object(node, path), "kind", path)
    if not isinstance(kind, str):
        raise ConfigError(f"{path}.kind: expected a string, got {kind!r}")
    keys = cls.KINDS.get(kind, {})  # an unknown kind is the model's to refuse
    _object(node, path, {"kind", *keys})
    with _node(path, kind=f"{path}.kind", **{attr: f"{path}.{key}" for key, attr in keys.items()}):
        return cls(kind, **{attr: _take(node, key, path) for key, attr in keys.items()})


def _parse_responses(node, path: str) -> dict:
    return {name: _parse_kind(Response, sub, f"{path}.{name}") for name, sub in _object(node, path).items()}


def parse_model(doc) -> CountingModel:
    """Build a :class:`CountingModel` from a parsed configuration document."""
    doc = _object(doc, "", {"signal", "backgrounds", "nuisances", "correlation", "n_obs"})
    signal = _object(_take(doc, "signal", ""), "signal", {"nominal", "responses"})
    s_nom = _take(signal, "nominal", "signal")
    signal_responses = _parse_responses(signal.get("responses", {}), "signal.responses")

    backgrounds = []
    for i, bnode in enumerate(_require_list(doc.get("backgrounds", []), "backgrounds")):
        path = f"backgrounds[{i}]"
        bnode = _object(bnode, path, {"name", "nominal", "responses"})
        name, b_nom = _take(bnode, "name", path), _take(bnode, "nominal", path)
        responses = _parse_responses(bnode.get("responses", {}), f"{path}.responses")
        with _node(path, name=f"{path}.name", b_nom=f"{path}.nominal"):
            backgrounds.append(BackgroundProcess(name, b_nom, responses))

    nuisances = []
    for i, nnode in enumerate(_require_list(doc.get("nuisances", []), "nuisances")):
        path = f"nuisances[{i}]"
        nnode = _object(nnode, path, {"name", "prior"})
        name = _take(nnode, "name", path)
        prior = _parse_kind(Prior, _take(nnode, "prior", path), f"{path}.prior")
        with _node(path, name=f"{path}.name"):
            nuisances.append(Nuisance(name, prior))

    correlation = None
    if "correlation" in doc:
        correlation = _require_list(doc["correlation"], "correlation")
        for i, row in enumerate(correlation):
            _require_list(row, f"correlation[{i}]")

    n_obs = _take(doc, "n_obs", "")
    with _node("<root>", s_nom="signal.nominal", signal_responses="signal.responses", n_obs="n_obs",
               backgrounds="backgrounds", nuisances="nuisances", correlation="correlation"):
        systematics = SystematicsModel(tuple(nuisances), signal_responses, correlation)
        return CountingModel(s_nom, tuple(backgrounds), n_obs, systematics)


def load_model(path) -> CountingModel:
    """Parse a JSON configuration file into a model."""
    return _parse_file(Path(path).read_bytes(), path)


def _parse_file(data: bytes, path) -> CountingModel:
    """The model in ``data``, the bytes of the file ``path``, decoded as :meth:`Path.read_text` decodes them."""
    try:
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err}") from err
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return parse_model(doc)


def _emit_kind(obj) -> dict:
    """The config node of a :class:`Response` or :class:`Prior`, by its class's ``KINDS``."""
    keys = type(obj).KINDS[obj.kind]
    return {"kind": obj.kind, **{key: getattr(obj, attr) for key, attr in keys.items()}}


def emit_config(model: CountingModel) -> dict:
    """Configuration document for ``model``; parses back to an equal model."""
    doc = {
        "signal": {
            "nominal": model.s_nom,
            "responses": {
                name: _emit_kind(resp)
                for name, resp in model.systematics.signal_responses.items()
            },
        },
        "backgrounds": [
            {
                "name": bkg.name,
                "nominal": bkg.b_nom,
                "responses": {name: _emit_kind(resp) for name, resp in bkg.responses.items()},
            }
            for bkg in model.backgrounds
        ],
        "nuisances": [
            {"name": nu.name, "prior": _emit_kind(nu.prior)}
            for nu in model.systematics.nuisances
        ],
        "n_obs": model.n_obs,
    }
    if model.systematics.correlation is not None:
        doc["correlation"] = [list(row) for row in model.systematics.correlation]
    return doc
