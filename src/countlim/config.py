"""Model configuration files: JSON schema, validation and round-tripping.

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

Each response and prior kind is stated once, in ``_KINDS``, read by parsing and emitting alike.
"""

from __future__ import annotations

import io
import json
import math
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


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node

def _require_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"{path}: expected a list, got {type(node).__name__}")
    return node

def _require_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {node!r}")
    try:
        value = float(node)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json.loads accepts NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number, got {node!r}")
    return value

def _require_yield(node, path: str) -> float:
    value = _require_number(node, path)
    if value < 0.0:
        raise ConfigError(f"{path}: must be nonnegative, got {value}")
    return value

def _require_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path}: expected an integer, got {node!r}")
    return node

def _require_str(node, path: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"{path}: expected a string, got {node!r}")
    return node

def _reject_unknown(node: dict, allowed: set, path: str) -> None:
    for key in node:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown key")

def _take(node: dict, key: str, path: str):
    if key not in node:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where}: missing required key")
    return node[key]


# Each response and prior kind: its config keys, in order, each with the model
# attribute it fills and whether the value must be positive.
_KINDS = {
    Response: {"identity": {}, "log_normal": {"kappa": ("kappa", True)}, "linear": {"delta": ("delta", False)}},
    Prior: {"standard_normal": {}, "normal": {"mean": ("loc", False), "sd": ("scale", True)},
            "log_normal": {"mu": ("loc", False), "sigma": ("scale", True)}},
}


def _parse_kind(cls, node, path: str):
    """The ``cls`` (a :class:`Response` or :class:`Prior`) a config node states, by its ``_KINDS`` entry."""
    node = _require_mapping(node, path)
    kind = _require_str(_take(node, "kind", path), f"{path}.kind")
    keys = _KINDS[cls].get(kind)
    if keys is None:
        raise ConfigError(f"{path}.kind: unknown {cls.__name__.lower()} kind {kind!r}")
    _reject_unknown(node, {"kind", *keys}, path)
    values = {}
    for key, (attr, positive) in keys.items():
        values[attr] = _require_number(_take(node, key, path), f"{path}.{key}")
        if positive and not values[attr] > 0.0:
            raise ConfigError(f"{path}.{key}: must be positive, got {values[attr]}")
    return cls(kind, **values)


def _parse_responses(node, path: str) -> dict:
    node = _require_mapping(node, path)
    return {name: _parse_kind(Response, sub, f"{path}.{name}") for name, sub in node.items()}


def parse_model(doc) -> CountingModel:
    """Build a :class:`CountingModel` from a parsed configuration document."""
    doc = _require_mapping(doc, "<root>")
    _reject_unknown(doc, {"signal", "backgrounds", "nuisances", "correlation", "n_obs"}, "")

    signal = _require_mapping(_take(doc, "signal", ""), "signal")
    _reject_unknown(signal, {"nominal", "responses"}, "signal")
    s_nom = _require_yield(_take(signal, "nominal", "signal"), "signal.nominal")
    signal_responses = _parse_responses(signal.get("responses", {}), "signal.responses")

    backgrounds = []
    for i, bnode in enumerate(_require_list(doc.get("backgrounds", []), "backgrounds")):
        path = f"backgrounds[{i}]"
        bnode = _require_mapping(bnode, path)
        _reject_unknown(bnode, {"name", "nominal", "responses"}, path)
        backgrounds.append(
            BackgroundProcess(
                name=_require_str(_take(bnode, "name", path), f"{path}.name"),
                b_nom=_require_yield(_take(bnode, "nominal", path), f"{path}.nominal"),
                responses=_parse_responses(bnode.get("responses", {}), f"{path}.responses"),
            )
        )

    nuisances = []
    for i, nnode in enumerate(_require_list(doc.get("nuisances", []), "nuisances")):
        path = f"nuisances[{i}]"
        nnode = _require_mapping(nnode, path)
        _reject_unknown(nnode, {"name", "prior"}, path)
        nuisances.append(
            Nuisance(
                name=_require_str(_take(nnode, "name", path), f"{path}.name"),
                prior=_parse_kind(Prior, _take(nnode, "prior", path), f"{path}.prior"),
            )
        )

    correlation = None
    if "correlation" in doc:
        rows = _require_list(doc["correlation"], "correlation")
        correlation = [
            [_require_number(v, f"correlation[{i}][{j}]") for j, v in enumerate(_require_list(row, f"correlation[{i}]"))]
            for i, row in enumerate(rows)
        ]

    n_obs = _require_int(_take(doc, "n_obs", ""), "n_obs")
    if n_obs < 0:
        raise ConfigError(f"n_obs: must be nonnegative, got {n_obs}")

    try:
        systematics = SystematicsModel(
            nuisances=tuple(nuisances),
            signal_responses=signal_responses,
            correlation=correlation,
        )
        return CountingModel(
            s_nom=s_nom,
            backgrounds=tuple(backgrounds),
            n_obs=n_obs,
            systematics=systematics,
        )
    except ModelError as err:
        raise ConfigError(str(err)) from err


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
    """The config node of a :class:`Response` or :class:`Prior`, by its ``_KINDS`` entry."""
    keys = _KINDS[type(obj)][obj.kind]
    return {"kind": obj.kind, **{key: getattr(obj, attr) for key, (attr, _) in keys.items()}}


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
