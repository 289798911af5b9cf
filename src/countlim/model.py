"""Statistical model for a single-channel Poisson counting experiment.

A :class:`CountingModel` bundles the nominal signal yield, a list of
background processes, the observed count and a :class:`SystematicsModel`.
Yields respond multiplicatively to nuisance parameters through
:class:`Response` functions; each nuisance carries a constraint
:class:`Prior`. Nuisance ordering is the declaration order and is part of
the model's identity, since eta vectors are positional.

All model values are immutable after construction and every operation
here is pure, so models can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .exceptions import ModelError, YieldError

__all__ = [
    "Response",
    "Prior",
    "Nuisance",
    "BackgroundProcess",
    "SystematicsModel",
    "CountingModel",
    "yields_on_samples",
]


@dataclass(frozen=True)
class Response:
    """Multiplicative yield response to one nuisance parameter.

    Kinds: ``identity`` (factor 1), ``log_normal`` (factor kappa**eta,
    strictly positive) and ``linear`` (factor 1 + delta*eta, may reach or
    cross zero).
    """

    kind: str
    kappa: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "log_normal", "linear"):
            raise ModelError(f"unknown response kind {self.kind!r}")
        if not (math.isfinite(self.kappa) and math.isfinite(self.delta)):
            raise ModelError(f"response parameters must be finite, got kappa={self.kappa}, delta={self.delta}")
        if self.kind == "log_normal" and not self.kappa > 0.0:
            raise ModelError(f"log_normal response requires kappa > 0, got {self.kappa}")

    @classmethod
    def identity(cls) -> "Response":
        return cls("identity")

    @classmethod
    def log_normal(cls, kappa: float) -> "Response":
        return cls("log_normal", kappa=float(kappa))

    @classmethod
    def linear(cls, delta: float) -> "Response":
        return cls("linear", delta=float(delta))

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def factor(self, eta: np.ndarray) -> np.ndarray:
        """Scale factors at an array of nuisance values."""
        if self.kind == "identity":
            return np.ones_like(eta, dtype=float)
        if self.kind == "log_normal":
            return np.exp(math.log(self.kappa) * eta)
        return 1.0 + self.delta * eta


@dataclass(frozen=True)
class Prior:
    """Constraint density on one nuisance parameter.

    ``loc``/``scale`` are the mean/sd for the normal kinds and the
    log-space location/scale for ``log_normal``.
    """

    kind: str
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard_normal", "normal", "log_normal"):
            raise ModelError(f"unknown prior kind {self.kind!r}")
        if self.kind == "standard_normal" and (self.loc != 0.0 or self.scale != 1.0):
            raise ModelError("standard_normal prior takes no parameters")
        if not (math.isfinite(self.loc) and 0.0 < self.scale < math.inf):
            raise ModelError(f"prior needs a finite loc and a positive finite scale, got {self.loc}, {self.scale}")

    @classmethod
    def standard_normal(cls) -> "Prior":
        return cls("standard_normal")

    @classmethod
    def normal(cls, mean: float, sd: float) -> "Prior":
        return cls("normal", loc=float(mean), scale=float(sd))

    @classmethod
    def log_normal(cls, mu: float, sigma: float) -> "Prior":
        return cls("log_normal", loc=float(mu), scale=float(sigma))

    @property
    def is_normal_family(self) -> bool:
        return self.kind in ("standard_normal", "normal")

    def from_standard_normal(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal variates (or nodes) to the prior's scale."""
        if self.kind == "log_normal":
            return np.exp(self.loc + self.scale * z)
        return self.loc + self.scale * z


@dataclass(frozen=True)
class Nuisance:
    name: str
    prior: Prior


@dataclass(frozen=True)
class BackgroundProcess:
    """One background component: nominal yield plus its responses."""

    name: str
    b_nom: float
    responses: Mapping[str, Response] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.b_nom < math.inf:
            raise ModelError(f"background {self.name!r} needs a finite nonnegative nominal yield, got {self.b_nom}")


@dataclass(frozen=True, eq=False)
class SystematicsModel:
    """Nuisance parameters, their priors, signal responses and an optional
    correlation matrix over the Gaussian-prior subset (declaration order).
    """

    nuisances: tuple = ()
    signal_responses: Mapping[str, Response] = field(default_factory=dict)
    correlation: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, SystematicsModel):
            return NotImplemented
        if self.nuisances != other.nuisances:
            return False
        if dict(self.signal_responses) != dict(other.signal_responses):
            return False
        if (self.correlation is None) != (other.correlation is None):
            return False
        return self.correlation is None or (
            self.correlation.shape == other.correlation.shape
            and bool(np.array_equal(self.correlation, other.correlation))
        )

    def __post_init__(self):
        object.__setattr__(self, "nuisances", tuple(self.nuisances))
        names = [nu.name for nu in self.nuisances]
        if len(set(names)) != len(names):
            raise ModelError(f"nuisance names are not unique: {names}")
        for key in self.signal_responses:
            if key not in names:
                raise ModelError(f"signal response references unknown nuisance {key!r}")
        chol = None
        if self.correlation is not None:
            corr = np.asarray(self.correlation, dtype=float)
            object.__setattr__(self, "correlation", corr)
            k = len(self.gaussian_indices)
            if corr.shape != (k, k):
                raise ModelError(
                    f"correlation matrix shape {corr.shape} does not match the "
                    f"{k} Gaussian-prior nuisance(s)"
                )
            if not np.allclose(corr, corr.T, atol=1e-12):
                raise ModelError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
                raise ModelError("correlation matrix must have a unit diagonal")
            try:
                chol = np.linalg.cholesky(corr)
            except np.linalg.LinAlgError:
                raise ModelError("correlation matrix must be positive definite") from None
        object.__setattr__(self, "_chol", chol)

    @property
    def names(self) -> tuple:
        return tuple(nu.name for nu in self.nuisances)

    @property
    def gaussian_indices(self) -> tuple:
        return tuple(j for j, nu in enumerate(self.nuisances) if nu.prior.is_normal_family)

    @property
    def all_normal_family(self) -> bool:
        return all(nu.prior.is_normal_family for nu in self.nuisances)

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """Apply the Cholesky factor to the Gaussian columns of ``z`` (K x J)."""
        if self._chol is None:
            return z
        idx = list(self.gaussian_indices)
        out = z.copy()
        out[:, idx] = z[:, idx] @ self._chol.T
        return out


@dataclass(frozen=True)
class CountingModel:
    """Nominal yields, observed count and systematics of one channel."""

    s_nom: float
    backgrounds: tuple = ()
    n_obs: int = 0
    systematics: SystematicsModel = field(default_factory=SystematicsModel)

    def __post_init__(self):
        object.__setattr__(self, "backgrounds", tuple(self.backgrounds))
        if not 0.0 <= self.s_nom < math.inf:
            raise ModelError(f"nominal signal yield must be finite and nonnegative, got {self.s_nom}")
        if not (isinstance(self.n_obs, (int, np.integer)) and self.n_obs >= 0):
            raise ModelError(f"observed count must be a nonnegative integer, got {self.n_obs!r}")
        names = [bkg.name for bkg in self.backgrounds]
        if len(set(names)) != len(names):
            raise ModelError(f"background names are not unique: {names}")
        known = set(self.systematics.names)
        for bkg in self.backgrounds:
            for key in bkg.responses:
                if key not in known:
                    raise ModelError(
                        f"background {bkg.name!r} response references unknown nuisance {key!r}"
                    )
        if self.s_nom == 0.0 and self.b_nom_total == 0.0:
            raise ModelError("model must have a positive signal or background yield")

    @property
    def b_nom_total(self) -> float:
        return float(sum(bkg.b_nom for bkg in self.backgrounds))

    @property
    def has_systematics(self) -> bool:
        return len(self.systematics.nuisances) > 0

    @property
    def signal_is_certain(self) -> bool:
        """True when every signal response is the identity."""
        return all(resp.is_identity for resp in self.systematics.signal_responses.values())

    @property
    def all_responses_identity(self) -> bool:
        if not self.signal_is_certain:
            return False
        return all(
            resp.is_identity for bkg in self.backgrounds for resp in bkg.responses.values()
        )


def _response_product_columns(responses: Mapping[str, Response], names, etas: np.ndarray, label: str) -> np.ndarray:
    factor = np.ones(etas.shape[0])
    for j, name in enumerate(names):
        resp = responses.get(name)
        if resp is None or resp.is_identity:
            continue
        f = resp.factor(etas[:, j])
        bad = f < 0.0
        if bad.any():
            k = int(np.argmax(bad))
            raise YieldError(
                f"response {resp.kind!r} on nuisance {name!r} gives a negative factor "
                f"for {label} at sample {k} (eta_{j}={etas[k, j]})",
                eta=etas[k].copy(),
                sample_index=k,
            )
        factor *= f
    return factor


def yields_on_samples(model: CountingModel, etas: np.ndarray):
    """Vectorised (signal, background) yields over a (K, J) eta matrix."""
    etas = np.asarray(etas, dtype=float)
    n_nuis = len(model.systematics.nuisances)
    if etas.ndim != 2 or etas.shape[1] != n_nuis:
        raise ValueError(f"etas has shape {etas.shape}, expected (K, {n_nuis})")
    names = model.systematics.names
    s = model.s_nom * _response_product_columns(
        model.systematics.signal_responses, names, etas, "signal"
    )
    b = np.zeros(etas.shape[0])
    for bkg in model.backgrounds:
        b += bkg.b_nom * _response_product_columns(bkg.responses, names, etas, f"background {bkg.name!r}")
    for label, y in (("signal", s), ("background", b)):
        # an overflowed factor makes the yield inf, or NaN times a zero
        bad = ~np.isfinite(y)
        if bad.any():
            k = int(np.argmax(bad))
            what = "is 0 x inf" if math.isnan(y[k]) else "overflowed to inf"
            raise YieldError(f"{label} yield {what} at sample {k}", eta=etas[k].copy(), sample_index=k)
    return s, b
