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
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping

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


def _real(owner, name: str) -> float:
    """Field ``name`` of ``owner``, refused unless a real number (a bool is
    none), stored as a Python float; an int beyond the float range is +-inf."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{type(owner).__name__}.{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    object.__setattr__(owner, name, value)
    return value


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
        kappa, delta = _real(self, "kappa"), _real(self, "delta")
        if not (math.isfinite(kappa) and math.isfinite(delta)):
            raise ModelError(f"response parameters must be finite, got kappa={kappa}, delta={delta}")
        if self.kind == "log_normal" and not kappa > 0.0:
            raise ModelError(f"log_normal response requires kappa > 0, got {kappa}")

    @classmethod
    def identity(cls) -> "Response":
        return cls("identity")

    @classmethod
    def log_normal(cls, kappa: float) -> "Response":
        return cls("log_normal", kappa=kappa)

    @classmethod
    def linear(cls, delta: float) -> "Response":
        return cls("linear", delta=delta)

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def factor(self, eta: np.ndarray) -> np.ndarray:
        """Scale factors at an array of nuisance values."""
        import numpy as np
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
        loc, scale = _real(self, "loc"), _real(self, "scale")
        if self.kind == "standard_normal" and (loc != 0.0 or scale != 1.0):
            raise ModelError("standard_normal prior takes no parameters")
        if not (math.isfinite(loc) and 0.0 < scale < math.inf):
            raise ModelError(f"prior needs a finite loc and a positive finite scale, got {loc}, {scale}")

    @classmethod
    def standard_normal(cls) -> "Prior":
        return cls("standard_normal")

    @classmethod
    def normal(cls, mean: float, sd: float) -> "Prior":
        return cls("normal", loc=mean, scale=sd)

    @classmethod
    def log_normal(cls, mu: float, sigma: float) -> "Prior":
        return cls("log_normal", loc=mu, scale=sigma)

    @property
    def is_normal_family(self) -> bool:
        return self.kind in ("standard_normal", "normal")

    def from_standard_normal(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal variates (or nodes) to the prior's scale."""
        if self.kind == "log_normal":
            import numpy as np
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
        b_nom = _real(self, "b_nom")
        if not 0.0 <= b_nom < math.inf:
            raise ModelError(f"background {self.name!r} needs a finite nonnegative nominal yield, got {b_nom}")
        object.__setattr__(self, "b_nom", b_nom + 0.0)  # -0.0 made 0.0


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
            and bool((self.correlation == other.correlation).all())
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
            import numpy as np
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
    """Nominal yields, observed count and systematics of one channel.

    Derived on construction: ``b_nom_total``, the sum of the nominal
    backgrounds; ``has_systematics``, whether there is any nuisance;
    ``signal_is_certain``, whether every signal response is the identity;
    and ``all_responses_identity``, whether every response is.
    """

    s_nom: float
    backgrounds: tuple = ()
    n_obs: int = 0
    systematics: SystematicsModel = field(default_factory=SystematicsModel)

    def __post_init__(self):
        object.__setattr__(self, "backgrounds", tuple(self.backgrounds))
        if not 0.0 <= _real(self, "s_nom") < math.inf:
            raise ModelError(f"nominal signal yield must be finite and nonnegative, got {self.s_nom}")
        # numpy's integers are registered as Integral; a bool is not a count
        if isinstance(self.n_obs, bool) or not (isinstance(self.n_obs, numbers.Integral) and self.n_obs >= 0):
            raise ModelError(f"observed count must be a nonnegative integer, got {self.n_obs!r}")
        object.__setattr__(self, "n_obs", operator.index(self.n_obs))  # a Python int, as for the floats
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
        # derived once, the model being immutable, rather than on every limit
        object.__setattr__(self, "b_nom_total", float(sum(bkg.b_nom for bkg in self.backgrounds)))
        if self.s_nom == 0.0 and self.b_nom_total == 0.0:
            raise ModelError("model must have a positive signal or background yield")
        object.__setattr__(self, "has_systematics", len(self.systematics.nuisances) > 0)
        signal = self.systematics.signal_responses.values()
        object.__setattr__(self, "signal_is_certain", all(resp.is_identity for resp in signal))
        object.__setattr__(
            self,
            "all_responses_identity",
            self.signal_is_certain
            and all(resp.is_identity for bkg in self.backgrounds for resp in bkg.responses.values()),
        )


def _yield_columns(nominal: float, responses: Mapping[str, Response], names, etas: np.ndarray, label: str) -> np.ndarray:
    """A yield over the samples: ``nominal`` times the product of its
    response factors, multiplied in last. The product starts from the first
    factor, a fresh array, not from ones: 1.0 * f is f to the bit."""
    import numpy as np
    factor = None
    for j, name in enumerate(names):
        resp = responses.get(name)
        if resp is None or resp.is_identity:
            continue
        f = resp.factor(etas[:, j])
        # only a linear factor can be negative: a log-normal one is exp(.) >= 0,
        # and its overflow is refused by the caller's isfinite check
        if resp.kind == "linear" and (bad := f < 0.0).any():
            k = int(np.argmax(bad))
            raise YieldError(
                f"response {resp.kind!r} on nuisance {name!r} gives a negative factor "
                f"for {label} at sample {k} (eta_{j}={etas[k, j]})",
                eta=etas[k].copy(),
                sample_index=k,
            )
        if factor is None:
            factor = f
        else:
            factor *= f
    if factor is None:
        return np.full(etas.shape[0], nominal, dtype=float)
    return np.multiply(factor, nominal, out=factor)


def yields_on_samples(model: CountingModel, etas: np.ndarray):
    """Vectorised (signal, background) yields over a (K, J) eta matrix."""
    import numpy as np
    etas = np.asarray(etas, dtype=float)
    n_nuis = len(model.systematics.nuisances)
    if etas.ndim != 2 or etas.shape[1] != n_nuis:
        raise ValueError(f"etas has shape {etas.shape}, expected (K, {n_nuis})")
    names = model.systematics.names
    # an overflow is refused below, by sample, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        s = _yield_columns(model.s_nom, model.systematics.signal_responses, names, etas, "signal")
        # the sum starts from its first term, not from zeros: 0.0 + y is y to the bit
        # for these nonnegative yields, a nominal of -0.0 being 0.0 (BackgroundProcess)
        b = None
        for bkg in model.backgrounds:
            y = _yield_columns(bkg.b_nom, bkg.responses, names, etas, f"background {bkg.name!r}")
            b = y if b is None else np.add(b, y, out=b)
        if b is None:
            b = np.zeros(etas.shape[0])
    for label, y in (("signal", s), ("background", b)):
        # an overflowed factor makes the yield inf, or NaN times a zero
        bad = ~np.isfinite(y)
        if bad.any():
            k = int(np.argmax(bad))
            what = "is 0 x inf" if math.isnan(y[k]) else "overflowed to inf"
            raise YieldError(f"{label} yield {what} at sample {k}", eta=etas[k].copy(), sample_index=k)
    return s, b
