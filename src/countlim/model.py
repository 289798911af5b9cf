"""Statistical model for a single-channel Poisson counting experiment.

A :class:`CountingModel` bundles the nominal signal yield, a list of
background processes, the observed count and a :class:`SystematicsModel`.
Yields respond multiplicatively to nuisance parameters through
:class:`Response` functions; each nuisance carries a constraint
:class:`Prior`. Nuisance ordering is the declaration order and is part of
the model's identity, since eta vectors are positional.

Each constructor refuses a field of the wrong type or range with a
:class:`ModelError` naming the class and the field. A built model never
changes (its mappings and correlation are read-only, and a copy is rebuilt
through the constructor), so it derives each value once; every operation
here is pure.
The model's classes and the run's records (``LimitRequest``,
``LimitResult``, ``Integrator``, ``EquivalenceReport``) are plain classes
on one small base, ``_Record``, rather than generated ones: the standard
library's class generator, and the ``inspect`` it imports, took ~10 ms of
every ``import countlim``.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .exceptions import ModelError, YieldError, _float, _require, _shown
from .special import _COUNT_MAX, _COUNT_RULE

__all__ = [
    "Response",
    "Prior",
    "Nuisance",
    "BackgroundProcess",
    "SystematicsModel",
    "CountingModel",
    "yields_on_samples",
]


class _Record:
    """An immutable record. Its fields are its ``__init__``'s parameters, in
    order; ``__init__`` sets them (by ``_fill``) and then checks them. Each
    default is also the class's attribute of that name (``Integrator.seed``).
    Equality, hashing, ``repr`` and copying read that one list (``_values``),
    a read-only mapping read as the dict it holds: a record equals only a
    record of its own class with equal fields, hashes as the tuple of its
    fields, and refuses the assignment or deletion of any attribute with an
    ``AttributeError``. Pickling and copying rebuild a record through
    ``__init__`` from its fields, so a copy passes every check and derives
    its own values.
    """

    _fields = ()

    def __init_subclass__(cls):
        code, defaults = cls.__init__.__code__, cls.__init__.__defaults__ or ()
        cls._fields = code.co_varnames[1:code.co_argcount]
        for name, default in zip(cls._fields[len(cls._fields) - len(defaults):], defaults):
            setattr(cls, name, default)

    def _fill(self, *values) -> None:
        """Set the fields, in order, to ``values``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        values = [getattr(self, name) for name in self._fields]
        return tuple([dict(value) if type(value) is MappingProxyType else value for value in values])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _real(owner, name: str) -> float:
    """Field ``name`` of ``owner``, refused unless a real number, stored as a Python float."""
    value = _float(getattr(owner, name))
    _require(owner, name, value is not None, "be a real number")
    object.__setattr__(owner, name, value)
    return value


def _integer(owner, name: str, rule: str = "be an integer", least: float = -math.inf, below: float = math.inf) -> int:
    """Field ``name`` of ``owner``, refused by ``rule`` unless an integer (no bool) in [least, below), as an int."""
    value = getattr(owner, name)
    valid = not isinstance(value, bool) and isinstance(value, numbers.Integral) and least <= value < below
    _require(owner, name, valid, rule)
    value = operator.index(value)
    object.__setattr__(owner, name, value)
    return value


def _named(owner, name: str, cls) -> tuple:
    """Field ``name`` of ``owner``, refused unless an iterable of ``cls`` of unique names, stored as a tuple."""
    value = getattr(owner, name)
    items = tuple(value) if isinstance(value, Iterable) else None
    valid = items is not None and all(isinstance(item, cls) for item in items)
    _require(owner, name, valid, f"be a sequence of {cls.__name__}")
    names = [item.name for item in items]
    _require(owner, name, len(set(names)) == len(names), "have unique names", names)
    object.__setattr__(owner, name, items)
    return items


def _responses(owner, name: str) -> None:
    """Field ``name`` of ``owner``, refused unless a mapping of nuisance names to Responses, stored read-only."""
    value = getattr(owner, name)
    valid = isinstance(value, Mapping) and all(
        isinstance(key, str) and isinstance(resp, Response) for key, resp in value.items())
    _require(owner, name, valid, "map nuisance names to Responses")
    object.__setattr__(owner, name, MappingProxyType(dict(value)))


def _kind(owner, typed) -> None:
    """Check ``owner``'s kind by ``KINDS``: each parameter, stored by ``typed``, is at its default unless taken."""
    cls = type(owner)
    kinds = cls.KINDS
    _require(owner, "kind", isinstance(owner.kind, str) and owner.kind in kinds, f"be one of {', '.join(kinds)}")
    for name in cls._fields[1:]:
        default = getattr(cls, name)
        allowed = typed(owner, name) == default or name in kinds[owner.kind].values()
        _require(owner, name, allowed, f"be {default} for kind {owner.kind}")


def _kind_dict(obj) -> dict:
    """``obj``'s kind and the parameters it takes, keyed by its class's ``KINDS``."""
    return {"kind": obj.kind, **{key: getattr(obj, attr) for key, attr in type(obj).KINDS[obj.kind].items()}}


def _correlation(owner, name: str, k: int):
    """The Cholesky factor of field ``name`` of ``owner``, refused unless a
    k x k matrix of finite reals for k >= 1, symmetric with a unit diagonal
    and positive definite. The field and the factor are stored as float arrays
    over immutable bytes, on which numpy refuses to set the write flag again."""
    import numpy as np
    _require(owner, name, k > 0, "be None without a Gaussian-prior nuisance to couple")
    try:
        rows = [list(row) for row in getattr(owner, name)]
    except TypeError:  # not an iterable of iterables
        rows = []
    _require(owner, name, len(rows) == k and all(len(row) == k for row in rows),
             f"be a {k} x {k} matrix, a row and a column per Gaussian-prior nuisance")
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            row[j] = _float(entry)
            if row[j] is None or not math.isfinite(row[j]):
                where = f"{type(owner).__name__}.{name}[{i}][{j}]"
                raise ModelError(f"{where} must be a finite real number, got {_shown(entry)}", field=name)
    corr = np.frombuffer(np.array(rows).tobytes()).reshape(k, k)  # a write would bypass these checks
    object.__setattr__(owner, name, corr)
    _require(owner, name, np.allclose(corr, corr.T, atol=1e-12), "be symmetric", rows)
    _require(owner, name, np.allclose(np.diag(corr), 1.0, atol=1e-12), "have a unit diagonal", rows)
    try:
        return np.frombuffer(np.linalg.cholesky(corr).tobytes()).reshape(k, k)
    except np.linalg.LinAlgError:
        pass
    _require(owner, name, False, "be positive definite", rows)


class Response(_Record):
    """Multiplicative yield response to one nuisance parameter.

    Kinds: ``identity`` (factor 1), ``log_normal`` (factor kappa**eta,
    strictly positive) and ``linear`` (factor 1 + delta*eta, may reach or
    cross zero).
    """

    # each kind's parameters, config key -> field: the one table of them,
    # read by the kind check, config parsing and emitting
    KINDS = {"identity": {}, "log_normal": {"kappa": "kappa"}, "linear": {"delta": "delta"}}

    def __init__(self, kind: str, kappa: float = 1.0, delta: float = 0.0):
        self._fill(kind, kappa, delta)
        _kind(self, _real)
        _require(self, "kappa", 0.0 < self.kappa < math.inf, "be positive and finite")
        _require(self, "delta", math.isfinite(self.delta), "be finite")

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
        """Scale factors at an array of nuisance values. An identity response
        is linear with delta = 0: 1.0 on every finite eta, NaN on a non-finite one."""
        if self.kind == "log_normal":
            import numpy as np
            return np.exp(math.log(self.kappa) * eta)
        return 1.0 + self.delta * eta


class Prior(_Record):
    """Constraint density on one nuisance parameter.

    ``loc``/``scale`` are the mean/sd for the normal kinds and the
    log-space location/scale for ``log_normal``.
    """

    # as Response.KINDS
    KINDS = {"standard_normal": {}, "normal": {"mean": "loc", "sd": "scale"},
             "log_normal": {"mu": "loc", "sigma": "scale"}}

    def __init__(self, kind: str, loc: float = 0.0, scale: float = 1.0):
        self._fill(kind, loc, scale)
        _kind(self, _real)
        _require(self, "loc", math.isfinite(self.loc), "be finite")
        _require(self, "scale", 0.0 < self.scale < math.inf, "be positive and finite")

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
        return self.kind != "log_normal"

    def from_standard_normal(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal variates (or nodes) to the prior's scale."""
        if self.kind == "log_normal":
            import numpy as np
            return np.exp(self.loc + self.scale * z)
        return self.loc + self.scale * z


class Nuisance(_Record):
    def __init__(self, name: str, prior: Prior):
        self._fill(name, prior)
        _require(self, "name", isinstance(self.name, str), "be a str")
        _require(self, "prior", isinstance(self.prior, Prior), "be a Prior")


# the default responses of a background and of the signal: read, never stored
_NO_RESPONSES = MappingProxyType({})


class BackgroundProcess(_Record):
    """One background component: nominal yield plus its responses."""

    def __init__(self, name: str, b_nom: float, responses: Mapping[str, Response] = _NO_RESPONSES):
        self._fill(name, b_nom, responses)
        _require(self, "name", isinstance(self.name, str), "be a str")
        _require(self, "b_nom", 0.0 <= _real(self, "b_nom") < math.inf, "be finite and nonnegative")
        object.__setattr__(self, "b_nom", self.b_nom + 0.0)  # -0.0 made 0.0
        _responses(self, "responses")


class SystematicsModel(_Record):
    """Nuisance parameters, their priors, signal responses and an optional
    correlation matrix over the Gaussian-prior subset (declaration order).
    It is not hashable. Derived on construction: ``names``; ``gaussian_indices``,
    the positions of the normal-family priors; and ``all_normal_family``.
    """

    def __init__(self, nuisances: tuple = (), signal_responses: Mapping[str, Response] = _NO_RESPONSES,
                 correlation: np.ndarray | None = None):
        self._fill(nuisances, signal_responses, correlation)
        nuisances = _named(self, "nuisances", Nuisance)
        _responses(self, "signal_responses")
        object.__setattr__(self, "names", tuple([nu.name for nu in nuisances]))
        gaussian = tuple([j for j, nu in enumerate(nuisances) if nu.prior.is_normal_family])
        object.__setattr__(self, "gaussian_indices", gaussian)
        object.__setattr__(self, "all_normal_family", len(gaussian) == len(nuisances))
        for key in self.signal_responses:
            _require(self, "signal_responses", key in self.names, "name declared nuisances only", key)
        chol = None if self.correlation is None else _correlation(self, "correlation", len(self.gaussian_indices))
        object.__setattr__(self, "_chol", chol)

    def __eq__(self, other):
        if not isinstance(other, SystematicsModel):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        """What equality compares: the fields, with the correlation's finite entries as nested lists."""
        nuisances, signal_responses, corr = self._values()
        return nuisances, signal_responses, None if corr is None else corr.tolist()

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """Apply the Cholesky factor to the Gaussian columns of ``z`` (K x J)."""
        if self._chol is None:
            return z
        idx = list(self.gaussian_indices)
        out = z.copy()
        out[:, idx] = z[:, idx] @ self._chol.T
        return out


class CountingModel(_Record):
    """Nominal yields, observed count and systematics of one channel.

    Derived on construction: ``b_nom_total``, the sum of the nominal
    backgrounds; ``has_systematics``, whether there is any nuisance;
    ``signal_is_certain``, whether every signal response is the identity;
    and ``all_responses_identity``, whether every response is. Models built
    without systematics share one default ``SystematicsModel()``.
    """

    def __init__(self, s_nom: float, backgrounds: tuple = (), n_obs: int = 0,
                 systematics: SystematicsModel = SystematicsModel()):
        self._fill(s_nom, backgrounds, n_obs, systematics)
        _require(self, "s_nom", 0.0 <= _real(self, "s_nom") < math.inf, "be finite and nonnegative")
        backgrounds = _named(self, "backgrounds", BackgroundProcess)
        _integer(self, "n_obs", f"be a nonnegative integer {_COUNT_RULE}", 0, _COUNT_MAX + 1)
        _require(self, "systematics", isinstance(self.systematics, SystematicsModel), "be a SystematicsModel")
        for bkg in backgrounds:
            for key in bkg.responses:
                _require(self, "backgrounds", key in self.systematics.names, "respond to declared nuisances only", key)
        # derived once, the model being immutable, rather than on every limit
        total = float(sum(bkg.b_nom for bkg in backgrounds))
        _require(self, "backgrounds", total < math.inf, "sum to a finite nominal yield", total)
        object.__setattr__(self, "b_nom_total", total)
        if self.s_nom == 0.0 and self.b_nom_total == 0.0:
            raise ModelError("CountingModel must have a positive signal or background yield")
        object.__setattr__(self, "has_systematics", len(self.systematics.nuisances) > 0)
        signal = self.systematics.signal_responses.values()
        object.__setattr__(self, "signal_is_certain", all(resp.is_identity for resp in signal))
        backgrounds_certain = all(resp.is_identity for bkg in backgrounds for resp in bkg.responses.values())
        object.__setattr__(self, "all_responses_identity", self.signal_is_certain and backgrounds_certain)


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
    n_nuis = len(model.systematics.nuisances)
    try:
        etas = np.asarray(etas, dtype=float)
        shape = etas.shape
    except (TypeError, ValueError):  # ragged, or holding what is no number: no shape, so shown as given
        shape = None
    if shape is None or len(shape) != 2 or shape[1] != n_nuis:
        _require(yields_on_samples, "etas", False, f"have shape (K, {n_nuis})", etas if shape is None else shape)
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
