"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration and model problems are
exit 1, numerical failures during a solve are exit 2.
"""

import math
import numbers
import sys


class CountLimError(Exception):
    """Base class for all countlim errors; ``field`` names the constructor field or argument refused, if any."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ConfigError(CountLimError, ValueError):
    """Invalid configuration file, option combination, run setting (``LimitRequest``, ``Integrator``,
    ``compare_limits``' ``tol``) or argument of a public function (``poisson_cdf.nu``, ...); also a ValueError."""


class ModelError(CountLimError):
    """Statistical model violates an invariant or is used out of contract.

    Raised by the model's constructors for any field of the wrong type or
    range, naming the class and the field; also for degenerate models (zero
    signal yield, so the strength parameter is unidentified) and for exact
    limits of models that carry non-identity response functions.
    """


class YieldError(CountLimError):
    """A response function drove a yield negative or past the float64 range,
    or a prior drove a drawn nuisance past it.

    Attributes:
        eta: nuisance vector that produced the yield.
        sample_index: index into the sample set, when evaluated over one.
    """

    def __init__(self, message, eta=None, sample_index=None):
        super().__init__(message)
        self.eta = eta
        self.sample_index = sample_index


class ConvergenceError(CountLimError):
    """An iterative computation failed to converge.

    Attributes:
        bracket: last (lo, hi) bracket for root solves, None otherwise.
        iterations: iterations performed before giving up.
        history: the (mu, criterion) pairs a failed root solve evaluated,
            in order, None otherwise.
    """

    def __init__(self, message, bracket=None, iterations=None, history=None):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations
        self.history = history


def _shown(value) -> str:
    """``repr(value)``, or its size where that is an int too long for Python to print."""
    try:
        return repr(value)
    except ValueError:
        held = "" if isinstance(value, int) else f"a {type(value).__name__} holding "
        return f"{held}an int of more than {sys.get_int_max_str_digits()} digits"


def _require(owner, name: str, holds: bool, rule: str, got=None) -> None:
    """Refuse field ``name`` of ``owner`` unless ``holds``: a :class:`ModelError` for the model's classes,
    else a :class:`ConfigError`, naming the class or function, the field or argument, ``rule`` and ``got``."""
    if not holds:
        got = getattr(owner, name, None) if got is None else got
        label = getattr(owner, "__name__", type(owner).__name__)  # a function's, or an instance's class's
        error = ModelError if type(owner).__module__ == f"{__package__}.model" else ConfigError
        raise error(f"{label}.{name} must {rule}, got {_shown(got)}", field=name)


def _float(value) -> float | None:
    """``value`` as a Python float (+-inf beyond the float range), None unless a real number and no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
