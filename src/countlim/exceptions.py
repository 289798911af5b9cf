"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration and model problems are
exit 1, numerical failures during a solve are exit 2.
"""


class CountLimError(Exception):
    """Base class for all countlim errors; ``field`` names the constructor field or argument refused, if any."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ConfigError(CountLimError, ValueError):
    """Invalid configuration file, option combination or run setting (``LimitRequest``, ``Integrator``,
    ``compare_limits``' ``tol``); also a :class:`ValueError`."""


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
