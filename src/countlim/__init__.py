"""Upper limits for single-channel Poisson counting experiments.

Exact CLs and Bayesian (uniform-prior) limits, their nuisance-marginalised
hybrid variants on shared sample sets, and a harness that checks where the
two methods agree.
"""

from .equivalence import EquivalenceReport, compare_limits
from .exact import (
    bayesian_upper_limit_closed_form,
    cls_upper_limit,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    CountLimError,
    ModelError,
    YieldError,
)
from .marginal import (
    Integrator,
    SampleSet,
    bayesian_marginal_upper_limit,
    draw_samples,
    hybrid_cls,
    hybrid_cls_upper_limit,
    marginal_likelihood,
    marginal_posterior_density,
    marginal_posterior_tail,
)
from .model import (
    BackgroundProcess,
    CountingModel,
    Nuisance,
    Prior,
    Response,
    SystematicsModel,
    yields_on_samples,
)
from .solver import LimitRequest, LimitResult
from .special import gamma_q, log_poisson_pmf, poisson_cdf

__version__ = "0.1.0"

__all__ = [
    "BackgroundProcess",
    "ConfigError",
    "ConvergenceError",
    "CountingModel",
    "CountLimError",
    "EquivalenceReport",
    "Integrator",
    "LimitRequest",
    "LimitResult",
    "ModelError",
    "Nuisance",
    "Prior",
    "Response",
    "SampleSet",
    "SystematicsModel",
    "YieldError",
    "bayesian_marginal_upper_limit",
    "bayesian_upper_limit_closed_form",
    "cls_upper_limit",
    "compare_limits",
    "draw_samples",
    "gamma_q",
    "hybrid_cls",
    "hybrid_cls_upper_limit",
    "log_poisson_pmf",
    "marginal_likelihood",
    "marginal_posterior_density",
    "marginal_posterior_tail",
    "poisson_cdf",
    "yields_on_samples",
]
