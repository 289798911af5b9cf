"""Upper limits for single-channel Poisson counting experiments.

Exact CLs and Bayesian (uniform-prior) limits, their nuisance-marginalised
hybrid variants on shared sample sets, and a harness that checks where the
two methods agree.
"""

from .equivalence import EquivalenceReport, compare_limits
from .exact import (
    bayesian_upper_limit_closed_form,
    clb_value,
    cls_upper_limit,
    cls_value,
    clsb_value,
    posterior_density,
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
    NuisanceSample,
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
    background_yield,
    log_full_likelihood,
    signal_yield,
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
    "NuisanceSample",
    "Prior",
    "Response",
    "SampleSet",
    "SystematicsModel",
    "YieldError",
    "background_yield",
    "bayesian_marginal_upper_limit",
    "bayesian_upper_limit_closed_form",
    "clb_value",
    "cls_upper_limit",
    "cls_value",
    "clsb_value",
    "compare_limits",
    "draw_samples",
    "gamma_q",
    "hybrid_cls",
    "hybrid_cls_upper_limit",
    "log_full_likelihood",
    "log_poisson_pmf",
    "marginal_likelihood",
    "marginal_posterior_density",
    "marginal_posterior_tail",
    "poisson_cdf",
    "posterior_density",
    "signal_yield",
    "yields_on_samples",
]
