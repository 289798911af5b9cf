"""Upper limits for models without systematic uncertainties.

Two routes to the same limit: the CLs criterion solved on the ratio of
Poisson tail sums, and the Bayesian credible limit with a uniform prior
on the signal strength, solved in closed form on the regularized upper
incomplete gamma ratio. Both are the one-point case of the shared
criterion engine in :mod:`countlim.marginal`: every function here checks
that the model has identity responses (and, where the criterion needs
it, a nonzero signal yield) and then runs the engine on the nominal
yields, as floats on the scalar kernels.
"""

from __future__ import annotations

from .exceptions import ModelError
from .marginal import _bayes_terms, _check_mu, _cls_terms, _Criterion, _solve
from .model import CountingModel
from .solver import LimitRequest, LimitResult

__all__ = [
    "clsb_value",
    "clb_value",
    "cls_value",
    "cls_upper_limit",
    "bayesian_upper_limit_closed_form",
    "posterior_density",
]

_CLS_UNDEFINED = "signal yield is zero; the CLs limit is undefined"
_POSTERIOR_IMPROPER = "signal yield is zero; the posterior for mu is improper"


def _nominal(model: CountingModel, kernel, zero_signal: str | None = None) -> _Criterion:
    """The engine on the nominal yields of a model usable by the exact
    routines; ``zero_signal`` is the error for a vanishing signal yield."""
    if not model.all_responses_identity:
        raise ModelError(
            "exact limits require identity responses everywhere; "
            "use the marginalised routines for models with systematics"
        )
    if zero_signal is not None and model.s_nom == 0.0:
        raise ModelError(zero_signal)
    return _Criterion(kernel, model.n_obs, model.s_nom, model.b_nom_total, None)


def clsb_value(model: CountingModel, mu: float) -> float:
    """P(N <= n_obs) under signal-plus-background at strength mu."""
    mu = _check_mu(mu)
    return _nominal(model, _cls_terms).terms(mu)


def clb_value(model: CountingModel) -> float:
    """P(N <= n_obs) under the background-only hypothesis."""
    return _nominal(model, _cls_terms).den_terms


def cls_value(model: CountingModel, mu: float) -> float:
    """CLs(mu) = CLs+b(mu) / CLb; equals 1 at mu = 0, decreasing in mu."""
    mu = _check_mu(mu)
    return _nominal(model, _cls_terms, _CLS_UNDEFINED).criterion(mu)


def cls_upper_limit(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Signal strength mu_up with CLs(mu_up) = alpha."""
    return _solve(_nominal(model, _cls_terms, _CLS_UNDEFINED), req)


def bayesian_upper_limit_closed_form(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Uniform-prior credible limit via the incomplete-gamma ratio.

    Solves Q(n_obs + 1, mu*s + b) / Q(n_obs + 1, b) = alpha, the closed
    form of the posterior tail-mass condition.
    """
    return _solve(_nominal(model, _bayes_terms, _POSTERIOR_IMPROPER), req)


def posterior_density(model: CountingModel, mu: float) -> float:
    """Posterior density of mu under the uniform prior, normalised in
    closed form: p(mu) = pmf(n_obs; mu*s + b) * s / Q(n_obs + 1, b)."""
    mu = _check_mu(mu)
    crit = _nominal(model, _bayes_terms, _POSTERIOR_IMPROPER)
    return float(crit.ratio(crit.pmf_terms(mu)))
