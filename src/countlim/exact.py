"""Upper limits for models without systematic uncertainties.

Two routes to the same limit: the CLs criterion solved on the ratio of
Poisson tail sums, and the Bayesian credible limit with a uniform prior
on the signal strength, solved in closed form on the regularized upper
incomplete gamma ratio. Both are the one-point case of the shared
criterion engine in :mod:`countlim.marginal`: each function here checks
that the model has identity responses and a nonzero signal yield, then
runs the engine on the nominal yields, as floats on the scalar kernels.
The pointwise quantities of the one-point case (CLs, CLs+b, CLb and the
posterior density) come from :mod:`countlim.marginal` on
``draw_samples(model.systematics, None)``.
"""

from __future__ import annotations

from .exceptions import ModelError
from .marginal import _CLS_UNDEFINED, _POSTERIOR_IMPROPER, _bayes_terms, _cls_terms, _Criterion, _criterion, _solve
from .model import CountingModel
from .solver import LimitRequest, LimitResult

__all__ = ["cls_upper_limit", "bayesian_upper_limit_closed_form"]


def _nominal(model: CountingModel, kernel, zero_signal: str) -> _Criterion:
    """The engine on the nominal yields of a model usable by the exact
    routines; ``zero_signal`` is the error for a vanishing signal yield."""
    if not model.all_responses_identity:
        raise ModelError(
            "exact limits require identity responses everywhere; "
            "use the marginalised routines for models with systematics"
        )
    if model.s_nom == 0.0:
        raise ModelError(zero_signal)
    return _criterion(model, kernel)


def cls_upper_limit(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Signal strength mu_up with CLs(mu_up) = alpha."""
    return _solve(_nominal(model, _cls_terms, _CLS_UNDEFINED), req)


def bayesian_upper_limit_closed_form(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Uniform-prior credible limit via the incomplete-gamma ratio.

    Solves Q(n_obs + 1, mu*s + b) / Q(n_obs + 1, b) = alpha, the closed
    form of the posterior tail-mass condition.
    """
    return _solve(_nominal(model, _bayes_terms, _POSTERIOR_IMPROPER), req)
