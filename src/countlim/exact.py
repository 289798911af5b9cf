"""Upper limits for models without systematic uncertainties.

Two routes to the same limit: the CLs criterion solved on the ratio of
Poisson tail sums, and the Bayesian credible limit with a uniform prior
on the signal strength, solved in closed form on the regularized upper
incomplete gamma ratio. Both are the one-point case of the shared
criterion engine in :mod:`countlim.marginal`, run on the nominal yields,
as floats on the scalar kernels. ``marginal._criterion`` builds it and
refuses, in this order, a model whose responses are not all identity and
a zero nominal signal yield, each with :class:`~countlim.ModelError`.
The pointwise quantities of the one-point case (CLs, CLs+b, CLb and the
posterior density) come from :mod:`countlim.marginal` on
``draw_samples(model.systematics, None)``.
"""

from __future__ import annotations

from .marginal import _BAYES, _CLS, _criterion, _solve
from .model import CountingModel
from .solver import LimitRequest, LimitResult

__all__ = ["cls_upper_limit", "bayesian_upper_limit_closed_form"]


def cls_upper_limit(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Signal strength mu_up with CLs(mu_up) = alpha."""
    return _solve(_criterion(model, _CLS), req)


def bayesian_upper_limit_closed_form(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Uniform-prior credible limit via the incomplete-gamma ratio.

    Solves Q(n_obs + 1, mu*s + b) / Q(n_obs + 1, b) = alpha, the closed
    form of the posterior tail-mass condition.
    """
    return _solve(_criterion(model, _BAYES), req)
