"""Independent quadrature oracle for the closed-form Bayesian limit.

Integrates the Poisson likelihood in mu with scipy's adaptive quadrature,
so it shares no incomplete-gamma evaluation with the package. Test-only:
scipy is a test dependency, not a runtime one.
"""

import math

import numpy as np
from scipy.integrate import quad

from countlim import CountingModel, LimitRequest, LimitResult, ModelError, log_poisson_pmf
from countlim.solver import solve_decreasing


def bayesian_upper_limit_quadrature(model: CountingModel, req: LimitRequest) -> LimitResult:
    """Credible limit by direct adaptive quadrature of the likelihood.

    Normalisation and tail mass are both computed by quadrature of the
    Poisson pmf in mu, with no incomplete-gamma evaluation anywhere, so
    this is a genuinely independent route to the closed-form limit.
    """
    if not model.all_responses_identity:
        raise ModelError("the quadrature oracle requires identity responses everywhere")
    s, b = model.s_nom, model.b_nom_total
    if s == 0.0:
        raise ModelError("signal yield is zero; the posterior for mu is improper")
    n = model.n_obs

    def like(mu: float) -> float:
        return math.exp(log_poisson_pmf(n, mu * s + b))

    mode = max((n - b) / s, 0.0)
    split = mode if mode > 0.0 else 1.0
    norm = (
        quad(like, 0.0, split, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        + quad(like, split, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    )

    def criterion(mu: float):
        # the tail mass, its slope -like(mu) / norm, and its curvature
        # -s like(mu) (n/x - 1) / norm at x = mu s + b (the limit at x = 0)
        x = mu * s + b
        pmf = like(mu)
        dpmf = pmf * (n / x - 1.0) if x else float(n == 1) - float(n == 0)
        slope, curvature = -pmf / norm, -s * dpmf / norm
        if mu == 0.0:
            return 1.0, slope, curvature
        interior = [mode] if 0.0 < mode < mu else None
        mass = quad(like, 0.0, mu, epsabs=0.0, epsrel=1e-11, limit=200, points=interior)[0]
        return 1.0 - mass / norm, slope, curvature

    mu_up, crit, evals, bracket = solve_decreasing(criterion, req.alpha, req.rel_tol, req.max_iter)
    return LimitResult(mu_up, crit, evals, bracket)
