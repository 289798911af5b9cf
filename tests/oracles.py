"""Test-only references: an independent quadrature oracle for the
closed-form Bayesian limit, and the mpmath generator of the frozen erfcx
table in :mod:`countlim.special`.

The oracle integrates the Poisson likelihood in mu with scipy's adaptive
quadrature, so it shares no incomplete-gamma evaluation with the package.
scipy and mpmath are test dependencies, not runtime ones.
"""

import math

import mpmath
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


def erfcx_mp(z) -> mpmath.mpf:
    """exp(z^2) erfc(z) at the working precision of mpmath."""
    z = mpmath.mpf(z)
    return mpmath.erfc(z) * mpmath.exp(z * z)


def erfcx_table() -> tuple:
    """Rebuild ``special._ERFCX_TABLE``.

    Piece j = 1..7 covers j/8 <= y <= (j + 1)/8 of y = 2 / (2 + z). On it,
    erfcx is interpolated at the 11 Chebyshev points of t = 16 y - (2j + 1)
    in [-1, 1], at 30 digits, and the degree-10 interpolant is returned as
    monomial coefficients in t, highest power first, each rounded to the
    nearest float.
    """
    with mpmath.workdps(30):
        m = 11
        angles = [mpmath.pi * (k + mpmath.mpf(1) / 2) / m for k in range(m)]
        # monomial coefficients of the Chebyshev polynomials T_0 .. T_10
        cheb = [[1], [0, 1]]
        for _ in range(2, m):
            up = [0] + [2 * c for c in cheb[-1]]
            cheb.append([c - (cheb[-2][i] if i < len(cheb[-2]) else 0) for i, c in enumerate(up)])
        table = []
        for j in range(1, 8):
            values = [erfcx_mp(2 / ((2 * j + 1 + mpmath.cos(th)) / 16) - 2) for th in angles]
            coeffs = [2 * mpmath.fsum(v * mpmath.cos(n * th) for v, th in zip(values, angles)) / m for n in range(m)]
            coeffs[0] /= 2
            mono = [mpmath.fsum(coeffs[n] * cheb[n][i] for n in range(i, m)) for i in range(m)]
            table.append(tuple(float(c) for c in reversed(mono)))
        return tuple(table)
