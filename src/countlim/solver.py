"""Root solving for upper limits, plus the request/result records.

Every limit in this package is the root of a smooth, strictly decreasing
criterion c(mu) with c(0) = 1: the solver brackets the root by doubling,
then refines with bisection accelerated by inverse-quadratic interpolation,
falling back to bisection whenever the interpolated candidate leaves the
bracket. Termination requires both a relative bracket width below
``rel_tol`` and a criterion value within ``10 * rel_tol * target`` of the
target, so converged results honour the reported-criterion contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ConvergenceError

__all__ = ["LimitRequest", "LimitResult", "solve_decreasing"]

_BRACKET_CAP = 2.0**64  # doubling guard; criteria this flat are hopeless
_WIDTH_FLOOR = 8.0 * 2.0**-52  # relative width at the float64 resolution limit


@dataclass(frozen=True)
class LimitRequest:
    """Confidence threshold and solver settings for one limit computation.

    ``alpha`` is the exclusion threshold: the CLs criterion is solved for
    CLs(mu) = alpha, the Bayesian one for posterior tail mass alpha
    (credibility 1 - alpha below the limit). Only the uniform prior on the
    signal strength is supported.
    """

    alpha: float
    mu_prior: str = "uniform"
    rel_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.mu_prior != "uniform":
            raise ValueError(f"only the uniform signal-strength prior is supported, got {self.mu_prior!r}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.max_iter > 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class LimitResult:
    """Solved upper limit plus solver and integration diagnostics.

    ``criterion_at_solution`` is the criterion evaluated at ``mu_up``;
    ``bracket`` the final (lo, hi) interval; ``iterations`` the number of
    criterion evaluations. The stderr fields are filled for Monte Carlo
    marginalisation only: ``criterion_stderr`` is the delta-method error
    of the criterion at the solution and ``mu_up_stderr`` its propagation
    through the criterion slope onto the limit itself.
    """

    mu_up: float
    criterion_at_solution: float
    iterations: int
    bracket: tuple
    mu_up_stderr: float | None = None
    criterion_stderr: float | None = None

    def to_dict(self) -> dict:
        return {
            "mu_up": self.mu_up,
            "criterion_at_solution": self.criterion_at_solution,
            "iterations": self.iterations,
            "bracket": [self.bracket[0], self.bracket[1]],
            "mu_up_stderr": self.mu_up_stderr,
            "criterion_stderr": self.criterion_stderr,
        }


def _interpolate(pts, lo, hi):
    """Inverse-quadratic (or secant) candidate from the last points.

    Returns None when the candidate is degenerate or leaves (lo, hi),
    which sends the caller back to bisection.
    """
    (x0, g0), (x1, g1) = pts[-2], pts[-1]
    if len(pts) >= 3:
        (xm, gm) = pts[-3]
        d_m, d_0, d_1 = (gm - g0) * (gm - g1), (g0 - gm) * (g0 - g1), (g1 - gm) * (g1 - g0)
        # at a tiny target the products of differences can underflow to 0
        if d_m != 0.0 and d_0 != 0.0 and d_1 != 0.0:
            cand = xm * g0 * g1 / d_m + x0 * gm * g1 / d_0 + x1 * gm * g0 / d_1
            if math.isfinite(cand) and lo < cand < hi:
                return cand
    if g0 != g1:
        cand = x1 - g1 * (x1 - x0) / (g1 - g0)
        if math.isfinite(cand) and lo < cand < hi:
            return cand
    return None


def solve_decreasing(criterion, target: float, rel_tol: float, max_iter: int):
    """Solve criterion(mu) = target for a strictly decreasing criterion.

    Returns ``(mu, criterion_at_mu, evaluations, (lo, hi))``. Raises
    :class:`ConvergenceError` when bracketing or refinement exhausts its
    budget.
    """
    evals = 0

    def g(mu: float) -> float:
        nonlocal evals
        evals += 1
        return criterion(mu) - target

    lo, g_lo = 0.0, g(0.0)
    if g_lo <= 0.0:
        raise ConvergenceError(
            f"criterion at mu=0 is {g_lo + target}, not above the target {target}",
            bracket=(0.0, 0.0),
            iterations=evals,
        )
    hi = 1.0
    g_hi = g(hi)
    while g_hi > 0.0:
        lo, g_lo = hi, g_hi
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise ConvergenceError(
                f"no sign change found while doubling the bracket up to {hi}",
                bracket=(lo, hi),
                iterations=evals,
            )
        g_hi = g(hi)
    if g_hi == 0.0:
        return hi, target, evals, (lo, hi)

    pts = [(lo, g_lo), (hi, g_hi)]
    crit_tol = 10.0 * rel_tol * target
    force_bisect = False
    for _ in range(max_iter):
        width = hi - lo
        scale = max(abs(hi), abs(lo))
        best, g_best = (lo, g_lo) if abs(g_lo) <= abs(g_hi) else (hi, g_hi)
        at_floor = width <= _WIDTH_FLOOR * scale
        if width <= rel_tol * scale and (abs(g_best) <= crit_tol or at_floor):
            return best, g_best + target, evals, (lo, hi)
        cand = None if force_bisect else _interpolate(pts, lo, hi)
        if cand is None:
            cand = 0.5 * (lo + hi)
        g_cand = g(cand)
        pts.append((cand, g_cand))
        if len(pts) > 3:
            del pts[0]
        if g_cand > 0.0:
            lo, g_lo = cand, g_cand
        else:
            hi, g_hi = cand, g_cand
        # interpolation must earn its keep; a slow shrink forces a bisection
        force_bisect = (hi - lo) > 0.7 * width
    width = hi - lo
    scale = max(abs(hi), abs(lo))
    best, g_best = (lo, g_lo) if abs(g_lo) <= abs(g_hi) else (hi, g_hi)
    if width <= rel_tol * scale and (abs(g_best) <= crit_tol or width <= _WIDTH_FLOOR * scale):
        return best, g_best + target, evals, (lo, hi)
    raise ConvergenceError(
        f"root refinement did not converge within {max_iter} iterations",
        bracket=(lo, hi),
        iterations=evals,
    )
