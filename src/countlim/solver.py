"""Root solving for upper limits, plus the request/result records.

Every limit in this package is the root of a smooth, strictly decreasing
criterion c(mu) with c(0) > target, and every criterion comes with its
analytic slope and curvature. The solver takes Halley steps on
g(mu) = log c(mu) - log(target): the Newton step -g/g' times the factor
1 / (1 - g g'' / (2 g'^2)), with g' = c'/c and g'' = c''/c - g'^2. The
criteria are log-concave for one sample point and nearly log-linear in
their tails, so the factor trims the overshoot of a step from far off,
and a step lands within a few ulps of the root in one to three
evaluations. The factor is used only when it lies in (0.5, 2); otherwise
the step is Newton's. It is also left out where |g''| is within rounding
of 0: there log c is linear (a zero count on one point), Newton's step is
exact, and g would magnify the rounding; and where g' itself rounds to
0 (a subnormal slope on a value of 2 or more), where the factor is
undefined. Until a point below the target
is found, a step may reach no further than 8 * max(mu, 1), because the
slope can be 0 or vanishingly small near mu = 0; after that, a step that
leaves the sign-checked bracket is replaced by bisection. The test is
applied at every evaluated point: a solve ends when the value is within
``10 * rel_tol * target`` of the target and the projected step is at
most ``rel_tol * mu`` (or below the float64 resolution). The bracket is
not shrunk to ``rel_tol``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .exceptions import ConvergenceError

__all__ = ["LimitRequest", "LimitResult", "solve_decreasing"]

_BRACKET_CAP = 2.0**64  # expansion guard; criteria this flat are hopeless
_GROWTH = 8.0  # largest expansion factor while no upper end of the bracket is known
_WIDTH_FLOOR = 8.0 * 2.0**-52  # relative step or width at the float64 resolution limit
_CURVATURE_FLOOR = 64.0 * 2.0**-52  # |g''| / g'^2 below this is rounding: log c is linear


@dataclass(frozen=True)
class LimitRequest:
    """Confidence threshold and solver settings for one limit computation.

    ``alpha`` is the exclusion threshold: the CLs criterion is solved for
    CLs(mu) = alpha, the Bayesian one for posterior tail mass alpha
    (credibility 1 - alpha below the limit). Only the uniform prior on the
    signal strength is supported. ``rel_tol``, in (0, 1), is the solver's
    relative tolerance; ``max_iter``, a positive integer, caps the
    criterion evaluations of one solve.
    """

    alpha: float
    rel_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter > 0):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")


@dataclass(frozen=True)
class LimitResult:
    """Solved upper limit plus solver and integration diagnostics.

    ``criterion_at_solution`` is the criterion evaluated at ``mu_up``;
    ``iterations`` the number of criterion evaluations; ``bracket`` the
    tightest sign-checked (lo, hi) interval containing ``mu_up``, with
    the criterion above the target at ``lo`` and not above it at ``hi``.
    The bracket may be wider than ``rel_tol``, because the solver stops
    on the projected step, not on the bracket width. The stderr
    fields are filled for Monte Carlo marginalisation only:
    ``criterion_stderr`` is the delta-method error of the criterion at
    the solution and ``mu_up_stderr`` its propagation through the
    criterion slope onto the limit itself.
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


def solve_decreasing(criterion, target: float, rel_tol: float, max_iter: int):
    """Solve c(mu) = target for a strictly decreasing criterion with c(0) > target.

    ``criterion(mu)`` returns ``(c(mu), c'(mu), c''(mu))``; the step is
    Newton's on log c, times the Halley factor where that lies in (0.5, 2)
    and neither the curvature of log c is rounding noise nor g' = c'/c
    has rounded to 0. Returns ``(mu,
    c(mu), evaluations, (lo, hi))``, where (lo, hi) is the tightest
    sign-checked bracket around ``mu``. Raises :class:`ConvergenceError`, carrying the
    evaluated ``(mu, c(mu))`` pairs and the bracket, when ``max_iter``
    evaluations do not converge, when no sign change is found below
    ``2**64``, or when the bracket closes, unconverged, on a point where
    c has underflowed to 0 while it is still above the target at the
    other end: the root then lies past the underflow.
    """
    log_target = math.log(target)
    crit_tol = 10.0 * rel_tol * target
    history = []

    def fail(message, bracket):
        return ConvergenceError(message, bracket=bracket, iterations=len(history), history=history)

    lo = hi = None  # (mu, c(mu), converged) at the ends of the bracket
    mu = 0.0
    while True:
        value, slope, curvature = criterion(mu)
        history.append((mu, value))
        if math.isnan(value):
            raise fail(f"criterion at mu={mu} is NaN", None)
        step = math.inf
        if value > 0.0 and slope < 0.0:
            # Newton step on g(mu) = log c(mu) - log(target), with g' = c'/c
            f = math.log(value) - log_target
            step = f * (value / -slope) if f else 0.0
            # Halley factor 1 / (1 - h), h = g g'' / (2 g'^2), g'' = c''/c - g'^2;
            # written without g'^2, which can underflow, and skipped where
            # g' itself has underflowed to 0
            g1 = slope / value
            g2 = curvature / value - g1 * g1
            if g1 and abs(g2) > _CURVATURE_FLOOR * (g1 * g1):
                h = -0.5 * step * (g2 / g1)
                if -1.0 < h < 0.5:
                    step /= 1.0 - h
        converged = abs(step) <= rel_tol * mu and (
            abs(value - target) <= crit_tol or abs(step) <= _WIDTH_FLOOR * mu
        )
        if value > target:
            lo = mu, value, converged
        elif lo is None:
            raise fail(f"criterion at mu=0 is {value}, not above the target {target}", (0.0, 0.0))
        else:
            hi = mu, value, converged
        # a converged end, or a bracket at the float64 resolution, ends the solve
        if hi is not None and (lo[2] or hi[2] or hi[0] - lo[0] <= _WIDTH_FLOOR * hi[0]):
            ends = [end for end in (lo, hi) if end[2]]
            if not ends and hi[1] == 0.0:
                # the bracket closed on the edge where c underflows, not on the root
                raise fail(
                    f"criterion underflows to 0 at mu={hi[0]} while still {lo[1]} at mu={lo[0]}, "
                    f"above the target {target}: the root lies past the float64 underflow",
                    (lo[0], hi[0]),
                )
            mu, value, _ = min(ends or [lo, hi], key=lambda end: abs(end[1] - target))
            return mu, value, len(history), (lo[0], hi[0])
        if len(history) == max_iter:
            raise fail(
                f"root refinement did not converge within {max_iter} iterations",
                (lo[0], hi[0] if hi else math.inf),
            )
        if hi is not None:
            mu = mu + step if lo[0] < mu + step < hi[0] else 0.5 * (lo[0] + hi[0])
        elif converged:
            # converged below the root: a point just past it signs the bracket
            mu += max(2.0 * step, rel_tol * mu, _WIDTH_FLOOR * mu)
        else:
            # no upper end yet: a near-zero slope must not throw the step out to 2**64
            mu = min(mu + step, _GROWTH * max(mu, 1.0))
            if mu > _BRACKET_CAP:
                raise fail(f"no sign change found while expanding the bracket up to {mu}", (lo[0], mu))
