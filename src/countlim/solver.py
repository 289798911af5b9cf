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
undefined.

A Halley step is aimed a hair past the root: the solver moves by
step + min(4 |step h|, rel_tol/4 * |mu + step|), h = g g'' / (2 g'^2)
being the Halley term. This is the end rule of Brent's zeroin (Brent
1973, *Algorithms for Minimization without Derivatives*, ch. 4): step at
least a tolerance, so that the new point lands on the far side of the
root. Near the root 4 |step h|, second order in the step, exceeds the
Halley step's own miss, which is third order, and the cap keeps the aim
inside the tolerance; so the evaluation that converges is most often
itself the upper end of a sign-checked bracket, and the solve ends on
it. A Newton step is not aimed: where log c is linear it is exact. A
solve that converges below the root signs its bracket with one probe at
mu + max(2 step, rel_tol * mu) and returns the converged point, not the
probe. That happens to a Newton step landing a hair short, and to a
Halley step that misses by more than its aim (66 of the 360 solves with
n_obs >= 1 on the exact grid of acceptance criterion 2).

A solve counts mu = 0 as its first evaluation; when the caller gives a
starting point in (0, 2**64], the second evaluation jumps straight
there, and the rest of the solve proceeds from it. A criterion object
may declare its value at 0 as ``value_at_zero``: every
``marginal._Criterion`` does, being exactly 1 there. A solve with a
start then records that value at mu = 0 and jumps, with no call and no
arithmetic there. A plain function, or a solve with no start, is called
at mu = 0, because the first step from 0 needs the slope there. Until a
point below the target is found, a step may reach no further than
8 * max(mu, 1), because the slope can be 0 or vanishingly small near
mu = 0; that cap applies only after the jump. Once a point
below the target is known, a step that leaves the sign-checked bracket
is replaced by bisection. The test is applied at every evaluated point:
a solve ends when the value is within ``10 * rel_tol * target`` of the
target and the projected step is at most ``rel_tol * mu`` (or below the
float64 resolution). The bracket is not shrunk to ``rel_tol``. A starting point is only a first guess: the
solve still ends on the criterion's own value and slope.
Each bracket end keeps the criterion's whole return there, unread past
(c, c', c''), and the solve returns it with the end it chose: what else a
criterion returns (``marginal._Criterion``'s terms) is at hand at the root.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .exceptions import ConvergenceError, _require
from .model import _integer, _real

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
    criterion evaluations of one solve. Any other value is a ConfigError.
    """

    alpha: float
    rel_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        _require(self, "alpha", 0.0 < _real(self, "alpha") < 1.0, "be in (0, 1)")
        _require(self, "rel_tol", 0.0 < _real(self, "rel_tol") < 1.0, "be in (0, 1)")
        _integer(self, "max_iter", "be a positive integer", 1)


@dataclass(frozen=True)
class LimitResult:
    """Solved upper limit plus solver and integration diagnostics.

    ``criterion_at_solution`` is the criterion's value from the evaluation
    the solve ended on, at ``mu_up``;
    ``iterations`` the number of criterion evaluations, mu = 0 included
    where a started solve records c(0) = 1 without computing it; ``bracket`` the
    tightest sign-checked (lo, hi) interval containing ``mu_up``, with
    the criterion above the target at ``lo`` and not above it at ``hi``.
    ``mu_up`` is one of the two ends. It is most often ``hi``: the solve's
    last Halley step is aimed rel_tol/4 past the root, and ``mu_up`` then
    lies above the root by at most ``rel_tol * mu_up``, its projected step
    at convergence (0.52 rel_tol at most on the 225 exact configurations
    of acceptance criterion 2). It is ``lo``, below the root by at most as
    much, when the solve converged short of the root and a probe signed
    the bracket. The bracket may be wider than ``rel_tol``, because the
    solver stops on the projected step, not on the bracket width. The
    stderr fields are filled for Monte Carlo marginalisation only, from
    that same evaluation: ``criterion_stderr`` is the delta-method error
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
        return {**asdict(self), "bracket": list(self.bracket)}


def _fail(message, bracket, history):
    return ConvergenceError(message, bracket=bracket, iterations=len(history), history=history)


def solve_decreasing(criterion, target: float, rel_tol: float, max_iter: int, start: float = 0.0):
    """Solve c(mu) = target for a strictly decreasing criterion with c(0) > target.

    ``criterion(mu)`` returns ``(c(mu), c'(mu), c''(mu))``, and may add
    entries after them, kept unread; the step is
    Newton's on log c, times the Halley factor where that lies in (0.5, 2)
    and neither the curvature of log c is rounding noise nor g' = c'/c
    has rounded to 0. A Halley step is aimed past the root by
    min(4 |step h|, rel_tol/4 * |mu + step|), so that the point where the
    solve converges is most often the upper end of its bracket and the
    solve ends there; a Newton step is not aimed. Only a solve that
    converges below the root, with no point past it yet, evaluates one
    probe past it, which signs the bracket and is not returned. Returns
    ``(mu, criterion(mu), evaluations, (lo, hi))``, the criterion's return
    from the evaluation made at ``mu``, where (lo, hi) is the tightest
    sign-checked bracket around ``mu`` and ``mu`` is one of its ends. A
    ``start`` in (0, 2**64] is evaluated second, right after
    mu = 0, whether it lies below the root or past it; the jump counts
    against ``max_iter``, and the 8 * max(mu, 1) cap on a step applies
    only after it. Where ``criterion`` has a ``value_at_zero`` attribute
    above the target and ``max_iter`` allows the jump, that value is
    recorded as c(0), counted as the first evaluation, and ``criterion``
    is not called at mu = 0. Any other
    ``start`` (0, negative, beyond 2**64, inf or NaN) leaves the solve as
    it is without one. Raises :class:`ConvergenceError`, carrying the
    evaluated ``(mu, c(mu))`` pairs and the bracket, when ``max_iter``
    evaluations do not converge, when no sign change is found below
    ``2**64``, or when the bracket closes, unconverged, on a point where
    c has underflowed to 0 while it is still above the target at the
    other end: the root then lies past the underflow.
    """
    log_target = math.log(target)
    crit_tol = 10.0 * rel_tol * target
    jump = 0.0 < start <= _BRACKET_CAP
    lo = hi = None  # (mu, c(mu), converged, criterion(mu)) at the ends of the bracket
    # a criterion that declares c(0) needs no arithmetic there when the
    # solve jumps on from 0: only the step from 0 would need its slope
    value = getattr(criterion, "value_at_zero", None) if jump and max_iter > 1 else None
    if value is not None and value > target:
        history = [(0.0, value)]
        lo = 0.0, value, False, None
        mu = start
    else:
        history = []
        mu = 0.0
    while True:
        out = criterion(mu)
        value, slope, curvature = out[0], out[1], out[2]
        history.append((mu, value))
        if math.isnan(value):
            raise _fail(f"criterion at mu={mu} is NaN", None, history)
        step, margin = math.inf, 0.0
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
                    # aim a hair past the root, inside the tolerance, so that
                    # the point that converges is the bracket's upper end
                    margin = min(4.0 * abs(step * h), 0.25 * rel_tol * abs(mu + step))
        converged = abs(step) <= rel_tol * mu and (
            abs(value - target) <= crit_tol or abs(step) <= _WIDTH_FLOOR * mu
        )
        if value > target:
            lo = mu, value, converged, out
        elif lo is None:
            raise _fail(f"criterion at mu=0 is {value}, not above the target {target}", (0.0, 0.0), history)
        else:
            hi = mu, value, converged, out
        # a converged end, or a bracket at the float64 resolution, ends the solve
        if hi is not None and (lo[2] or hi[2] or hi[0] - lo[0] <= _WIDTH_FLOOR * hi[0]):
            # both ends converge only when a probe signed the bracket for a
            # converged lo: the probe is not an answer, so lo comes first
            end = lo if lo[2] else hi if hi[2] else None
            if end is None and hi[1] == 0.0:
                # the bracket closed on the edge where c underflows, not on the root
                raise _fail(
                    f"criterion underflows to 0 at mu={hi[0]} while still {lo[1]} at mu={lo[0]}, "
                    f"above the target {target}: the root lies past the float64 underflow",
                    (lo[0], hi[0]),
                    history,
                )
            mu, _, _, out = end or min((lo, hi), key=lambda end: abs(end[1] - target))
            return mu, out, len(history), (lo[0], hi[0])
        if len(history) == max_iter:
            raise _fail(
                f"root refinement did not converge within {max_iter} iterations",
                (lo[0], hi[0] if hi else math.inf),
                history,
            )
        aim = mu + step + margin
        if len(history) == 1 and jump:
            mu = start
        elif hi is not None:
            mu = aim if lo[0] < aim < hi[0] else 0.5 * (lo[0] + hi[0])
        elif converged:
            # converged below the root: a point just past it signs the bracket
            mu += max(2.0 * step, rel_tol * mu, _WIDTH_FLOOR * mu)
        else:
            # no upper end yet: a near-zero slope must not throw the step out to 2**64
            mu = min(aim, _GROWTH * max(mu, 1.0))
            if mu > _BRACKET_CAP:
                raise _fail(f"no sign change found while expanding the bracket up to {mu}", (lo[0], mu), history)
