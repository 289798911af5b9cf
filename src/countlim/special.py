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

The twins do the same floating-point operations in the same order on
each lane. They can still differ in the last bit where numpy's
vectorised ``log`` and ``exp`` round differently from the ``math``
module's.

``poisson_cdf`` sums the Poisson terms outwards from the largest term
of one tail, relative to that term: down from k = n when the mean is at
least n, and up from k = n + 1, for the complement, when it is below.
Each lane takes one ``log``, one ``exp`` and O(sqrt(mean)) multiply-adds.
It matches mpmath to a relative 1e-14 * (n + mean + 1) on a frozen grid
out to n = 1e4.

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
    """P(N <= n) for N ~ Poisson(nu), summed outwards from a tail's largest term.

    For ``nu >= n`` the terms k = 0..n grow up to k = n, so the sum starts
    at the pmf term of n and walks down with factor k/nu. For ``nu < n``
    the result is 1 minus the upper tail k > n, whose terms fall from
    k = n + 1 with factor nu/k; summing that tail keeps values near 1
    monotone in ``nu``. Terms are kept relative to the starting term, so a
    lane takes one ``log`` and one ``exp`` in all, and its walk stops at a
    term at most 1e-17 of its sum, after O(sqrt(nu)) steps rather than n.
    Checked against mpmath to a relative 1e-14 * (n + nu + 1) for
    n <= 1e4. Independent of :func:`gamma_q` by design.
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


# A term at most this fraction of its lane's sum is below half an ulp of
# the sum, so adding it changes nothing: the array walks, which run until
# their slowest lane stops, then give the scalar walks' bits.
_TAIL_EPS = 1e-17


def _poisson_cdf_scalar(n: int, nu: float) -> float:
    if not nu > 0.0:
        return 1.0
    t = total = 1.0
    if nu >= n:
        for k in range(n, 0, -1):
            t *= k / nu
            total += t
            if t <= _TAIL_EPS * total:
                break
        return math.exp(n * math.log(nu) - nu - math.lgamma(n + 1)) * total
    k = n + 1
    while t > _TAIL_EPS * total:
        k += 1
        t *= nu / k
        total += t
    return 1.0 - math.exp((n + 1) * math.log(nu) - nu - math.lgamma(n + 2)) * total


def _poisson_cdf_array(n: int, nu: np.ndarray) -> np.ndarray:
    out = np.ones(nu.shape, dtype=float)
    positive = nu > 0.0
    lower = positive & (nu >= n)
    upper = positive & (nu < n)
    if lower.any():
        out[lower] = _lower_tail_array(n, nu[lower])
    if upper.any():
        out[upper] = 1.0 - _upper_tail_array(n, nu[upper])
    return out


def _lower_tail_array(n: int, x: np.ndarray) -> np.ndarray:
    # P(N <= n) for x >= n: terms k = n down to 0, each k/x times the one
    # before. Testing convergence costs about a step, so it runs every 8th.
    t = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(n, 0, -1):
        t = t * (k / x)
        total = total + t
        if k % 8 == 0 and bool(np.all(t <= _TAIL_EPS * total)):
            break
    return np.exp(n * np.log(x) - x - math.lgamma(n + 1)) * total


def _upper_tail_array(n: int, x: np.ndarray) -> np.ndarray:
    # P(N > n) for x < n: terms k = n + 1 upwards, each x/k times the one before
    t = np.ones_like(x)
    total = np.ones_like(x)
    k = n + 1
    while True:
        k += 1
        t = t * (x / k)
        total = total + t
        if k % 8 == 0 and bool(np.all(t <= _TAIL_EPS * total)):
            break
    return np.exp((n + 1) * np.log(x) - x - math.lgamma(n + 2)) * total


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
