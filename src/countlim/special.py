"""Numerically stable Poisson probabilities and regularized incomplete gamma.

The three public functions take a count (``gamma_q``'s a at least 1) and a
mean: a real number, on a ``math``-module path that never imports numpy,
or an integer or float array of any shape, vectorised, whose shape the
result takes. ``_count`` and ``_mean`` refuse other types, a count past
the float range, and a negative or NaN mean, with a ``ConfigError``.

Every route but Temme's is a Poisson prefactor e^-x x^k / k! times one
sum or one fraction. Its log, k ln x - x - ln k! (ln Gamma(a) at k = a
in ``gamma_q``), is one body, ``_log_pmf``, shared by the kernels,
:func:`log_poisson_pmf` and :mod:`countlim.marginal`'s criterion; the
pmf's limits at x = 0 and inf are in ``_log_pmf_limit``, the kernels'
(1 and 0) in ``_at_ends``.

Three of ``gamma_q``'s routes, the continued fraction, eta^2/2 and
Temme's expansion, have one body each, run on the ``math`` module's
functions for a float (``_MATH``) or on numpy's for an array
(``_numpy()``, built on first use). The series walks and erfcx keep a
float and an array form by design. Exact limits solve on the float
paths, and narrow arrays run them lane by lane. An array call pays a
fixed cost in numpy calls whatever its width, where a float path pays
per lane. README tabulates the cost of an array call over the float
path's on its lanes, by kernel, count and width (``tools/kernel_crossover.py``).
Its median crosses 1 at 20 lanes (0.98 to 1.03 over four runs): arrays
of at most ``_NARROW_LANES`` = 20 lanes take the float paths, bit for
bit. ``gamma_q`` above a = 20, where Temme's route takes most lanes, is
the exception: its float path still wins at 32 lanes.

Wider arrays take no convergence test. ``poisson_cdf`` sums the scalar
walk's series as one polynomial in n/x or x/(n + 1), and ``gamma_q``'s
lower series one polynomial in x, by baby steps and giant steps
(``_series_sum``), with a cached matrix per route and count of the
scalar loop's products, cut at a degree set by the count: where the
route's edge ends the series. ``gamma_q``'s continued fraction is evaluated
backward, by one body, from a depth set by a. So each wide lane's bits
depend on (count, x) alone. Each kernel states its wide routes once per
count, as ascending cuts in x (``_poisson_routes``, ``_gamma_routes``;
x = 0 and inf are routes too), and ``_on_lanes`` runs every wide call
from that table: the whole array on one route, with no masks, else each
route with lanes on them, gathered in order. On the series the twins
round differently (forms, and numpy's ``log`` and ``exp`` against the
``math`` module's): by up to ~24 ulp at n <= 150 and 84 at n = 1e4 on
random lanes (README), the ``gamma_q`` array forms being nearer mpmath.
On the fraction and Temme's route, one body each, a float and a lane
differ only where numpy rounds a ``log`` or ``exp`` differently.

``poisson_cdf`` sums the Poisson terms outwards from the largest term
of one tail, relative to that term: down from k = n when the mean is at
least n, and up from k = n + 1, for the complement, when it is below.
Each lane takes one ``log``, one ``exp`` and O(sqrt(mean)) multiply-adds.
It matches mpmath to a relative 1e-14 * (n + mean + 1) on a frozen grid
out to n = 1e4.

``gamma_q``, at the calculator's a = n + 1, runs Temme's uniform
asymptotic expansion for ``a > 20`` and ``0.1 a <= x <= 2 a``: one
polynomial in eta, one ``exp`` and one erfcx(z) = exp(z^2) erfc(z) per
lane, with both coefficient tables frozen below. Every other lane takes
the lower series (``x < a + 1``) or the continued fraction, which for
integer a ends at level a; for ``a > 20`` both converge in few steps
outside the expansion's region. In that region one body computes eta and
erfcx for floats and arrays from + - * / alone, so the two differ by at
most 2 ulp (where ``exp`` rounds differently). It matches mpmath to a
relative 1e-14 * (a + x + 1) on a frozen grid of integer a from 1 out to
1e5 + 1.

``poisson_cdf`` is deliberately *not* implemented through ``gamma_q``:
the two are independent routes to the same quantity, and their agreement
(``poisson_cdf(n, x) == gamma_q(n + 1, x)``) is used as a cross-check
throughout the test suite. They are not independent everywhere. For
x < n, ``gamma_q``'s lower series and ``poisson_cdf``'s upper tail are
the same series, sum_j x^j / ((n + 2)...(n + 1 + j)), times the same
prefactor e^-x x^(n+1) / (n + 1)!. There their agreement checks the code,
not the mathematics, and the frozen mpmath grids are the oracle. Each
kernel builds its own coefficient list, so a slip in one does not carry
into the other.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
import types

from .exceptions import _INT_PAST_FLOAT, _float, _require

__all__ = ["log_poisson_pmf", "poisson_cdf", "gamma_q"]

_REL_EPS = 1e-15  # relative-term convergence target for the scalar lower series


def _count(owner, name: str, n, least: int = 0) -> int:
    """Argument ``name`` of ``owner`` as an int, refused unless an integer of at least ``least`` (by ``_float``)
    that converts to a finite float: ``_float`` reads one past the float range as inf."""
    integral = type(n) is int and n < _INT_PAST_FLOAT or (value := _float(n)) is not None and value.is_integer()
    if not integral or n < least:
        _require(owner, name, False, f"be an integer of at least {least} within the float range", n)
    return int(n)


_NARROW_LANES = 20  # arrays of at most this many lanes run the float path lane by lane (see above)


def _mean(owner, name: str, x):
    """Argument ``name`` of ``owner`` as a float or float array, with a narrow array's lanes as a list
    and a wide one's least lane, refused unless a real number by ``_float``'s rule or an integer or float
    array, with no lane negative or NaN: ``x.min()`` returns NaN, ``min`` may skip it, ``sum`` does not."""
    # a float skips the array test, which imports nothing: before numpy is loaded, no argument is its array
    if type(x) is float or not isinstance(x, getattr(sys.modules.get("numpy"), "ndarray", ())):
        value = x if type(x) is float else _float(x)
        if value is not None and value >= 0.0:
            return value, None, None
    elif x.dtype.kind in "iuf":
        y = x.astype(float, copy=False)
        if y.size > _NARROW_LANES:
            if (lo := float(y.min())) >= 0.0:
                return y, None, lo
        elif not (lanes := y.ravel().tolist()) or min(lanes) >= 0.0 and sum(lanes) >= 0.0:
            return y, lanes, None
    _require(owner, name, False, "be a nonnegative real number or an integer or float array of them", x)


def _log_pmf(k, x, log_norm: float, ns):
    """``k * ns.log(x) - x - log_norm``, the log of the Poisson prefactor
    e^-x x^k / k! (``log_norm`` = ln k!) for 0 < x < inf: on a float with
    ``ns`` the ``math`` namespace, or in place on ``ns.log(x)`` with numpy's."""
    p = ns.log(x)
    p *= k
    p -= x
    p -= log_norm
    return p


def _log_pmf_limit(n: int, x, log_norm: float, ns):
    """``_log_pmf`` of a count ``n`` at means x >= 0, a float or an array,
    with its limits where the body has none: at x = 0, 0 for n = 0 and
    -inf above; at x = inf, -inf. The body sees 1 on those lanes, where
    ln 1 = 0 raises no warning."""
    inside = (0.0 < x) & (x < math.inf)
    p = _log_pmf(n, ns.where(inside, x, 1.0), log_norm, ns)
    return ns.where(inside, p, -math.inf if n else ns.where(x == 0.0, 0.0, -math.inf))


def log_poisson_pmf(n, nu):
    """Log Poisson probability mass, n*ln(nu) - nu - ln(n!).

    ``n`` is a nonnegative integer count, ``nu`` a nonnegative mean
    (scalar or array). The factorial goes through ``lgamma`` so large
    counts stay finite. ``nu == 0`` gives probability one for ``n == 0``
    and probability zero (``-inf``) otherwise; ``nu == inf`` gives the
    limit ``-inf``.
    """
    n = _count(log_poisson_pmf, "n", n)
    nu = _mean(log_poisson_pmf, "nu", nu)[0]
    return _log_pmf_limit(n, nu, math.lgamma(n + 1), _MATH if type(nu) is float else _numpy())


def poisson_cdf(n, nu):
    """P(N <= n) for N ~ Poisson(nu), summed outwards from a tail's largest term.

    For ``nu >= n`` the terms k = 0..n grow up to k = n, so the sum starts
    at the pmf term of n and walks down with factor k * (1/nu). For
    ``nu < n`` the result is 1 minus the upper tail k > n, whose terms fall
    from k = n + 1 with factor nu/k; summing that tail keeps values near 1
    monotone in ``nu``. Terms are kept relative to the starting term, so a
    lane takes one ``log`` and one ``exp`` in all, and O(sqrt(nu)) terms
    rather than n: a scalar walk stops at a term at most 1e-17 of its sum,
    and a wide array takes one polynomial per count, cut where the dropped
    tail is below half an ulp at the tail's edge, x = n or x -> n.
    ``nu == inf`` gives the limit 0. Checked against mpmath to a relative
    1e-14 * (n + nu + 1) for n <= 1e4. Independent of :func:`gamma_q` by
    design.
    """
    return _on_lanes(_poisson_cdf_scalar, _poisson_routes, _count(poisson_cdf, "n", n), _mean(poisson_cdf, "nu", nu))


def _on_lanes(scalar, routes, first, checked):
    """``scalar(first, x)`` on a float or on each lane of a narrow array,
    for ``x``, ``lanes`` and ``lo`` as ``_mean`` returns them. A wide
    array takes the table ``routes(first)``: cuts in x, ascending, and a
    body more, body i running as ``body(first, lanes, _numpy())`` on the
    lanes with cuts[i - 1] <= x < cuts[i]. One route runs on the whole
    array, flat, with no masks, and its result takes the array's shape; else
    each route with lanes runs on them, gathered in order."""
    x, lanes, lo = checked
    if type(x) is float:
        return scalar(first, x)
    import numpy as np
    if lanes is not None:
        return np.fromiter(map(scalar, itertools.repeat(first, len(lanes)), lanes), float, len(lanes)).reshape(x.shape)
    (cuts, bodies), ns = routes(first), _numpy()
    i, last = bisect.bisect_right(cuts, lo), bisect.bisect_right(cuts, float(x.max()))
    if i == last:
        return bodies[i](first, x.ravel(), ns).reshape(x.shape)
    out = np.empty_like(x)
    below = x < cuts[i]
    out[below] = bodies[i](first, x[below], ns)
    for i in range(i + 1, last):  # the routes between the least and greatest lane's may have none
        on = below ^ (below := x < cuts[i])  # under this cut and not under the one before
        if on.any():
            out[on] = bodies[i](first, x[on], ns)
    on = ~below
    out[on] = bodies[last](first, x[on], ns)
    return out


_TINY = math.ulp(0.0)  # the smallest positive float: x = 0 is a route of its own


def _at_ends(first, x, ns):  # both kernels are 1 at x = 0 and take the limit 0 at x = inf
    return (x == 0.0).astype(float)


@functools.lru_cache(maxsize=256)
def _poisson_routes(n: int) -> tuple[tuple[float, ...], tuple]:
    """``poisson_cdf``'s wide routes at count n for ``_on_lanes``: the upper
    tail below x = n, then the lower tail, with x = 0 and inf apart."""
    if n == 0:  # no lane is below 0: the lower tail takes every other one
        return (_TINY, math.inf), (_at_ends, _lower_tail_cdf, _at_ends)
    return (_TINY, float(n), math.inf), (_at_ends, _upper_tail_array, _lower_tail_cdf, _at_ends)


# A term at most this fraction of its lane's sum is below half an ulp of
# the sum, so adding it changes nothing: the scalar walk stops there.
_TAIL_EPS = 1e-17


def _poisson_cdf_scalar(n: int, nu: float) -> float:
    if not nu > 0.0:
        return 1.0
    t = total = 1.0
    if nu >= n:
        if nu == math.inf:
            return 0.0
        inv = 1.0 / nu
        for k in range(n, 0, -1):
            t *= k * inv
            total += t
            if t <= _TAIL_EPS * total:
                break
        return math.exp(_log_pmf(n, nu, math.lgamma(n + 1), _MATH)) * total
    k = n + 1
    while t > _TAIL_EPS * total:
        k += 1
        t *= nu / k
        total += t
    return 1.0 - math.exp(_log_pmf(n + 1, nu, math.lgamma(n + 2), _MATH)) * total


def _upper_tail_array(n: int, nu: np.ndarray, ns) -> np.ndarray:
    # P(N > n) from k = n + 1: H_j z^j, z = x/(n + 1) < 1, H_j = prod_{i<=j} (n + 1)/(n + 1 + i)
    sums = _series_sum(_series_blocks("upper", n), nu / (n + 1))
    return 1.0 - ns.exp(_log_pmf(n + 1, nu, math.lgamma(n + 2), ns)) * sums


def _lower_tail_cdf(n: int, x: np.ndarray, ns) -> np.ndarray:
    pmf, sums = _lower_tail_array(n, x)
    return pmf * sums


def _poisson_cdf_and_pmf(n: int, nu):
    """``poisson_cdf(n, nu)`` and, on a wide array whose lanes all take the
    lower tail, its prefactor: pmf(n; nu), with the same bits. Else None."""
    x, lanes, lo = checked = _mean(poisson_cdf, "nu", nu)
    if lo is not None and 0.0 < lo and n <= lo and float(x.max()) < math.inf:
        pmf, sums = _lower_tail_array(n, x)
        return pmf * sums, pmf
    return _on_lanes(_poisson_cdf_scalar, _poisson_routes, n, checked), None


# Wide arrays sum the scalar walks' truncated series as polynomials, with
# no convergence test. The degree is set by the count, at the largest ratio
# m of the route (1 on the Poisson tails): the coefficients stop before the
# first j with c_j m^j <= _HORNER_EPS. Past that cut each term is at most
# r = m (1 - J / (n + J + 2)) times the one before, J the number of terms
# kept, so the dropped tail is at most 1e-18 / (1 - r) on every lane. For
# n <= 1e5 that is largest at m = 1, 3.6e-17 at n = 1e5 (J = 2865): below
# half an ulp of any lane's sum, which is at least 1. The gamma_q lower
# series, with factors 1 / (a + j) and m its route's edge, has r = m / (a + J),
# where m = a + 1 for a <= 20 and 0.1 a above (Temme's route takes the
# rest): at most 0.28 (a = 20, J = 55), so its tail is below 1.4e-18.
_HORNER_EPS = 1e-18


def _series_bound(a: float) -> tuple[float, float]:
    # the edge of gamma_q's series route at a, and s, the power of two above
    # it: the route sums in x / s, as powers of x overflow at huge a
    bound = a + 1.0 if a <= _TEMME_MIN_A else _TEMME_LO * a
    return bound, math.ldexp(1.0, math.frexp(bound)[1])


def _series_table(route: str, a) -> np.ndarray:
    """A series route's c_j = f_1 ... f_j, c_0 = 1, highest power first, up
    to the scalar loop's cut at the route's largest ratio m: ``"lower"``,
    the Poisson lower tail at count a in y = a/x, f_j = (a + 1 - j) / a then
    0, and ``"upper"``, in z = x/(a + 1), f_j = (a + 1) / (a + 1 + j), both
    at m = 1; ``"gamma"``, gamma_q's series in x/s, f_j = s / (a + j), at
    m = edge / s (``_series_bound``). One try holds the cut: 9.1 sqrt(a) +
    27 factors on the Poisson tails (checked to n = 1e5), 64 on gamma_q's."""
    import numpy as np
    if route == "gamma":
        bound, s = _series_bound(a)
        m, first = bound / s, 64
    else:
        m, first = 1.0, math.ceil(9.1 * math.sqrt(a) + 27.0)
    for size in (first * 4**k for k in itertools.count()):
        j = np.arange(1, size + 1)
        if route == "lower":
            f = np.maximum(a + 1 - j, 0) / max(a, 1)
        elif route == "upper":
            f = (a + 1) / (a + 1 + j)
        else:
            f = s / (a + j)
        below = np.cumprod(f * m) <= _HORNER_EPS
        if below.any():
            return np.cumprod(np.concatenate(([1.0], f[: below.argmax()])))[::-1]


def _horner(coeffs, y):
    """The polynomial with ``coeffs``, highest power first, at a finite
    float ``y`` or at each lane of an array, in place on one fresh buffer:
    c_0 + 0 y, then p y + c_j for each next c_j, the order of a scalar loop."""
    p = y * 0.0
    p += coeffs[0]
    for c in coeffs[1:]:
        p *= y
        p += c
    return p


# Lanes per block of a wide series sum. A block's buffers, K powers and
# ceil((d + 1) / K) block sums per lane, take ~1.4 MB at n = 150 (d = 97,
# K = 13) whatever the call's width: inside the 2 MB L2 cache of one core
# of the 2-vCPU x86-64 host measured (numpy 2.4, OpenBLAS 0.3.31). There,
# at d = 97, ns per lane at 1e4 / 1e5 / 2**20 lanes (median of 7 rounds,
# best of 3 each): 26 / 24 / 28 with blocks of 2048 lanes, 22 / 21 / 22
# with 8192, 84 / 27 / 29 with 16384 and 83 / 30 / 75 unblocked, against
# 56 / 45 / 128 for Horner's rule.
_LANE_BLOCK = 8192


def _block_matrix(coeffs) -> np.ndarray:
    """``_series_sum``'s matrix for ``coeffs``, highest power first: for
    degree d and K = max(2, isqrt(2 d)), the coefficients lowest power
    first, zero-padded to ceil((d + 1) / K) rows of K."""
    import numpy as np
    d = len(coeffs) - 1
    k = max(2, math.isqrt(2 * d))
    c = np.zeros(-(-(d + 1) // k) * k)
    c[: d + 1] = coeffs[::-1]
    return c.reshape(-1, k)


@functools.lru_cache(maxsize=256)
def _series_blocks(route: str, a) -> np.ndarray:
    """``_series_table(route, a)`` as its ``_block_matrix``, built once."""
    c = _block_matrix(_series_table(route, a))
    c.flags.writeable = False  # the cache hands it to every call
    return c


def _series_sum(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The polynomial of the block matrix ``c`` (``_block_matrix``) at each
    lane of ``y``, by baby steps and giant steps (Paterson & Stockmeyer 1973,
    SIAM J. Comput. 2:60): for its K columns and B rows, the rows y^0 ..
    y^(K-1), one matrix product for the B block sums, then Horner's rule in
    y^K over them. That is K + 2 B numpy calls per block of lanes, about K +
    2 d / K for degree d where Horner's rule takes 2 d, plus one copy per
    block where a call spans more than one. Every caller's coefficients and
    lanes are positive, so no order of summation can cancel."""
    import numpy as np
    k = c.shape[1]
    if y.size <= _LANE_BLOCK:  # one block of lanes: its sums are the result
        return _block_sum(c, y, np.empty((k, y.size)))
    out = np.empty_like(y)
    powers = np.empty((k, _LANE_BLOCK))
    for start in range(0, y.size, _LANE_BLOCK):
        yb = y[start : start + _LANE_BLOCK]
        out[start : start + yb.size] = _block_sum(c, yb, powers[:, : yb.size])
    return out


def _block_sum(c: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    # _series_sum on one block of lanes, with v a free K x len(y) buffer
    import numpy as np
    v[0] = 1.0
    v[1] = y
    for i in range(2, len(v)):
        np.multiply(v[i - 1], y, out=v[i])
    sums = c @ v
    yk = v[-1] * y
    p = sums[-1]
    for row in sums[-2::-1]:
        p *= yk
        p += row
    return p


def _lower_tail_array(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # P(N <= n) for x >= n, as the prefactor pmf(n; x) and the sum: the terms
    # k = n down to 0, relative to the k = n one, are G_j y^j with
    # y = n/x <= 1 and G_j = prod_{i<j} (n - i)/n
    import numpy as np
    return np.exp(_log_pmf(n, x, math.lgamma(n + 1), _numpy())), _series_sum(_series_blocks("lower", n), n / x)


def gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a; x) / Gamma(a).

    Three routes, chosen per lane. For ``a > 20`` and ``0.1 a <= x <= 2 a``
    Temme's uniform asymptotic expansion takes one polynomial, one ``exp``
    and one erfcx per lane, however close ``x`` is to ``a``. Elsewhere
    the lower-function series runs for ``x < a + 1``, on a scalar as a walk
    to a relative term of 1e-15 and on a wide array as one polynomial, and
    otherwise the continued fraction, evaluated backward, on floats and
    arrays alike, from a depth set by ``a``: a - 1 (where it ends) to
    a = 20, 16 above.
    Checked against mpmath to a relative 1e-14 * (a + x + 1) on a frozen
    grid for integer a from 1 to 1e5 + 1. ``a`` is a count of at least 1
    and ``x`` a mean, where ``x == inf`` gives the limit 0.
    """
    if not (type(a) is float and a >= 1.0 and a.is_integer()):  # the calculator's a = n + 1.0 skips _count
        a = float(_count(gamma_q, "a", a, 1))
    return _on_lanes(_gamma_q_scalar, _gamma_routes, a, _mean(gamma_q, "x", x))


def _gamma_q_scalar(a: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    if a > _TEMME_MIN_A and _TEMME_LO * a <= x <= _TEMME_HI * a:
        return _temme(a, x, _MATH)
    if x < a + 1.0:
        return max(0.0, 1.0 - _lower_series_scalar(a, x))
    if x == math.inf:
        return 0.0
    return _upper_cf(a, x, _MATH)


def _lower_series_scalar(a: float, x: float) -> float:
    pref = math.exp(_log_pmf(a, x, math.lgamma(a), _MATH))
    if pref == 0.0:
        return 0.0  # x far below a; the lower function underflows
    # on the route, x < a + 1, every ratio x / r is below 1 and falling: the
    # terms fall from the first, and the walk ends (see _TEMME_MIN_A)
    r = a
    c = 1.0
    total = 1.0
    while c > _REL_EPS * total:
        r += 1.0
        c *= x / r
        total += c
    return pref * total / a


# Q(a, x) over its prefactor is 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))),
# a_k = k (a - k) and b_k = x + 1 - a + 2k, all positive before a_a = 0 on
# the route's lanes, x >= a + 1 (a <= 20) or x > 2 a. _upper_cf evaluates
# it backward (Jones & Thron 1980, Continued Fractions; Gil, Segura & Temme
# 2012, SIAM J. Sci. Comput. 34:A2965) from a depth set by a alone: a - 1
# for a <= 20, where it ends, and _CF_DEPTH above. Against mpmath at x just
# above 2 a, its slowest lane, for every integer a from 21 to 199 and
# a = 250 to 1e8, 12 levels reach 1e-15 relative and 16 leave 1.5e-16.
_CF_DEPTH = 16


@functools.lru_cache(maxsize=64)
def _cf_levels(a: float) -> tuple[tuple[float, float], ...]:
    """The fraction's levels k = depth .. 1, deepest first, as floats: the
    numerator k (a - k) and the 2 (k - 1) added below the level. ``a`` is
    fixed over a call and over a solve."""
    depth = int(a) - 1 if a <= _TEMME_MIN_A else _CF_DEPTH
    return tuple((k * (a - k), 2.0 * (k - 1)) for k in range(depth, 0, -1))


def _upper_cf(a: float, x, ns):
    """Q(a, x) on the fraction's route, on a float with ``ns`` the ``math``
    namespace or on an array with numpy's, each level's two sums in place.
    t holds the next level's denominator: b + 2 depth at the deepest, then
    (t_k + b) + 2 (k - 1) below level k, and t_1 + b after the last. A
    prefactor that underflows gives 0 / t = 0."""
    pref = ns.exp(_log_pmf(a, x, math.lgamma(a), ns))
    b = x + 1.0 - a
    levels = _cf_levels(a)
    t = b + 2 * len(levels)
    for c, d in levels:
        t = c / t
        t += b
        t += d
    return ns.min(1.0, pref / t)


@functools.lru_cache(maxsize=256)
def _gamma_routes(a: float) -> tuple[tuple[float, ...], tuple]:
    """``gamma_q``'s wide routes at a for ``_on_lanes``: the series below
    ``_series_bound(a)[0]``; for a > 20, Temme's route up to and including
    x = 2 a; then the fraction; with x = 0 and inf apart."""
    edge = _series_bound(a)[0]
    if a <= _TEMME_MIN_A:
        return (_TINY, edge, math.inf), (_at_ends, _lower_series_array, _upper_cf, _at_ends)
    top = math.nextafter(_TEMME_HI * a, math.inf)  # the fraction's lowest x
    return (_TINY, edge, top, math.inf), (_at_ends, _lower_series_array, _temme, _upper_cf, _at_ends)


def _lower_series_array(a: float, x: np.ndarray, ns) -> np.ndarray:
    # Q = 1 - the walk's terms x^j / ((a + 1)...(a + j)), a polynomial in
    # x / s with factors s / (a + j): the coefficients, the cut and the
    # sum are those in x
    import numpy as np
    sums = _series_sum(_series_blocks("gamma", a), x / _series_bound(a)[1])
    return np.maximum(0.0, 1.0 - ns.exp(_log_pmf(a, x, math.lgamma(a), ns)) * sums / a)


# Temme's uniform expansion (Temme 1979, SIAM J. Math. Anal. 10:757):
#   Q(a, x) = erfc(eta sqrt(a/2)) / 2 + exp(-a eta^2/2) / sqrt(2 pi a) * sum_k C_k(eta) a^-k
# with lambda = x / a and eta^2 / 2 = lambda - 1 - ln(lambda), eta of the sign
# of lambda - 1. Both terms share e = exp(-a eta^2/2) = exp(-z^2), z = |eta|
# sqrt(a/2): with erfcx(z) = exp(z^2) erfc(z) and P the sum over k, divided
# by sqrt(2 pi a),
#   Q = e (erfcx(z) / 2 + P)        for x >= a,
#   Q = 1 - e (erfcx(z) / 2 - P)    for x < a, as erfc(-z) = 2 - erfc(z).
# Row k of _TEMME_D holds the Taylor coefficients of C_k in
# eta: row 0 those of 1/mu - 1/eta, where eta^2/2 = mu - ln(1 + mu), and
# d[k][j] = (j + 2) d[k-1][j+2] - d[k-1][1] d[0][j] after it (DiDonato &
# Morris 1986, ACM TOMS 12:377; the values of cephes igam.h). Each entry is
# the correctly rounded value of an exact rational, re-derived by the tests.
# Route bounds: within them eta stays in [-1.68, 0.79], inside the radius
# 2 sqrt(pi) of the eta series. The table keeps rows 0-13, each of 25
# columns: rows 14-24, scaled by a^-14 < 3.1e-19, would add at most 1.8e-21
# of Q on the route (a = 21, x = 1.76 a; less as a grows), under 2^-64 of
# it; from a = 50 on they change no bit of the folded polynomial. The tests
# prove both from the rationals. Above x = 2 a the truncated eta series fails
# fast (relative error 2e-12 at x = 3 a and 4e-9 at 4 a, for a = 21 and
# 151; the frozen grid holds such points), while the continued fraction
# there needs 12 levels (_CF_DEPTH); below x = 0.1 a the series takes at
# most 15 steps. For a <= 20 (cephes' threshold too) the series takes at
# most 48 steps, at a = 20 with x just under 21, and the fraction ends
# after a - 1 levels.
_TEMME_MIN_A = 20.0
_TEMME_LO = 0.1  # x / a
_TEMME_HI = 2.0

_TEMME_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
        0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
        -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
        -5.830772132550426e-11, 2.4361948020667415e-11, -5.0276692801141755e-12, 1.1004392031956135e-13,
        3.371763262400985e-13, -1.392388722418162e-13, 2.8534893807047445e-14, -5.139111834242572e-16,
        -1.9752288294349442e-15,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
        0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
        -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09, 4.162792991842583e-10,
        -8.56390702649298e-11, 6.067215101604758e-14, 7.1624989648114856e-12, -2.933186643771437e-12,
        5.996696365683689e-13, -2.1671786527323313e-16, -4.978339972369262e-14, 2.0291628823713425e-14,
        -4.13125571381061e-15,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
        -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
        1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09, 9.428356159014678e-13,
        1.2872252400089318e-10, -5.5645956134363323e-11, 1.197593554636698e-11, -4.1689782251838634e-15,
        -1.0940640427884595e-12, 4.662239946390136e-13, -9.905105763906907e-14, 1.8931876768373515e-17,
        8.859221872591127e-15,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
        -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
        1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09, -9.460496661855133e-10,
        2.1541049775774907e-10, -1.388823336813903e-14, -2.1894761681963938e-11, 9.790998951171684e-12,
        -2.178219188018096e-12, 6.208819573407901e-17, 2.126978363279737e-13, -9.344688791517433e-14,
        2.045367122678285e-14,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06,
        6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10,
        -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09, -2.3024517174528067e-13,
        -3.9409233028046403e-10, 1.86023389685045e-10, -4.356323005056618e-11, 1.278600101629623e-15,
        4.67927502665792e-12, -2.149246470613483e-12, 4.908815614809652e-13, -6.33859148489156e-18,
        -5.045332069080094e-14,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847,
        6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06,
        -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09, 3.162417628774568e-09,
        -7.840924253697429e-10, 5.192679165254041e-15, 9.358944242306784e-11, -4.513426216163278e-11,
        1.0799129993116828e-11, -3.661886712685252e-17, -1.210902069055155e-12, 5.680743584990564e-13,
        -1.3249659916340829e-13,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
        -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09,
        3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08, 8.649648858010293e-14,
        1.6846058979264062e-09, -8.575492823577594e-10, 2.1598224929232125e-10, -7.613230520476153e-16,
        -2.6639822008536144e-11, 1.3065700536611057e-11, -3.1799163902367977e-12, 4.710976121367431e-18,
        3.6902800842763465e-13,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237,
        -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05,
        5.7876949497350525e-06, 4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08, -1.4578352908731272e-08,
        3.887645959386175e-09, -3.881002251019412e-17, -5.327994173877286e-10, 2.7437977643314844e-10,
        -6.995796092070568e-11, 2.589986387486848e-17, 8.856689099669639e-12, -4.403168815871311e-12,
        1.0865561947091654e-12,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
        0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05, 4.557909867922708e-09,
        -1.0595271125805195e-05, 6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16,
        -9.590386497425686e-09, 5.213214492280807e-09, -1.3991589583935709e-09, 5.382058999060575e-16,
        1.9484714275467745e-10, -1.0127287556389682e-10, 2.6077347197254926e-11, -5.090418699993299e-18,
        -3.3721464474854593e-12,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328, -0.0006401475260262758,
        0.00027750107634328704, 1.819700838046515e-07, -8.479507117068503e-05, 6.105192082501531e-05,
        -2.1073920183404862e-05, -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07, 8.862466778790695e-08,
        -2.5184812301826817e-08, -1.0225912098215092e-14, 3.896947075815478e-09, -2.1267304792235634e-09,
        5.737013552805138e-10, -1.8877498501697116e-19, -8.093153869465787e-11, 4.23827232834492e-11,
        -1.1002224534207725e-11,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07,
        -0.0005087450129309319, 0.00042735056665392886, -0.00016858853767910798, -8.1301893922785e-09,
        4.5284402370562144e-05, -3.127053674781734e-05, 1.044986828530338e-05, 4.8435226265680926e-11,
        -2.148256587345626e-06, 1.329369701097492e-06, -4.029569309210103e-07, -1.756787766632329e-13,
        7.014504316366825e-08, -4.040787734999483e-08, 1.1474026743371964e-08, 3.964274685356394e-18,
        -1.7804938269892715e-09, 9.748026254873165e-10, -2.6405338676507616e-10, 5.79487516340376e-18,
        3.764774955354384e-11,
    ),
    (
        0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276, 0.00213896861856891,
        -0.0010108559391263003, -3.99127055299192e-07, 0.0003623502508476469, -0.00028143901463712157,
        0.00010449513336495887, 2.12114184918303e-09, -2.5779417251947842e-05, 1.7281818956040464e-05,
        -5.641377387290428e-06, -1.1024320105776174e-11, 1.1223224418895174e-06, -6.869339637952674e-07,
        2.0653236975414888e-07, 4.6714772409838506e-14, -3.5609886164949055e-08, 2.0470855345905963e-08,
        -5.809173863328336e-09, -1.3328212875828647e-16, 9.035460439133513e-10, -4.959878251733084e-10,
        1.3481607129399748e-10,
    ),
    (
        -0.004072512119514016, 0.00640336283380807, -0.004041016108167662, -2.1837328028662328e-06,
        0.002174044180125464, -0.001970044051841889, 0.0008359546974796246, 1.9445447567109655e-08,
        -0.000257793871204217, 0.00019009987368139304, -6.769649993743896e-05, -1.4440629666426571e-10,
        1.5712512518742267e-05, -1.0304008744776894e-05, 3.304517767401387e-06, 7.982976024232571e-13,
        -6.4097794149313e-07, 3.8894624761300054e-07, -1.161834764494887e-07, -2.8168086305964423e-15,
        1.9878012911297094e-08, -1.1407719956357511e-08, 3.2355857064185554e-09, 4.1759462466484876e-20,
        -5.042311271810582e-10,
    ),
    (
        -0.0059475779383993, -0.0005401647678926045, 0.00879104135507679, -0.009857631558785612,
        0.005013469503102154, 1.2807521786221875e-06, -0.0020626019342754685, 0.0017109128573523059,
        -0.000676953127141338, -6.901154567656214e-09, 0.00018855128143995903, -0.0001339521566349197,
        4.626318303352804e-05, 4.003423061332135e-11, -1.0255652921494033e-05, 6.612086372797651e-06,
        -2.0913022027253007e-06, -2.095177564960382e-13, 3.975602904199325e-07, -2.395621197881589e-07,
        7.118288338214586e-08, 8.925574871713252e-16, -1.2101547235064677e-08, 6.935061824833439e-09,
        -1.966146445385609e-09,
    ),
)

# 1 / (2k + 3): the series of (atanh(t) - t) / t^3 in t^2, highest power first
_ATANH_TAIL = tuple(1.0 / (2 * k + 3) for k in range(10, -1, -1))
_LN2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)


@functools.lru_cache(maxsize=64)
def _temme_poly(a: float) -> tuple[tuple[float, ...], float]:
    """sum_k C_k(eta) a^-k as one polynomial in eta, highest power first,
    and 1 / sqrt(2 pi a). ``a`` is fixed over a call and over a solve."""
    coeffs = []
    for j in range(len(_TEMME_D[0]) - 1, -1, -1):
        c = 0.0
        for row in reversed(_TEMME_D):
            c = c / a + row[j]
        coeffs.append(c)
    return tuple(coeffs), 1.0 / math.sqrt(2.0 * math.pi * a)


# _half_eta_sq takes eta^2 / 2 = s - ln(1 + s), s = (x - a) / a, from the
# exact frexp and ldexp and + - * / alone, rather than from log1p, which
# numpy and math round differently and whose cancellation near s = 0 would
# leave eta with a relative error of ~eps / |s|. With 1 + s = 2^e (1 + r),
# |r| <= sqrt(2) - 1, and t = r / (2 + r): ln(1 + r) = 2 atanh(t) and
# r - 2t = r t, so
#   s - ln(1 + s) = (s - r - e ln 2) + t (r - 2 t^2 sum_k t^2k / (2k + 3)),
# where s - r is 0 for e = 0 and the sum has converged by k = 10.


def _half_eta_sq(s, ns):
    m, e = ns.frexp(1.0 + s)
    e -= m < _SQRT_HALF
    scale = ns.ldexp(1.0, -e)
    r = s * scale
    r += scale - 1.0
    t = r / (2.0 + r)
    u = t * t
    p = _horner(_ATANH_TAIL, u)
    return (s - r - e * _LN2) + t * (r - 2.0 * u * p)


def _temme(a: float, x, ns):
    """Q(a, x) on Temme's route, on a float with ``ns`` the ``math``
    namespace or on an array with numpy's. The expansion's two cases are
    one formula: with sign = 1 from x = a up and -1 below, Q = sign e
    (erfcx(z) / 2 + sign P) + (1 - sign) / 2, whose products with sign
    and sum with 0 are exact, so each case keeps its bits."""
    s = (x - a) / a
    h = _half_eta_sq(s, ns)
    ah = a * h
    q = ns.erfcx(ns.sqrt(ah))
    q *= 0.5
    h += h
    coeffs, norm = _temme_poly(a)
    poly = _horner(coeffs, ns.copysign(ns.sqrt(h), s))
    sign = ns.copysign(1.0, s)
    poly *= sign * norm
    q += poly
    q *= ns.exp(-ah)
    q *= sign
    q += 0.5 - 0.5 * sign
    return q


# erfcx(z) = exp(z^2) erfc(z) for z >= 0, from + - * / alone, so that the
# twins give the same bits. Below z = 14: on the pieces j/8 <= y <= (j + 1)/8
# of y = 2 / (2 + z), j = 1..7, the Chebyshev interpolant of degree 10 in
# t = 16 y - (2j + 1), frozen as monomial coefficients, highest power first
# (``tests/oracles.py`` rebuilds them with mpmath, and the tests hold the
# twins to 1e-15 relative on [0, 400]; 4.3e-16 seen). From z = 14 the
# continued fraction sqrt(pi) erfcx(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))
# (Abramowitz & Stegun 7.1.14), cut after 8 levels: 1.3e-18 at z = 14.
_ERFCX_CF_FROM = 14.0
_ERFCX_CF_STEPS = tuple(k / 2.0 for k in range(8, 0, -1))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

_ERFCX_TABLE = (
    (
        -5.647046092245889e-15, 1.5057359357280754e-12, 1.0534123728934357e-11, -3.3096895469977867e-10,
        -6.9480926963245745e-09, 1.9377389555808373e-08, 3.5895244725507026e-06, 9.883396784282949e-05,
        0.0018094887189594666, 0.02619081655939079, 0.06467382691951061,
    ),
    (
        -1.0494060697328556e-13, 1.1839457238258224e-13, 2.849928038411864e-11, 1.6505216800130337e-11,
        -9.496980804239045e-09, -8.42583366581787e-08, 3.2913142148941634e-06, 0.00012705490580125196,
        0.0024883269814450553, 0.03472972590059183, 0.1251416555381449,
    ),
    (
        -2.1648047282154543e-14, -1.3238589472523398e-12, 1.481739046082781e-11, 3.9882978488305375e-10,
        -6.323762817078913e-09, -1.8463679200642205e-07, 1.914565815471166e-06, 0.00014855494585520868,
        0.0033206895352513545, 0.04630448698373452, 0.20562022082810233,
    ),
    (
        4.708201133620572e-14, -9.08814877414234e-13, -7.513401517233955e-12, 4.462155635198464e-10,
        1.6351184467207913e-11, -2.2311257101055652e-07, -1.884382738972201e-07, 0.00015571678436022455,
        0.004241968442853227, 0.061415376192271026, 0.3127247666064085,
    ),
    (
        3.408476146929969e-14, -1.6625544432836848e-14, -1.5382545919181413e-11, 2.4110044351393574e-10,
        4.972697521449537e-09, -1.9024465776400603e-07, -2.305076641603616e-06, 0.0001455196582294354,
        0.005154184304585219, 0.08022816584602475, 0.45375902824462727,
    ),
    (
        5.8945775431104865e-15, 3.6628426298782933e-13, -1.1313792867365598e-11, 1.8455140812867612e-11,
        6.710343372606734e-09, -1.1700409519853844e-07, -3.858535662726276e-06, 0.00012037273442070537,
        0.005958089035037751, 0.10250320408481206, 0.6359536305661487,
    ),
    (
        -6.687583772669283e-15, 3.3134926307948695e-13, -4.632780356529532e-12, -1.0809862291794938e-10,
        5.956719263511637e-09, -3.923300883004735e-08, -4.631931557125916e-06, 8.589003513097611e-05,
        0.006579964608477273, 0.12764848550638602, 0.8656903251702591,
    ),
)


@functools.lru_cache(maxsize=None)
def _erfcx_columns():  # the table as one row per power, to gather a coefficient per lane
    import numpy as np
    return np.array(_ERFCX_TABLE).T.copy()


def _erfcx_scalar(z: float) -> float:
    if z >= _ERFCX_CF_FROM:
        d = z
        for k in _ERFCX_CF_STEPS:
            d = z + k / d
        return _INV_SQRT_PI / d
    u = 16.0 / (2.0 + z)  # 8 y
    j = min(int(u), 7)
    t = (u + u) - (2 * j + 1)
    row = _ERFCX_TABLE[j - 1]
    p = row[0]
    for c in row[1:]:
        p = p * t + c
    return p


def _erfcx_array(z: np.ndarray) -> np.ndarray:
    # the scalar twin's operations in its order, on every lane
    import numpy as np
    u = 16.0 / (2.0 + z)
    j = u.astype(np.intp)
    np.minimum(j, 7, out=j)
    t = u + u
    t -= 2 * j + 1
    # lanes from z = 14 on have j = 0, so index -1: "clip" gives them the
    # first piece, and the continued fraction replaces their values below
    j -= 1
    p = np.empty_like(t)
    for start in range(0, t.size, _LANE_BLOCK):  # the rows gathered take 88 bytes a lane
        pb, tb = p[start : start + _LANE_BLOCK], t[start : start + _LANE_BLOCK]
        rows = np.take(_erfcx_columns(), j[start : start + _LANE_BLOCK], axis=1, mode="clip")
        pb[...] = rows[0]
        for row in rows[1:]:
            pb *= tb
            pb += row
    far = z >= _ERFCX_CF_FROM
    if far.any():
        zf = z[far]
        d = zf.copy()
        for k in _ERFCX_CF_STEPS:
            np.divide(k, d, out=d)
            d += zf
        p[far] = _INV_SQRT_PI / d
    return p


# The namespaces of the one-body routes: the math module's for floats,
# and numpy's for arrays, built on first use, so a float never imports it.
_MATH = types.SimpleNamespace(
    exp=math.exp, log=math.log, sqrt=math.sqrt, frexp=math.frexp, ldexp=math.ldexp,
    copysign=math.copysign, min=min, erfcx=_erfcx_scalar, where=lambda c, a, b: a if c else b,
)


@functools.lru_cache(maxsize=None)
def _numpy() -> types.SimpleNamespace:
    import numpy as np
    return types.SimpleNamespace(
        exp=np.exp, log=np.log, sqrt=np.sqrt, frexp=np.frexp, ldexp=np.ldexp,
        copysign=np.copysign, min=np.minimum, erfcx=_erfcx_array, where=np.where,
    )
