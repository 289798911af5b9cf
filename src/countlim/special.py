"""Numerically stable Poisson probabilities and regularized incomplete gamma.

All three public functions accept a scalar or a 1-d numpy array for the
continuous argument; scalars take a fast ``math``-module path while arrays
are evaluated vectorised so the marginalisation code can process thousands
of nuisance samples per call.

The scalar twins are not duplication: exact limits solve on them, and
narrow arrays run them lane by lane. An array walk pays a few numpy calls
per step whatever its width, where a scalar walk pays ~0.1 us per step
and lane. On a 2-vCPU host (Python 3.11, numpy 2.4), at the counts of the
small-count Gauss-Hermite toys (n from 0 to 26, best of 5), an array call
cost ~100 us (``poisson_cdf``) and ~140 us (``gamma_q``) from 8 to 256
lanes, and the scalar twins 2.2 and 3.4 us per lane: they won at 32
lanes and lost at 48. Arrays of at most ``_NARROW_LANES`` = 40 lanes take
the scalar twins, bit for bit.

Wider arrays run the scalar twins' floating-point operations in the same
order on each lane, in place, but test convergence only every 8th step
(every 2nd in the continued fraction) and stop with their slowest lane,
so a converged lane may take a few more terms. ``poisson_cdf``'s extra
terms are below half an ulp and change nothing; the ``gamma_q`` series
and fraction stop at 1e-15, so theirs can move the last bits, and
numpy's vectorised ``log`` and ``exp`` can round differently from the
``math`` module's. The tests hold the twins to 16 ulp (8 seen), plus a
``log`` difference carried through the prefactor x^n.

``poisson_cdf`` sums the Poisson terms outwards from the largest term
of one tail, relative to that term: down from k = n when the mean is at
least n, and up from k = n + 1, for the complement, when it is below.
Each lane takes one ``log``, one ``exp`` and O(sqrt(mean)) multiply-adds.
It matches mpmath to a relative 1e-14 * (n + mean + 1) on a frozen grid
out to n = 1e4.

``gamma_q`` runs Temme's uniform asymptotic expansion for ``a > 20`` and
``0.1 a <= x <= 2 a``: one polynomial in eta, one ``exp`` and one
erfcx(z) = exp(z^2) erfc(z) per lane, with both coefficient tables
frozen below. Every other lane takes the lower series (``x < a + 1``)
or the continued fraction; for ``a > 20`` these converge in few steps
outside the expansion's region. In that region the twins compute eta
and erfcx from the same arithmetic, so they differ by at most 2 ulp
(where ``exp`` rounds differently). It matches mpmath to a relative
1e-14 * (a + x + 1) on a frozen grid out to a = 1e5 + 1.

``poisson_cdf`` is deliberately *not* implemented through ``gamma_q``:
the two are independent routes to the same quantity, and their agreement
(``poisson_cdf(n, x) == gamma_q(n + 1, x)``) is used as a cross-check
throughout the test suite.
"""

from __future__ import annotations

import functools
import itertools
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
    and probability zero (``-inf``) otherwise; ``nu == inf`` gives the
    limit ``-inf``.
    """
    n = _check_count(n)
    if isinstance(nu, np.ndarray):
        if nu.size and not float(np.min(nu)) >= 0.0:
            raise ValueError("nu must be nonnegative")
        # ln 1 = 0 where nu is 0 or inf, so n ln nu - nu is 0 or -inf there
        safe = np.where((nu > 0.0) & (nu < np.inf), nu, 1.0)
        out = n * np.log(safe) - nu - math.lgamma(n + 1)
        if n > 0:
            out = np.where(nu > 0.0, out, -np.inf)
        return out
    nu = float(nu)
    if not nu >= 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if nu == 0.0:
        return 0.0 if n == 0 else -math.inf
    if nu == math.inf:
        return -math.inf
    return n * math.log(nu) - nu - math.lgamma(n + 1)


def poisson_cdf(n, nu):
    """P(N <= n) for N ~ Poisson(nu), summed outwards from a tail's largest term.

    For ``nu >= n`` the terms k = 0..n grow up to k = n, so the sum starts
    at the pmf term of n and walks down with factor k * (1/nu). For
    ``nu < n`` the result is 1 minus the upper tail k > n, whose terms fall
    from k = n + 1 with factor nu/k; summing that tail keeps values near 1
    monotone in ``nu``. Terms are kept relative to the starting term, so a
    lane takes one ``log`` and one ``exp`` in all, and its walk stops at a
    term at most 1e-17 of its sum, after O(sqrt(nu)) steps rather than n.
    ``nu == inf`` gives the limit 0. Checked against mpmath to a relative
    1e-14 * (n + nu + 1) for n <= 1e4. Independent of :func:`gamma_q` by
    design.
    """
    n = _check_count(n)
    if isinstance(nu, np.ndarray):
        return _on_lanes(_poisson_cdf_scalar, _poisson_cdf_array, n, nu, "nu")
    nu = float(nu)
    if not nu >= 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    return _poisson_cdf_scalar(n, nu)


# Arrays of at most this many lanes run the scalar twin lane by lane: the
# measured crossover, between 32 and 48 (see the module docstring).
_NARROW_LANES = 40


def _on_lanes(scalar, array, first, x, name: str) -> np.ndarray:
    """``scalar(first, lane)`` on each lane of a narrow array, else
    ``array(first, x)``, once ``x`` is checked to be nonnegative: a NaN
    lane is refused too (``np.min`` returns it; ``min`` may step over it,
    but ``sum`` does not)."""
    x = np.asarray(x, dtype=float)
    if x.size > _NARROW_LANES:
        if not float(np.min(x)) >= 0.0:
            raise ValueError(f"{name} must be nonnegative")
        return array(first, x)
    lanes = x.ravel().tolist()
    if lanes and not (min(lanes) >= 0.0 and sum(lanes) >= 0.0):
        raise ValueError(f"{name} must be nonnegative")
    out = np.fromiter(map(scalar, itertools.repeat(first, len(lanes)), lanes), float, len(lanes))
    return out.reshape(x.shape)


# A term at most this fraction of its lane's sum is below half an ulp of
# the sum, so adding it changes nothing: the array walks, which run until
# their slowest lane stops, then give the scalar walks' bits.
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
        return math.exp(n * math.log(nu) - nu - math.lgamma(n + 1)) * total
    k = n + 1
    while t > _TAIL_EPS * total:
        k += 1
        t *= nu / k
        total += t
    return 1.0 - math.exp((n + 1) * math.log(nu) - nu - math.lgamma(n + 2)) * total


def _poisson_cdf_array(n: int, nu: np.ndarray) -> np.ndarray:
    finite = nu < np.inf
    out = finite.astype(float)  # 1 at nu = 0, the limit 0 at nu = inf
    positive = nu > 0.0
    lower = positive & finite & (nu >= n)
    upper = positive & (nu < n)
    if lower.any():
        out[lower] = _lower_tail_array(n, nu[lower])
    if upper.any():
        out[upper] = 1.0 - _upper_tail_array(n, nu[upper])
    return out


# The array walks below run in place, on buffers allocated once per call,
# with the scalar twins' arithmetic in their order. Testing convergence
# costs about a step, so they test every 8th step, and every lane walks
# on until the slowest has converged.


def _lower_tail_array(n: int, x: np.ndarray) -> np.ndarray:
    # P(N <= n) for x >= n: terms k = n down to 0, each k * (1/x) times the
    # one before
    inv = 1.0 / x
    step = np.empty_like(x)
    t = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(n, 0, -1):
        np.multiply(inv, k, out=step)
        t *= step
        total += t
        if k % 8 == 0 and _all_small(t, total, _TAIL_EPS, step):
            break
    return np.exp(n * np.log(x) - x - math.lgamma(n + 1)) * total


def _upper_tail_array(n: int, x: np.ndarray) -> np.ndarray:
    # P(N > n) for x < n: terms k = n + 1 upwards, each x/k times the one before
    step = np.empty_like(x)
    t = np.ones_like(x)
    total = np.ones_like(x)
    k = n + 1
    while True:
        k += 1
        np.divide(x, k, out=step)
        t *= step
        total += t
        if k % 8 == 0 and _all_small(t, total, _TAIL_EPS, step):
            break
    return np.exp((n + 1) * np.log(x) - x - math.lgamma(n + 2)) * total


def _all_small(term: np.ndarray, total: np.ndarray, eps: float, buf: np.ndarray) -> bool:
    # every lane's term at most eps of its sum; overwrites buf
    np.multiply(total, eps, out=buf)
    return bool((term <= buf).all())


def gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a; x) / Gamma(a).

    Three routes, chosen per lane. For ``a > 20`` and ``0.1 a <= x <= 2 a``
    Temme's uniform asymptotic expansion takes one polynomial, one ``exp``
    and one erfcx per lane, however close ``x`` is to ``a``. Elsewhere
    the lower-function series runs for ``x < a + 1`` and the Lentz
    continued fraction for the upper function otherwise, iterating until
    the relative term drops below 1e-15. Checked against mpmath to a
    relative 1e-14 * (a + x + 1) on a frozen grid out to a = 1e5 + 1.
    ``a`` must be positive; ``x`` nonnegative, scalar or array, where
    ``x == inf`` gives the limit 0.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if isinstance(x, np.ndarray):
        return _on_lanes(_gamma_q_scalar, _gamma_q_array, a, x, "x")
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return _gamma_q_scalar(a, x)


def _gamma_q_scalar(a: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    if a > _TEMME_MIN_A and _TEMME_LO * a <= x <= _TEMME_HI * a:
        return _temme_scalar(a, x)
    if x < a + 1.0:
        return max(0.0, 1.0 - _lower_series_scalar(a, x))
    if x == math.inf:
        return 0.0
    return _upper_cf_scalar(a, x)


def _lower_series_scalar(a: float, x: float) -> float:
    pref = math.exp(a * math.log(x) - x - math.lgamma(a))
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
    pref = math.exp(a * math.log(x) - x - math.lgamma(a))
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
    out = np.zeros(x.shape, dtype=float)  # the limit at x = inf
    out[x == 0.0] = 1.0
    rest = (x > 0.0) & (x < np.inf)
    if a > _TEMME_MIN_A:
        temme = (x >= _TEMME_LO * a) & (x <= _TEMME_HI * a)
        if temme.any():
            out[temme] = _temme_array(a, x[temme])
            rest &= ~temme
    lower = rest & (x < a + 1.0)
    upper = rest & ~lower
    if lower.any():
        out[lower] = np.maximum(0.0, 1.0 - _lower_series_array(a, x[lower]))
    if upper.any():
        out[upper] = _upper_cf_array(a, x[upper])
    return out


def _lower_series_array(a: float, x: np.ndarray) -> np.ndarray:
    pref = np.exp(a * np.log(x) - x - math.lgamma(a))
    r = a
    step = np.empty_like(x)
    c = np.ones_like(x)
    total = np.ones_like(x)
    # Converged lanes keep iterating until the slowest lane is done; their
    # terms only shrink, but at up to 1e-15 of the sum each, unlike
    # poisson_cdf's, they can still move the last few bits.
    for i in range(1, _MAX_ITER + 1):
        r += 1.0
        np.divide(x, r, out=step)
        c *= step
        total += c
        if (i % 8 == 0 or i == _MAX_ITER) and _all_small(c, total, _REL_EPS, step):
            return pref * total / a
    raise ConvergenceError(
        f"lower incomplete gamma series did not converge for a={a} (array input)",
        iterations=_MAX_ITER,
    )


# The continued fraction's slowest lane converges in a median of 4 steps
# (18 at most) on the small-count Gauss-Hermite grids, so it tests every
# 2nd step: every 8th, as the walks do, ran those calls ~30% slower.
_CF_TEST_EVERY = 2


def _upper_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    pref = np.exp(a * np.log(x) - x - math.lgamma(a))
    b = x + 1.0 - a
    # Lentz's d and c as the rows of one array: both add b in one call,
    # and one reduction tests both against the guard
    dc = np.empty((2, x.size))
    d, c = dc
    d[:] = 1.0 / np.where(np.abs(b) < _TINY, _TINY, b)
    c.fill(1.0 / _TINY)
    h = d.copy()
    delta = np.empty_like(x)
    buf = np.empty_like(dc)
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d *= an
        np.divide(an, c, out=c)
        dc += b
        if float(np.abs(dc, out=buf).min()) < _TINY:
            dc[buf < _TINY] = _TINY
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delta)
        h *= delta
        if i % _CF_TEST_EVERY == 0 or i == _MAX_ITER:
            delta -= 1.0
            if float(np.abs(delta, out=delta).max()) <= _REL_EPS:
                return np.minimum(1.0, pref * h)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge for a={a} (array input)",
        iterations=_MAX_ITER,
    )


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
# 2 sqrt(pi) of the eta series, and row 24's entries (at most 2.4e3) are
# scaled by a^-24 < 2e-32. Above x = 2 a the truncated eta series fails
# fast (relative error 2e-12 at x = 3 a and 4e-9 at 4 a, for a = 21 and
# 151; the frozen grid holds such points), while the continued fraction
# there takes at most 13 steps; below x = 0.1 a the series takes at most
# 15. For a <= 20 (cephes' threshold too) neither takes more than ~75.
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
    (
        0.01740202778752271, -0.02952788094569912, 0.020045875571402798, 7.0289515966903405e-06,
        -0.012375421071343148, 0.011976293444235255, -0.0054156038466518525, -6.329089339641862e-08,
        0.0018855118129005065, -0.001473473274825001, 0.0005551581009770838, 5.240683441255066e-10,
        -0.00014357913535784835, 9.91812932249433e-05, -3.346083474947831e-05, -3.5755837291098967e-12,
        7.1560851960630075e-06, -4.551680262815553e-06, 1.4236576649271474e-06, 1.8803149079275236e-14,
        -2.662340389892921e-07, 1.5950642189595716e-07, -4.718751467384107e-08, -6.510781264821694e-17,
        7.979509102674677e-09,
    ),
    (
        0.03024912416090589, 0.0024817436002649977, -0.049939134373457025, 0.05991564300930787,
        -0.03248320760162339, -5.721296865210344e-06, 0.015085251778569354, -0.013261324005088445,
        0.0055515262632426145, 3.026318225703001e-08, -0.0017229548406756724, 0.0012893570099929638,
        -0.00046845138348319875, -1.8302599378930445e-10, 0.00011449739014822654, -7.737856522124447e-05,
        2.5625836246985202e-05, 1.0766165332658074e-12, -5.324680928242262e-06, 3.3496348630644643e-06,
        -1.038125312868401e-06, -5.608908533478749e-15, 1.9150821930676722e-07, -1.1418365800203775e-07,
        3.365442520915233e-08,
    ),
    (
        -0.09905102088015905, 0.17954011706123485, -0.12989606383463778, -3.1478872752284355e-05,
        0.09051063527684813, -0.0928288244111844, 0.04441211283987781, 2.7779236316835886e-07,
        -0.017229543805449696, 0.014182925050891573, -0.005621416163374734, -2.3959850918638095e-09,
        0.0016029634366079909, -0.0011606784674435774, 0.00041001337768153875, 1.8365800753181603e-11,
        -9.58442565636559e-05, 6.364306233776471e-05, -2.0762506244890635e-05, -1.1806017999805486e-13,
        4.213180823912094e-06, -2.6262241337013133e-06, 8.077062049488396e-07, 5.996409690563338e-16,
        -1.47297373744462e-07,
    ),
    (
        -0.19994542198219728, -0.015056113040026424, 0.3647023946934849, -0.4643519231173355,
        0.26640934719197895, 3.403826602714719e-05, -0.13784338709329624, 0.1276467178337056,
        -0.056213828755200985, -1.7531508854830108e-07, 0.019235592956768112, -0.015088821281095316,
        0.005740185445135012, 1.0622382710173866e-09, -0.0015335082692563998, 0.0010819320643228215,
        -0.0003737251019394563, -6.617090419433389e-12, 8.42636173809102e-05, -5.5150706827484874e-05,
        1.7769536448337793e-05, 3.879070571006568e-14, -3.5351369749902462e-06, 2.1865832127706725e-06,
        -6.681284949240542e-07,
    ),
    (
        0.7243860850402943, -1.3918010932653375, 1.0654143352413967, 0.0001876173868950258,
        -0.827055011761527, 0.8935243334782841, -0.44971003995291337, -1.6107401567546651e-06,
        0.1923559016527109, -0.1659770216004261, 0.06888222268181433, 1.391009172443142e-08,
        -0.021469115615086628, 0.016228980898865892, -0.005979601617258422, -1.1287468171928069e-10,
        0.001516745111978496, -0.0010478634293554165, 0.00035539072889105875, 8.162616536150783e-13,
        -7.777301344470886e-05, 5.029141389162907e-05, -1.6035083877747675e-05, -5.0260094840152135e-15,
        3.1369106037108428e-06,
    ),
    (
        1.6668949727276812, 0.1165462765994632, -3.3288393225018904, 4.469232548286404,
        -2.6977693045875806, -0.0002600667859891061, 1.5389017615694538, -1.4937962361134611,
        0.6888196463323315, 1.3077482004532885e-06, -0.2576296332559629, 0.2109767610212545,
        -0.08371440835921982, -7.792042747000674e-09, 0.024267923064833764, -0.017813678334552763,
        0.006397033038886307, 4.9415957307924725e-11, -0.0015554602758916928, 0.0010561196918773697,
        -0.00035277184484116647, -3.0939103274354235e-13, 7.528585452877513e-05, -4.8186515801973e-05,
        1.5227272261135095e-05,
    ),
    (
        -6.618829886137293, 13.397985455142589, -10.789350606845145, -0.0014352254537875018,
        9.23336945961898, -10.456552819547769, 5.510552602903347, 1.2024439690699193e-05,
        -2.5762961164755818, 2.320744274538718, -1.0045728797216278, -1.0207833106546672e-07,
        0.33975092171169696, -0.26720517450758147, 0.10235252851556788, 8.430448585452676e-10,
        -0.02799828495925492, 0.020066274142830732, -0.007055436896237373, -6.510036896790042e-12,
        0.0016562887995937561, -0.0011082898634291512, 0.0003654545342639166, 4.504194082820455e-14,
        -7.634011300557932e-05,
    ),
    (
        -17.112706061976095, -1.1208044642899115, 37.131966511885445, -52.29827102534896,
        33.058589696624615, 0.0024791298976198995, -20.610894034115258, 20.886727751455822,
        -10.045703956517746, -1.2238783428880736e-05, 4.077013427422142, -3.473667358470283,
        1.4329352617303721, 7.135612771732799e-08, -0.4479725716041533, 0.34112666076996123,
        -0.12699786335106672, -4.5009172627885263e-10, 0.033125776059235765, -0.023274087133486544,
        0.008039999749288682, 2.9014850241350154e-12, -0.0018321627125162138, 0.001210814074308124,
        -0.00039487195597625305,
    ),
    (
        73.89033153567425, -156.80141270402274, 132.2177542759164, 0.013692876877323932,
        -123.66496885920151, 146.2068939106273, -80.36558772486529, -0.00011259851130717249,
        40.770132196180214, -38.210340013274, 17.195222942763678, 9.351478525225111e-07,
        -6.271615990956665, 5.116899906638013, -2.0319658125917894, -7.68015576927279e-09,
        0.5962639690008922, -0.44220765550893937, 0.1607999949801386, 6.105452322399745e-11,
        -0.04030757967497879, 0.02784872370893079, -0.00947692694339809, -4.5311013227974904e-13,
        0.002105335093633221,
    ),
    (
        212.1683709838252, 13.107863022633866, -496.9828593287175, 731.2159526696921,
        -482.13821720890815, -0.028817248691623405, 326.1672030294732, -343.89340280087987,
        171.9519387080629, 0.00014038023228364068, -75.25941959194343, 66.51969983809508,
        -28.44751976721878, -8.023117747524886e-07, 9.540223647451496, -7.51753014765263,
        2.894399900499762, 4.980023807118572e-09, -0.8061515942879215, 0.5848231979048016,
        -0.20849239270188827, -3.225438491326595e-11, 0.05052804225167161, -0.03441205280628807,
        0.011560069800937042,
    ),
    (
        -989.5964309832236, 2192.555536090523, -1928.3586782723344, -0.1592573812157951,
        1956.9985945919989, -2407.2514765082165, 1375.6149959328543, 0.0012920686502737788,
        -752.5941716166408, 731.7166873438302, -341.37023489099647, -1.0517978697205148e-05,
        133.56313092981054, -112.76295215735033, 46.31039839600551, 8.49948412810344e-08,
        -14.510728696418298, 11.111640759871898, -4.169847853971864, -6.787845238126073e-10,
        1.1116169295323557, -0.7914772145428005, 0.277441675222115, 5.226168222780974e-12,
        -0.06531439992499116,
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


# Both twins take eta^2 / 2 = s - ln(1 + s), s = (x - a) / a, from the same
# arithmetic rather than from log1p, which numpy and math round differently
# and whose cancellation near s = 0 would leave eta with a relative error
# of ~eps / |s|. With 1 + s = 2^e (1 + r), |r| <= sqrt(2) - 1, and
# t = r / (2 + r): ln(1 + r) = 2 atanh(t) and r - 2t = r t, so
#   s - ln(1 + s) = (s - r - e ln 2) + t (r - 2 t^2 sum_k t^2k / (2k + 3)),
# where s - r is 0 for e = 0 and the sum has converged by k = 10.


def _half_eta_sq_scalar(s: float) -> float:
    m, e = math.frexp(1.0 + s)
    if m < _SQRT_HALF:
        e -= 1
    scale = math.ldexp(1.0, -e)
    r = s * scale + (scale - 1.0)
    t = r / (2.0 + r)
    u = t * t
    p = _ATANH_TAIL[0]
    for c in _ATANH_TAIL[1:]:
        p = p * u + c
    return (s - r - e * _LN2) + t * (r - 2.0 * u * p)


def _half_eta_sq_array(s: np.ndarray) -> np.ndarray:
    m, e = np.frexp(1.0 + s)
    e = e - (m < _SQRT_HALF)
    scale = np.ldexp(1.0, -e)
    r = s * scale + (scale - 1.0)
    t = r / (2.0 + r)
    u = t * t
    p = np.full_like(s, _ATANH_TAIL[0])
    for c in _ATANH_TAIL[1:]:
        p *= u
        p += c
    return (s - r - e * _LN2) + t * (r - 2.0 * u * p)


def _temme_scalar(a: float, x: float) -> float:
    s = (x - a) / a
    h = _half_eta_sq_scalar(s)
    ah = a * h
    eta = math.copysign(math.sqrt(h + h), s)
    coeffs, norm = _temme_poly(a)
    poly = coeffs[0]
    for c in coeffs[1:]:
        poly = poly * eta + c
    term = norm * poly
    if s < 0.0:
        term = -term
    q = (0.5 * _erfcx_scalar(math.sqrt(ah)) + term) * math.exp(-ah)
    return 1.0 - q if s < 0.0 else q


def _temme_array(a: float, x: np.ndarray) -> np.ndarray:
    # the scalar twin's operations in its order, in place where a buffer
    # is free, so that this route adds few arrays to a solve's peak
    s = (x - a) / a
    h = _half_eta_sq_array(s)
    ah = a * h
    q = _erfcx_array(np.sqrt(ah))
    q *= 0.5
    eta = h  # h is not needed again
    eta += h
    np.sqrt(eta, out=eta)
    np.copysign(eta, s, out=eta)
    coeffs, norm = _temme_poly(a)
    poly = np.full_like(s, coeffs[0])
    for c in coeffs[1:]:
        poly *= eta
        poly += c
    below = s < 0.0
    poly *= norm
    np.negative(poly, out=poly, where=below)
    q += poly
    np.negative(ah, out=ah)
    q *= np.exp(ah, out=ah)
    np.subtract(1.0, q, out=q, where=below)
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
# the same table as one row per power, for gathering a coefficient per lane
_ERFCX_COLUMNS = np.array(_ERFCX_TABLE).T.copy()


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
    u = 16.0 / (2.0 + z)
    j = u.astype(np.intp)
    np.minimum(j, 7, out=j)
    t = u + u
    t -= 2 * j + 1
    # lanes from z = 14 on have j = 0, so index -1: "clip" gives them the
    # first piece, and the continued fraction replaces their values below
    j -= 1
    column = np.empty_like(t)
    p = np.take(_ERFCX_COLUMNS[0], j, mode="clip")
    for c in _ERFCX_COLUMNS[1:]:
        p *= t
        p += np.take(c, j, mode="clip", out=column)
    far = z >= _ERFCX_CF_FROM
    if far.any():
        zf = z[far]
        d = zf.copy()
        for k in _ERFCX_CF_STEPS:
            np.divide(k, d, out=d)
            d += zf
        p[far] = _INV_SQRT_PI / d
    return p
