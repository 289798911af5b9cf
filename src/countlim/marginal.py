"""Limits with nuisance parameters integrated over their priors.

The hybrid CLs criterion averages fixed-nuisance Poisson tail sums over a
sample of the priors; the marginal Bayesian criterion averages the
closed-form credible tail (incomplete-gamma over signal yield) over the
same sample. One :class:`SampleSet` is drawn per solve and reused for
every trial strength, and the equivalence harness shares a single set
across both methods (common random numbers), which makes the agreement
of the two criteria exact in finite samples rather than asymptotic.

Both criteria, their pointwise values, the scan quantities and the exact
limits of :mod:`countlim.exact` are one weighted-mean ratio,
E_w[term(mu*s + b)] / E_w[term(b)], built in one place: ``_Criterion``.
The exact limits are its one-point case on the nominal yields, and so are
the exact pointwise quantities: :func:`hybrid_cls`, :func:`scan_quantity`
and :func:`marginal_posterior_density` on ``draw_samples(systematics,
None)`` of a model without nuisances give CLs, CLs+b, CLb and the
closed-form posterior density. The limits of a model without nuisances
draw no set, and run on its floats; numpy is imported where first needed.

Every marginal limit takes one path, ``_limit``, which refuses a zero
signal and draws the set. Whether a limit or a scan takes a Monte Carlo
error is read from the set alone, by one predicate: ``_takes_mc_error``.

Reductions over samples go through ``np.add.reduce``, ``np.sum``'s pairwise
sum without its dispatch, whose tree over a fixed (declaration) sample
order keeps results reproducible and independent of any parallelism.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Iterable

from .exceptions import ConfigError, ConvergenceError, ModelError, YieldError, _float, _require, _shown
from .model import CountingModel, SystematicsModel, _integer, _kind, _kind_dict, _Record, yields_on_samples
from .special import _gamma_q_pmf, _gamma_q_scalar, _poisson_cdf_pmf, _poisson_cdf_scalar, log_poisson_pmf
from .solver import LimitRequest, LimitResult, solve_decreasing

__all__ = [
    "Integrator",
    "SampleSet",
    "draw_samples",
    "marginal_likelihood",
    "hybrid_cls",
    "marginal_posterior_tail",
    "marginal_posterior_density",
    "hybrid_cls_upper_limit",
    "bayesian_marginal_upper_limit",
]

# Size budgets, checked before anything is allocated. A Gauss-Hermite grid
# or a scan grid of 2**20 points is 8 MiB per float64 column. A solve on a
# one-nuisance Monte Carlo set peaks at under ~200 bytes per sample, the
# numerator arrays the solve keeps at its bracket's ends included (ru_maxrss
# above the import, at 2**20 samples, one log-normal background nuisance:
# 119 and 119 bytes for the CLs and Bayes limits at n_obs = 3, b = 1.5, and
# 125 and 167 at n_obs = 160, b = 150). The wide series sums and erfcx's
# gather take their buffers per block of special._LANE_BLOCK lanes
# (unblocked, 299 and 239 at n_obs = 160). So the budget of 2**22 values
# (samples x nuisances) keeps a limit under ~1 GB.
_GH_MAX_POINTS = 2**20  # largest Gauss-Hermite tensor grid draw_samples builds
# Largest grid draw_samples keeps for the life of the process, in values:
# K x J nodes plus K weights, at most 512 KiB a grid. Node counts are in
# [2, 64], so the grids within it are finite in number, 8.4 MiB if every
# one were drawn; a larger grid is built on each call and not kept.
_GH_CACHED_VALUES = 2**16
_MC_MAX_VALUES = 2**22  # largest Monte Carlo set, samples x nuisances
_SCAN_MAX_POINTS = 2**20  # longest strength grid the scan command tabulates
_SCAN_QUANTITIES = ("cls", "clsb", "clb", "posterior")  # what scan_quantity tabulates
# How far from 1 a set's weights may sum: draw_samples' sets sum within
# 7.8e-16 of it (Monte Carlo sets of 1 to 2**22 samples, Gauss-Hermite
# grids up to 2**20 points), and hand-built weights of 1/K within a few ulp.
_WEIGHT_SUM_TOL = 1e-12


class Integrator(_Record):
    """Strategy for discretising the nuisance-prior integrals.

    ``monte_carlo`` draws from the priors with a counter-based Philox
    stream per nuisance, keyed by (seed, nuisance index); ``gauss_hermite``
    builds a tensor-product rule, is valid only when every prior is in
    the normal family, and is refused above ``2**20`` grid points. The
    Monte Carlo budget, ``2**22`` samples times nuisances, is checked by
    :func:`draw_samples`, where a set is built. Each count is an integer
    (numpy's kept as ``int``), at its default unless the kind takes it.
    """

    # each kind's fields, to_dict key -> field, as Response.KINDS
    KINDS = {"monte_carlo": {"n_samples": "n_samples", "seed": "seed"},
             "gauss_hermite": {"nodes_per_dim": "nodes_per_dim"}}

    def __init__(self, kind: str, n_samples: int = 10000, seed: int = 0, nodes_per_dim: int = 16):
        self._fill(kind, n_samples, seed, nodes_per_dim)
        _kind(self, _integer)
        _require(self, "n_samples", self.n_samples >= 1, "be at least 1")
        _require(self, "seed", 0 <= self.seed < 2**64, "be an unsigned 64-bit integer")
        _require(self, "nodes_per_dim", 2 <= self.nodes_per_dim <= 64, "be in [2, 64]")

    @classmethod
    def monte_carlo(cls, n_samples: int, seed: int) -> "Integrator":
        return cls("monte_carlo", n_samples=n_samples, seed=seed)

    @classmethod
    def gauss_hermite(cls, nodes_per_dim: int) -> "Integrator":
        return cls("gauss_hermite", nodes_per_dim=nodes_per_dim)

    def to_dict(self) -> dict:
        return _kind_dict(self)


class SampleSet:
    """Weighted nuisance samples: a (K, J) matrix of finite nuisance vectors,
    one row per sample, and K nonnegative weights; ``len`` is K. The constraint
    densities are absorbed into the sampling measure, so weights sum to one,
    within ``_WEIGHT_SUM_TOL``, and no prior factor is ever multiplied in
    again. Any other set is refused with a :class:`ConfigError`.
    """

    monte_carlo = False  # True on a set draw_samples drew by Monte Carlo; read by _takes_mc_error alone

    def __init__(self, etas: np.ndarray, weights: np.ndarray):
        import numpy as np
        given = etas, weights
        try:
            etas = np.asarray(etas, dtype=float)
            weights = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):  # ragged, or holding what is no number: refused below, by shape
            # etas that converted are kept, so that weights that did not are refused as the weights
            etas, weights = etas if getattr(etas, "dtype", None) == float else np.empty(0), np.empty(0)
        if etas.ndim != 2 or not etas.shape[0] or not np.logical_and.reduce(np.isfinite(etas), axis=None):
            _require(self, "etas", False, "be a nonempty (K, J) matrix of finite numbers", given[0])
        if weights.shape != etas.shape[:1]:
            _require(self, "weights", False, f"be a vector of {len(etas)} weights, one per row of etas", given[1])
        if not (least := float(np.minimum.reduce(weights))) >= 0.0:
            _require(self, "weights", False, "be nonnegative", least)
        if not abs((total := float(np.add.reduce(weights))) - 1.0) <= _WEIGHT_SUM_TOL:
            _require(self, "weights", False, f"sum to 1 within {_WEIGHT_SUM_TOL}", total)
        self.etas = etas
        self.weights = weights

    def __len__(self) -> int:
        return self.etas.shape[0]


def draw_samples(systematics: SystematicsModel, integrator: Integrator | None) -> SampleSet:
    """Deterministic sample set for (systematics, integrator).

    With no nuisances the set collapses to a single empty point of weight
    one, whatever ``integrator`` is (None included); with nuisances an
    integrator is required. Gauss-Hermite with any non-normal prior is
    refused rather than run against the wrong measure, and so is a grid
    above ``2**20`` points or a Monte Carlo set above ``2**22`` values
    (samples x nuisances). A Gauss-Hermite grid, its rule solved by
    ``hermgauss``, of at most ``2**16`` values (K x J nodes and K weights,
    512 KiB) is built once per process and kept read-only, 8.4 MiB at most
    for all such grids; a larger one is built on each draw. The set's
    arrays are its own, so writing into them changes no later draw.
    """
    import numpy as np
    n_nuis = len(systematics.nuisances)
    if n_nuis == 0:
        return SampleSet(np.zeros((1, 0)), np.ones(1))
    if integrator is None:
        raise ConfigError(f"nuisance(s) {list(systematics.names)} need an integrator to be sampled")
    if integrator.kind == "monte_carlo":
        k = integrator.n_samples
        if k * n_nuis > _MC_MAX_VALUES:
            raise ConfigError(
                f"monte_carlo set of samples x nuisances = {_shown(k)} x {n_nuis} = {_shown(k * n_nuis)} values "
                f"exceeds the budget of {_MC_MAX_VALUES}; use fewer samples"
            )
        z = np.empty((k, n_nuis))
        for j in range(n_nuis):
            key = np.array([integrator.seed, j], dtype=np.uint64)
            z[:, j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(k)
        weights = np.full(k, 1.0 / k)
        weights /= np.add.reduce(weights)
    else:
        points = integrator.nodes_per_dim**n_nuis
        if points > _GH_MAX_POINTS:
            raise ConfigError(
                f"gauss_hermite grid of nodes^J = {integrator.nodes_per_dim}^{n_nuis} = {_shown(points)} "
                f"points exceeds the budget of {_GH_MAX_POINTS}; use fewer nodes or monte_carlo"
            )
        if not systematics.all_normal_family:
            bad = [nu.name for nu in systematics.nuisances if not nu.prior.is_normal_family]
            raise ConfigError(
                f"gauss_hermite integration requires normal-family priors; "
                f"offending nuisance(s): {bad}"
            )
        grid = _kept_hermite_grid if points * (n_nuis + 1) <= _GH_CACHED_VALUES else _hermite_grid
        z, weights = grid(integrator.nodes_per_dim, n_nuis)
        weights = weights.copy()  # the set's own: the grid's is read-only, and a kept one shared
    z = systematics.correlate(z)
    etas = np.empty_like(z)
    with np.errstate(over="ignore"):  # an eta that overflows is refused below, by name
        for j, nu in enumerate(systematics.nuisances):
            etas[:, j] = nu.prior.from_standard_normal(z[:, j])
    try:
        samples = SampleSet(etas, weights)
    except ConfigError:  # the weights hold as drawn, so a prior wide enough to overflow an eta
        k, j = np.argwhere(~np.isfinite(etas))[0]
        raise YieldError(f"nuisance {systematics.names[j]!r} overflowed to {etas[k, j]} at sample {k}",
                         eta=etas[k].copy(), sample_index=int(k)) from None
    samples.monte_carlo = integrator.kind == "monte_carlo"
    return samples


def _hermite_grid(nodes_per_dim: int, n_nuis: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor-product Gauss-Hermite rule over ``n_nuis`` standard normals,
    read-only: the (K, J) nodes, last column fastest, and the K weights,
    normalised. ``hermgauss`` solves an eigenproblem (Golub & Welsch 1969)."""
    import numpy as np
    x, w = np.polynomial.hermite.hermgauss(nodes_per_dim)
    grids = np.meshgrid(*([math.sqrt(2.0) * x] * n_nuis), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(z.shape[0])
    for g in np.meshgrid(*([w / math.sqrt(math.pi)] * n_nuis), indexing="ij"):
        weights *= g.ravel()
    weights /= np.add.reduce(weights)
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


# the grids draw_samples keeps, each solved and built once per process: only those
# within _GH_CACHED_VALUES come here, so the cache pins at most 8.4 MiB (see there)
_kept_hermite_grid = functools.lru_cache(maxsize=None)(_hermite_grid)


def _strength(owner, name: str, mu, grid: bool = False, got=None) -> float:
    """``mu`` as a float, refused unless finite, nonnegative and real: ``owner``'s ``name``, or in ``got``, a grid."""
    value = _float(mu)
    if value is None or not 0.0 <= value < math.inf:
        rule = "a 1-d grid of finite and nonnegative reals" if grid else "a finite and nonnegative real number"
        _require(owner, name, False, f"be {rule}", got if grid else mu)
    return value


def marginal_likelihood(model: CountingModel, mu: float, n, samples: SampleSet) -> float:
    """Prior-weighted average of Poisson(n; mu*s(eta) + b(eta)), 0 on a
    sample whose mean overflows, as in ``_Criterion.pmf_terms``."""
    import numpy as np
    mu = _strength(marginal_likelihood, "mu", mu)
    s, b = yields_on_samples(model, samples.etas)
    with np.errstate(over="ignore"):  # a mean that overflows is inf, where the pmf is 0
        pmf = np.exp(log_poisson_pmf(n, mu * s + b))
    return float(np.add.reduce(samples.weights * pmf))


def _bayes_wide(n: int, s, x):
    q, pmf = _gamma_q_pmf(n + 1.0, x)
    return q / s, pmf


def _bayes_one_point(n: int, s: float, x: float):
    q, pmf = _gamma_q_scalar(n + 1.0, x)
    return q / s, pmf


# The two methods. ``wide``: a set's per-sample terms; ``one_point``: the nominal
# point's, as floats; each with pmf(n; x), which the kernel's route builds from its
# prefactor. CLs: P(N <= n; x); Bayes: Q(n + 1, x) / s, the integral of
# Poisson(n; m*s + b) over m >= (x - b) / s.
_CLS = types.SimpleNamespace(
    wide=lambda n, s, x: _poisson_cdf_pmf(n, x),
    one_point=lambda n, s, x: _poisson_cdf_scalar(n, x),
    denominator="CLb",
    zero_signal="nominal signal yield is zero; the CLs limit is undefined",
)
_BAYES = types.SimpleNamespace(
    wide=_bayes_wide,
    one_point=_bayes_one_point,
    denominator="Q(n_obs + 1, b)",
    zero_signal="nominal signal yield is zero; the posterior for mu is improper",
)


class _Criterion:
    """The weighted-mean ratio E_w[term(mu*s + b)] / E_w[term(b)].

    Hybrid CLs (``_CLS``) and the marginal posterior tail (``_BAYES``) are
    this one ratio over a shared sample set; the exact limits are its
    one-point case. ``s`` and ``b`` are the yields per sample with weights
    ``w``, or plain floats with ``w = None`` for the nominal point, where
    the weighted mean is the term itself and the kernel runs as its scalar
    twin, with no dispatch. The Bayesian criterion is refused with
    :class:`ModelError` where a sample's signal yield is 0, which leaves the
    strength unidentified (``_criterion`` refuses a zero nominal one). The
    denominator is computed once, here, and refused with
    :class:`ConvergenceError` when it underflows: every quantity built on
    the set is then below the float64 range too.

    Both terms have closed-form derivatives in mu, from the pmf at
    x = mu*s + b and its x-derivative pmf * (n/x - 1): the slope is
    -s * pmf for CLs and -pmf for Bayes, the curvature -s^2 * pmf *
    (n/x - 1) and -s * pmf * (n/x - 1). So calling the criterion gives
    its value, slope, curvature and numerator terms for the price of one
    kernel call: every route of either kernel returns the pmf beside its
    terms, built from the prefactor it computes anyway, with its limits
    at x = 0 and inf (see :mod:`countlim.special`). The criterion forms
    no pmf of its own: the posterior density (``pmf_terms``) is the exp
    of :func:`~countlim.special.log_poisson_pmf`.

    At mu = 0 the numerator is the denominator, and the criterion is
    exactly ``value_at_zero`` = 1: den / den, den a positive finite float,
    the same reduction on both sides of a sample set. So a solve that has
    a start records it there and jumps, calling nothing
    (:func:`~countlim.solver.solve_decreasing`).
    """

    value_at_zero = 1.0
    curved = True  # a set whose s^2 overflows is not (see __init__)

    def __init__(self, method, n: int, s, b, w):
        self.bayes = method is _BAYES
        if self.bayes and w is not None and not (s != 0.0).all():
            # a vanishing signal yield leaves the strength unidentified there
            k = int((s == 0.0).argmax())
            raise ModelError(f"signal yield is zero at sample {k}; the posterior for mu is degenerate")
        self.kernel = method.wide if w is not None else method.one_point
        self.n = n
        self.s = s
        self.b = b
        self.w = w
        self.den_terms, self.den_pmf = self.kernel(n, s, b)
        self.den = self.den_terms if w is None else self.mean(self.den_terms)
        if not (self.den > 0.0 and math.isfinite(self.den)):
            where = f"b = {b!r}" if w is None else f"b in [{float(b.min())!r}, {float(b.max())!r}]"
            raise ConvergenceError(
                f"{method.denominator} = {self.den!r} at n_obs = {n}, {where}: "
                f"the denominator is not a positive finite number, so the criterion is undefined"
            )
        # the factors of the slope and curvature terms, signs included, made
        # once per criterion rather than per call (see __call__). The
        # curvature's holds s^2 at n = 0 and for CLs, which overflows above a
        # signal yield of ~1.3e154, silently on floats. On a set where it
        # would, the set is not ``curved``: the factor is 0 and the
        # curvature inf, as its terms would make it, with none of numpy's
        # warnings (the overflow, inf times 0, inf minus inf). The solver
        # takes no Halley factor either way
        self.s_max, self.b_max = (s, b) if w is None else (float(s.max()), float(b.max()))  # see x_at
        pmf_scale = 1.0 if self.bayes else s
        if w is not None and (n == 0 or not self.bayes) and self.s_max * self.s_max == math.inf:
            self.curved = False
            self.d1_scale, self.d2_scale = -s if n == 0 else -pmf_scale, 0.0
        else:
            self.d1_scale, self.d2_scale = (-s, s * s) if n == 0 else (-pmf_scale, -(s * pmf_scale))
        # with every b > 0, x = mu*s + b > 0 at every mu >= 0: no lane needs
        # the derivative's limit at x = 0 (see __call__)
        self.x_positive = (b if w is None else float(b.min())) > 0.0

    def __call__(self, mu: float):
        """``(criterion, slope, curvature, numerator terms)`` at ``mu``: the
        solver's inner loop. At mu = 0 the numerator is the denominator, so no kernel runs."""
        n = self.n
        x = self.x_at(mu)
        terms, pmf = (self.den_terms, self.den_pmf) if mu == 0.0 else self.kernel(n, self.s, x)
        if n == 0:
            # pmf(0; x) = exp(-x) is the CLs term and s times the Bayes term:
            # the derivatives are -s and s^2 times the terms, and log c is
            # linear on a one-point set, with no second route to disagree
            d1, d2 = self.d1_scale * terms, self.d2_scale * terms
        else:
            # d pmf/dx from the kernel's pmf, n pmf/x - pmf, which cannot
            # overflow and is 0 at x = inf, where the pmf is. A lane whose b
            # is 0 may be at x = 0: it divides by x + 1 there and takes the
            # limit pmf(n - 1; 0) - pmf(n; 0) = [n = 1]
            if self.x_positive:
                dpmf = n * (pmf / x) - pmf
            else:
                zero = x == 0.0
                dpmf = n * (pmf / (x + zero)) - pmf
                if n == 1:
                    dpmf += zero
            d1 = self.d1_scale * pmf
            d2 = self.d2_scale * dpmf
        den = self.den
        if self.w is None:  # on the nominal point each weighted mean is its term
            value, slope, curvature = terms / den, d1 / den, d2 / den
        else:
            value, slope = self.mean(terms) / den, self.mean(d1) / den
            curvature = self.mean(d2) / den if self.curved else math.inf
        return value, slope, curvature, terms

    def x_at(self, mu: float):
        """x = mu*s + b. With s, b >= 0, mu*s_max + b_max bounds every lane:
        only where it overflows can one be inf, and only there is numpy's
        warning silenced, so a solve pays no ``np.errstate``."""
        top = mu * self.s_max + self.b_max
        if self.w is None:  # the nominal point's x is its top lane
            return top
        if top < math.inf:
            return mu * self.s + self.b
        import numpy as np
        with np.errstate(over="ignore"):
            return mu * self.s + self.b

    def mean(self, terms):
        if self.w is None:
            return terms
        import numpy as np
        return float(np.add.reduce(self.w * terms))

    def terms(self, mu: float):
        # at mu = 0 the numerator is the denominator, as in __call__
        return self.den_terms if mu == 0.0 else self.kernel(self.n, self.s, self.x_at(mu))[0]

    def pmf_terms(self, mu: float):
        """Per-sample Poisson(n_obs; mu*s + b), the exp of ``log_poisson_pmf``:
        over the Bayesian denominator, the posterior density of mu."""
        log_pmf = log_poisson_pmf(self.n, self.x_at(mu))
        if self.w is None:
            return math.exp(log_pmf)
        import numpy as np
        return np.exp(log_pmf)

    def ratio(self, num_terms) -> float:
        return self.mean(num_terms) / self.den

    def criterion(self, mu: float) -> float:
        return self.ratio(self.terms(mu))

    def mean_stderr(self, terms) -> float:
        """Standard error of the weighted mean (Monte Carlo, equal weights)."""
        return math.sqrt(float(terms.var(ddof=1)) / terms.size)

    def ratio_stderr(self, num_terms) -> float:
        """Delta-method standard error of the ratio (Monte Carlo, equal
        weights): (a/b) sqrt(var(u - v) / K) for the terms u and v scaled
        by their means a and b. Scaling keeps squares of tiny means from
        underflowing, and the variance of the difference does not cancel
        where the numerator tracks the denominator, as var(u) + var(v) -
        2 cov(u, v) does."""
        a, b = self.mean(num_terms), self.den
        if a == 0.0:  # every term underflowed to 0, so the ratio has no spread
            return 0.0
        var = float((num_terms / a - self.den_terms / b).var(ddof=1)) / num_terms.size
        return (a / b) * math.sqrt(var)


def _criterion(model: CountingModel, method, samples: SampleSet | None = None, zero_signal_ok=False) -> _Criterion:
    """The engine over ``samples``; with no set, or the one-point set of a
    model without nuisances, the engine on the nominal yields, as floats.
    This is the one place a model runs on its nominal yields: with no set,
    a model whose responses are not all identity is refused first, with
    :class:`ModelError`, as its nominal yields are no sample's. A zero
    nominal signal is refused next, with the method's message, unless
    ``zero_signal_ok`` (the CLs+b and CLb scans)."""
    if samples is None and not model.all_responses_identity:
        raise ModelError(
            "a model runs on its nominal yields only with identity responses everywhere; "
            "give the marginalised routines a sample set for a model with systematics"
        )
    if model.s_nom == 0.0 and not zero_signal_ok:
        raise ModelError(method.zero_signal)
    # a model with nuisances refuses the one-point set, as any set of the wrong shape
    if samples is None or (
        not model.has_systematics and samples.etas.shape == (1, 0) and samples.weights[0] == 1.0
    ):
        return _Criterion(method, model.n_obs, model.s_nom, model.b_nom_total, None)
    s, b = yields_on_samples(model, samples.etas)
    return _Criterion(method, model.n_obs, s, b, samples.weights)


@functools.lru_cache(maxsize=None)
def _standard_normal():
    """The one standard normal of the process, imported on first use so
    that ``import countlim`` does not pay for :mod:`statistics`."""
    from statistics import NormalDist

    return NormalDist()


# below this background yield no sixth power of a deviation overflows
_CUMULANT_MAX_YIELD = 1e50
# the start is aimed this far past the quantile, relatively: a start a few
# rel_tol short of the root converges on the lower end of its bracket, and pays
# a probe, where one as far past it ends on the upper end, as the solver aims
_CUMULANT_AIM = 1e-7


def _start(crit: _Criterion, alpha: float) -> float:
    """First guess at the root of a criterion, or 0 for none.

    P(N <= n; x) = Pr(X > x) for X ~ Gamma(a), a = n + 1, so both criteria
    are Pr(D > mu*s) / Pr(D > 0) for D = X - B, B the background yield over
    the set (fixed on the nominal point), and the root is D's upper
    p-quantile over s, for p = alpha * Pr(D > 0): the criterion's
    denominator, times s for Bayes, so no kernel runs. The set gives D's
    cumulants exactly: X's are (r - 1)! a, and B's, signed (-1)^r, come
    from five weighted sums of its central powers, all 0 on the nominal
    point, where no numpy is imported. Cornish and Fisher (1937) expand the
    quantile in them; the expansion is taken to fourth order, the terms in
    the standardised cumulants g1 to g4 of Abramowitz and Stegun 26.2.51,
    collected by Hermite polynomial He_k(z), for z the normal upper
    p-quantile (``_expansion``). On the nominal point those factors are
    a's alone, and are kept per count (``_nominal_expansion``). It holds
    for either sign of D's skew, and is aimed ``_CUMULANT_AIM`` past the
    quantile. An uncertain signal takes its
    weighted mean s, and p = alpha * CLb for CLs and alpha * E_w[Q(a, b) /
    s] * E_w[s] for Bayes, which ignores the signal's spread. At n = 0 the
    Newton step from 0 is already exact; an underflowed p, a mean signal
    yield of 0, a background yield of 1e50 or more (whose sixth power would
    overflow) or a start that is not positive and finite fall back to 0.
    """
    n = crit.n
    if n == 0 or not crit.b_max < _CUMULANT_MAX_YIELD:
        return 0.0
    a = n + 1.0
    if crit.w is None:  # B is fixed: no cumulants of its own
        s, m = crit.s, crit.b
    else:
        import numpy as np
        w = crit.w
        s, m = crit.mean(crit.s), crit.mean(crit.b)
        d = crit.b - m
        d2 = d * d
        d3 = d2 * d
        wd2 = w * d2
        k2, c3, c4, c5, c6 = (float(np.add.reduce(t)) for t in (wd2, wd2 * d, wd2 * d2, wd2 * d3, w * d3 * d3))
        k3, k4, k5 = c3, c4 - 3.0 * k2 * k2, c5 - 10.0 * c3 * k2
        k6 = c6 - 15.0 * c4 * k2 - 10.0 * c3 * c3 + 30.0 * k2 * k2 * k2
    p = alpha * (crit.den * s if crit.bayes else crit.den)
    if not (0.0 < p < 1.0 and s > 0.0):
        return 0.0
    sd, h1, g1, h2, h3, h4, h5 = _nominal_expansion(a) if crit.w is None else _expansion(a, k2, k3, k4, k5, k6)
    z = -_standard_normal().inv_cdf(p)
    z2 = z * z
    q = (z * h1 + (z2 - 1.0) * g1 * h2 + z * (z2 - 3.0) * h3 + (z2 * (z2 - 6.0) + 3.0) * h4
         + z * (z2 * (z2 - 10.0) + 15.0) * h5)
    start = (a - m + sd * q) / s * (1.0 + _CUMULANT_AIM)
    return start if 0.0 < start < math.inf else 0.0


def _expansion(a: float, k2: float, k3: float, k4: float, k5: float, k6: float) -> tuple:
    """D's standard deviation and the Cornish-Fisher factors of :func:`_start`,
    from a and B's cumulants k2 to k6: with He_k(z) the Hermite polynomials,
    the quantile's terms are He_1 h1 + He_2 g1 h2 + He_3 h3 + He_4 h4 + He_5 h5,
    in that grouping and order (``_start``)."""
    # D's cumulants, X's (r - 1)! a plus B's signed (-1)^r, standardised
    k2 += a
    sd = math.sqrt(k2)
    v = 1.0 / k2
    r = v / sd
    g1 = (2.0 * a - k3) * r
    g2 = (6.0 * a + k4) * v * v
    g3 = (24.0 * a - k5) * v * r
    g4 = (120.0 * a + k6) * v * v * v
    g11, g13, g22 = g1 * g1, g1 * g3, g2 * g2
    return (sd, 1.0 + g11 * ((g2 - 1.0) / 36.0 - 227.0 / 7776.0 * g11) - g22 / 192.0,
            g1, 1.0 / 6.0 - g2 / 24.0 + 19.0 / 324.0 * g11,
            g2 * (1.0 / 24.0 - g2 / 64.0 + 37.0 / 288.0 * g11) - g11 * (1.0 / 18.0 + 26.0 / 243.0 * g11) - g13 / 60.0,
            g3 / 120.0 + g1 * (g11 / 27.0 - g2 / 24.0),
            g4 / 720.0 - g22 / 128.0 - g13 / 90.0 + g11 * (7.0 / 144.0 * g2 - 7.0 / 216.0 * g11))


@functools.lru_cache(maxsize=256)
def _nominal_expansion(a: float) -> tuple:
    """``_expansion`` on the nominal point, where B has no cumulants: a
    function of a alone, kept per count."""
    return _expansion(a, 0.0, 0.0, 0.0, 0.0, 0.0)


def _solve(
    crit: _Criterion, req: LimitRequest, with_stderr: bool = False, start: float | None = None
) -> LimitResult:
    """Root of ``crit`` at ``req.alpha``, starting from ``start`` after
    mu = 0 (see :func:`solve_decreasing`), by default from the
    Cornish-Fisher quantile of :func:`_start`, on one point and on a
    sample set alike; ``with_stderr`` adds the Monte Carlo error
    of the criterion at the root and its propagation, through the
    analytic slope, onto the limit, from the evaluation the solve ended on."""
    if start is None:
        start = _start(crit, req.alpha)
    mu, (value, slope, _, terms), evaluations, bracket = solve_decreasing(
        crit, req.alpha, req.rel_tol, req.max_iter, start)
    if not with_stderr:
        return LimitResult(mu, value, evaluations, bracket)
    crit_stderr = crit.ratio_stderr(terms)
    mu_stderr = crit_stderr / abs(slope) if slope != 0.0 else math.inf
    return LimitResult(mu, value, evaluations, bracket, mu_up_stderr=mu_stderr, criterion_stderr=crit_stderr)


def hybrid_cls(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Marginalised CLs: averaged tail sums, one sample set for both the
    signal-plus-background numerator and the background-only denominator.
    On the one-point set of a model without nuisances, the exact CLs."""
    mu = _strength(hybrid_cls, "mu", mu)
    return _criterion(model, _CLS, samples).criterion(mu)


def marginal_posterior_tail(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Posterior mass above ``mu`` under the uniform strength prior, with
    nuisances marginalised: the Bayesian counterpart of :func:`hybrid_cls`."""
    mu = _strength(marginal_posterior_tail, "mu", mu)
    return _criterion(model, _BAYES, samples).criterion(mu)


def marginal_posterior_density(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Marginal posterior density of mu; reduces to the exact posterior,
    pmf(n_obs; mu*s + b) * s / Q(n_obs + 1, b), when responses are identity."""
    mu = _strength(marginal_posterior_density, "mu", mu)
    crit = _criterion(model, _BAYES, samples)
    return float(crit.ratio(crit.pmf_terms(mu)))


def scan_quantity(model: CountingModel, quantity: str, mus, samples: SampleSet):
    """Tabulate a marginal quantity over a strength grid.

    Returns ``(values, stderrs)``. Quantities: ``cls``, ``clsb``, ``clb``,
    ``posterior``. ``stderrs`` holds the standard errors of an equal-weight
    Monte Carlo mean where a limit on the set would take a Monte Carlo error
    (:func:`_takes_mc_error`), and is None on any other set, such as a
    Gauss-Hermite grid (whose weights may all be equal).
    """
    import numpy as np
    if not (isinstance(quantity, str) and quantity in _SCAN_QUANTITIES):
        _require(scan_quantity, "quantity", False, f"be one of {', '.join(_SCAN_QUANTITIES)}", quantity)
    # CLs = 1 at every mu without a signal, on any sample set: refused as by the limits
    crit = _criterion(model, _BAYES if quantity == "posterior" else _CLS, samples, quantity in ("clsb", "clb"))
    entries = mus.tolist() if isinstance(mus, np.ndarray) else mus
    # each entry a strength; a 0-d array or another value that is no sequence refuses as one entry of None
    entries = entries if isinstance(entries, Iterable) else [None]
    grid = [_strength(scan_quantity, "mus", mu, True, mus) for mu in entries]
    terms_at = {"clb": lambda mu: crit.den_terms, "posterior": crit.pmf_terms}.get(quantity, crit.terms)
    ratio = quantity in ("cls", "posterior")
    value, stderr = (crit.ratio, crit.ratio_stderr) if ratio else (crit.mean, crit.mean_stderr)
    values = np.empty(len(grid))
    stderrs = np.empty(len(grid)) if _takes_mc_error(samples) else None
    for i, mu in enumerate(grid):
        terms = terms_at(mu)
        values[i] = value(terms)
        if stderrs is not None:
            stderrs[i] = stderr(terms)
    return values, stderrs


def _takes_mc_error(samples: SampleSet | None) -> bool:
    """A limit or a scan takes a Monte Carlo error on a set drawn by Monte Carlo with 2 or more samples."""
    return samples is not None and samples.monte_carlo and len(samples) >= 2


def _limit(model: CountingModel, method, req: LimitRequest, integrator: Integrator | None,
           samples: SampleSet | None = None):
    """The limit, its criterion and its set. A zero nominal signal is
    refused with the method's message before any set is drawn; the set is
    drawn by ``integrator`` when the model has nuisances and none was
    passed, and decides on the Monte Carlo error (:func:`_takes_mc_error`)."""
    if model.s_nom == 0.0:
        raise ModelError(method.zero_signal)
    if samples is None and model.has_systematics:
        samples = draw_samples(model.systematics, integrator)
    crit = _criterion(model, method, samples)
    return _solve(crit, req, _takes_mc_error(samples)), crit, samples


def hybrid_cls_upper_limit(
    model: CountingModel,
    req: LimitRequest,
    integrator: Integrator | None,
    samples: SampleSet | None = None,
) -> LimitResult:
    """Root of the marginalised CLs criterion at ``req.alpha``.

    One sample set, drawn up front by ``integrator`` unless ``samples``
    shares one with another method, serves every trial strength, and gives
    a Monte Carlo error when drawn by Monte Carlo with 2 or more samples. A
    model without nuisances needs no integrator and gives the exact CLs limit.
    """
    return _limit(model, _CLS, req, integrator, samples)[0]


def bayesian_marginal_upper_limit(
    model: CountingModel,
    req: LimitRequest,
    integrator: Integrator | None,
    samples: SampleSet | None = None,
) -> LimitResult:
    """Root of the marginal posterior tail at ``req.alpha`` (uniform
    strength prior), on a set as for :func:`hybrid_cls_upper_limit`. A model
    without nuisances gives the closed-form credible limit."""
    return _limit(model, _BAYES, req, integrator, samples)[0]
