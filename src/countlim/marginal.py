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
closed-form posterior density.

Reductions over samples go through ``np.sum``, whose pairwise tree over a
fixed (declaration) sample order keeps results reproducible and
independent of any internal parallelism.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ConvergenceError, ModelError
from .model import CountingModel, SystematicsModel, yields_on_samples
from .special import gamma_q, log_poisson_pmf, poisson_cdf
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
# two numerator arrays the criterion keeps included (ru_maxrss above the
# import, at 2**20 samples: 138 and 169 bytes for the CLs and Bayes limits
# at n_obs = 3, 137 and 180 at n_obs = 160), so the budget of 2**22 values
# (samples x nuisances) keeps a limit under ~1 GB.
_GH_MAX_POINTS = 2**20  # largest Gauss-Hermite tensor grid draw_samples builds
_MC_MAX_VALUES = 2**22  # largest Monte Carlo set, samples x nuisances
_SCAN_MAX_POINTS = 2**20  # longest strength grid the scan command tabulates


@dataclass(frozen=True)
class Integrator:
    """Strategy for discretising the nuisance-prior integrals.

    ``monte_carlo`` draws from the priors with a counter-based Philox
    stream per nuisance, keyed by (seed, nuisance index); ``gauss_hermite``
    builds a tensor-product rule, is valid only when every prior is in
    the normal family, and is refused above ``2**20`` grid points. The
    Monte Carlo budget, ``2**22`` samples times nuisances, is checked by
    :func:`draw_samples`, where a set is built.
    """

    kind: str
    n_samples: int = 10000
    seed: int = 0
    nodes_per_dim: int = 16

    def __post_init__(self):
        if self.kind not in ("monte_carlo", "gauss_hermite"):
            raise ConfigError(f"unknown integrator kind {self.kind!r}")
        if self.kind == "monte_carlo":
            if self.n_samples < 1:
                raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
            if not 0 <= self.seed < 2**64:
                raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        else:
            if not 2 <= self.nodes_per_dim <= 64:
                raise ConfigError(f"nodes_per_dim must be in [2, 64], got {self.nodes_per_dim}")

    @classmethod
    def monte_carlo(cls, n_samples: int, seed: int) -> "Integrator":
        return cls("monte_carlo", n_samples=int(n_samples), seed=int(seed))

    @classmethod
    def gauss_hermite(cls, nodes_per_dim: int) -> "Integrator":
        return cls("gauss_hermite", nodes_per_dim=int(nodes_per_dim))

    def to_dict(self) -> dict:
        if self.kind == "monte_carlo":
            return {"kind": self.kind, "n_samples": self.n_samples, "seed": self.seed}
        return {"kind": self.kind, "nodes_per_dim": self.nodes_per_dim}


class SampleSet:
    """Weighted nuisance samples: a (K, J) matrix of nuisance vectors,
    one row per sample, and K weights; ``len`` is K. The constraint
    densities are absorbed into the sampling measure, so weights sum to
    one and no prior factor is ever multiplied in again.
    """

    def __init__(self, etas: np.ndarray, weights: np.ndarray):
        etas = np.asarray(etas, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if etas.ndim != 2 or weights.ndim != 1 or etas.shape[0] != weights.shape[0]:
            raise ValueError(f"inconsistent sample shapes {etas.shape}, {weights.shape}")
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
    (samples x nuisances).
    """
    n_nuis = len(systematics.nuisances)
    if n_nuis == 0:
        return SampleSet(np.zeros((1, 0)), np.ones(1))
    if integrator is None:
        raise ConfigError(f"nuisance(s) {list(systematics.names)} need an integrator to be sampled")
    if integrator.kind == "monte_carlo":
        k = integrator.n_samples
        if k * n_nuis > _MC_MAX_VALUES:
            raise ConfigError(
                f"monte_carlo set of samples x nuisances = {k} x {n_nuis} = {k * n_nuis} values "
                f"exceeds the budget of {_MC_MAX_VALUES}; use fewer samples"
            )
        z = np.empty((k, n_nuis))
        for j in range(n_nuis):
            key = np.array([integrator.seed, j], dtype=np.uint64)
            z[:, j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(k)
        weights = np.full(k, 1.0 / k)
    else:
        points = integrator.nodes_per_dim**n_nuis
        if points > _GH_MAX_POINTS:
            raise ConfigError(
                f"gauss_hermite grid of nodes^J = {integrator.nodes_per_dim}^{n_nuis} = {points} "
                f"points exceeds the budget of {_GH_MAX_POINTS}; use fewer nodes or monte_carlo"
            )
        if not systematics.all_normal_family:
            bad = [nu.name for nu in systematics.nuisances if not nu.prior.is_normal_family]
            raise ConfigError(
                f"gauss_hermite integration requires normal-family priors; "
                f"offending nuisance(s): {bad}"
            )
        nodes, w_norm = _hermite_rule(integrator.nodes_per_dim)
        grids = np.meshgrid(*([nodes] * n_nuis), indexing="ij")
        z = np.stack([g.ravel() for g in grids], axis=1)
        w_grids = np.meshgrid(*([w_norm] * n_nuis), indexing="ij")
        weights = np.ones(z.shape[0])
        for g in w_grids:
            weights *= g.ravel()
    weights = weights / np.sum(weights)
    z = systematics.correlate(z)
    etas = np.empty_like(z)
    for j, nu in enumerate(systematics.nuisances):
        etas[:, j] = nu.prior.from_standard_normal(z[:, j])
    return SampleSet(etas, weights)


@functools.lru_cache(maxsize=None)
def _hermite_rule(nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the standard normal measure,
    read-only. ``hermgauss`` solves an eigenproblem (Golub & Welsch 1969),
    so each rule is built once per process; ``Integrator`` keeps the node
    count in [2, 64]."""
    x, w = np.polynomial.hermite.hermgauss(nodes_per_dim)
    nodes = math.sqrt(2.0) * x
    w_norm = w / math.sqrt(math.pi)
    nodes.setflags(write=False)
    w_norm.setflags(write=False)
    return nodes, w_norm


def _check_mu(mu) -> float:
    mu = float(mu)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    return mu


def marginal_likelihood(model: CountingModel, mu: float, n, samples: SampleSet) -> float:
    """Prior-weighted average of Poisson(n; mu*s(eta) + b(eta))."""
    mu = _check_mu(mu)
    s, b = yields_on_samples(model, samples.etas)
    pmf = np.exp(log_poisson_pmf(n, mu * s + b))
    return float(np.sum(samples.weights * pmf))


def _cls_terms(n: int, s, x):
    # per-sample P(N <= n; x): CLs+b at x = mu*s + b, CLb at x = b
    return poisson_cdf(n, x)


def _bayes_terms(n: int, s, x):
    # per-sample Q(n + 1, x) / s: the integral of Poisson(n; m*s + b) over
    # the strengths m above the one where the mean is x
    return gamma_q(n + 1.0, x) / s


_DENOMINATOR_NAMES = {_cls_terms: "CLb", _bayes_terms: "Q(n_obs + 1, b)"}
_CLS_UNDEFINED = "nominal signal yield is zero; the CLs limit is undefined"
_POSTERIOR_IMPROPER = "nominal signal yield is zero; the posterior for mu is improper"


class _Criterion:
    """The weighted-mean ratio E_w[term(mu*s + b)] / E_w[term(b)].

    Hybrid CLs (``_cls_terms``) and the marginal posterior tail
    (``_bayes_terms``) are this one ratio over a shared sample set; the
    exact limits are its one-point case. ``s`` and ``b`` are the yields
    per sample with weights ``w``, or plain floats with ``w = None`` for
    the nominal point, where the weighted mean is the term itself and the
    scalar kernels are used. The denominator is computed once, here, and
    refused with :class:`ConvergenceError` when it underflows: every
    quantity built on the set is then below the float64 range too.

    Both terms have closed-form derivatives in mu, from the pmf at
    x = mu*s + b and its x-derivative pmf * (n/x - 1): the slope is
    -s * pmf for CLs and -pmf for Bayes, the curvature -s^2 * pmf *
    (n/x - 1) and -s * pmf * (n/x - 1). So calling the criterion gives
    its value, slope and curvature for the price of one kernel call and
    one pmf.
    """

    def __init__(self, kernel, n: int, s, b, w):
        self.kernel = kernel
        self.n = n
        self.s = s
        self.b = b
        self.w = w
        self.den_terms = kernel(n, s, b)
        self.den = self.mean(self.den_terms)
        if not (self.den > 0.0 and math.isfinite(self.den)):
            where = f"b = {b!r}" if w is None else f"b in [{float(np.min(b))!r}, {float(np.max(b))!r}]"
            raise ConvergenceError(
                f"{_DENOMINATOR_NAMES[kernel]} = {self.den!r} at n_obs = {n}, {where}: "
                f"the denominator is not a positive finite number, so the criterion is undefined"
            )
        self.pmf_scale = s if kernel is _cls_terms else 1.0
        self.log_factorial = math.lgamma(n + 1.0)
        # (mu, numerator terms, slope) of the last two calls, latest last: a
        # solve ends on one of its bracket's ends, which is most often the
        # last point evaluated or the one before it
        self.recent = (None, None)

    def __call__(self, mu: float):
        """``(criterion, slope, curvature)`` at ``mu``: the solver's inner
        loop. At mu = 0 the numerator is the denominator, so no kernel runs."""
        n, s = self.n, self.s
        x = mu * s + self.b
        terms = self.den_terms if mu == 0.0 else self.kernel(n, s, x)
        if n == 0:
            # pmf(0; x) = exp(-x) is the CLs term and s times the Bayes term:
            # the derivatives are -s and s^2 times the terms, and log c is
            # linear on a one-point set, with no second route to disagree
            d1, d2 = -s * terms, (s * s) * terms
        else:
            pmf, dpmf = self.pmf_and_derivative(x)
            d1 = -self.pmf_scale * pmf
            d2 = -(s * self.pmf_scale) * dpmf
        slope = self.mean(d1) / self.den
        self.recent = self.recent[1], (mu, terms, slope)
        return self.mean(terms) / self.den, slope, self.mean(d2) / self.den

    def terms_and_slope(self, mu: float):
        """Numerator terms and slope at ``mu``, from one of the last two
        calls when either was at ``mu``, else from a new call."""
        for entry in self.recent:
            if entry is not None and entry[0] == mu:
                return entry[1:]
        self(mu)
        return self.recent[1][1:]

    def pmf_and_derivative(self, x):
        """Per-sample pmf(n; x) and d pmf/dx = pmf * (n/x - 1), for x >= 0.

        The pmf is exp(n ln x - x - ln n!) with ln n! cached, without the
        range checks of :func:`log_poisson_pmf`. The derivative is written
        n * (pmf/x) - pmf, which cannot overflow for n >= 1, and takes its
        limit pmf(n - 1; 0) - pmf(n; 0) at x = 0.
        """
        n = self.n
        if self.w is None:
            if x == 0.0:
                return float(n == 0), float(n == 1) - float(n == 0)
            pmf = math.exp(n * math.log(x) - x - self.log_factorial)
            return pmf, n * (pmf / x) - pmf
        zero = x == 0.0
        safe = np.where(zero, 1.0, x)
        pmf = np.exp(n * np.log(safe) - x - self.log_factorial)
        dpmf = n * (pmf / safe) - pmf
        pmf[zero] = float(n == 0)
        dpmf[zero] = float(n == 1) - float(n == 0)
        return pmf, dpmf

    def mean(self, terms):
        if self.w is None:
            return terms
        return float(np.sum(self.w * terms))

    def terms(self, mu: float):
        # at mu = 0 the numerator is the denominator, as in __call__
        return self.den_terms if mu == 0.0 else self.kernel(self.n, self.s, mu * self.s + self.b)

    def pmf_terms(self, mu: float):
        """Per-sample Poisson(n_obs; mu*s + b): over the Bayesian
        denominator, the posterior density of mu."""
        return self.pmf_and_derivative(mu * self.s + self.b)[0]

    def ratio(self, num_terms) -> float:
        return self.mean(num_terms) / self.den

    def criterion(self, mu: float) -> float:
        return self.ratio(self.terms(mu))

    def mean_stderr(self, terms) -> float:
        """Standard error of the weighted mean (Monte Carlo, equal weights)."""
        return math.sqrt(float(np.var(terms, ddof=1)) / terms.size)

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
        var = float(np.var(num_terms / a - self.den_terms / b, ddof=1)) / num_terms.size
        return (a / b) * math.sqrt(var)


def _criterion(model: CountingModel, kernel, samples: SampleSet) -> _Criterion:
    """The engine over ``samples``; the nominal one-point set of a model
    without nuisances runs on the scalar kernels."""
    if samples.etas.shape == (1, 0) and samples.weights[0] == 1.0:
        s, b, w = model.s_nom, model.b_nom_total, None
    else:
        s, b = yields_on_samples(model, samples.etas)
        w = samples.weights
    if kernel is _bayes_terms and not np.all(s != 0.0):
        # a vanishing signal yield leaves the strength unidentified there
        where = "" if w is None else f" at sample {int(np.argmax(s == 0.0))}"
        raise ModelError(f"signal yield is zero{where}; the posterior for mu is degenerate")
    return _Criterion(kernel, model.n_obs, s, b, w)


def _solve(crit: _Criterion, req: LimitRequest, with_stderr: bool = False) -> LimitResult:
    """Root of ``crit`` at ``req.alpha``; ``with_stderr`` adds the Monte
    Carlo error of the criterion at the root and its propagation, through
    the analytic slope, onto the limit."""
    mu_up, value, evals, bracket = solve_decreasing(crit, req.alpha, req.rel_tol, req.max_iter)
    if not with_stderr:
        return LimitResult(mu_up, value, evals, bracket)
    terms, slope = crit.terms_and_slope(mu_up)
    crit_stderr = crit.ratio_stderr(terms)
    mu_stderr = crit_stderr / abs(slope) if slope != 0.0 else math.inf
    return LimitResult(
        mu_up, value, evals, bracket, mu_up_stderr=mu_stderr, criterion_stderr=crit_stderr
    )


def _marginal_limit(model, req, integrator, samples, kernel) -> LimitResult:
    if samples is None:
        samples = draw_samples(model.systematics, integrator)
    crit = _criterion(model, kernel, samples)
    monte_carlo = integrator is not None and integrator.kind == "monte_carlo"
    return _solve(crit, req, with_stderr=monte_carlo and crit.w is not None and crit.w.size >= 2)


def hybrid_cls(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Marginalised CLs: averaged tail sums, one sample set for both the
    signal-plus-background numerator and the background-only denominator.
    On the one-point set of a model without nuisances, the exact CLs."""
    mu = _check_mu(mu)
    if model.s_nom == 0.0:
        raise ModelError(_CLS_UNDEFINED)
    return _criterion(model, _cls_terms, samples).criterion(mu)


def marginal_posterior_tail(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Posterior mass above ``mu`` under the uniform strength prior, with
    nuisances marginalised: the Bayesian counterpart of :func:`hybrid_cls`."""
    mu = _check_mu(mu)
    return _criterion(model, _bayes_terms, samples).criterion(mu)


def marginal_posterior_density(model: CountingModel, mu: float, samples: SampleSet) -> float:
    """Marginal posterior density of mu; reduces to the exact posterior,
    pmf(n_obs; mu*s + b) * s / Q(n_obs + 1, b), when responses are identity."""
    mu = _check_mu(mu)
    crit = _criterion(model, _bayes_terms, samples)
    return float(crit.ratio(crit.pmf_terms(mu)))


def scan_quantity(model: CountingModel, quantity: str, mus, samples: SampleSet, with_stderr: bool):
    """Tabulate a marginal quantity over a strength grid.

    Returns ``(values, stderrs)`` with ``stderrs`` None unless
    ``with_stderr`` (Monte Carlo sample sets only). Quantities: ``cls``,
    ``clsb``, ``clb``, ``posterior``.
    """
    if quantity not in ("cls", "clsb", "clb", "posterior"):
        raise ValueError(f"unknown scan quantity {quantity!r}")
    if quantity == "cls" and model.s_nom == 0.0:
        # CLs = 1 at every mu, on any sample set: refused as by hybrid_cls_upper_limit
        raise ModelError(_CLS_UNDEFINED)
    crit = _criterion(model, _bayes_terms if quantity == "posterior" else _cls_terms, samples)
    mus = np.asarray(mus, dtype=float)
    if mus.size and not (float(np.min(mus)) >= 0.0 and float(np.max(mus)) < math.inf):
        raise ValueError("mu grid must be finite and nonnegative")
    terms_at = {"clb": lambda mu: crit.den_terms, "posterior": crit.pmf_terms}.get(quantity, crit.terms)
    ratio = quantity in ("cls", "posterior")
    value, stderr = (crit.ratio, crit.ratio_stderr) if ratio else (crit.mean, crit.mean_stderr)
    values = np.empty(mus.shape)
    stderrs = np.empty(mus.shape) if with_stderr and crit.w is not None and crit.w.size >= 2 else None
    for i, mu in enumerate(mus):
        terms = terms_at(mu)
        values[i] = value(terms)
        if stderrs is not None:
            stderrs[i] = stderr(terms)
    return values, stderrs


def hybrid_cls_upper_limit(
    model: CountingModel,
    req: LimitRequest,
    integrator: Integrator | None,
    samples: SampleSet | None = None,
) -> LimitResult:
    """Root of the marginalised CLs criterion at ``req.alpha``.

    One sample set is drawn up front and reused for every trial strength;
    pass ``samples`` to share the set with another method. A model without
    nuisances needs no integrator and gives the exact CLs limit.
    """
    if model.s_nom == 0.0:
        raise ModelError(_CLS_UNDEFINED)
    return _marginal_limit(model, req, integrator, samples, _cls_terms)


def bayesian_marginal_upper_limit(
    model: CountingModel,
    req: LimitRequest,
    integrator: Integrator | None,
    samples: SampleSet | None = None,
) -> LimitResult:
    """Root of the marginal posterior tail at ``req.alpha`` (uniform
    strength prior), sharing ``samples`` with the hybrid method when given.
    A model without nuisances gives the closed-form credible limit."""
    if model.s_nom == 0.0:
        raise ModelError(_POSTERIOR_IMPROPER)
    return _marginal_limit(model, req, integrator, samples, _bayes_terms)
