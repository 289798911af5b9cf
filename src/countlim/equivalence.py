"""Side-by-side comparison of the hybrid CLs and marginal Bayesian limits.

Both limits are computed on one shared sample set, so for models whose
signal responses are all identity the two criteria are the same function
of the strength parameter and the limits must coincide to solver
precision. A genuinely uncertain signal breaks that cancellation and the
limits are expected to differ; the size of the gap is model-dependent and
is reported, never thresholded. :func:`compare_limits` and the CLI's
``limit --method both`` run one paired solve, ``_paired_limits``.
"""

from __future__ import annotations

import math

from .exceptions import _float, _require
from .marginal import _BAYES, _CLS, Integrator, SampleSet, _Criterion, _criterion, _limit, _solve, _takes_mc_error
from .model import CountingModel, _Record
from .solver import LimitRequest

__all__ = ["EquivalenceReport", "compare_limits"]

VERDICT_EQUIVALENT = "equivalent_within_tol"
VERDICT_EXPECTED = "divergent_as_expected"
VERDICT_UNEXPECTED = "unexpected_divergence"
_DEFAULT_TOL = 1e-6  # compare_limits' tol, and the CLI's equivalence --tol


class EquivalenceReport(_Record):
    """Outcome of one comparison.

    ``signal_uncertain`` is decided syntactically (any non-identity signal
    response), matching the condition under which the methods are supposed
    to part ways. ``mc_stderr`` is the hybrid limit's Monte Carlo standard
    error when applicable.
    """

    def __init__(self, mu_up_cls: float, mu_up_bayes: float, rel_diff: float, signal_uncertain: bool,
                 verdict: str, tol: float, mc_stderr: float | None = None):
        self._fill(mu_up_cls, mu_up_bayes, rel_diff, signal_uncertain, verdict, tol, mc_stderr)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _paired_limits(model, req, integrator, bayes_samples=None, bayes_error=False):
    """The hybrid CLs limit, the marginal Bayesian limit solved from the
    CLs root on the same yields or on ``bayes_samples``' own (see
    :func:`compare_limits`), and their ``rel_diff``, |a - b| / max(a, b).
    ``bayes_error`` adds the Bayesian Monte Carlo error."""
    res_cls, crit, samples = _limit(model, _CLS, req, integrator)
    if bayes_samples is None:
        crit = _Criterion(_BAYES, crit.n, crit.s, crit.b, crit.w)
    else:
        crit, samples = _criterion(model, _BAYES, bayes_samples), bayes_samples
    res_bayes = _solve(crit, req, bayes_error and _takes_mc_error(samples), start=res_cls.mu_up)
    a, b = res_cls.mu_up, res_bayes.mu_up
    return res_cls, res_bayes, abs(a - b) / max(a, b)


def compare_limits(
    model: CountingModel,
    req: LimitRequest,
    integrator: Integrator,
    tol: float = _DEFAULT_TOL,
    *,
    bayes_samples: SampleSet | None = None,
) -> EquivalenceReport:
    """Run both methods on one shared sample set and classify the outcome.

    Both criteria are built on one computation of the set's yields. The
    hybrid CLs limit is solved first, from the Cornish-Fisher start. The
    Bayesian solve then starts at the CLs root: with a certain signal the
    two criteria are the same function of mu, so that is its root too.
    The start is only a first guess; the Bayesian criterion must still
    converge there on its own value and slope, within ``req.rel_tol``,
    and ``rel_diff`` then reads 0.0 when it does so at the very same
    point. The CLs solve most often ends just past its root (see
    :class:`~countlim.solver.LimitResult`), where the Bayesian criterion
    is then converged and not above alpha: the Bayesian solve ends after
    that one kernel call, two evaluations with mu = 0. Where the CLs
    solve ended short of its root, one probe past it signs the Bayesian
    bracket. It takes no Monte Carlo error: the report has only the CLs one.

    ``bayes_samples`` overrides the Bayesian method's sample set and exists
    to let tests and the CLI's debug path demonstrate what a broken
    shared-sample contract looks like; its solve takes that set's own
    yields, starts at the CLs root too, and finds its own root from there.
    A ``tol`` that is no positive finite real is refused with ``ConfigError``.
    """
    value = _float(tol)
    _require(compare_limits, "tol", value is not None and 0.0 < value < math.inf, "be a positive finite number", tol)
    res_cls, res_bayes, rel_diff = _paired_limits(model, req, integrator, bayes_samples)
    signal_uncertain = not model.signal_is_certain
    if rel_diff <= value:
        verdict = VERDICT_EQUIVALENT
    elif signal_uncertain:
        verdict = VERDICT_EXPECTED
    else:
        verdict = VERDICT_UNEXPECTED
    return EquivalenceReport(
        mu_up_cls=res_cls.mu_up,
        mu_up_bayes=res_bayes.mu_up,
        rel_diff=rel_diff,
        signal_uncertain=signal_uncertain,
        verdict=verdict,
        tol=value,
        mc_stderr=res_cls.mu_up_stderr,
    )
