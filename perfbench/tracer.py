"""Spans around the calls into each countlim layer, recorded from outside.

countlim binds names at import time (``from .special import poisson_cdf``),
so a wrapper must replace every binding of a function, not just the one in
its home module. :meth:`Tracer.installed` does that by identity over all
loaded ``countlim`` modules and restores the originals on exit. A function
missing from its home module (say after a refactor folds a module away)
is recorded as absent, and the metrics built on it are left out.

Spans stay in memory as ``[name, start, end, parent, op_id, info]`` and
are turned into per-layer metrics and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, INFO = range(6)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _poisson_info(args, kwargs, result):
    # (lanes, terms per lane): the kernel sums n + 1 terms on every lane
    return int(np.size(_arg(args, kwargs, 1, "nu"))), int(_arg(args, kwargs, 0, "n")) + 1


def _gamma_info(args, kwargs, result):
    # (lanes, series lanes); the kernel takes the series where x < a + 1
    a, x = float(_arg(args, kwargs, 0, "a")), _arg(args, kwargs, 1, "x")
    return int(np.size(x)), int(np.count_nonzero(np.asarray(x, dtype=float) < a + 1.0))


def _rows_of_result(args, kwargs, result):
    return len(result)


def _rows_of_etas(args, kwargs, result):
    return int(np.shape(_arg(args, kwargs, 1, "etas"))[0])


def _verdict(args, kwargs, result):
    return result.verdict


# (home module, function, span name, info taken from the call)
LAYERS = (
    ("countlim.config", "load_model", "config.load_model", None),
    ("countlim.marginal", "draw_samples", "marginal.draw_samples", _rows_of_result),
    ("countlim.model", "yields_on_samples", "model.yields_on_samples", _rows_of_etas),
    ("countlim.solver", "solve_decreasing", "solver.solve_decreasing", None),
    ("countlim.marginal", "hybrid_cls_upper_limit", "marginal.hybrid_cls_upper_limit", None),
    ("countlim.marginal", "bayesian_marginal_upper_limit", "marginal.bayesian_marginal_upper_limit", None),
    ("countlim.marginal", "scan_quantity", "marginal.scan_quantity", None),
    ("countlim.special", "poisson_cdf", "special.poisson_cdf", _poisson_info),
    ("countlim.special", "gamma_q", "special.gamma_q", _gamma_info),
    ("countlim.exact", "cls_upper_limit", "exact.cls_upper_limit", None),
    ("countlim.exact", "bayesian_upper_limit_closed_form", "exact.bayesian_upper_limit_closed_form", None),
    ("countlim.equivalence", "compare_limits", "equivalence.compare_limits", _verdict),
)


class Tracer:
    """Records spans around countlim's layer functions while installed."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []
        self._op = None

    def call(self, name, fn, args=(), kwargs=None, info=None):
        """Run ``fn`` inside a span; ``info`` derives the span's counts."""
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if info is not None:
            span[INFO] = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info):
        if name == "solver.solve_decreasing":
            def wrapper(criterion, *args, **kwargs):
                def counted(mu):
                    return self.call("solver.criterion", criterion, (mu,))
                return self.call(name, fn, (counted, *args), kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, info)
        return wrapper

    @contextlib.contextmanager
    def installed(self, op_id):
        """Wrap every binding of each layer function while one op runs."""
        self._op = op_id
        patched = []
        try:
            for module_name, attr, name, info in LAYERS:
                try:
                    orig = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, orig, info)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "countlim" and not mod_name.startswith("countlim."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, orig))
            yield
        finally:
            for mod, key, orig in reversed(patched):
                setattr(mod, key, orig)
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans; a metric whose layer
        was absent is left out."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        rows = defaultdict(int)
        evals = defaultdict(int)
        verdicts = defaultdict(int)
        lanes = {"special.poisson_cdf": 0, "special.gamma_q": 0}
        poisson_lane_terms = 0
        series_lanes = 0
        outside_solve = 0
        marginal_limits = ("marginal.hybrid_cls_upper_limit", "marginal.bayesian_marginal_upper_limit")
        for name, start, end, parent, _, info in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            parent_name = self.spans[parent][NAME] if parent is not None else None
            if parent is not None:
                child[parent] += dur
            if name == "solver.criterion":
                evals[parent] += 1
            elif info is None:  # no counts, or the call raised
                pass
            elif name in ("marginal.draw_samples", "model.yields_on_samples"):
                rows[name] += info
            elif name == "equivalence.compare_limits":
                verdicts[info] += 1
            elif name == "special.poisson_cdf":
                lanes[name] += info[0]
                poisson_lane_terms += info[0] * info[1]
            elif name == "special.gamma_q":
                lanes[name] += info[0]
                series_lanes += info[1]
            if name.startswith("special.") and parent_name in marginal_limits:
                outside_solve += 1
        self_s = defaultdict(float)
        for idx, span in enumerate(self.spans):
            self_s[span[NAME]] += span[END] - span[START] - child[idx]
        per_solve = [evals[i] for i, s in enumerate(self.spans) if s[NAME] == "solver.solve_decreasing"]
        poisson_s = total["special.poisson_cdf"]

        metrics = {
            "config.load_model.calls": (calls["config.load_model"], "count", "config.load_model"),
            "config.load_model.s": (total["config.load_model"], "s", "config.load_model"),
            "cli.self_s": (self_s["cli"], "s", "cli"),
            "solver.solve_decreasing.calls": (len(per_solve), "count", "solver.solve_decreasing"),
            "solver.evals": (calls["solver.criterion"], "count", "solver.solve_decreasing"),
            "solver.evals_per_solve.p50": (float(np.median(per_solve)) if per_solve else 0.0, "count", "solver.solve_decreasing"),
            "solver.evals_per_solve.max": (max(per_solve, default=0), "count", "solver.solve_decreasing"),
            "solver.self_s": (self_s["solver.solve_decreasing"], "s", "solver.solve_decreasing"),
            "solver.criterion.self_s": (self_s["solver.criterion"], "s", "solver.solve_decreasing"),
            "marginal.hybrid_cls_upper_limit.self_s": (self_s[marginal_limits[0]], "s", marginal_limits[0]),
            "marginal.bayesian_marginal_upper_limit.self_s": (self_s[marginal_limits[1]], "s", marginal_limits[1]),
            "marginal.kernel_calls_outside_solve": (outside_solve, "count", marginal_limits[0]),
            "marginal.scan_quantity.s": (total["marginal.scan_quantity"], "s", "marginal.scan_quantity"),
            "special.poisson_cdf.calls": (calls["special.poisson_cdf"], "count", "special.poisson_cdf"),
            "special.poisson_cdf.lanes": (lanes["special.poisson_cdf"], "count", "special.poisson_cdf"),
            "special.poisson_cdf.lane_terms": (poisson_lane_terms, "count", "special.poisson_cdf"),
            "special.poisson_cdf.s": (poisson_s, "s", "special.poisson_cdf"),
            "special.poisson_cdf.ns_per_lane_term": (
                1e9 * poisson_s / poisson_lane_terms if poisson_lane_terms else 0.0, "ns", "special.poisson_cdf"),
            "special.gamma_q.calls": (calls["special.gamma_q"], "count", "special.gamma_q"),
            "special.gamma_q.lanes": (lanes["special.gamma_q"], "count", "special.gamma_q"),
            "special.gamma_q.series_lanes": (series_lanes, "count", "special.gamma_q"),
            "special.gamma_q.cf_lanes": (lanes["special.gamma_q"] - series_lanes, "count", "special.gamma_q"),
            "special.gamma_q.s": (total["special.gamma_q"], "s", "special.gamma_q"),
            "exact.cls_upper_limit.s": (total["exact.cls_upper_limit"], "s", "exact.cls_upper_limit"),
            "exact.bayesian_upper_limit_closed_form.s": (
                total["exact.bayesian_upper_limit_closed_form"], "s", "exact.bayesian_upper_limit_closed_form"),
            "equivalence.compare_limits.self_s": (self_s["equivalence.compare_limits"], "s", "equivalence.compare_limits"),
        }
        for verdict in ("equivalent_within_tol", "divergent_as_expected", "unexpected_divergence"):
            metrics[f"equivalence.verdict.{verdict}"] = (verdicts[verdict], "count", "equivalence.compare_limits")
        for name in ("marginal.draw_samples", "model.yields_on_samples"):
            metrics[f"{name}.calls"] = (calls[name], "count", name)
            metrics[f"{name}.s"] = (total[name], "s", name)
            metrics[f"{name}.rows"] = (rows[name], "count", name)
        return {
            key: {"value": value, "unit": unit}
            for key, (value, unit, layer) in metrics.items()
            if layer not in self.absent
        }
