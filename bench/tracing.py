"""Spans around the calls from one leadquote layer into another.

`Tracer.install` replaces public functions at the module attributes through
which the package calls itself (for example `leadquote.numeric.
mm1k_ontime_prob`, the name the finite-buffer objective and quote search
look up) with wrappers that record one span per call while an operation is
open.  `Tracer.restore` puts the originals back.  Spans stay in memory as
`[name, start, end, parent, op, attrs]` lists and are written out by the
caller at the end of a run.

A span's self time is its duration minus the time its child spans cover.
Calls run on one thread, so children never overlap and the self times of
an operation's spans add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP, ATTRS = range(6)

CHECK_NAMES = (
    "queueing-vs-birth-death",
    "ontime-vs-erlang-oracle",
    "mm1-limit-at-large-K",
    "single-slot-reduction",
    "feasibility-gates",
    "branch-dichotomy",
    "closed-form-vs-oracle-no-costs",
    "closed-form-vs-oracle-with-costs",
    "numeric-vs-closed-form-at-K1",
    "probe-K1000",
    "probe-K2000",
)

# Per-layer metrics in report order, with units.  Every traced run reports
# all of them; a layer a workload never calls reads 0.
PER_LAYER_UNITS = {
    "queueing.ontime.calls": "count",
    "queueing.ontime.points": "count",
    "queueing.ontime.term_steps": "count",
    "queueing.ontime.s": "s",
    "queueing.ns_per_term_step": "ns",
    "queueing.other.calls": "count",
    "queueing.other.s": "s",
    "numeric.quote_search.calls": "count",
    "numeric.quote_search.rows": "count",
    "numeric.quote_search.s": "s",
    "numeric.quote_search.self_s": "s",
    "numeric.quote_search.kernel_calls_per_row": "count",
    "numeric.grid.calls": "count",
    "numeric.grid.s": "s",
    "numeric.grid.self_s": "s",
    "numeric.grid.evaluations": "count",
    "numeric.grid.refine_rounds": "count",
    "numeric.baseline.calls": "count",
    "numeric.baseline.s": "s",
    "numeric.baseline.evaluations": "count",
    "numeric.oracle.calls": "count",
    "numeric.oracle.s": "s",
    "numeric.oracle.evaluations": "count",
    "closed_form.solves": "count",
    "closed_form.s": "s",
    "compare.self_s": "s",
    "simulate.arrivals": "count",
    "simulate.blocked_frac": "fraction",
    "simulate.s": "s",
    "simulate.validate_s": "s",
    **{f"certify.check.{name}.s": "s" for name in CHECK_NAMES},
    "certify.birth_death.calls": "count",
    "certify.birth_death.s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
}


# The package passes the kernels' and the quote search's array arguments
# positionally: (lam, mu, K, l) and (lam, params).
def _ontime_attrs(args, out):
    lam, _, K, lead = args
    return {"points": int(np.broadcast(np.asarray(lam), np.asarray(lead)).size), "K": int(K)}


def _rows_attrs(args, out):
    return {"rows": int(np.size(args[0]))}


def _search_attrs(args, out):
    return {"evaluations": out.diagnostics["evaluations"],
            "refine_rounds": out.diagnostics["refine_rounds"]}


def _check_attrs(args, out):
    return {"check": out.name}


def _sim_attrs(args, out):
    return {"arrivals": out.n_arrivals, "blocked": out.n_blocked}


def _boundaries():
    """(module, attribute, span name, annotator) for every wrapped call site."""
    from leadquote import certify, closed_form, compare, numeric, queueing

    simulate = importlib.import_module("leadquote.simulate")

    kernels = [("mm1k_ontime_prob", "queueing.ontime", _ontime_attrs),
               ("mm1k_blocking", "queueing.other", None),
               ("mm1k_mean_number", "queueing.other", None),
               ("mm1k_throughput", "queueing.other", None),
               ("mm1k_mean_sojourn", "queueing.other", None)]
    sites = [(queueing, "mm1k_ontime_prob", "queueing.ontime", _ontime_attrs)]
    for module in (numeric, simulate, certify):
        sites += [(module, attr, name, ann) for attr, name, ann in kernels
                  if hasattr(module, attr)]
    sites += [
        (numeric, "min_leadtime_for_service", "numeric.quote_search", _rows_attrs),
        (numeric, "solve_mm1k_numeric", "numeric.grid", _search_attrs),
        (certify, "solve_mm1k_numeric", "numeric.grid", _search_attrs),
        (compare, "solve_mm1_baseline", "numeric.baseline", _search_attrs),
        (certify, "brute_force_oracle", "numeric.oracle", _search_attrs),
        (closed_form, "solve_mm11_with_costs", "closed_form.solve", None),
        (compare, "solve_mm11_no_costs", "closed_form.solve", None),
        (compare, "solve_mm11_with_costs", "closed_form.solve", None),
        (certify, "solve_mm11_no_costs", "closed_form.solve", None),
        (certify, "solve_mm11_with_costs", "closed_form.solve", None),
        (compare, "sweep", "compare.sweep", None),
        (simulate, "simulate", "simulate.run", _sim_attrs),
        (simulate, "validate", "simulate.validate", None),
        (certify, "birth_death_stationary", "certify.birth_death", None),
    ]
    sites += [(certify, attr, "certify.check", _check_attrs)
              for attr in dir(certify) if attr.startswith("check_")]
    return sites


class Tracer:
    """Records spans for calls made while an operation is open."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name, annotate in _boundaries():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, spans[parent][OP], None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(args, out)
            return out

        return traced

    @contextmanager
    def operation(self, label: str):
        """Open the root span of one operation; yields the span list.

        The root is named after the operation and its index is the
        operation id that every span under it carries.
        """
        span = [label, 0.0, 0.0, -1, len(self.spans), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the time covered by its children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_residual(spans: list, own: list) -> float:
    """Largest |sum of self times - root duration| over all operations (s)."""
    totals: dict = {}
    for s, t in zip(spans, own):
        totals[s[OP]] = totals.get(s[OP], 0.0) + t
    roots = [s for s in spans if s[PARENT] < 0]
    return max((abs(totals[s[OP]] - (s[END] - s[START])) for s in roots), default=0.0)


def layer_metrics(spans: list, own: list, first: int, stop: int) -> dict:
    """Per-layer totals over spans[first:stop] (one pass of a workload).

    own holds the self times of all spans, from self_times(spans).
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    kernel_points_in_search = 0
    for i in range(first, stop):
        s = spans[i]
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        if s[PARENT] < 0:
            if name in CHECK_NAMES:
                m[f"certify.check.{name}.s"] += dur
            continue
        if name == "queueing.ontime":
            m["queueing.ontime.calls"] += 1
            m["queueing.ontime.points"] += attrs["points"]
            m["queueing.ontime.term_steps"] += attrs["points"] * attrs["K"]
            m["queueing.ontime.s"] += dur
            if spans[s[PARENT]][NAME] == "numeric.quote_search":
                kernel_points_in_search += attrs["points"]
        elif name == "queueing.other":
            m["queueing.other.calls"] += 1
            m["queueing.other.s"] += dur
        elif name == "numeric.quote_search":
            m["numeric.quote_search.calls"] += 1
            m["numeric.quote_search.rows"] += attrs["rows"]
            m["numeric.quote_search.s"] += dur
            m["numeric.quote_search.self_s"] += own[i]
        elif name in ("numeric.grid", "numeric.baseline", "numeric.oracle"):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur
            m[f"{name}.evaluations"] += attrs["evaluations"]
            if name == "numeric.grid":
                m["numeric.grid.self_s"] += own[i]
                m["numeric.grid.refine_rounds"] += attrs["refine_rounds"]
        elif name == "closed_form.solve":
            m["closed_form.solves"] += 1
            m["closed_form.s"] += dur
        elif name == "compare.sweep":
            m["compare.self_s"] += own[i]
        elif name == "simulate.run":
            m["simulate.arrivals"] += attrs["arrivals"]
            m["simulate.blocked_frac"] += attrs["blocked"]
            m["simulate.s"] += dur
        elif name == "simulate.validate":
            m["simulate.validate_s"] += dur
        elif name == "certify.check":
            m[f"certify.check.{attrs['check']}.s"] += dur
        elif name == "certify.birth_death":
            m["certify.birth_death.calls"] += 1
            m["certify.birth_death.s"] += dur
    steps = m["queueing.ontime.term_steps"]
    m["queueing.ns_per_term_step"] = m["queueing.ontime.s"] * 1e9 / steps if steps else 0.0
    rows = m["numeric.quote_search.rows"]
    m["numeric.quote_search.kernel_calls_per_row"] = kernel_points_in_search / rows if rows else 0.0
    arrivals = m["simulate.arrivals"]
    m["simulate.blocked_frac"] = m["simulate.blocked_frac"] / arrivals if arrivals else 0.0
    m["trace.spans"] = stop - first
    return m


def median_metrics(per_pass: list) -> dict:
    """Median of each metric across passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
