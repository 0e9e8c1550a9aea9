"""The four benchmark workloads: inputs made from a seed, the operations
that call leadquote, and the check of every output.

Each workload yields one pass of operations at a time.  An operation calls
the package through module attributes (`numeric.solve_mm1k_numeric`, not a
name imported here), so the wrappers of a traced run see the call.  Checks
run outside the timed operations and return one `Outcome` per checked
output: a finite-buffer solve, a gain-table cell, a simulate-then-validate
run, a certification check or an on-time probe.
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

from leadquote import MarketParams, Policy
from leadquote import certify, closed_form, compare, numeric, queueing

# The package exports the function simulate under the submodule's name.
sim = importlib.import_module("leadquote.simulate")

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
BASE = MarketParams(**REFERENCE["base_market"])

# Relative tolerances of the finite-buffer checks.
SERVICE_TOL = 1e-9        # attained level vs s, and vs the Erlang oracle
PROFIT_REL_TOL = 1e-9     # reported profit vs mm1k_profit(policy); floor vs reference
CLOSED_FORM_TOL = 1e-3    # K = 1 profit vs the closed form

# Expected arrivals per simulate call: long enough that the event loop
# dominates the call, short enough for several passes per run.
SIM_ARRIVALS = 4e5

# Two-sided p-value below which a simulate estimate counts as wrong.  With
# six checks per call and about 60 calls per run, a correct simulator fails
# a run by chance about once in 3e4 runs; a service rate 5% off gives
# p ~ 1e-9 already at 1e5 arrivals.
P_FAIL = 1e-7


@dataclass(frozen=True)
class Outcome:
    """Verdict on one checked output."""

    output: str
    ok: bool
    detail: str
    raised: bool = False


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    tags: dict = field(default_factory=dict)


class Workload:
    """Counters and summaries default to none; subclasses add their own."""

    def outcomes(self, records: list) -> list:
        """Check every output of one pass.  An operation that raised is a
        failed output."""
        out = []
        for r in records:
            if r.error is not None:
                last_line = r.error.strip().splitlines()[-1]
                out.append(Outcome(r.op.label, False, last_line, raised=True))
            else:
                out.extend(r.op.check(r.output))
        return out

    def counters(self, records: list) -> dict:
        """Counts the package reports in its outputs, for one pass."""
        return {}

    def summary(self, passes: list) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}


def _pass_order(items: list, seed: int, pass_index: int) -> list:
    """The items in an order drawn from the seed and the pass.  The first
    operation after the previous pass's checks runs slower, so each pass
    gets a fresh order and no one order sets a run's median."""
    return random.Random(f"{seed}/{pass_index}").sample(items, len(items))


def _market(a: float, b2: float, K: int) -> MarketParams:
    return BASE.with_updates(a=a, b2=b2, K=K)


class FiniteBufferSolve(Workload):
    """solve_mm1k_numeric on the base, wide and b2 = 0 markets."""

    name = "finite_buffer_solve"
    MARKETS = [(30.0, 20.0, K) for K in (1, 5, 20, 200)] + \
              [(70.0, 5.0, K) for K in (1, 5, 20, 200)] + [(30.0, 0.0, 5)]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = REFERENCE["finite_buffer_profits"]["profits"]

    def warmup(self) -> None:
        numeric.solve_mm1k_numeric(_market(30.0, 20.0, 1))

    def ops(self, pass_index: int) -> list:
        out = []
        for a, b2, K in _pass_order(self.MARKETS, self.seed, pass_index):
            params = _market(a, b2, K)
            label = f"a={a:g} b2={b2:g} K={K}"
            out.append(Op(label, lambda p=params: numeric.solve_mm1k_numeric(p),
                          lambda sol, p=params, lb=label: self.check(sol, p, lb), {"K": K}))
        return out

    def check(self, sol, params: MarketParams, label: str) -> list:
        failures = []
        policy = sol.policy
        if not sol.feasible:
            failures.append("infeasible")
        else:
            attained = sol.service_level_attained
            if attained < params.s - SERVICE_TOL:
                failures.append(f"attained level {attained!r} below s = {params.s}")
            oracle = certify.erlang_ontime_oracle(policy.lam, params.mu, params.K, policy.l)
            if abs(attained - oracle) > SERVICE_TOL:
                failures.append(f"attained level {attained!r} vs Erlang oracle {oracle!r}")
            direct = numeric.mm1k_profit(policy, params)
            if abs(sol.profit - direct) > PROFIT_REL_TOL * abs(direct):
                failures.append(f"profit {sol.profit!r} vs mm1k_profit {direct!r}")
            if params.K == 1:
                closed = closed_form.solve_mm11_with_costs(params).profit
                if abs(sol.profit - closed) > CLOSED_FORM_TOL:
                    failures.append(f"profit {sol.profit!r} vs closed form {closed!r}")
            floor = self.reference[label]
            if sol.profit < floor - PROFIT_REL_TOL * abs(floor):
                failures.append(f"profit {sol.profit!r} below reference {floor!r}")
        return [Outcome(label, not failures, "; ".join(failures) or f"profit {sol.profit!r}")]

    def summary(self, passes: list) -> dict:
        # Mean over a pass's solves at one K (the two markets differ in cost),
        # then the median over passes.
        def median_ms(K):
            return 1e3 * statistics.median(
                statistics.fmean(r.seconds for r in p.records if r.op.tags["K"] == K)
                for p in passes)
        return {"solve_ms.K1": (median_ms(1), "ms"), "solve_ms.K200": (median_ms(200), "ms")}

    def counters(self, records: list) -> dict:
        sols = [r.output for r in records if r.error is None]
        return {"numeric.grid.evaluations": sum(s.diagnostics["evaluations"] for s in sols),
                "numeric.grid.refine_rounds": sum(s.diagnostics["refine_rounds"] for s in sols)}


class GainTables(Workload):
    """compare.sweep over the published 5 x 16 (a, b2) grid, costs off and on."""

    name = "gain_tables"

    def __init__(self, seed: int) -> None:
        ref = REFERENCE["gain_tables"]
        self.a_values, self.b2_values = ref["a_values"], ref["b2_values"]
        self.tolerance = ref["tolerance_pp"]
        self.tables = {False: ref["costs_off"], True: ref["costs_on"]}
        self.seed = seed

    def warmup(self) -> None:
        compare.sweep(BASE, [30.0], [20.0], costs_on=True, jobs=1)

    def ops(self, pass_index: int) -> list:
        return [Op(f"sweep costs-{'on' if costs else 'off'}",
                   lambda c=costs: compare.sweep(BASE, self.a_values, self.b2_values,
                                                 costs_on=c, jobs=1),
                   lambda table, c=costs: self.check(table, c))
                for costs in _pass_order([False, True], self.seed, pass_index)]

    def check(self, table, costs_on: bool) -> list:
        reference = self.tables[costs_on]
        tag = "costs-on" if costs_on else "costs-off"
        out = []
        for i, b2 in enumerate(self.b2_values):
            for j, a in enumerate(self.a_values):
                want = reference[i][j]
                got = table.cell(a, b2)
                ok = got is not None and abs(got - want) <= self.tolerance
                out.append(Outcome(f"{tag} a={a:g} b2={b2:g}", ok,
                                   f"gain {got!r} pp vs published {want}"))
        return out

    def summary(self, passes: list) -> dict:
        cells = 2 * len(self.a_values) * len(self.b2_values)
        return {"cells_per_s": (statistics.median(cells / p.seconds for p in passes), "cells/s")}

    def counters(self, records: list) -> dict:
        return {"numeric.baseline.evaluations": sum(
            sol.diagnostics["evaluations"] for r in records if r.error is None
            for row in r.output.accept for sol in row)}


class SimulateValidate(Workload):
    """simulate then validate: the solved base K = 1 policy and two fixed
    policies, each on fresh sample paths drawn from the seed."""

    name = "simulate_validate"
    CASES = [(1, None), (3, Policy(p=9.0, l=0.3, lam=5.0)), (10, Policy(p=6.0, l=1.2, lam=14.0))]

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warmup(self) -> None:
        K, policy = self.CASES[1]
        params = BASE.with_updates(K=K)
        sim.validate(sim.simulate(policy, params, horizon=2e4 / policy.lam, seed=0), params, policy)

    def ops(self, pass_index: int) -> list:
        out = []
        for case, (K, policy) in _pass_order(list(enumerate(self.CASES)), self.seed, pass_index):
            entropy = [self.seed, pass_index, case]
            run_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
            label = f"simulate K={K} pass={pass_index}"
            out.append(Op(label, lambda K=K, pol=policy, s=run_seed: self.run(K, pol, s),
                          lambda res, lb=label: self.check(res, lb)))
        return out

    @staticmethod
    def run(K: int, policy, seed: int):
        params = BASE.with_updates(K=K)
        if policy is None:
            policy = closed_form.solve_mm11_with_costs(params).policy
        report = sim.simulate(policy, params, horizon=SIM_ARRIVALS / policy.lam, seed=seed)
        return report, sim.validate(report, params, policy)

    def check(self, result, label: str) -> list:
        """Fails the run when some estimate is further from its analytic
        value than chance allows at P_FAIL.  The program's own 3-sigma
        verdict is reported beside it: a correct simulator misses it on
        about 4% of calls."""
        report, verdict = result
        p_values = {}
        for c in verdict.checks:
            gap = abs(c.estimate - c.analytic)
            if c.sigma > 0:
                p_values[c.name] = float(2.0 * stats.t.sf(gap / c.sigma, sim.N_BATCHES - 1))
            else:
                p_values[c.name] = 1.0 if gap <= 1e-9 else 0.0
        rejected = sorted(name for name, p in p_values.items() if p < P_FAIL)
        outside = [c.name for c in verdict.checks if not c.ok]
        detail = (f"{report.n_arrivals} arrivals; min p = {min(p_values.values()):.3g}"
                  + (f"; p < {P_FAIL:g}: {rejected}" if rejected else "")
                  + (f"; outside 3 sigma: {outside}" if outside else ""))
        return [Outcome(label, not rejected, detail)]

    def summary(self, passes: list) -> dict:
        rate = statistics.median(p.counters["simulate.arrivals"] / p.seconds for p in passes)
        missed = sum(p.counters["simulate.outside_3sigma"] for p in passes)
        calls = sum(len(p.records) for p in passes)
        return {"arrivals_per_s": (rate, "arrivals/s"),
                "outside_3sigma_frac": (missed / calls, "fraction")}

    def counters(self, records: list) -> dict:
        reports = [r.output[0] for r in records if r.error is None]
        arrivals = sum(rep.n_arrivals for rep in reports)
        return {"simulate.arrivals": arrivals,
                "simulate.blocked_frac": sum(rep.n_blocked for rep in reports) / max(arrivals, 1),
                "simulate.outside_3sigma": sum(not r.output[1].ok for r in records
                                               if r.error is None)}


class CertifyBattery(Workload):
    """run_all_checks at the CLI defaults plus two large-K on-time probes."""

    name = "certify_battery"

    def __init__(self, seed: int) -> None:
        probes = REFERENCE["ontime_probes"]
        self.tolerance = probes["tolerance"]
        self.items = [("battery", None)] + list(probes["probes"].items())
        self.seed = seed

    def warmup(self) -> None:
        certify.check_queueing_against_birth_death()

    def ops(self, pass_index: int) -> list:
        out = []
        for label, probe in _pass_order(self.items, self.seed, pass_index):
            if probe is None:
                out.append(Op(label, lambda: certify.run_all_checks(),
                              lambda results: [Outcome(r.name, r.ok, r.detail) for r in results]))
            else:
                out.append(Op(label,
                              lambda p=probe: queueing.mm1k_ontime_prob(p["lam"], p["mu"],
                                                                        p["K"], p["l"]),
                              lambda value, lb=label, p=probe: self.check_probe(value, lb, p)))
        return out

    def check_probe(self, value: float, label: str, probe: dict) -> list:
        ok = abs(value - probe["ontime"]) <= self.tolerance
        return [Outcome(label, ok, f"P(W <= l) = {value!r}, true {probe['ontime']!r}")]


WORKLOADS = {w.name: w for w in (FiniteBufferSolve, GainTables, SimulateValidate, CertifyBattery)}
KNOWN_FAILURES = REFERENCE["known_failures"]["outputs"]


def grade(outcomes: list, known: dict = KNOWN_FAILURES) -> tuple:
    """(failed outputs, correct) for all the outcomes of a run.

    Every failed output counts.  A run is correct when no operation raised
    and every failed output is a known failure.
    """
    failed = [o for o in outcomes if not o.ok]
    unexplained = [o for o in failed if o.raised or o.output not in known]
    return failed, not unexplained
