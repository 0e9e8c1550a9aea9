"""Certification checks: independent oracles for the analytic layers.

Each check returns a PropertyResult; run_all_checks drives the whole
battery (the CLI's `validate` subcommand).  The oracles deliberately take
different routes than the library code: stationary distributions come from
solving the birth-death balance equations as a linear system, on-time
probabilities from a sum of Erlang cdfs (not the kernel's closed form),
and optimal policies from bound-pruned grid search with inline objectives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammainc

from .closed_form import (
    PENALTY_BINDING,
    SERVICE_BINDING,
    critical_service_level,
    feasible_no_costs,
    feasible_with_costs,
    mm11_profit,
    quote_level,
    solve_mm11_no_costs,
    solve_mm11_with_costs,
)
from .market import MarketParams, Policy
# bench/tracing.py wraps brute_force_oracle here by name; the checks call brute_force_oracles.
from .numeric import (
    _check_resolution,
    brute_force_oracle,
    brute_force_oracles,
    mm1k_profit,
    solve_mm1k_numeric,
)
from .queueing import (
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_ontime_prob,
    mm1k_throughput,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def birth_death_stationary(lam: float, mu: float, K: int) -> np.ndarray:
    """Stationary distribution of the M/M/1/K chain from its balance equations.

    Solves pi Q = 0 with the normalization row appended; no closed forms
    involved, so this is an independent oracle for the queueing module.
    """
    n = K + 1
    Q = np.zeros((n, n))
    for k in range(n):
        if k < K:
            Q[k, k + 1] = lam
            Q[k, k] -= lam
        if k > 0:
            Q[k, k - 1] = mu
            Q[k, k] -= mu
    A = Q.T.copy()
    A[-1, :] = 1.0  # one balance row is redundant; replace it by normalization
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def erlang_ontime_oracle(lam: float, mu: float, K: int, l: float) -> float:
    """P(W <= l) from the stationary law and each admitted state's Erlang cdf."""
    pi = birth_death_stationary(lam, mu, K)
    admit = pi[:K] / (1.0 - pi[K])
    # l / (1/mu), the scale form, matches scipy.stats.erlang.cdf bit for bit.
    return float(sum(admit[k] * gammainc(k + 1, l / (1.0 / mu)) for k in range(K)))


def random_params(rng: np.random.Generator, costs_on: bool) -> MarketParams:
    """One random parameter draw in a broad, sane box."""
    return MarketParams(
        a=float(rng.uniform(15.0, 80.0)),
        b1=float(rng.uniform(1.0, 8.0)),
        b2=float(rng.uniform(0.5, 25.0)),
        mu=float(rng.uniform(4.0, 20.0)),
        m=float(rng.uniform(0.0, 8.0)),
        s=float(rng.uniform(0.5, 0.99)),
        F=float(rng.uniform(0.0, 5.0)) if costs_on else 0.0,
        c=float(rng.uniform(0.5, 20.0)) if costs_on else 0.0,
        K=1,
    )


def random_feasible_params(rng: np.random.Generator, costs_on: bool) -> MarketParams:
    """Rejection-sample a draw on which the single-slot solver is feasible
    and actually sells something (lambda* > 0.01), in at most 1000 tries.
    Cost-free draws have F = c = 0."""
    for _ in range(1000):
        params = random_params(rng, costs_on)
        sol = solve_mm11_with_costs(params)
        if sol.feasible and sol.policy.lam > 0.01:
            return params
    raise RuntimeError("could not draw a feasible instance")


def _residual(params: MarketParams, lam: float, l: float) -> float:
    """Profit derivative in lambda of the single-slot problem."""
    mu = params.mu
    margin = (
        params.a * mu - mu * params.b2 * l - 2.0 * mu * lam
        - mu * params.m * params.b1 - params.F * params.b1
        - params.b1 * params.c * math.exp(-mu * l) - lam * lam
    )
    return mu * margin / (params.b1 * (mu + lam) ** 2)


def check_queueing_against_birth_death() -> PropertyResult:
    """Blocking, mean number, and throughput vs the balance-equation solve."""
    tol = 1e-10
    worst = 0.0
    worst_at = ""
    for K in (1, 2, 5, 20, 200):
        for ratio in (0.25, 0.5, 0.9, 1.0, 1.3, 2.5):
            lam, mu = 10.0 * ratio, 10.0
            pi = birth_death_stationary(lam, mu, K)
            truth = {
                "block": pi[K],
                "number": float(np.arange(K + 1) @ pi),
                "throughput": lam * (1.0 - pi[K]),
            }
            got = {
                "block": mm1k_blocking(lam, mu, K),
                "number": mm1k_mean_number(lam, mu, K),
                "throughput": mm1k_throughput(lam, mu, K),
            }
            for key in truth:
                err = abs(truth[key] - got[key]) / max(1.0, abs(truth[key]))
                if err > worst:
                    worst, worst_at = err, f"{key} at K={K}, rho={ratio}"
    return PropertyResult(
        "queueing-vs-birth-death", worst <= tol,
        f"worst relative error {worst:.3e} ({worst_at}), tolerance {tol:.0e}",
    )


def check_ontime_against_erlang_oracle() -> PropertyResult:
    """On-time probability vs the Erlang-cdf + balance-equation assembly."""
    tol = 1e-9
    worst = 0.0
    for K in (1, 2, 5, 20):
        for ratio in (0.3, 0.8, 1.0, 1.7):
            for l in (0.05, 0.2, 0.8):
                lam, mu = 10.0 * ratio, 10.0
                truth = erlang_ontime_oracle(lam, mu, K, l)
                got = mm1k_ontime_prob(lam, mu, K, l)
                worst = max(worst, abs(truth - got))
    return PropertyResult(
        "ontime-vs-erlang-oracle", worst <= tol,
        f"worst absolute error {worst:.3e}, tolerance {tol:.0e}",
    )


def check_mm1_limit() -> PropertyResult:
    """Large buffers at moderate load behave like the accept-all M/M/1."""
    tol = 1e-6
    worst = 0.0
    K = 200
    for rho in (0.3, 0.6, 0.9):
        lam, mu = 10.0 * rho, 10.0
        ls_err = abs(mm1k_mean_number(lam, mu, K) - rho / (1 - rho)) / (rho / (1 - rho))
        w = mm1k_mean_number(lam, mu, K) / mm1k_throughput(lam, mu, K)
        w_err = abs(w - 1.0 / (mu - lam)) * (mu - lam)
        worst = max(worst, ls_err, w_err)
    return PropertyResult(
        "mm1-limit-at-large-K", worst <= tol,
        f"worst relative error {worst:.3e} at K=200, tolerance {tol:.0e}",
    )


def check_single_slot_reduction() -> PropertyResult:
    """General finite-buffer profit at K = 1 equals the single-slot form."""
    n, tol = 100, 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(n):
        params = random_params(rng, costs_on=True)
        policy = Policy(
            p=float(rng.uniform(0.0, params.a / params.b1)),
            l=float(rng.uniform(0.0, 2.0)),
            lam=float(rng.uniform(0.0, params.a)),
        )
        a_val = mm1k_profit(policy, params)
        b_val = mm11_profit(policy, params)
        worst = max(worst, abs(a_val - b_val) / max(1.0, abs(b_val)))
    return PropertyResult(
        "single-slot-reduction", worst <= tol,
        f"worst relative gap {worst:.3e} over {n} random policies, tolerance {tol:.0e}",
    )


def _check_instances(n) -> None:
    """The oracle check's instance count must be an int (not a bool) >= 1."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"the oracle check needs n >= 1 instances, got {n}")


def check_closed_form_against_oracle(costs_on: bool, n: int = 100, seed: int = 11,
                                     resolution: int = 160) -> PropertyResult:
    """Closed-form optima vs the grid oracle, plus stationarity residuals.
    Without costs the draws have F = c = 0.  All n >= 1 draws (n an
    integer) are made first and searched by one batched oracle call, whose
    points the detail counts.  n and resolution are checked before any
    draw."""
    _check_instances(n)
    _check_resolution(resolution)
    tol, residual_tol = 1e-4, 1e-8
    rng = np.random.default_rng(seed)
    markets = [random_feasible_params(rng, costs_on) for _ in range(n)]
    refs = brute_force_oracles(markets, "mm11", resolution=resolution)
    worst_gap = 0.0
    worst_res = 0.0
    for params, ref in zip(markets, refs):
        sol = solve_mm11_with_costs(params)
        gap = abs(sol.profit - ref.profit) / max(1.0, abs(sol.profit))
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, abs(_residual(params, sol.policy.lam, sol.policy.l)))
    ok = worst_gap <= tol and worst_res <= residual_tol
    label = "with-costs" if costs_on else "no-costs"
    return PropertyResult(
        f"closed-form-vs-oracle-{label}", ok,
        f"worst profit gap {worst_gap:.3e} (tol {tol:.0e}), "
        f"worst stationarity residual {worst_res:.3e} (tol {residual_tol:.0e}), n={n}, "
        f"{sum(ref.diagnostics['evaluations'] for ref in refs)} oracle evaluations",
    )


def check_branch_dichotomy() -> PropertyResult:
    """Attained service level follows max(s, s_c) around the crossover b2 = b1*c*(1-s)."""
    tol = 1e-10
    base = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)
    crossover = base.b1 * base.c * (1.0 - base.s)  # = 2 for the base numbers
    ok = True
    worst = 0.0
    for b2 in (0.25, 0.5, 1.0, 1.5, 1.9, 2.1, 3.0, 5.0, 10.0, 20.0):
        params = base.with_updates(b2=b2)
        sol = solve_mm11_with_costs(params)
        if not sol.feasible:
            ok = False
            continue
        if b2 < crossover:
            expect = critical_service_level(params)
            ok = ok and sol.branch == PENALTY_BINDING
        else:
            expect = base.s
            ok = ok and sol.branch == SERVICE_BINDING
        worst = max(worst, abs(sol.service_level_attained - expect))
    return PropertyResult(
        "branch-dichotomy", ok and worst <= tol,
        f"attained-level worst deviation {worst:.3e} across the b2 sweep, tolerance {tol:.0e}",
    )


def check_numeric_matches_closed_form() -> PropertyResult:
    """General numeric solver at K = 1 vs the closed forms."""
    n, rel_tol = 4, 1e-3
    rng = np.random.default_rng(3)
    worst = 0.0
    for costs_on in (False, True):
        for _ in range(n):
            params = random_feasible_params(rng, costs_on)
            closed = solve_mm11_with_costs(params)
            numeric = solve_mm1k_numeric(params)
            gap = abs(closed.profit - numeric.profit) / max(1.0, abs(closed.profit))
            worst = max(worst, gap)
    return PropertyResult(
        "numeric-vs-closed-form-at-K1", worst <= rel_tol,
        f"worst relative profit gap {worst:.3e} over {2 * n} instances, tolerance {rel_tol:.0e}",
    )


def check_feasibility_gates() -> PropertyResult:
    """The public gates, which no solver calls, return the closed-form
    solves' feasible, and a failed solve is the null policy: on random draws
    and on the default market at its break-even margin, costs off and on."""
    n = 200
    rng = np.random.default_rng(23)
    base = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0)
    # m at break-even, where _residual at lambda = 0 (the margin less m, over b1*mu) is 0
    edges = [p.with_updates(m=_residual(p.with_updates(m=0.0), 0.0, quote_level(p)[0] / p.mu))
             for p in (base.with_updates(F=0.0, c=0.0), base)]
    ok = True
    for params in [random_params(rng, costs_on=True) for _ in range(n)] + edges:
        ok = ok and solve_mm11_no_costs(params).feasible == feasible_no_costs(params)
        sol_c = solve_mm11_with_costs(params)
        l_star = quote_level(params)[0] / params.mu
        ok = ok and sol_c.feasible == feasible_with_costs(params, l_star)
        if not sol_c.feasible:
            ok = ok and sol_c.policy.lam == 0.0 and sol_c.profit == 0.0
    return PropertyResult(
        "feasibility-gates", ok,
        f"gate/solver agreement over {n} random draws and {len(edges)} break-even markets",
    )


def run_all_checks(n_instances: int = 100, resolution: int = 160,
                   seed: int = 11) -> list:
    """The full battery, ordered cheap to expensive.  n_instances and
    resolution are checked first, so a bad one fails before any check runs."""
    _check_instances(n_instances)
    _check_resolution(resolution)
    return [
        check_queueing_against_birth_death(),
        check_ontime_against_erlang_oracle(),
        check_mm1_limit(),
        check_single_slot_reduction(),
        check_feasibility_gates(),
        check_branch_dichotomy(),
        check_closed_form_against_oracle(False, n=n_instances, seed=seed,
                                         resolution=resolution),
        check_closed_form_against_oracle(True, n=n_instances, seed=seed + 1,
                                         resolution=resolution),
        check_numeric_matches_closed_form(),
    ]
