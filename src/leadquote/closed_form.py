"""Closed-form optimal policies for the single-slot (K = 1) rejection system.

With K = 1 the expected profit rate collapses to an explicit function of
(lambda, l): throughput is lambda*mu/(mu+lambda), the admitted job's sojourn
is Exp(mu), and the lateness exposure factor is exp(-mu*l)/mu.  The problem
then reduces to a concave quadratic in lambda once the optimal quote is
pinned down.  The quote balances the lateness penalty against the demand
lost to a longer quote: l* = ln(x)/mu with x = max{1/(1-s), b1*c/b2},
equivalently an attained service level of max{s, s_c} where
s_c = 1 - b2/(b1*c) is the critical level at which the penalty and demand
effects cancel.  quote_level holds this rule once; the accept-all M/M/1
benchmark uses it with mu - lambda for mu.  The cost-free problem is the
costed one at F = c = 0, where the service level binds: l* = z/mu with
z = ln(1/(1-s)).

Then lambda* = -mu + sqrt(mu^2 + R) for the margin term R, and the price
rides the binding demand constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .market import (
    MarketParams,
    Policy,
    feasible_with_costs,
    inverse_price,
)

SERVICE_BINDING = "service-binding"
PENALTY_BINDING = "penalty-binding"

# Quote cap when demand ignores lead time (b2 = 0) but lateness is priced:
# the quote grows until the residual penalty factor exp(-mu*l) is this small.
PENALTY_ELIMINATION = 1e-12


@dataclass(frozen=True)
class Solution:
    """Solver output: the policy, its value, and how it was obtained.

    branch records which constraint pinned the quote; diagnostics carries
    named intermediates (z, critical level, quadratic radicand, ...) so a
    solution is auditable without re-deriving it.
    """

    policy: Policy
    profit: float
    feasible: bool
    service_level_attained: float
    branch: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.to_dict(),
            "profit": self.profit,
            "feasible": self.feasible,
            "service_level_attained": self.service_level_attained,
            "branch": self.branch,
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Solution":
        return cls(
            policy=Policy.from_dict(d["policy"]),
            profit=float(d["profit"]),
            feasible=bool(d["feasible"]),
            service_level_attained=float(d["service_level_attained"]),
            branch=str(d["branch"]),
            diagnostics=dict(d.get("diagnostics", {})),
        )


def _require_single_slot(params: MarketParams, who: str) -> None:
    if params.K != 1:
        raise ValueError(f"{who} applies to the single-slot system only (K = 1), got K = {params.K}")


def _infeasible(params: MarketParams, diagnostics: dict) -> Solution:
    # Null policy: price at cost, quote the minimum service-level lead time.
    z = params.z
    policy = Policy(p=params.m, l=z / params.mu, lam=0.0)
    return Solution(
        policy=policy,
        profit=0.0,
        feasible=False,
        service_level_attained=params.s,
        branch=SERVICE_BINDING,
        diagnostics=diagnostics,
    )


def mm11_profit(policy: Policy, params: MarketParams, costs_on: bool) -> float:
    """Expected profit rate of the single-slot system at a given policy.

    Revenue lambda_eff*(p - m), minus (when costs_on) holding F*L and the
    lateness exposure c*lambda_eff*exp(-mu*l)/mu; all three share the
    denominator mu + lambda.
    """
    _require_single_slot(params, "mm11_profit")
    lam, mu = policy.lam, params.mu
    if lam < 0:
        raise ValueError("policy demand rate must be >= 0")
    if policy.l < 0:
        raise ValueError("policy lead time must be >= 0")
    margin = mu * (policy.p - params.m)
    if costs_on:
        margin -= params.F + params.c * math.exp(-mu * policy.l)
    return lam * margin / (mu + lam)


def critical_service_level(params: MarketParams) -> float:
    """Level s_c = 1 - b2/(b1*c) where lateness penalty and demand-loss
    effects of lengthening the quote cancel.  Needs c > 0."""
    if params.c <= 0:
        raise ValueError("critical service level undefined without a lateness penalty (c > 0)")
    return 1.0 - params.b2 / (params.b1 * params.c)


def quote_level(params: MarketParams):
    """ln(x) of the best quote ln(x)/rate, and the constraint that pins it.

    x = max{1/(1-s), b1*c/b2}, penalty-binding exactly when s_c > s.  The
    single-slot system quotes at rate mu, the accept-all benchmark at
    mu - lambda.  Degenerate inputs: c = 0 leaves the service-binding z;
    b2 = 0 (with c > 0) puts no demand pressure against a long quote, so
    it stretches until the lateness factor exp(-rate*l) has fallen by
    PENALTY_ELIMINATION below the service floor.
    """
    if params.c <= 0:
        return params.z, SERVICE_BINDING
    if params.b2 <= 0:
        return params.z + math.log(1.0 / PENALTY_ELIMINATION), PENALTY_BINDING
    x = max(1.0 / (1.0 - params.s), params.b1 * params.c / params.b2)
    branch = PENALTY_BINDING if critical_service_level(params) > params.s else SERVICE_BINDING
    return math.log(x), branch


def solve_mm11_no_costs(params: MarketParams) -> Solution:
    """Optimal policy for the single-slot system, pure revenue objective:
    the costed problem at F = c = 0, where the service level binds
    (l* = z/mu) and lambda* = -mu + sqrt(mu^2 + a*mu - b2*z - m*mu*b1).
    """
    _require_single_slot(params, "solve_mm11_no_costs")
    return solve_mm11_with_costs(params.with_updates(F=0.0, c=0.0))


def solve_mm11_with_costs(params: MarketParams) -> Solution:
    """Optimal policy for the single-slot system with holding and lateness costs.

    The quote is l* = ln(x)/mu from quote_level; then
    lambda* = -mu + sqrt(mu^2 + a*mu - mu*b2*l* - mu*b1*m - F*b1 - b1*c*exp(-mu*l*)).
    """
    _require_single_slot(params, "solve_mm11_with_costs")
    a, b1, b2, mu, m = params.a, params.b1, params.b2, params.mu, params.m
    F, c, s = params.F, params.c, params.s
    diagnostics = {"z": params.z}

    log_x, branch = quote_level(params)
    l_star = log_x / mu
    attained = s
    if c > 0 and b2 > 0:
        s_c = critical_service_level(params)
        diagnostics["s_c"] = s_c
        diagnostics["x"] = max(1.0 / (1.0 - s), b1 * c / b2)
        if branch == PENALTY_BINDING:
            attained = s_c
    elif branch == PENALTY_BINDING:
        attained = 1.0 - math.exp(-mu * l_star)

    if not feasible_with_costs(params, l_star):
        return _infeasible(params, diagnostics)

    penalty_residual = c * math.exp(-mu * l_star)
    radicand = mu * mu + a * mu - mu * b2 * l_star - mu * b1 * m - F * b1 - b1 * penalty_residual
    diagnostics["discriminant"] = radicand
    if radicand < 0:
        raise ArithmeticError(f"negative discriminant {radicand} on a feasible instance")
    lam_star = max(-mu + math.sqrt(radicand), 0.0)
    p_star = inverse_price(lam_star, l_star, params)
    profit = (
        lam_star * (mu * (p_star - m) - F - penalty_residual) / (mu + lam_star)
        if lam_star > 0
        else 0.0
    )
    return Solution(
        policy=Policy(p=p_star, l=l_star, lam=lam_star),
        profit=profit,
        feasible=True,
        service_level_attained=attained,
        branch=branch,
        diagnostics=diagnostics,
    )
