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

Then lambda* solves lambda^2 + 2 mu lambda = R for the margin term R,
taken as R/(mu + sqrt(mu^2 + R)), which forms no difference of nearly
equal terms, and the price rides the binding demand constraint.  R <= 0
puts lambda* at 0, and a solve that sells nothing at a positive profit is
infeasible: _sale holds that rule for every solver and feasibility gate,
and its null policy is _infeasible's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .market import MarketParams, Policy, inverse_price

SERVICE_BINDING = "service-binding"
PENALTY_BINDING = "penalty-binding"

# Quote cap when demand ignores lead time (b2 = 0) but lateness is priced:
# the quote grows until the residual penalty factor exp(-mu*l) is this small,
# which takes rate*l PENALTY_STRETCH beyond the service floor.
PENALTY_ELIMINATION = 1e-12
PENALTY_STRETCH = math.log(1.0 / PENALTY_ELIMINATION)


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


def _require_single_slot(params: MarketParams, who: str) -> None:
    if params.K != 1:
        raise ValueError(f"{who} applies to the single-slot system only (K = 1), got K = {params.K}")


def _infeasible(params: MarketParams, diagnostics: dict) -> Solution:
    # Null policy: price at cost, quote the minimum service-level lead time.
    return Solution(Policy(p=params.m, l=params.z / params.mu, lam=0.0), 0.0, False,
                    params.s, SERVICE_BINDING, diagnostics)


def _sale(params: MarketParams, lam: float, l: float, diagnostics: dict, complete) -> Solution:
    """The one feasibility rule of every solver: a solve is feasible only
    when it sells (lam > 0) at a positive profit, else it is _infeasible's
    null policy with diagnostics.  complete(policy) returns the profit,
    attained level, branch and diagnostics of the policy that sells lam at
    quote l; it runs only when lam > 0."""
    if lam > 0.0:
        policy = Policy(p=inverse_price(lam, l, params), l=l, lam=lam)
        profit, attained, branch, sold = complete(policy)
        if profit > 0.0:
            return Solution(policy, profit, True, attained, branch, sold)
    return _infeasible(params, diagnostics)


def mm11_profit(policy: Policy, params: MarketParams) -> float:
    """Expected profit rate of the single-slot system at a given policy.

    lambda*(mu*(p - m) - F - c*exp(-mu*l))/(mu + lambda): revenue
    lambda_eff*(p - m) with lambda_eff = lambda*mu/(mu + lambda), minus
    holding F*L and the lateness exposure c*lambda_eff*exp(-mu*l)/mu, which
    share that denominator.  Costs off means F = c = 0.
    """
    _require_single_slot(params, "mm11_profit")
    lam, mu = policy.lam, params.mu
    return lam * (mu * (policy.p - params.m) - params.F
                  - params.c * math.exp(-mu * policy.l)) / (mu + lam)


def critical_service_level(params: MarketParams) -> float:
    """Level s_c = 1 - b2/(b1*c) where lateness penalty and demand-loss
    effects of lengthening the quote cancel.  Needs c > 0."""
    if params.c <= 0:
        raise ValueError("critical service level undefined without a lateness penalty (c > 0)")
    return 1.0 - params.b2 / (params.b1 * params.c)


def quote_level(params: MarketParams):
    """ln(x) of the best quote ln(x)/rate, and the constraint that pins it.

    x = max{1/(1-s), b1*c/b2}: penalty-binding with ln(x) = ln(b1*c/b2)
    exactly when s_c > s, else service-binding with ln(x) = params.z.  The
    single-slot system quotes at rate mu, the accept-all benchmark at
    mu - lambda.  Degenerate inputs: c = 0 leaves the service-binding z;
    b2 = 0 (with c > 0) puts no demand pressure against a long quote, so
    it stretches until the lateness factor exp(-rate*l) has fallen by
    PENALTY_ELIMINATION below the service floor, to z + PENALTY_STRETCH.
    """
    if params.c <= 0:
        return params.z, SERVICE_BINDING
    if params.b2 <= 0:
        return params.z + PENALTY_STRETCH, PENALTY_BINDING
    if critical_service_level(params) > params.s:
        return math.log(params.b1 * params.c / params.b2), PENALTY_BINDING
    return params.z, SERVICE_BINDING


def solve_mm11_no_costs(params: MarketParams) -> Solution:
    """Optimal policy for the single-slot system, pure revenue objective:
    the costed problem at F = c = 0, where the service level binds
    (l* = z/mu) and _sale_at sells at the margin R = mu*(a - b1*m) - b2*z.
    """
    _require_single_slot(params, "solve_mm11_no_costs")
    return solve_mm11_with_costs(params.with_updates(F=0.0, c=0.0))


def solve_mm11_with_costs(params: MarketParams) -> Solution:
    """Optimal policy for the single-slot system with holding and lateness costs.

    The quote is l* = ln(x)/mu from quote_level, and _sale_at sells at the
    margin R = mu*(a - b2*l* - b1*m) - b1*(F + c*exp(-mu*l*)).
    """
    _require_single_slot(params, "solve_mm11_with_costs")
    b1, b2, mu, c, s = params.b1, params.b2, params.mu, params.c, params.s
    diagnostics = {"z": params.z}

    log_x, branch = quote_level(params)
    l_star = log_x / mu
    attained = s
    if c > 0 and b2 > 0:
        s_c = critical_service_level(params)
        diagnostics.update(s_c=s_c, x=max(1.0 / (1.0 - s), b1 * c / b2))
        if branch == PENALTY_BINDING:
            attained = s_c
    elif branch == PENALTY_BINDING:
        attained = -math.expm1(-mu * l_star)

    return _sale_at(params, l_star, attained, branch, diagnostics)


def _sale_at(params: MarketParams, l: float, attained, branch, diagnostics: dict) -> Solution:
    """The closed form's best sale at quote l under _sale's rule: for the
    margin R = mu*(a - b2*l - b1*m) - b1*(F + c*exp(-mu*l)) > 0, lambda =
    R/(mu + sqrt(mu^2 + R)), the positive root of lambda^2 + 2 mu lambda = R,
    else 0.  That form is -mu + sqrt(mu^2 + R) without its cancellation, so
    lambda keeps R's own relative accuracy at any mu.  attained, branch and
    diagnostics describe the quote; the gates read only feasible."""
    a, b1, b2, mu, m = params.a, params.b1, params.b2, params.mu, params.m
    margin = mu * (a - b2 * l - b1 * m) - b1 * (params.F + params.c * math.exp(-mu * l))
    radicand = mu * mu + margin
    lam = margin / (mu + math.sqrt(radicand)) if margin > 0.0 else 0.0
    return _sale(params, lam, l, diagnostics, lambda policy: (
        mm11_profit(policy, params), attained, branch, {**diagnostics, "discriminant": radicand}))


def feasible_with_costs(params: MarketParams, l: float) -> bool:
    """Whether the single-slot system sells at a positive profit at finite
    quote l >= 0, by _sale_at's verdict: solve_mm11_with_costs's at l*."""
    _require_single_slot(params, "the feasibility gate")
    if not (math.isfinite(l) and l >= 0):
        raise ValueError(f"quoted lead time l must be finite and >= 0, got {l}")
    return _sale_at(params, l, params.s, SERVICE_BINDING, {}).feasible


def feasible_no_costs(params: MarketParams) -> bool:
    """feasible_with_costs at F = c = 0 and the service-level quote z/mu."""
    return feasible_with_costs(params.with_updates(F=0.0, c=0.0), params.z / params.mu)
