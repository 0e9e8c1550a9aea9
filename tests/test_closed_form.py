"""Single-slot closed forms against frozen brute-force optima.

Frozen numbers come from multistart Nelder-Mead (scipy) on the exact
profit expressions, run to fatol 1e-14.  Profits carry ~12 reliable
digits; the coordinate components sit on a flat quadratic and carry
fewer, hence the looser tolerances on lam.
"""

import math

import numpy as np
import pytest

from leadquote import (
    PENALTY_BINDING,
    SERVICE_BINDING,
    MarketParams,
    Policy,
    Solution,
    critical_service_level,
    mm11_profit,
    solve_mm1_baseline,
    solve_mm1k_numeric,
    solve_mm11_no_costs,
    solve_mm11_with_costs,
    sweep,
)
from leadquote.certify import random_params

BASE = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)


def test_no_costs_base_case():
    sol = solve_mm11_no_costs(BASE)
    assert sol.feasible
    assert sol.branch == SERVICE_BINDING
    assert sol.policy.l == BASE.z / BASE.mu
    assert sol.policy.lam == pytest.approx(1.83576590985, rel=1e-8)
    assert sol.policy.p == pytest.approx(5.54319238576, rel=1e-8)
    assert sol.profit == pytest.approx(0.842509113364, rel=1e-10)
    assert sol.service_level_attained == 0.95
    # closed form lam* = -mu + sqrt(mu^2 + a mu - b2 z - m mu b1), verbatim
    rad = 100.0 + 300.0 - 20.0 * math.log(20.0) - 200.0
    assert sol.policy.lam == pytest.approx(-10.0 + math.sqrt(rad), rel=1e-13)
    assert sol.diagnostics["discriminant"] == pytest.approx(rad, rel=1e-14)


def test_with_costs_service_branch():
    params = BASE.with_updates(a=50.0, b2=10.0)
    sol = solve_mm11_with_costs(params)
    assert sol.feasible
    assert sol.branch == SERVICE_BINDING
    assert sol.diagnostics["s_c"] == pytest.approx(0.75)
    assert sol.service_level_attained == 0.95
    assert sol.policy.l == pytest.approx(math.log(20.0) / 10.0, rel=1e-14)
    assert sol.policy.lam == pytest.approx(8.97479057137, rel=1e-8)
    assert sol.policy.p == pytest.approx(9.50736928877, rel=1e-8)
    assert sol.profit == pytest.approx(20.1367164544, rel=1e-10)


def test_with_costs_penalty_branch():
    params = BASE.with_updates(a=50.0, b2=1.0)
    sol = solve_mm11_with_costs(params)
    assert sol.feasible
    assert sol.branch == PENALTY_BINDING
    # x = max(1/(1-s), b1 c / b2) = max(20, 40) = 40
    assert sol.diagnostics["x"] == 40.0
    assert sol.policy.l == pytest.approx(math.log(40.0) / 10.0, rel=1e-14)
    assert sol.service_level_attained == 0.975
    assert sol.policy.lam == pytest.approx(9.68022153723, rel=1e-8)
    assert sol.profit == pytest.approx(23.4266723498, rel=1e-10)


def test_with_costs_base_case():
    sol = solve_mm11_with_costs(BASE)
    assert sol.feasible
    assert sol.branch == SERVICE_BINDING  # s_c = 0.5 < s
    assert sol.diagnostics["s_c"] == pytest.approx(0.5)
    assert sol.policy.lam == pytest.approx(1.40549667028, rel=1e-8)
    assert sol.profit == pytest.approx(0.493855229725, rel=1e-10)


def test_costless_limit_reduces_to_no_costs():
    # "Costs off" means F = c = 0 in every entry point: on BASE and on
    # random markets, including the degenerate b2 = 0 and s = 0 ones.
    rng = np.random.default_rng(17)
    markets = [BASE] + [random_params(rng, costs_on=True).with_updates(**change)
                        for change in [{}, {"b2": 0.0}, {"s": 0.0}] * 8]
    for i, params in enumerate(markets):
        zeroed = params.with_updates(F=0.0, c=0.0)
        with_costs, no_costs = solve_mm11_with_costs(zeroed), solve_mm11_no_costs(params)
        assert with_costs.feasible == no_costs.feasible
        assert with_costs.branch == no_costs.branch == SERVICE_BINDING
        assert with_costs.policy.l == no_costs.policy.l == params.z / params.mu
        assert with_costs.policy.lam == pytest.approx(no_costs.policy.lam, rel=1e-12)
        assert with_costs.policy.p == pytest.approx(no_costs.policy.p, rel=1e-12)
        assert with_costs.profit == pytest.approx(no_costs.profit, rel=1e-12)
        if no_costs.feasible:
            # the cost-free closed form, verbatim
            mu = params.mu
            rad = mu * mu + params.a * mu - params.b2 * params.z - params.m * mu * params.b1
            assert no_costs.policy.lam == pytest.approx(max(-mu + math.sqrt(rad), 0.0),
                                                        rel=1e-12, abs=1e-12)

        base_off = solve_mm1_baseline(params, costs_on=False).to_dict()
        base_on = solve_mm1_baseline(zeroed, costs_on=True).to_dict()
        assert base_off["diagnostics"].pop("costs_on") is False
        assert base_on["diagnostics"].pop("costs_on") is True
        assert base_off == base_on

        if i % 6 == 0:
            grid = ([params.a, params.a + 10.0], [0.0, 5.0, params.b2])
            assert (sweep(params, *grid, costs_on=False).gains
                    == sweep(zeroed, *grid, costs_on=True).gains)


def test_requires_single_slot():
    params = BASE.with_updates(K=3)
    with pytest.raises(ValueError):
        solve_mm11_no_costs(params)
    with pytest.raises(ValueError):
        solve_mm11_with_costs(params)
    with pytest.raises(ValueError):
        mm11_profit(Policy(p=6.0, l=0.3, lam=2.0), params, costs_on=True)


def test_infeasible_returns_null_policy():
    params = BASE.with_updates(m=6.01)  # margin threshold sits at about 6.002
    sol = solve_mm11_no_costs(params)
    assert not sol.feasible
    assert sol.profit == 0.0
    assert sol.policy.lam == 0.0
    assert sol.policy.p == params.m
    assert sol.policy.l == params.z / params.mu

    sol_c = solve_mm11_with_costs(BASE.with_updates(m=7.0))
    assert not sol_c.feasible and sol_c.profit == 0.0 and sol_c.policy.lam == 0.0


def test_boundary_margin_is_feasible_with_zero_profit():
    # m exactly at the break-even margin: lam* collapses to 0, profit to 0
    m_star = (BASE.a * BASE.mu - BASE.b2 * BASE.z) / (BASE.mu * BASE.b1)
    sol = solve_mm11_no_costs(BASE.with_updates(m=m_star))
    assert sol.feasible
    assert sol.policy.lam == pytest.approx(0.0, abs=1e-6)
    assert sol.profit == pytest.approx(0.0, abs=1e-6)


def test_zero_service_floor():
    # s = 0 means z = 0 and an instant quote; lam* = -10 + sqrt(100+300-200)
    params = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.0, K=1)
    sol = solve_mm11_no_costs(params)
    assert sol.feasible
    assert sol.policy.l == 0.0
    assert sol.policy.lam == pytest.approx(-10.0 + math.sqrt(200.0), rel=1e-14)
    assert sol.policy.p == pytest.approx((30.0 - sol.policy.lam) / 4.0, rel=1e-14)
    assert sol.profit == pytest.approx(
        sol.policy.lam * 10.0 * (sol.policy.p - 5.0) / (10.0 + sol.policy.lam), rel=1e-14
    )


def test_critical_service_level_values():
    assert critical_service_level(BASE.with_updates(b2=20.0)) == pytest.approx(0.5)
    assert critical_service_level(BASE.with_updates(b2=2.0)) == pytest.approx(0.95)
    assert critical_service_level(BASE.with_updates(b2=0.0)) == 1.0
    with pytest.raises(ValueError):
        critical_service_level(BASE.with_updates(c=0.0))


def test_penalty_elimination_when_demand_ignores_lead_time():
    params = BASE.with_updates(a=50.0, b2=0.0)
    sol = solve_mm11_with_costs(params)
    assert sol.feasible
    assert sol.branch == PENALTY_BINDING
    assert math.exp(-params.mu * sol.policy.l) <= 1e-12 * (1 + 1e-9)
    assert sol.service_level_attained == pytest.approx(1.0, abs=1e-12)
    # stretching the quote must not have cost anything relative to l = z/mu
    short = Policy(p=sol.policy.p, l=params.z / params.mu, lam=sol.policy.lam)
    assert sol.profit >= mm11_profit(short, params, costs_on=True)
    # one cap in all three systems: the service floor plus ln(1e12)/rate
    stretch = params.z + math.log(1e12)
    assert sol.policy.l == pytest.approx(stretch / params.mu, rel=1e-14)
    finite = solve_mm1k_numeric(params)
    assert finite.policy.l == pytest.approx(sol.policy.l, abs=1e-9)
    accept_all = solve_mm1_baseline(params, costs_on=True)
    assert accept_all.branch == PENALTY_BINDING
    assert accept_all.policy.l == pytest.approx(
        stretch / (params.mu - accept_all.policy.lam), rel=1e-14)


def test_profit_evaluator_hand_values():
    pol = Policy(p=6.0, l=0.3, lam=2.0)
    off = mm11_profit(pol, BASE, costs_on=False)
    assert off == pytest.approx(2.0 * 10.0 * 1.0 / 12.0, rel=1e-14)
    on = mm11_profit(pol, BASE, costs_on=True)
    assert on == pytest.approx(2.0 * (10.0 - 2.0 - 10.0 * math.exp(-3.0)) / 12.0, rel=1e-14)
    with pytest.raises(ValueError):
        mm11_profit(Policy(p=6.0, l=0.3, lam=-1.0), BASE, costs_on=True)
    with pytest.raises(ValueError):
        mm11_profit(Policy(p=6.0, l=-0.1, lam=2.0), BASE, costs_on=True)


def test_solution_round_trips_through_dict():
    sol = solve_mm11_with_costs(BASE)
    again = Solution.from_dict(sol.to_dict())
    assert again == sol
    d = sol.to_dict()
    assert d["policy"]["lambda"] == sol.policy.lam


@pytest.mark.parametrize("solver,costs_on", [(solve_mm11_no_costs, False), (solve_mm11_with_costs, True)])
def test_local_optimality(solver, costs_on):
    sol = solver(BASE)
    best = sol.profit
    eps = 1e-5
    for dlam in (-eps, eps):
        lam = sol.policy.lam + dlam
        pol = Policy(p=inverse_price_at(lam, sol.policy.l), l=sol.policy.l, lam=lam)
        assert mm11_profit(pol, BASE, costs_on) <= best + 1e-12
    # lengthening the quote from the binding value must not help either
    lam = sol.policy.lam
    longer = Policy(p=inverse_price_at(lam, sol.policy.l + eps), l=sol.policy.l + eps, lam=lam)
    assert mm11_profit(longer, BASE, costs_on) <= best + 1e-12


def inverse_price_at(lam: float, l: float) -> float:
    return (BASE.a - BASE.b2 * l - lam) / BASE.b1
