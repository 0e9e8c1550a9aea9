"""Single-slot closed forms against frozen brute-force optima.

Frozen numbers come from multistart Nelder-Mead (scipy) on the exact
profit expressions, run to fatol 1e-14.  Profits carry ~12 reliable
digits; the coordinate components sit on a flat quadratic and carry
fewer, hence the looser tolerances on lam.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leadquote import (
    PENALTY_BINDING,
    SERVICE_BINDING,
    MarketParams,
    Policy,
    critical_service_level,
    feasible_no_costs,
    feasible_with_costs,
    mm11_profit,
    solve_mm1_baseline,
    solve_mm1k_numeric,
    solve_mm11_no_costs,
    solve_mm11_with_costs,
    sweep,
)
from leadquote.certify import random_params
from leadquote.closed_form import quote_level

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
        mm11_profit(Policy(p=6.0, l=0.3, lam=2.0), params)
    with pytest.raises(ValueError, match="single-slot"):
        feasible_no_costs(params)
    with pytest.raises(ValueError, match="single-slot"):
        feasible_with_costs(params, 0.3)


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


def _break_even_margin(params: MarketParams) -> float:
    # m at which the margin term a*mu - mu*b2*l - mu*b1*m - F*b1 - b1*c*e^(-mu*l)
    # vanishes at the best quote l*
    l = quote_level(params)[0] / params.mu
    a, b1, b2, mu, F, c = params.a, params.b1, params.b2, params.mu, params.F, params.c
    return (a * mu - mu * b2 * l - F * b1 - b1 * c * math.exp(-mu * l)) / (mu * b1)


def test_break_even_margin_sells_nothing_so_is_infeasible():
    # m exactly at the break-even margin: lam* collapses to 0, profit to 0,
    # and a solve that sells nothing at a positive profit is infeasible
    m_star = (BASE.a * BASE.mu - BASE.b2 * BASE.z) / (BASE.mu * BASE.b1)
    sol = solve_mm11_no_costs(BASE.with_updates(m=m_star))
    assert not sol.feasible
    assert sol.policy.lam == pytest.approx(0.0, abs=1e-6)
    assert sol.profit == pytest.approx(0.0, abs=1e-6)
    # the costed break-even market, at m on the costed margin and quote l*
    costed = BASE.with_updates(m=_break_even_margin(BASE))
    l_star = quote_level(costed)[0] / costed.mu
    sol_c = solve_mm11_with_costs(costed)
    assert not sol_c.feasible and sol_c.policy.lam == 0.0 and sol_c.profit == 0.0
    assert not feasible_with_costs(costed, l_star)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), costs_on=st.booleans(), ulps=st.integers(-8, 8))
def test_gates_return_their_solves_verdict_next_to_break_even(seed, costs_on, ulps):
    # within a few ulps of the break-even margin the rounding of the radicand
    # decides, and the gates must decide it as the solves do
    params = random_params(np.random.default_rng(seed), costs_on)
    m_star = _break_even_margin(params)
    assume(m_star > 0.0)
    edge = params.with_updates(m=m_star + ulps * math.ulp(m_star))
    l_star = quote_level(edge)[0] / edge.mu
    assert feasible_with_costs(edge, l_star) == solve_mm11_with_costs(edge).feasible
    assert feasible_no_costs(edge) == solve_mm11_no_costs(edge).feasible


@pytest.mark.parametrize("mu", [10.0, 1e5, 1e7])
@pytest.mark.parametrize("f", [0.1, 1e-6, 1e-9])
def test_single_slot_rate_keeps_the_margins_accuracy(mu, f):
    # -mu + sqrt(mu^2 + R) adds mu^2 into the radicand only to take it out
    # again, which costs about mu/lambda ulps; R/(mu + sqrt(mu^2 + R)) costs
    # what rounding R itself costs.  The margin R = mu(a - b2 l - b1 m) -
    # b1(F + c e^(-mu l)) has condition number cond = sum|terms|/|R|, and m
    # is set so that R is a fraction f of its value at m = 0.  Its six
    # roundings and the quotient's three stay below 8 eps cond; the
    # cancelling form was 945 eps cond off at mu = 1e5 and f = 0.1.
    import mpmath

    at_zero = BASE.with_updates(mu=mu, m=0.0)
    l = quote_level(at_zero)[0] / mu
    r0 = mu * (at_zero.a - at_zero.b2 * l) - at_zero.b1 * (at_zero.F + at_zero.c * math.exp(-mu * l))
    params = at_zero.with_updates(m=(1.0 - f) * r0 / (mu * at_zero.b1))
    sol = solve_mm11_with_costs(params)
    assert sol.feasible and sol.policy.l == l
    with mpmath.workdps(60):
        a, b1, b2, m, F, c, M, L = (mpmath.mpf(v) for v in (
            params.a, params.b1, params.b2, params.m, params.F, params.c, mu, l))
        terms = [M * a, -M * b2 * L, -M * b1 * m, -b1 * F, -b1 * c * mpmath.exp(-M * L)]
        margin = sum(terms)
        want = margin / (M + mpmath.sqrt(M * M + margin))
        cond = sum(abs(t) for t in terms) / abs(margin)
        assert abs(sol.policy.lam - want) <= 8 * sys.float_info.epsilon * cond * want
        assert sol.diagnostics["discriminant"] == pytest.approx(float(M * M + margin), rel=1e-15 * cond)


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


@pytest.mark.parametrize("s", [1e-12, 1e-15])
def test_tiny_service_level_quote_is_exact(s):
    # the costs-off K = 1 quote is z/mu with z = -ln(1 - s): z to an ulp and
    # the quotient to half of one, so 2 ulps in all.  ln(1/(1 - s)) read
    # 1.000088900581841e-13 here at s = 1e-12, against 1.0000000000005e-13
    import mpmath

    sol = solve_mm11_no_costs(BASE.with_updates(s=s))
    with mpmath.workdps(50):
        want = float(-mpmath.log(1 - mpmath.mpf(s)) / BASE.mu)
    assert sol.feasible
    assert abs(sol.policy.l - want) <= 2 * np.spacing(want)


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
    assert sol.profit >= mm11_profit(short, params)
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
    # costs off is F = c = 0: revenue only, lam*mu*(p - m)/(mu + lam)
    off = mm11_profit(pol, BASE.with_updates(F=0.0, c=0.0))
    assert off == pytest.approx(2.0 * 10.0 * 1.0 / 12.0, rel=1e-14)
    on = mm11_profit(pol, BASE)
    assert on == pytest.approx(2.0 * (10.0 - 2.0 - 10.0 * math.exp(-3.0)) / 12.0, rel=1e-14)
    with pytest.raises(ValueError):
        mm11_profit(Policy(p=6.0, l=0.3, lam=-1.0), BASE)
    with pytest.raises(ValueError):
        mm11_profit(Policy(p=6.0, l=-0.1, lam=2.0), BASE)
    with pytest.raises(ValueError, match="finite"):
        mm11_profit(Policy(p=6.0, l=0.3, lam=math.nan), BASE)


def test_solution_serializes_to_a_dict():
    sol = solve_mm11_with_costs(BASE)
    d = sol.to_dict()
    assert d["policy"]["lambda"] == sol.policy.lam
    assert (d["profit"], d["feasible"], d["branch"]) == (sol.profit, sol.feasible, sol.branch)
    assert d["diagnostics"] == sol.diagnostics


@pytest.mark.parametrize("solver,costs_on", [(solve_mm11_no_costs, False), (solve_mm11_with_costs, True)])
def test_local_optimality(solver, costs_on):
    sol = solver(BASE)
    best = sol.profit
    market = BASE if costs_on else BASE.with_updates(F=0.0, c=0.0)
    eps = 1e-5
    for dlam in (-eps, eps):
        lam = sol.policy.lam + dlam
        pol = Policy(p=inverse_price_at(lam, sol.policy.l), l=sol.policy.l, lam=lam)
        assert mm11_profit(pol, market) <= best + 1e-12
    # lengthening the quote from the binding value must not help either
    lam = sol.policy.lam
    longer = Policy(p=inverse_price_at(lam, sol.policy.l + eps), l=sol.policy.l + eps, lam=lam)
    assert mm11_profit(longer, market) <= best + 1e-12


def inverse_price_at(lam: float, l: float) -> float:
    return (BASE.a - BASE.b2 * l - lam) / BASE.b1
