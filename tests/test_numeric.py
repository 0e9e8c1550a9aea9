"""Grid solvers: engine behavior, baselines against frozen optimizer
values, and the finite-buffer evaluator against a frozen birth-death
number.  The heavier random-instance certification lives in
test_certify and the acceptance suite."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from leadquote import (
    MarketParams,
    Policy,
    brute_force_oracle,
    brute_force_oracles,
    min_leadtime_for_service,
    mm1_ontime_prob,
    mm1_profit,
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_ontime_prob,
    mm1k_profit,
    solve_mm11_no_costs,
    solve_mm11_with_costs,
    solve_mm1_baseline,
    solve_mm1k_numeric,
)
from leadquote import numeric
from leadquote.certify import random_feasible_params, random_params
from leadquote.closed_form import quote_level
from leadquote.numeric import _pinned
from leadquote.queueing import erlang_quantile_bracket

BASE = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)


def test_export_list_resolves_and_omits_removed_surface():
    import leadquote

    assert all(hasattr(leadquote, name) for name in leadquote.__all__)
    for gone in ("SolverConfig", "QueueMetrics", "mm1k_metrics"):
        assert gone not in leadquote.__all__
        assert not hasattr(leadquote, gone)


def test_min_leadtime_single_slot_is_exponential_quantile():
    # K = 1: P(W <= l) = 1 - exp(-mu l), so the minimum quote is z/mu.  The
    # bracket starts there, so the quote is z/mu to rounding in any unit of
    # time.
    for mu in (1e-3, 1.0, 10.0, 1e4):
        for s in (0.5, 0.95, 0.999):
            params = BASE.with_updates(mu=mu, s=s)
            got = min_leadtime_for_service(mu * np.linspace(0.0, 4.0, 41), params)
            assert np.max(np.abs(got / (params.z / mu) - 1.0)) <= 1e-12
    scalar = min_leadtime_for_service(2.0, BASE)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(BASE.z / BASE.mu, abs=1e-9)


def test_min_leadtime_zero_when_no_service_floor():
    params = BASE.with_updates(s=0.0)
    assert min_leadtime_for_service(3.0, params) == 0.0


def test_min_leadtime_increases_with_load_and_buffer():
    p3 = BASE.with_updates(K=3)
    quotes = min_leadtime_for_service(np.array([1.0, 5.0, 9.0, 12.0]), p3)
    assert np.all(np.diff(quotes) > 0)
    p10 = BASE.with_updates(K=10)
    assert min_leadtime_for_service(9.0, p10) > min_leadtime_for_service(9.0, p3)


def _bisected_quote(lams, params, tol=1e-12):
    lo = np.zeros_like(lams)
    hi = np.full_like(lams, erlang_quantile_bracket(params.mu, params.K, params.z))
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        ok = mm1k_ontime_prob(lams, params.mu, params.K, mid) >= params.s
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    return hi


@pytest.mark.parametrize("K", [1, 5, 200, 1000])
def test_newton_quote_matches_bisection(K):
    # rho = 0.1, exactly 1, and 3
    params = BASE.with_updates(K=K)
    lams = np.array([1.0, 10.0, 30.0])
    got = min_leadtime_for_service(lams, params)
    assert np.all(mm1k_ontime_prob(lams, params.mu, K, got) >= params.s)
    assert np.max(np.abs(got - _bisected_quote(lams, params))) <= 1e-10


# rho spans light loads, rho = 1 neighbourhoods and rho >> 1, where the
# kernel takes its first term in log space.
SEARCH_MU = st.floats(0.5, 50.0)
SEARCH_K = st.sampled_from([1, 2, 5, 20, 200, 2000])
SEARCH_RHO = st.lists(st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 1e3)), min_size=1, max_size=6)


def _check_service_search(params, lam, slack=0.0):
    """The search's quote is >= 0, meets the level, is within X_TOL/mu of
    the least quote that does (up to slack in P), and comes with the
    kernel's values there."""
    mu, K, s = params.mu, params.K, params.s
    quote, ontime, log_g, slope = min_leadtime_for_service(lam, params, log_density=True)
    assert np.array_equal(quote, min_leadtime_for_service(lam, params))
    for got, want in zip((ontime, log_g, slope), mm1k_ontime_prob(lam, mu, K, quote, log_density=True)):
        assert np.array_equal(got, want)
    assert np.all(quote >= 0.0)
    assert np.all(ontime >= s)
    if s > 0.0:
        below = np.maximum(quote - numeric.X_TOL / mu, 0.0)
        assert np.all(mm1k_ontime_prob(lam, mu, K, below) < s + slack)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=SEARCH_MU, K=SEARCH_K, s=st.one_of(st.just(0.0), st.floats(0.01, 0.999)), rho=SEARCH_RHO)
@example(mu=1.0, K=5, s=0.9, rho=[5e-324, 0.5])
@pytest.mark.filterwarnings("error")
def test_service_search_meets_the_level_and_hands_on_its_kernel_values(mu, K, s, rho):
    # A subnormal rho, whose reciprocal overflows, must raise no warning.
    _check_service_search(BASE.with_updates(mu=mu, K=K, s=s), mu * np.array(rho))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=SEARCH_MU, K=SEARCH_K, rho=SEARCH_RHO,
       s=st.one_of(st.just(0.0), st.floats(-15.0, -6.0).map(lambda e: 10.0 ** e)))
@example(mu=10.0, K=3, s=5e-10, rho=[0.2])
@example(mu=10.0, K=1, s=1e-12, rho=[0.2])
@example(mu=1.0, K=5, s=1e-15, rho=[132.0])  # P is flat near the root: the row bisects
@example(mu=1.0, K=200, s=1e-15, rho=[2.367218115109308])  # so here, after Newton creeps
@example(mu=1.25, K=200, s=0.0, rho=[0.0])  # the lambda scan hits rho = 1 exactly
@pytest.mark.filterwarnings("error")
def test_tiny_service_levels_take_the_same_search_and_solve(mu, K, s, rho):
    # The least quote sits near s / g(0), inside X_TOL/mu of 0 for the
    # smallest s, so the search's closing pair must not step below its
    # bracket's lower end z/mu.
    # P = 1 - late moves in steps of eps/2 near 0 and can fall back by one,
    # which is more than it rises over X_TOL/mu where g is tiny; so the
    # least-quote check allows P one eps above s.
    params = BASE.with_updates(mu=mu, K=K, s=s)
    _check_service_search(params, mu * np.array(rho), slack=np.finfo(float).eps)
    sol = solve_mm1k_numeric(params)
    brute_force_oracle(params, "mm1k", resolution=numeric.MIN_RESOLUTION)
    if K == 1:
        assert sol.feasible == solve_mm11_with_costs(params).feasible


def _best_scanned_quote(lam, params, points=401):
    """Argmax of mm1k_profit over [lo, hi] on a grid, then on a finer grid
    around the coarse winner."""
    lo = min_leadtime_for_service(lam, params)
    hi = (params.a - lam) / params.b2 if params.b2 > 0 else lo + math.log(1e12) / params.mu

    def profit(l):
        return mm1k_profit(Policy(p=(params.a - params.b2 * l - lam) / params.b1, l=l, lam=lam), params)

    grid = np.linspace(lo, hi, points)
    best = grid[int(np.argmax([profit(l) for l in grid]))]
    step = grid[1] - grid[0]
    fine = np.linspace(max(lo, best - step), min(hi, best + step), points)
    best = fine[int(np.argmax([profit(l) for l in fine]))]
    return lo, best, fine[1] - fine[0], profit


def _interval_inside_mode_bound_case():
    # rho = 1.5, K = 50, s and c picked so that lo sits left of the density
    # mode and the interval {c L_s g > lambda_eff b2/b1} ends at l = 4.85,
    # inside the mode bound (K - 1)/mu = 4.9
    lam, mu, K = 15.0, 10.0, 50
    leff = lam * (1.0 - mm1k_blocking(lam, mu, K))
    _, log_g, _ = mm1k_ontime_prob(lam, mu, K, 4.85, log_density=True)
    c = leff / (2.0 * mm1k_mean_number(lam, mu, K) * math.exp(log_g))
    s = mm1k_ontime_prob(lam, mu, K, 4.55)
    return BASE.with_updates(a=75.0, b1=2.0, b2=1.0, m=1.0, F=1.0, c=c, s=s, K=K), lam


@pytest.mark.parametrize(
    "params,lam",
    [
        (BASE.with_updates(K=5), 2.0),
        (BASE.with_updates(K=5), 12.0),
        (BASE.with_updates(a=70.0, b2=5.0, K=200), 7.35),
        (BASE.with_updates(a=60.0, b2=1.0, c=60.0, s=0.2, K=8), 20.0),
        (BASE.with_updates(b2=0.0, K=5), 5.0),
        (BASE.with_updates(c=0.0, b2=2.0, K=5), 5.0),
        (BASE.with_updates(c=0.0, b2=0.0, K=5), 5.0),
        _interval_inside_mode_bound_case(),
    ],
    ids=["base-K5-light", "base-K5-overloaded", "a70-b2-5-K200", "rho2-s0.2-lo-left-of-mode",
         "b2-zero", "c-zero", "b2-and-c-zero", "interval-inside-mode-bound"],
)
def test_pinned_quote_is_the_best_quote_in_band(params, lam):
    lo, scanned, step, profit = _best_scanned_quote(lam, params)
    (quote,) = _pinned(np.atleast_1d(lam), params)[0]
    assert abs(quote - scanned) <= step
    assert profit(quote) >= profit(scanned) - 1e-12 * (1.0 + abs(profit(scanned)))
    if params.c == 0.0:
        assert quote == lo
    elif params.b2 == 0.0:
        assert quote == pytest.approx(lo + math.log(1e12) / params.mu, rel=1e-15)


def test_pinned_quote_case_sits_left_of_the_mode():
    params = BASE.with_updates(a=60.0, b2=1.0, c=60.0, s=0.2, K=8)
    lo = min_leadtime_for_service(20.0, params)
    _, _, slope = mm1k_ontime_prob(20.0, params.mu, params.K, lo, log_density=True)
    assert slope > 0.0
    assert _pinned(np.atleast_1d(20.0), params)[0][0] > lo


@pytest.mark.parametrize("b2,s", [(20.0, 0.95), (1.0, 0.95), (1.0, 0.5), (0.5, 0.2)])
def test_pinned_quote_single_slot_closed_form(b2, s):
    params = BASE.with_updates(b2=b2, s=s)
    want = math.log(max(1.0 / (1.0 - s), params.b1 * params.c / b2)) / params.mu
    lams = np.array([0.5, 3.0, 9.0])
    assert np.allclose(_pinned(np.atleast_1d(lams), params)[0], want, rtol=0.0, atol=1e-9)


def test_finite_buffer_search_is_one_dimensional():
    sol = solve_mm1k_numeric(BASE.with_updates(a=70.0, b2=5.0, K=20))
    # 401 coarse rates plus 4 zoom rounds of 129 around an interior
    # optimum, one quote each
    assert sol.diagnostics["evaluations"] == 401 + 4 * 129
    assert sol.diagnostics["refine_rounds"] == 4
    assert len(sol.diagnostics["round_profits"]) == 5


def test_finite_buffer_solve_makes_few_ontime_calls(monkeypatch):
    # Time goes to sequential on-time kernel calls, each a few dozen numpy
    # operations at any K, so each evaluation must be spent once: the quote
    # search hands its last point on to the profit and right-end steps and
    # closes its bracket in one call, and lambda stops at the zero-margin
    # rate.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return mm1k_ontime_prob(*args, **kwargs)

    monkeypatch.setattr(numeric, "mm1k_ontime_prob", counted)
    sol = solve_mm1k_numeric(BASE.with_updates(a=70.0, b2=5.0, K=20))
    assert sol.feasible
    assert len(calls) <= 26


# The light and the full-buffer market at four K, and b2 = 0.
BUFFER_MARKETS = [(30.0, 20.0, K) for K in (1, 5, 20, 200)] + \
                 [(70.0, 5.0, K) for K in (1, 5, 20, 200)] + [(30.0, 0.0, 5)]


def test_finite_buffer_solves_compute_blocking_once_per_rate_vector(monkeypatch):
    # Each lambda vector takes its blocking probability once, for the
    # profit's admitted rate; the quote search reads its first step off the
    # kernel's per-rate terms and spends each on-time evaluation once.
    calls = {"mm1k_ontime_prob": 0, "mm1k_blocking": 0}
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(numeric, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(numeric, name, counted)
    for a, b2, K in BUFFER_MARKETS:
        assert solve_mm1k_numeric(BASE.with_updates(a=a, b2=b2, K=K)).feasible
    # 5 lambda vectors per solve: the coarse scan and 4 zoom rounds.
    assert calls["mm1k_blocking"] == 5 * len(BUFFER_MARKETS)
    assert calls["mm1k_ontime_prob"] <= 148


@pytest.mark.parametrize("market, profit, lam, quote", [
    (dict(K=1), 48.85732188968113, 13.979602606137307, 0.299573227355399),
    (dict(K=5), 69.79630919299424, 10.797354039969393, 0.7442584659859748),
    (dict(K=20), 61.25252779512105, 7.4412204941610085, 1.1512096397105278),
    (dict(K=200), 61.04958118150335, 7.340611713188439, 1.126474192734632),
    (dict(a=30.0, b2=0.0, K=5), 4.6794894638991735, 3.9606789439916614, 3.23844646801683),
    (dict(a=60.0, b2=1.0, c=60.0, s=0.2, K=8), 54.79050565430057, 9.524334231771038,
     1.6156722984853074),
], ids=["K1", "K5", "K20", "K200", "b2-zero-K5", "right-end-K8"])
def test_finite_buffer_solve_is_pinned(market, profit, lam, quote):
    # Bit for bit: the per-rate kernel terms and the quote search's
    # bookkeeping must not move an iterate.  The last two markets quote
    # above the service floor: the penalty-elimination cap and the right
    # end r.
    params = BASE.with_updates(**{"a": 70.0, "b2": 5.0, **market})
    sol = solve_mm1k_numeric(params)
    assert (sol.profit, sol.policy.lam, sol.policy.l) == (profit, lam, quote)
    if params.K == 1:
        # mm1k_blocking's expm1 form moved this pin from lambda
        # 13.979602663956356 and quote 0.29957322735539926, with the same
        # profit; it may only have moved toward the closed form.
        closed = solve_mm11_with_costs(params).policy
        assert abs(lam - closed.lam) <= abs(13.979602663956356 - closed.lam)
        assert abs(quote - closed.l) <= abs(0.29957322735539926 - closed.l)


def _rescaled(params, alpha):
    # The market in a time unit alpha times shorter: rates and costs per
    # unit time scale by alpha, b2 (price per rate per unit of quote) by
    # alpha^2.
    return params.with_updates(a=alpha * params.a, b1=alpha * params.b1, b2=alpha**2 * params.b2,
                               mu=alpha * params.mu, F=alpha * params.F, c=alpha * params.c)


# The profit is flat at its peak: a relative move d of lambda changes it by
# about d^2 relative, so profit rounding of a few hundred eps hides a move
# of up to 16 sqrt(eps) (2.4e-7) in lambda, and the quote and price with it.
# The profit itself moves by the square of that.
FLAT_PEAK = 16.0 * math.sqrt(np.finfo(float).eps)
SOLVERS = {"mm1k": lambda params: solve_mm1k_numeric(params.with_updates(K=5)),
           "mm1": lambda params: solve_mm1_baseline(params, costs_on=True),
           "mm11": solve_mm11_with_costs}


@pytest.mark.parametrize("model", sorted(SOLVERS))
def test_solvers_give_the_same_answer_in_any_time_unit(model):
    # The same market in a time unit alpha times shorter has the same price,
    # the quote l / alpha, the rate alpha lambda and alpha times the profit;
    # the finite-buffer search's tolerances are stated in x = mu l for this.
    solve, rng = SOLVERS[model], np.random.default_rng(23)
    for params in [random_feasible_params(rng, costs_on=True) for _ in range(40)]:
        base = solve(params)
        for alpha in (1e-4, 1.0, 1e4, 1e6):
            sol = solve(_rescaled(params, alpha))
            assert sol.feasible == base.feasible
            if not base.feasible:
                continue
            assert sol.profit / alpha == pytest.approx(base.profit, rel=FLAT_PEAK**2, abs=0.0)
            got = (sol.policy.p, sol.policy.l * alpha, sol.policy.lam / alpha)
            want = (base.policy.p, base.policy.l, base.policy.lam)
            assert got == pytest.approx(want, rel=FLAT_PEAK, abs=0.0)


def test_large_buffer_solve_matches_the_accept_all_baseline():
    # As K grows with rho* < 1 the finite-buffer problem tends to the
    # accept-all one, and nothing of the two searches is shared but _zoom's
    # schedule.  At a fixed policy the blocking probability, the shift of
    # the mean number and the total variation of the admitted queue length
    # are each at most (K + 1) rho^K relative, so the profits differ by at
    # most that share of revenue and costs, plus what the finite-buffer
    # quote's tolerance X_TOL/mu costs in price and lateness, plus rounding.
    K, eps, rng = 400, np.finfo(float).eps, np.random.default_rng(17)
    for params in [random_feasible_params(rng, costs_on=True) for _ in range(40)]:
        sol = solve_mm1k_numeric(params.with_updates(K=K))
        base = solve_mm1_baseline(params, costs_on=True)
        assert sol.feasible == base.feasible
        if not base.feasible:
            continue
        lam, price = base.policy.lam, base.policy.p
        rho = max(lam, sol.policy.lam) / params.mu
        assert rho < 1.0
        ls = lam / (params.mu - lam)
        truncation = (K + 1) * rho**K * (lam * abs(price - params.m) + (params.F + params.c) * ls)
        quote = (lam * params.b2 / (params.b1 * params.mu) + params.c * ls) * numeric.X_TOL
        assert abs(sol.profit - base.profit) <= truncation + quote + 64 * eps * abs(base.profit)


# Each model's solver and the buffer whose quote search it runs (None
# where the quote is a closed form).
STATICS_MODELS = [
    (solve_mm11_with_costs, None),
    (lambda p: solve_mm1k_numeric(p.with_updates(K=3)), 3),
    (lambda p: solve_mm1k_numeric(p.with_updates(K=20)), 20),
    (lambda p: solve_mm1_baseline(p, costs_on=True), None),
]


def test_optimal_profit_follows_the_comparative_statics():
    # Lowering a or mu can only lower the optimal profit, and lowering s,
    # c, F, m or b2 can only raise it: every policy feasible before stays
    # feasible and earns no less at a price above m, which a positive
    # profit needs.  The certificate shares no search with the solvers.  A
    # solve may land below the optimum by its own tolerances: the quote
    # search's X_TOL/mu, which costs (lambda b2/(b1 mu) + c L_s) X_TOL as
    # in the large-buffer test, the lambda search's last spacing,
    # lam_hi/400/64^4, which costs about 1e-18 relative at the peak, and
    # rounding, 64 eps.  So the solve at the better market may read that
    # much below the one at the worse.  12 draws with costs on, each field
    # lowered by 5-10 %: 336 pairs in about 1 s.
    eps, rng = np.finfo(float).eps, np.random.default_rng(29)
    for _ in range(12):
        params = random_params(rng, costs_on=True)
        moves = {f: float(rng.uniform(0.05, 0.10)) for f in ("a", "mu", "s", "c", "F", "m", "b2")}
        for solve, K in STATICS_MODELS:
            base = solve(params)
            for field, frac in moves.items():
                moved = params.with_updates(**{field: getattr(params, field) * (1.0 - frac)})
                low = solve(moved)
                rising = field in ("a", "mu")
                worse, better, at = (low, base, params) if rising else (base, low, moved)
                tol = 64 * eps * abs(better.profit)
                if K is not None:
                    lam = better.policy.lam
                    tol += (lam * at.b2 / (at.b1 * at.mu)
                            + at.c * mm1k_mean_number(lam, at.mu, K)) * numeric.X_TOL
                assert worse.profit <= better.profit + tol, (field, params)


@pytest.mark.parametrize("model", ["mm1k", "mm1"])
def test_zero_lambda_cap_stops_after_the_coarse_point(model):
    # At a = 20 the zero-margin rate is 0: the coarse scan is the single
    # point lambda = 0, and no zoom round can move it.
    params = BASE.with_updates(a=20.0, K=3)
    sol = solve_mm1k_numeric(params) if model == "mm1k" else solve_mm1_baseline(params, costs_on=True)
    assert not sol.feasible
    assert sol.diagnostics["evaluations"] == 1
    assert sol.diagnostics["refine_rounds"] == 0
    assert len(sol.diagnostics["round_profits"]) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 40),
       zeroed=st.sampled_from([(), ("b2",), ("c",), ("s",), ("b2", "c", "s")]),
       above=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
def test_no_quote_earns_a_profit_above_the_zero_margin_rate(seed, K, zeroed, above):
    # The finite-buffer solver searches lambda only up to this rate; every
    # quote in the band at a rate above it must lose money, or the cap
    # could cut off an optimum.
    params = random_params(np.random.default_rng(seed), costs_on=True)
    params = params.with_updates(K=K, **dict.fromkeys(zeroed, 0.0))
    cap = numeric._zero_margin_rate(params)
    lam = cap + (params.a - cap) * np.array(above)
    lo, hi = numeric._oracle_band(lam, params, "mm1k")
    for rate, l_lo, l_hi in zip(lam, lo, hi):
        for l in np.linspace(l_lo, max(l_hi, l_lo), 9):
            policy = Policy(p=(params.a - params.b2 * l - rate) / params.b1, l=float(l), lam=float(rate))
            assert mm1k_profit(policy, params) <= 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 20),
       zeroed=st.sampled_from([None, None, "b2", "c"]))
def test_finite_buffer_solve_matches_the_oracle(seed, K, zeroed):
    params = random_params(np.random.default_rng(seed), costs_on=True).with_updates(K=K)
    if zeroed:
        params = params.with_updates(**{zeroed: 0.0})
    sol = solve_mm1k_numeric(params)
    oracle = brute_force_oracle(params, "mm1k", resolution=160)
    assert sol.profit >= oracle.profit - 1e-9 * abs(oracle.profit)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), K=st.sampled_from([1, 1, 3, 12]),
       zeroed=st.sampled_from([(), (), ("b2",), ("c",), ("b2", "c")]))
@example(seed=402, K=1, zeroed=("b2",))  # sells nothing: both K = 1 solvers are infeasible
def test_finite_buffer_branch_names_the_quoted_end(seed, K, zeroed):
    params = random_params(np.random.default_rng(seed), costs_on=True)
    params = params.with_updates(K=K, **dict.fromkeys(zeroed, 0.0))
    sol = solve_mm1k_numeric(params)
    if not sol.feasible:
        return
    at_floor = sol.policy.l == min_leadtime_for_service(sol.policy.lam, params)
    assert sol.branch == ("service-binding" if at_floor else "penalty-binding")
    if params.c == 0.0:
        assert at_floor
    elif params.b2 == 0.0:
        assert not at_floor
    if K == 1:
        assert sol.branch == solve_mm11_with_costs(params).branch


def _mm1k_law(sol, params):
    return mm1k_ontime_prob(sol.policy.lam, params.mu, params.K, sol.policy.l)


def _mm1_law(sol, params):
    return mm1_ontime_prob(sol.policy.lam, params.mu, sol.policy.l)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), K=st.sampled_from([1, 3, 20]),
       zeroed=st.sampled_from([(), (), ("b2",), ("c",)]))
def test_attained_level_is_the_on_time_law_at_the_returned_policy(seed, K, zeroed):
    # Each search hands on the on-time probability at its best point rather
    # than evaluating it again; it must be its model's law there, bit for bit.
    params = random_params(np.random.default_rng(seed), costs_on=True)
    params = params.with_updates(**dict.fromkeys(zeroed, 0.0))
    buffered, costless = params.with_updates(K=K), params.with_updates(F=0.0, c=0.0)
    cases = [(solve_mm1k_numeric(buffered), buffered, _mm1k_law),
             (solve_mm1_baseline(params, costs_on=True), params, _mm1_law),
             (solve_mm1_baseline(params, costs_on=False), costless, _mm1_law)]
    for model, market, law in (("mm11", params, _mm1k_law), ("mm1", params, _mm1_law),
                               ("mm1k", buffered, _mm1k_law)):
        cases += [(sol, market, law) for sol in brute_force_oracles([market], model)]
    for sol, market, law in cases:
        if sol.feasible:
            assert sol.service_level_attained == law(sol, market)


def _sells_or_is_null(sol, params):
    if sol.feasible:
        return sol.policy.lam > 0.0 and sol.profit > 0.0
    return (sol.policy.to_dict() == {"p": params.m, "l": params.z / params.mu, "lambda": 0.0}
            and sol.profit == 0.0 and sol.service_level_attained == params.s
            and sol.branch == "service-binding")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), zeroed=st.sampled_from([None, None, "b2", "c", "s"]))
@example(seed=402, zeroed="b2")
def test_every_solver_is_feasible_only_when_it_sells_at_a_positive_profit(seed, zeroed):
    params = random_params(np.random.default_rng(seed), costs_on=True)
    if zeroed:
        params = params.with_updates(**{zeroed: 0.0})
    closed = solve_mm11_with_costs(params)
    single = solve_mm1k_numeric(params)
    assert closed.feasible == single.feasible
    costless, three = params.with_updates(F=0.0, c=0.0), params.with_updates(K=3)
    for sol, market in [(closed, params), (single, params), (solve_mm1k_numeric(three), three),
                        (solve_mm1_baseline(params, costs_on=True), params),
                        (solve_mm1_baseline(params, costs_on=False), costless)]:
        assert _sells_or_is_null(sol, market)


def test_single_slot_without_lead_time_pressure_or_penalty_quotes_the_floor():
    # b2 = 0 and c = 0: profit does not depend on the quote, so the
    # smallest one wins, as in the single-slot closed form
    params = BASE.with_updates(a=50.0, b2=0.0, c=0.0)
    numeric_sol = solve_mm1k_numeric(params)
    closed = solve_mm11_with_costs(params)
    assert numeric_sol.branch == closed.branch == "service-binding"
    assert numeric_sol.policy.l == pytest.approx(closed.policy.l, rel=1e-9)
    assert numeric_sol.policy.lam == pytest.approx(closed.policy.lam, rel=1e-6)
    assert numeric_sol.profit == pytest.approx(closed.profit, rel=1e-12)


def test_numeric_single_slot_matches_closed_form():
    closed = solve_mm11_with_costs(BASE)
    default = solve_mm1k_numeric(BASE)
    assert default.feasible
    assert default.profit == pytest.approx(closed.profit, rel=1e-5)
    # the pinned quote leaves a 1-D search, which pins the optimum hard
    assert default.profit == pytest.approx(closed.profit, abs=1e-8)
    assert default.policy.lam == pytest.approx(closed.policy.lam, abs=1e-6)
    assert default.policy.l == pytest.approx(closed.policy.l, abs=1e-8)


def test_numeric_solution_is_deterministic_and_monotone():
    first = solve_mm1k_numeric(BASE)
    second = solve_mm1k_numeric(BASE)
    assert first == second
    rounds = first.diagnostics["round_profits"]
    assert all(later >= earlier for earlier, later in zip(rounds, rounds[1:]))
    assert first.diagnostics["evaluations"] > 0


def test_finite_buffer_solve_against_independent_grid():
    params = BASE.with_updates(K=3)
    sol = solve_mm1k_numeric(params)
    oracle = brute_force_oracle(params, "mm1k", resolution=200)
    assert sol.feasible
    assert sol.profit == pytest.approx(oracle.profit, abs=1e-8)
    # solution invariants: demand constraint binding, service met, profit
    # self-consistent with the standalone evaluator
    pol = sol.policy
    assert pol.p == pytest.approx((params.a - params.b2 * pol.l - pol.lam) / params.b1, rel=1e-12)
    assert sol.service_level_attained >= params.s - 1e-9
    assert sol.profit == pytest.approx(mm1k_profit(pol, params), rel=1e-12)


def test_infeasible_market_reports_cleanly():
    sol = solve_mm1k_numeric(BASE.with_updates(b2=1000.0))
    assert not sol.feasible
    assert sol.profit == 0.0
    assert sol.policy.lam == 0.0


def test_profit_evaluator_frozen_value():
    # frozen from the birth-death linear solve plus the Erlang on-time law
    params = BASE.with_updates(K=3)
    got = mm1k_profit(Policy(p=9.0, l=0.3, lam=5.0), params)
    assert got == pytest.approx(16.1307634365, rel=1e-11)
    assert mm1k_profit(Policy(p=9.0, l=0.3, lam=0.0), params) == 0.0
    with pytest.raises(ValueError):
        mm1k_profit(Policy(p=9.0, l=0.3, lam=-1.0), params)
    with pytest.raises(ValueError):
        mm1k_profit(Policy(p=9.0, l=-0.3, lam=5.0), params)


def test_accept_all_baseline_no_costs():
    sol = solve_mm1_baseline(BASE, costs_on=False)
    assert sol.feasible
    # frozen via a 1-D optimizer on the reduced objective
    assert sol.profit == pytest.approx(0.598079909653, rel=1e-9)
    assert sol.policy.lam == pytest.approx(1.16346580668, abs=1e-4)
    # quote rides the congestion-adjusted service bound
    expect_l = BASE.z / (BASE.mu - sol.policy.lam)
    assert sol.policy.l == pytest.approx(expect_l, rel=1e-9)
    assert sol.branch == "service-binding"


def test_accept_all_baseline_with_costs():
    sol = solve_mm1_baseline(BASE, costs_on=True)
    assert sol.feasible
    assert sol.profit == pytest.approx(0.320758468733, rel=1e-9)
    assert sol.policy.lam == pytest.approx(0.836716845097, abs=1e-4)
    assert sol.profit == pytest.approx(mm1_profit(sol.policy, BASE), rel=1e-12)


def test_accept_all_baseline_respects_stability():
    big = MarketParams(a=200.0, b1=4.0, b2=5.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)
    sol = solve_mm1_baseline(big, costs_on=True)
    assert sol.policy.lam <= big.mu - 1e-6 + 1e-15


@pytest.mark.parametrize("mu", [1e-7, 1e-5])
def test_accept_all_baseline_sells_at_a_tiny_service_rate(mu):
    # b2 = 0 and costs off: profit lam (a - lam)/b1 rises up to lam = mu,
    # so both searches sell just below mu, a relative margin away
    params = MarketParams(a=30.0, b1=4.0, b2=0.0, mu=mu, m=0.0, s=0.5)
    want = mu * (30.0 - mu) / 4.0
    for sol in (solve_mm1_baseline(params, costs_on=False), brute_force_oracle(params, "mm1")):
        assert sol.feasible
        assert sol.profit == pytest.approx(want, rel=1e-6)


def _pinned_mm1_quote(params, lam):
    # ln(x)/(mu - lam), x = max{1/(1-s), b1 c/b2}; c = 0 leaves the service
    # quote, b2 = 0 stretches it to exp(-(mu - lam) l) = (1-s) * 1e-12
    slack = params.mu - lam
    if params.c == 0:
        return params.z / slack
    if params.b2 == 0:
        return (params.z + math.log(1e12)) / slack
    return math.log(max(1.0 / (1.0 - params.s), params.b1 * params.c / params.b2)) / slack


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), zeroed=st.sampled_from([None, None, "b2", "c"]))
def test_costed_baseline_pins_the_best_quote(seed, zeroed):
    params = random_params(np.random.default_rng(seed), costs_on=True)
    if zeroed:
        params = params.with_updates(**{zeroed: 0.0})
    sol = solve_mm1_baseline(params, costs_on=True)
    oracle = brute_force_oracle(params, "mm1", resolution=160)
    assert sol.profit >= oracle.profit - 1e-9 * abs(oracle.profit)
    if not sol.feasible:
        return
    lam, quote = sol.policy.lam, sol.policy.l
    assert quote == pytest.approx(_pinned_mm1_quote(params, lam), rel=1e-12)
    # no quote in the band beats the pinned one at the returned rate
    slack = params.mu - lam
    lo = params.z / slack
    hi = (params.a - lam) / params.b2 if params.b2 > 0 else lo + math.log(1e12) / slack
    for l in np.linspace(lo, max(hi, lo), 2001):
        price = (params.a - params.b2 * l - lam) / params.b1
        scanned = mm1_profit(Policy(p=price, l=float(l), lam=lam), params)
        assert scanned <= sol.profit + 1e-12 * (1.0 + abs(sol.profit))


def _baseline_by_first_order_condition(params):
    """The accept-all optimum without the grid: (lam, profit), or None when
    nothing sells at a positive profit.  With the quote pinned at
    ln(x)/(mu - lam), profit is lam (A - lam)/b1 - C lam/(mu - lam),
    A = a - b1 m and C = b2 ln(x)/b1 + F + c/x, which is concave, so its
    optimum is the root of (A - 2 lam)(mu - lam)^2 = b1 C mu, capped by
    the price root (a - lam)(mu - lam) = b2 ln(x) and the stability
    margin."""
    a, b1, b2, m, mu, F, c = (params.a, params.b1, params.b2, params.m, params.mu,
                              params.F, params.c)
    log_x = quote_level(params)[0]
    A, C = a - b1 * m, b2 * log_x / b1 + F + c / math.exp(log_x)
    price_root = 0.5 * (a + mu - math.sqrt((a - mu) ** 2 + 4.0 * b2 * log_x))
    hi = min(price_root, mu * (1.0 - numeric.STABILITY_MARGIN))
    if hi <= 0.0:
        return None

    def slope(lam):
        return (A - 2.0 * lam) * (mu - lam) ** 2 - b1 * C * mu

    if slope(0.0) <= 0.0:
        return None
    lam = hi if slope(hi) >= 0.0 else brentq(slope, 0.0, hi)
    profit = lam * (A - lam) / b1 - C * lam / (mu - lam)
    return (lam, profit) if profit > 0.0 else None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), costs_on=st.booleans(),
       zeroed=st.sampled_from([None, None, "b2", "c"]))
def test_baseline_meets_its_first_order_condition(seed, costs_on, zeroed):
    params = random_params(np.random.default_rng(seed), costs_on=True)
    if zeroed:
        params = params.with_updates(**{zeroed: 0.0})
    sol = solve_mm1_baseline(params, costs_on=costs_on)
    want = _baseline_by_first_order_condition(
        params if costs_on else params.with_updates(F=0.0, c=0.0))
    assert sol.feasible == (want is not None)
    if want is not None:
        assert sol.profit == pytest.approx(want[1], rel=1e-12)


def test_mm1_profit_guards():
    with pytest.raises(ValueError):
        mm1_profit(Policy(p=6.0, l=0.3, lam=10.0), BASE)
    with pytest.raises(ValueError):
        mm1_profit(Policy(p=6.0, l=0.3, lam=-0.5), BASE)
    # costs off is F = c = 0: revenue lam*(p - m) only
    lone = mm1_profit(Policy(p=6.0, l=0.3, lam=2.0), BASE.with_updates(F=0.0, c=0.0))
    assert lone == pytest.approx(2.0 * 1.0, rel=1e-14)
    # a bad quote fails where the Policy is built, before any evaluation
    with pytest.raises(ValueError, match="lead time"):
        mm1_profit(Policy(p=6.0, l=-1.0, lam=2.0), BASE)
    with pytest.raises(ValueError, match="finite"):
        mm1_profit(Policy(p=6.0, l=math.nan, lam=2.0), BASE)


def test_oracle_guards():
    with pytest.raises(ValueError):
        brute_force_oracle(BASE, "mm11", resolution=50)
    # A point count in range is rejected too unless it is an integer, before
    # np.linspace would raise a TypeError of its own.
    for resolution in (160.0, 100.5, np.float64(160.0)):
        with pytest.raises(ValueError, match=r"\[100, 1000\], got "):
            brute_force_oracle(BASE, "mm11", resolution=resolution)
    with pytest.raises(ValueError):
        brute_force_oracle(BASE, "not-a-model")
    with pytest.raises(ValueError):
        brute_force_oracle(BASE.with_updates(K=4), "mm11")


def test_oracle_rejects_a_resolution_above_the_cap():
    # The coarse grid holds resolution^2 points: 27 MB at 1000, 107 MB at 2000.
    with pytest.raises(ValueError, match=r"\[100, 1000\], got 1001"):
        brute_force_oracles([BASE, BASE.with_updates(a=40.0)], "mm11", resolution=1001)


def test_baseline_diagnostics_are_pinned():
    # 401 coarse rates plus 4 rounds of 129, the finite-buffer schedule;
    # the bench reads these keys.  Each profit is at least the one that
    # 12 rounds of 9 points found (narrow).
    for costs_on, profit, narrow in ((True, 0.32075846873317154, 0.32075846873317126),
                                     (False, 0.5980799096525237, 0.5980799096525231)):
        sol = solve_mm1_baseline(BASE, costs_on=costs_on)
        assert sol.profit == profit
        assert sol.profit >= narrow
        assert sol.diagnostics["evaluations"] == 917
        assert sol.diagnostics["refine_rounds"] == 4
        assert len(sol.diagnostics["round_profits"]) == 5


def test_baseline_stops_when_the_coarse_scan_finds_no_profit():
    # b1 c/b2 = 4e6 pins every quote so long that each price is negative,
    # so the coarse scan of 401 rates finds no finite profit and no round
    # runs
    sol = solve_mm1_baseline(BASE.with_updates(c=2e7), costs_on=True)
    assert not sol.feasible
    assert sol.diagnostics["evaluations"] == 401
    assert sol.diagnostics["refine_rounds"] == 0
    assert sol.diagnostics["round_profits"] == []


@pytest.mark.parametrize("model, profit", [("mm11", 0.49385522972485923),
                                           ("mm1", 0.32075846873317115)])
def test_oracle_diagnostics_are_pinned(model, profit):
    # Evaluations count the points evaluated: the coarse rows whose bound
    # reaches a value found, of 160 x 160, plus the rounds.  The full grid
    # and the rounds read 26050.
    sol = brute_force_oracle(BASE, model)
    assert sol.profit == profit
    assert sol.diagnostics["evaluations"] == {"mm11": 7330, "mm1": 4450}[model]
    assert sol.diagnostics["refine_rounds"] == 10
    assert len(sol.diagnostics["round_profits"]) == 11


# A draw of the costless oracle check whose cap/(cap/159) rounds above
# 159: an axis sized from its step would take 161 points, not 160.
WIDE_AXIS = MarketParams(a=51.079466418997846, b1=6.702225199424642, b2=17.785865331114753,
                         mu=16.850435125267275, m=3.9687929572493177, s=0.9318542166952417,
                         F=0.0, c=0.0, K=1)


def _batched_oracle_markets(model):
    rng = np.random.default_rng(4)
    markets = [random_params(rng, costs_on=True) for _ in range(5)] + [
        BASE,
        BASE.with_updates(a=1.0),  # zero-margin rate 0: nothing is found
        BASE.with_updates(b2=0.0),
        BASE.with_updates(c=0.0),
        WIDE_AXIS,
    ]
    return [p.with_updates(K=3) for p in markets] if model == "mm1k" else markets


@pytest.mark.parametrize("model", ["mm11", "mm1", "mm1k"])
def test_batched_oracle_equals_one_search_per_market(model):
    markets = _batched_oracle_markets(model)
    batched = brute_force_oracles(markets, model)
    assert batched == [brute_force_oracle(p, model) for p in markets]
    assert not batched[6].feasible and batched[6].diagnostics["refine_rounds"] == 0
    assert all(sol.diagnostics["refine_rounds"] == 10 for sol in batched if sol.feasible)


def test_batched_oracle_takes_a_lone_finite_buffer_market():
    # The service search takes one K, so an mm1k market is its own stack;
    # its answer is pinned to the one-market search it replaced.
    (sol,) = brute_force_oracles([BASE.with_updates(K=3)], "mm1k")
    assert sol.profit == 0.32403991905975865
    assert sol.diagnostics["evaluations"] == 4610  # 26050 on the full coarse grid
    assert sol.diagnostics["refine_rounds"] == 10


def _coarse_grid_at(params, model, resolution):
    """A market's coarse grid as the oracle lays it out (_coarse_grid)."""
    cap = (numeric._accept_all_cap if model == "mm1" else numeric._zero_margin_rate)(params)
    lam, lo, span, u = numeric._coarse_grid(params, model, cap, resolution)
    assert lam[0, 0] == 0.0 and lam[-1, 0] == cap
    return lam, lo, span, u


def _coarse_rows(params, model):
    """The rates, the band's lo, and the quotes lo + span * u of a market's
    coarse grid at resolution 160."""
    lam, lo, span, u = _coarse_grid_at(params, model, 160)
    return lam, lo, lo + span * u


@pytest.mark.parametrize("model", ["mm11", "mm1"])
@pytest.mark.parametrize("params", [BASE, WIDE_AXIS], ids=["BASE", "WIDE_AXIS"])
def test_coarse_grid_is_resolution_by_resolution(params, model):
    # resolution rates times resolution band fractions, whatever the cap.
    lam, lo, span, u = _coarse_grid_at(params, model, 160)
    assert (lam.shape, lo.shape, span.shape, u.shape) == ((160, 1), (160, 1), (160, 1), (160,))
    assert u[0] == 0.0 and u[-1] == 1.0


# cap = mu (1 - STABILITY_MARGIN): the accept-all model's last coarse row
# sits at the stability margin.
AT_STABILITY_CAP = BASE.with_updates(m=0.0, b2=1.0, mu=4.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), costs_on=st.booleans(),
       case=st.sampled_from([("mm11", 1, None), ("mm1", 1, None), ("mm1", 1, AT_STABILITY_CAP),
                             ("mm1k", 1, None), ("mm1k", 3, None), ("mm1k", 40, None)]))
def test_oracle_row_bound_holds_at_every_coarse_point(seed, costs_on, case):
    # No tolerance: each bound is its objective at lo with c = s = 0, where
    # the lateness term is an exact 0, so it holds in floating point.
    model, K, market = case
    drawn = (market or random_params(np.random.default_rng(seed), costs_on)).with_updates(K=K)
    if market is AT_STABILITY_CAP:
        assert numeric._accept_all_cap(drawn) == drawn.mu * (1.0 - numeric.STABILITY_MARGIN)
    objective = numeric._ORACLE[model]
    for zeroed in ({}, {"b2": 0.0}, {"c": 0.0}, {"F": 0.0}):
        params = drawn.with_updates(**zeroed)
        lam, lo, L = _coarse_rows(params, model)
        assert np.all(objective(lam, L, params) <= numeric._row_bound(objective, lam, lo, params))


@pytest.mark.parametrize("model", ["mm11", "mm1", "mm1k"])
def test_pruned_coarse_scan_matches_the_full_grid(model, monkeypatch):
    markets = _batched_oracle_markets(model)
    pruned = brute_force_oracles(markets, model)
    objective = numeric._ORACLE[model]
    for params, sol in zip(markets, pruned):
        lam, _, L = _coarse_rows(params, model)
        top = np.max(objective(lam, L, params))
        assert sol.diagnostics["round_profits"][:1] == ([top] if np.isfinite(top) else [])
    # An infinite bound prunes no row: the full grid, then the same rounds.
    monkeypatch.setattr(numeric, "_row_bound",
                        lambda objective, lam, lo, params: np.full(lam.shape, np.inf))
    full = brute_force_oracles(markets, model)
    for sol, ref in zip(pruned, full):
        assert (sol.policy, sol.profit, sol.feasible, sol.service_level_attained, sol.branch) == (
            ref.policy, ref.profit, ref.feasible, ref.service_level_attained, ref.branch)
        assert sol.diagnostics["round_profits"] == ref.diagnostics["round_profits"]
        assert sol.diagnostics["evaluations"] <= ref.diagnostics["evaluations"]
    assert full[5].diagnostics["evaluations"] == 26050  # BASE


def test_oracle_agrees_with_closed_form():
    oracle = brute_force_oracle(BASE.with_updates(F=0.0, c=0.0), "mm11")
    closed = solve_mm11_no_costs(BASE)
    assert oracle.profit == pytest.approx(closed.profit, rel=1e-12)
    assert oracle.policy.lam == pytest.approx(closed.policy.lam, abs=1e-5)


@pytest.mark.parametrize("costs_on", [False, True])
def test_free_price_scan_does_not_beat_binding_demand(costs_on):
    # Coarse scan over (lam, l, p) with the price freed and demand as an
    # inequality: it finds no more than the single-slot optimum on the
    # binding constraint, and its best price lands on that constraint up
    # to grid quantization.
    a, b1, b2, m, mu = BASE.a, BASE.b1, BASE.b2, BASE.m, BASE.mu
    lam, l, p = np.meshgrid(np.linspace(0.0, a, 60), np.linspace(BASE.z / mu, a / b2, 60),
                            np.linspace(0.0, a / b1, 60), indexing="ij")
    costs = BASE.F + BASE.c * np.exp(-mu * l) if costs_on else 0.0
    profit = np.where(lam <= a - b1 * p - b2 * l + 1e-12,
                      lam * (mu * (p - m) - costs) / (mu + lam), -np.inf)
    best = np.unravel_index(np.argmax(profit), profit.shape)
    closed = solve_mm11_with_costs(BASE) if costs_on else solve_mm11_no_costs(BASE)
    assert profit[best] <= closed.profit + 1e-9
    assert abs(p[best] - (a - b2 * l[best] - lam[best]) / b1) < 0.2
