"""Certification battery wiring: the oracles themselves behave, and the
full battery passes at reduced size (full size runs in the acceptance
suite and the CLI validate subcommand)."""

import dataclasses
import math

import numpy as np
import pytest

from leadquote import (
    MarketParams,
    birth_death_stationary,
    brute_force_oracles,
    erlang_ontime_oracle,
    mm1k_blocking,
    mm1k_ontime_prob,
    random_feasible_params,
    run_all_checks,
)
from leadquote import certify
from leadquote.certify import check_closed_form_against_oracle, random_params


def test_birth_death_is_a_distribution():
    for lam, mu, K in [(3.0, 10.0, 4), (10.0, 10.0, 6), (25.0, 10.0, 3)]:
        pi = birth_death_stationary(lam, mu, K)
        assert pi.shape == (K + 1,)
        assert np.all(pi > 0)
        assert float(pi.sum()) == pytest.approx(1.0, abs=1e-14)
        # detailed balance of the birth-death chain: lam pi_k = mu pi_{k+1}
        assert np.max(np.abs(lam * pi[:-1] - mu * pi[1:])) < 1e-12 * mu


def test_birth_death_matches_geometric_form():
    lam, mu, K = 4.0, 10.0, 5
    pi = birth_death_stationary(lam, mu, K)
    rho = lam / mu
    explicit = np.array([rho**k for k in range(K + 1)])
    explicit /= explicit.sum()
    assert np.max(np.abs(pi - explicit)) < 1e-14
    assert mm1k_blocking(lam, mu, K) == pytest.approx(float(pi[K]), abs=1e-13)


def test_erlang_oracle_tracks_library():
    for lam, mu, K, l in [(5.0, 10.0, 3, 0.3), (12.0, 10.0, 2, 0.25), (10.0, 10.0, 4, 0.5)]:
        oracle = erlang_ontime_oracle(lam, mu, K, l)
        lib = mm1k_ontime_prob(lam, mu, K, l)
        assert lib == pytest.approx(oracle, abs=1e-12)


def test_erlang_oracle_single_slot_is_exponential():
    got = erlang_ontime_oracle(3.0, 10.0, 1, 0.2)
    assert got == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


def test_random_draws_are_valid_and_feasible():
    rng = np.random.default_rng(99)
    for costs_on in (False, True):
        params = random_params(rng, costs_on)
        assert params.K == 1
        if not costs_on:
            assert params.F == 0.0 and params.c == 0.0
        feas = random_feasible_params(rng, costs_on)
        from leadquote import solve_mm11_no_costs, solve_mm11_with_costs

        sol = solve_mm11_with_costs(feas) if costs_on else solve_mm11_no_costs(feas)
        assert sol.feasible and sol.policy.lam > 0.01


def test_full_battery_passes_small():
    results = run_all_checks(n_instances=10, resolution=100, seed=2)
    assert len(results) == 9
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    assert set(names) == set(NEGATIVE_CONTROLS)  # every check has a negative control
    payload = [r.to_dict() for r in results]
    assert all(set(d) == {"name", "ok", "detail"} for d in payload)


@pytest.mark.parametrize("n", [0, -2, 2.5, 3.0, True])
def test_oracle_check_needs_an_instance(n):
    # With no draws it would certify nothing and still read ok.  A count
    # that is not an integer fails here too, not in range() (True would
    # count as 1).
    with pytest.raises(ValueError, match="n >= 1"):
        check_closed_form_against_oracle(False, n=n)
    with pytest.raises(ValueError, match="n >= 1"):
        run_all_checks(n_instances=n)


def test_oracle_check_reports_the_points_it_evaluated():
    result = check_closed_form_against_oracle(True, n=5, seed=4)
    rng = np.random.default_rng(4)
    markets = [random_feasible_params(rng, True) for _ in range(5)]
    evals = sum(sol.diagnostics["evaluations"] for sol in brute_force_oracles(markets, "mm11"))
    assert result.ok and result.detail.endswith(f", n=5, {evals} oracle evaluations")


@pytest.mark.parametrize("seed", [10, 30, 37])
def test_costed_oracle_sees_thin_profit_regions(seed):
    # At these seeds the closed form earns at most 2.5e-3, at lambda* <=
    # 0.14; with its lambda range capped where the unit margin p - m ends,
    # the oracle finds that at the default resolution and tolerance.
    result = check_closed_form_against_oracle(True, seed=seed)
    assert result.ok, result.detail


def test_costed_oracle_check_passes_over_a_seed_sweep():
    # The lambda cap must hold beyond the pinned seeds above: 60 seeds of
    # 25 costed markets each, at the default resolution and tolerance.
    failed = {}
    for seed in range(1, 61):
        result = check_closed_form_against_oracle(True, n=25, seed=seed)
        if not result.ok:
            failed[seed] = result.detail
    assert not failed, failed


def _scaled(factor):
    """A fault that scales a function's value by factor."""
    return lambda f: lambda *args: f(*args) * factor


def _scaled_profit(factor):
    """A fault that scales a solver's profit by factor."""
    def plant(solve):
        def faulty(params):
            sol = solve(params)
            return dataclasses.replace(sol, profit=sol.profit * factor)
        return faulty
    return plant


# Each check of the battery, the name it calls in certify, and a fault to
# plant there that the check must catch: each fault is well past the
# check's tolerance, and an oracle check must catch a closed form that is
# off by 1e-3 at a small n and the lowest resolution.
NEGATIVE_CONTROLS = {
    "queueing-vs-birth-death": (certify.check_queueing_against_birth_death,
                                "mm1k_blocking", _scaled(1 + 1e-8)),
    "ontime-vs-erlang-oracle": (certify.check_ontime_against_erlang_oracle,
                                "mm1k_ontime_prob", lambda f: lambda *args: f(*args) + 1e-8),
    "mm1-limit-at-large-K": (certify.check_mm1_limit, "mm1k_mean_number", _scaled(1 + 1e-5)),
    "single-slot-reduction": (certify.check_single_slot_reduction,
                              "mm1k_profit", _scaled(1 + 1e-9)),
    "feasibility-gates": (certify.check_feasibility_gates,
                          "feasible_with_costs", lambda f: lambda *args: not f(*args)),
    # A solve that sells nothing: the market's price intercept is below m.
    "branch-dichotomy": (certify.check_branch_dichotomy, "solve_mm11_with_costs",
                         lambda f: lambda params: f(params.with_updates(a=1.0))),
    "closed-form-vs-oracle-no-costs": (
        lambda: check_closed_form_against_oracle(False, n=3, resolution=100),
        "solve_mm11_with_costs", _scaled_profit(1 + 1e-3)),
    "closed-form-vs-oracle-with-costs": (
        lambda: check_closed_form_against_oracle(True, n=3, seed=12, resolution=100),
        "solve_mm11_with_costs", _scaled_profit(1 + 1e-3)),
    "numeric-vs-closed-form-at-K1": (certify.check_numeric_matches_closed_form,
                                     "solve_mm1k_numeric", _scaled_profit(1 + 1e-2)),
}


@pytest.mark.parametrize("name", list(NEGATIVE_CONTROLS))
def test_each_check_fails_on_a_planted_fault(name, monkeypatch):
    check, target, plant = NEGATIVE_CONTROLS[name]
    clean = check()
    assert clean.name == name and clean.ok, clean.detail
    monkeypatch.setattr(certify, target, plant(getattr(certify, target)))
    faulty = check()
    assert faulty.name == name and not faulty.ok, faulty.detail
