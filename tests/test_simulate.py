"""Discrete-event simulator: exact count identities, reproducibility,
and 3-sigma agreement with the steady-state formulas at short horizons.
The long-horizon statistical battery lives in the acceptance suite."""

import json
import math
from array import array
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadquote import (
    MarketParams,
    Policy,
    mm1k_throughput,
    simulate,
    validate,
)
from leadquote.simulate import _CHUNK, N_BATCHES, WARMUP_FRACTION, _batch_areas, _drain

PARAMS_K3 = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=3)
POLICY_K3 = Policy(p=9.0, l=0.3, lam=5.0)


@pytest.fixture(scope="module")
def report_k3():
    return simulate(POLICY_K3, PARAMS_K3, horizon=4000.0, seed=11)


def test_population_identity(report_k3):
    r = report_k3
    assert r.n_arrivals == r.n_blocked + r.n_served + r.n_in_system_end
    assert r.n_in_system_end <= PARAMS_K3.K
    assert r.block_prob.value == r.n_blocked / r.n_arrivals


def test_reproducible_per_seed():
    a = simulate(POLICY_K3, PARAMS_K3, horizon=500.0, seed=42)
    b = simulate(POLICY_K3, PARAMS_K3, horizon=500.0, seed=42)
    assert a == b
    c = simulate(POLICY_K3, PARAMS_K3, horizon=500.0, seed=43)
    assert c != a


def test_verdict_passes_on_matched_params(report_k3):
    verdict = validate(report_k3, PARAMS_K3, POLICY_K3)
    assert verdict.ok
    names = [c.name for c in verdict.checks]
    assert names == [
        "block_prob",
        "mean_number",
        "throughput",
        "mean_sojourn",
        "ontime_prob",
        "profit_factored_lateness",
    ]
    for check in verdict.checks:
        assert check.sigma > 0


def test_verdict_fails_on_wrong_service_rate(report_k3):
    # negative control: claim the server was twice as fast
    wrong = PARAMS_K3.with_updates(mu=20.0)
    verdict = validate(report_k3, wrong, POLICY_K3)
    assert not verdict.ok
    failed = {c.name for c in verdict.checks if not c.ok}
    assert "mean_sojourn" in failed or "ontime_prob" in failed


def test_littles_law_holds_empirically(report_k3):
    r = report_k3
    # L and lambda_eff * W estimate the same quantity up to boundary jobs
    assert r.mean_number.value == pytest.approx(
        r.throughput.value * r.mean_sojourn.value, rel=0.02
    )


def test_throughput_tracks_formula(report_k3):
    truth = mm1k_throughput(POLICY_K3.lam, PARAMS_K3.mu, PARAMS_K3.K)
    est = report_k3.throughput
    assert abs(est.value - truth) <= 3.0 * est.halfwidth


def test_single_slot_profit_estimators_agree():
    # K = 1: the admitted sojourn is memoryless, so P(late)*E[W] equals
    # E[(W - l)+] and the two profit estimators share a mean
    params = PARAMS_K3.with_updates(K=1)
    pol = Policy(p=8.0, l=0.25, lam=4.0)
    r = simulate(pol, params, horizon=4000.0, seed=5)
    gap = abs(r.profit_factored_lateness.value - r.profit_exact_lateness.value)
    assert gap <= r.profit_factored_lateness.halfwidth + r.profit_exact_lateness.halfwidth


def test_rejects_degenerate_runs():
    with pytest.raises(ValueError):
        simulate(Policy(p=9.0, l=0.3, lam=0.0), PARAMS_K3, horizon=100.0)
    with pytest.raises(ValueError):
        simulate(POLICY_K3, PARAMS_K3, horizon=0.0)
    with pytest.raises(ValueError):
        # so short that batches go empty
        simulate(Policy(p=9.0, l=0.3, lam=0.01), PARAMS_K3, horizon=5.0)


def test_report_serializes_to_json(report_k3):
    payload = report_k3.to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["n_arrivals"] == report_k3.n_arrivals
    assert back["profit_factored_lateness"]["halfwidth"] > 0
    assert back["seed"] == 11 and back["horizon"] == 4000.0
    verdict = validate(report_k3, PARAMS_K3, POLICY_K3)
    json.dumps(verdict.to_dict())


@pytest.mark.parametrize("policy, horizon", [
    ((9.0, 0.3, 5.0), math.nan),
    ((9.0, 0.3, 5.0), math.inf),
    ((9.0, 0.3, math.inf), 100.0),
    ((9.0, math.nan, 5.0), 100.0),
    ((math.nan, 0.3, 5.0), 100.0),
])
def test_rejects_non_finite_inputs(policy, horizon):
    # policy holds the raw (p, l, lam): a non-finite field fails where the
    # Policy is built
    with pytest.raises(ValueError, match="finite"):
        simulate(Policy(*policy), PARAMS_K3, horizon=horizon)


def test_rejects_negative_lead_time():
    with pytest.raises(ValueError, match="lead time"):
        simulate(Policy(p=9.0, l=-1.0, lam=5.0), PARAMS_K3, horizon=2000.0)


def _reference_drain(policy: Policy, params: MarketParams, horizon: float, seed: int):
    """Test oracle: the event loop as first written, with a FIFO deque of
    the departure times of the jobs in system."""
    lam, K = policy.lam, params.K
    if lam <= 0:
        raise ValueError("simulation needs a positive demand rate")
    if horizon <= 0:
        raise ValueError("simulation horizon must be positive")
    root = np.random.SeedSequence(seed)
    arr_rng, svc_rng = (np.random.default_rng(s) for s in root.spawn(2))

    arrivals = array("d")
    departures = array("d")
    blocked = array("d")
    pending = deque()  # departure times of jobs in system, FIFO

    svc_chunk = svc_rng.exponential(1.0 / params.mu, _CHUNK)
    svc_i = 0
    t = 0.0
    while True:
        for gap in arr_rng.exponential(1.0 / lam, _CHUNK):
            t += gap
            if t >= horizon:
                break
            while pending and pending[0] <= t:
                pending.popleft()
            if len(pending) >= K:
                blocked.append(t)
                continue
            if svc_i == len(svc_chunk):
                svc_chunk = svc_rng.exponential(1.0 / params.mu, _CHUNK)
                svc_i = 0
            service = svc_chunk[svc_i]
            svc_i += 1
            start = pending[-1] if pending else t
            done = start + service
            pending.append(done)
            arrivals.append(t)
            departures.append(done)
        if t >= horizon:
            break
    return (
        np.frombuffer(arrivals, dtype=float),
        np.frombuffer(departures, dtype=float),
        np.frombuffer(blocked, dtype=float),
    )


def _assert_same_paths(policy, params, horizon, seed):
    fast = _drain(policy, params, horizon, seed)
    slow = _reference_drain(policy, params, horizon, seed)
    for got, want in zip(fast, slow):
        assert np.array_equal(got, want)
    return fast


@pytest.mark.parametrize("K", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("lam", [3.0, 15.0])  # rho = 0.3 and 1.5
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drain_matches_deque_loop(K, lam, seed):
    # 500 time units hold well under one chunk of arrivals
    arr, _, blk = _assert_same_paths(Policy(p=9.0, l=0.3, lam=lam),
                                     PARAMS_K3.with_updates(K=K), 500.0, seed)
    assert len(arr) + len(blk) < _CHUNK


def test_drain_matches_deque_loop_across_chunks():
    arr, _, blk = _assert_same_paths(Policy(p=9.0, l=0.3, lam=20.0), PARAMS_K3, 12_000.0, 4)
    assert len(arr) + len(blk) >= 3 * _CHUNK  # arrival chunks
    assert len(arr) > _CHUNK  # service chunks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lam=st.floats(0.1, 30.0), mu=st.floats(0.5, 20.0),
       K=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_drain_matches_deque_loop_property(lam, mu, K, seed):
    _assert_same_paths(Policy(p=9.0, l=0.3, lam=lam),
                       PARAMS_K3.with_updates(mu=mu, K=K), 50.0, seed)


def _window_areas(arr, dep, horizon):
    edges = np.linspace(WARMUP_FRACTION * horizon, horizon, N_BATCHES + 1)
    return _batch_areas(arr, dep, edges), edges


def test_batch_areas_sum_to_window_area():
    horizon = 4000.0
    arr, dep, _ = _drain(POLICY_K3, PARAMS_K3, horizon, 11)
    areas, edges = _window_areas(arr, dep, horizon)
    overlap = np.minimum(dep, horizon) - np.maximum(arr, edges[0])
    assert areas.sum() == pytest.approx(overlap[overlap > 0].sum(), rel=1e-12)


def test_batch_areas_match_full_array_formula_when_jobs_span_batches():
    horizon = 200.0
    pol, params = Policy(p=9.0, l=0.3, lam=15.0), PARAMS_K3.with_updates(K=200)
    arr, dep, _ = _drain(pol, params, horizon, 3)
    areas, edges = _window_areas(arr, dep, horizon)
    assert float(np.max(dep - arr)) > 2.0 * (edges[1] - edges[0])
    for j in range(N_BATCHES):
        seg = np.minimum(dep, edges[j + 1]) - np.maximum(arr, edges[j])
        assert areas[j] == pytest.approx(np.clip(seg, 0.0, None).sum(), rel=1e-12)
