"""Discrete-event simulator: exact count identities, reproducibility,
3-sigma agreement with the steady-state formulas at short horizons, and
agreement of the per-chunk estimates with a whole-array oracle.  The
long-horizon statistical battery lives in the acceptance suite."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from array import array
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leadquote
from leadquote import (
    MarketParams,
    Policy,
    mm1k_throughput,
    simulate,
    solve_mm1k_numeric,
    validate,
)
from leadquote.simulate import (
    _CHUNK,
    N_BATCHES,
    WARMUP_FRACTION,
    Estimate,
    SimReport,
    _batch_areas,
    _batch_ci,
    _batch_sums,
    _drain,
)

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


def test_verdict_passes_a_run_that_blocks_no_arrival():
    # `leadquote simulate --K 3 --model mm1k --horizon 2000 --seed 1`: 0 of
    # 1623 arrivals blocked, so every batch's share is 0 and sigma is 0.
    # Under the analytic P_block = 5.7e-4, 0 blocked has probability 0.40.
    policy = solve_mm1k_numeric(PARAMS_K3).policy
    report = simulate(policy, PARAMS_K3, horizon=2000.0, seed=1)
    verdict = validate(report, PARAMS_K3, policy)
    block = verdict.checks[0]
    assert (report.n_blocked, report.n_arrivals) == (0, 1623)
    assert block.name == "block_prob" and block.sigma == 0.0 and block.analytic > 0.0
    assert verdict.ok


def test_a_run_that_admits_no_arrival_keeps_its_window_estimates():
    # At mu = 1e-6 the job admitted in the warm-up never leaves, so all 468
    # window arrivals are blocked.  With no admitted job, the window's
    # on-time share reads 1 (no window job was late) and its mean sojourn 0.
    # The one job in system costs F = 2, and it is late for the whole
    # window, which the exact lateness counts at c = 10: -12, as
    # mm1k_profit reads -11.9999966.  The factored estimate takes lateness
    # from window jobs alone, so it misses that cost.
    params, policy, horizon = PARAMS_K3.with_updates(mu=1e-6, K=1), Policy(p=1.0, l=0.5, lam=5.0), 100.0
    report = simulate(policy, params, horizon=horizon, seed=1)
    assert (report.n_arrivals, report.n_blocked, report.n_served) == (468, 468, 0)
    assert report.block_prob == Estimate(1.0, 0.0)
    assert report.mean_number == Estimate(1.0, 0.0)
    assert report.mean_sojourn == Estimate(0.0, 0.0)
    assert report.ontime_prob == Estimate(1.0, 0.0)
    assert report.profit_factored_lateness == Estimate(-2.0, 0.0)
    assert report.profit_exact_lateness == Estimate(-12.0, 0.0)


def test_a_batch_that_admits_no_arrival_reads_an_ontime_share_of_0():
    # A 20-unit mean service on 19-unit batches: some batches admit no job,
    # and their on-time share enters the half-width as 0.
    params, policy, horizon = PARAMS_K3.with_updates(mu=0.05, K=1), Policy(p=1.0, l=20.0, lam=1.0), 400.0
    report = simulate(policy, params, horizon=horizon, seed=4)
    edges = np.linspace(WARMUP_FRACTION * horizon, horizon, N_BATCHES + 1)
    admitted, _, _, _, ontime, _, _ = sum(_batch_sums(arr, dep, blk, edges, policy.l)
                                          for arr, dep, blk in _drain(policy, params, horizon, 4))
    assert 0 < np.count_nonzero(admitted == 0) < N_BATCHES
    shares = np.where(admitted > 0, ontime / np.maximum(admitted, 1.0), 0.0)
    assert report.ontime_prob == Estimate(0.5333333333333333, _batch_ci(shares))


@pytest.mark.parametrize("name, l, ok", [("block_prob", 0.3, False),
                                         ("ontime_prob", 3.0, True),
                                         ("ontime_prob", 0.1, False)])
def test_a_proportion_without_spread_takes_a_binomial_tail(name, l, ok):
    # Negative controls: 0 blocked of 10^4 arrivals against P_block = 0.05
    # (K = 1 at rho = 1/19), and 10^4 of 10^4 admitted jobs on time
    # against P(W <= 0.1) = 0.63 fail; against P(W <= 3) = 1 - 6e-13 the
    # second passes.
    params = PARAMS_K3.with_updates(K=1)
    policy = Policy(p=9.0, l=l, lam=params.mu / 19.0)
    report = dataclasses.replace(simulate(policy, params, horizon=2000.0, seed=1),
                                 n_arrivals=10_000, n_blocked=0,
                                 block_prob=Estimate(0.0, 0.0), ontime_prob=Estimate(1.0, 0.0))
    check = next(c for c in validate(report, params, policy).checks if c.name == name)
    assert check.sigma == 0.0
    assert check.ok == ok


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
    with pytest.raises(ValueError, match="positive demand rate"):
        simulate(Policy(p=9.0, l=0.3, lam=0.0), PARAMS_K3, horizon=100.0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        simulate(POLICY_K3, PARAMS_K3, horizon=0.0)
    with pytest.raises(ValueError, match="no arrivals in the measurement window"):
        # so short that the window sees no arrival at all
        simulate(Policy(p=9.0, l=0.3, lam=0.01), PARAMS_K3, horizon=5.0)
    with pytest.raises(ValueError, match="a batch saw no arrivals"):
        # the window sees arrivals, but one of its batches none
        simulate(Policy(p=6.0, l=0.3, lam=1.0), PARAMS_K3, horizon=25.0, seed=1)


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


def _joined(policy, params, horizon, seed):
    """_drain's chunks joined into whole (arrival, departure, blocked) arrays."""
    return [np.concatenate(col) for col in zip(*_drain(policy, params, horizon, seed))]


def _assert_same_paths(policy, params, horizon, seed):
    fast = _joined(policy, params, horizon, seed)
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
    arr, dep, _ = _joined(POLICY_K3, PARAMS_K3, horizon, 11)
    areas, edges = _window_areas(arr, dep, horizon)
    overlap = np.minimum(dep, horizon) - np.maximum(arr, edges[0])
    assert areas.sum() == pytest.approx(overlap[overlap > 0].sum(), rel=1e-12)


def test_batch_areas_match_full_array_formula_when_jobs_span_batches():
    horizon = 200.0
    pol, params = Policy(p=9.0, l=0.3, lam=15.0), PARAMS_K3.with_updates(K=200)
    arr, dep, _ = _joined(pol, params, horizon, 3)
    areas, edges = _window_areas(arr, dep, horizon)
    assert float(np.max(dep - arr)) > 2.0 * (edges[1] - edges[0])
    for j in range(N_BATCHES):
        seg = np.minimum(dep, edges[j + 1]) - np.maximum(arr, edges[j])
        assert areas[j] == pytest.approx(np.clip(seg, 0.0, None).sum(), rel=1e-12)


def _reference_report(policy: Policy, params: MarketParams, horizon: float, seed: int) -> SimReport:
    """Test oracle: the estimator as first written, on whole arrays from
    _reference_drain.  The exact lateness takes each job's overlap of its
    late interval [a + l, d] with the window and with each batch."""
    arr, dep, blk = _reference_drain(policy, params, horizon, seed)
    t0 = WARMUP_FRACTION * horizon
    window = horizon - t0

    first_adm = np.searchsorted(arr, t0)
    a_w, d_w = arr[first_adm:], dep[first_adm:]
    blk_w = blk[np.searchsorted(blk, t0):]
    n_adm = len(a_w)
    n_blocked = len(blk_w)
    n_arrivals = n_adm + n_blocked
    n_served = int((d_w <= horizon).sum())

    sojourn = d_w - a_w
    overlap = np.minimum(dep, horizon) - np.maximum(arr, t0)
    area = float(overlap[overlap > 0].sum())
    late = np.minimum(dep, horizon) - np.maximum(arr + policy.l, t0)
    late_area = float(late[late > 0].sum())

    p_margin = policy.p - params.m
    F, c = params.F, params.c

    edges = np.linspace(t0, horizon, N_BATCHES + 1)
    width = window / N_BATCHES
    adm_bin = np.clip(((a_w - t0) / width).astype(int), 0, N_BATCHES - 1)
    blk_bin = np.clip(((blk_w - t0) / width).astype(int), 0, N_BATCHES - 1)
    adm_counts = np.bincount(adm_bin, minlength=N_BATCHES).astype(float)
    blk_counts = np.bincount(blk_bin, minlength=N_BATCHES).astype(float)
    served_counts = np.bincount(adm_bin, weights=(d_w <= horizon).astype(float),
                                minlength=N_BATCHES)
    sojourn_sums = np.bincount(adm_bin, weights=sojourn, minlength=N_BATCHES)
    ontime_sums = np.bincount(adm_bin, weights=(sojourn <= policy.l).astype(float),
                              minlength=N_BATCHES)
    late_areas = np.array([np.clip(np.minimum(dep, hi) - np.maximum(arr + policy.l, lo), 0.0, None).sum()
                           for lo, hi in zip(edges[:-1], edges[1:])])
    areas = _batch_areas(arr, dep, edges)

    b_block = blk_counts / (adm_counts + blk_counts)
    b_number = areas / width
    b_through = served_counts / width
    safe_adm = np.maximum(adm_counts, 1.0)
    b_sojourn = sojourn_sums / safe_adm
    b_ontime = ontime_sums / safe_adm
    b_profit_factored = b_through * p_margin - F * b_number - c * b_through * (1.0 - b_ontime) * b_sojourn
    b_profit_exact = b_through * p_margin - F * b_number - c * late_areas / width

    throughput = n_served / window
    mean_number = area / window
    mean_sojourn = float(sojourn.mean()) if n_adm else 0.0
    ontime = float((sojourn <= policy.l).mean()) if n_adm else 1.0
    profit_factored = throughput * p_margin - F * mean_number - c * throughput * (1.0 - ontime) * mean_sojourn
    profit_exact = throughput * p_margin - F * mean_number - c * late_area / window

    return SimReport(
        n_arrivals=n_arrivals,
        n_blocked=n_blocked,
        n_served=n_served,
        n_in_system_end=n_adm - n_served,
        block_prob=Estimate(n_blocked / n_arrivals, _batch_ci(b_block)),
        mean_number=Estimate(mean_number, _batch_ci(b_number)),
        throughput=Estimate(throughput, _batch_ci(b_through)),
        mean_sojourn=Estimate(mean_sojourn, _batch_ci(b_sojourn)),
        ontime_prob=Estimate(ontime, _batch_ci(b_ontime)),
        profit_factored_lateness=Estimate(profit_factored, _batch_ci(b_profit_factored)),
        profit_exact_lateness=Estimate(profit_exact, _batch_ci(b_profit_exact)),
        seed=seed,
        horizon=horizon,
    )


def _assert_matches_reference(policy, params, horizon, seed):
    got = simulate(policy, params, horizon, seed)
    want = _reference_report(policy, params, horizon, seed)
    for field in dataclasses.fields(SimReport):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, Estimate):
            # per-chunk sums add in a different order: last bits only
            assert g.value == pytest.approx(w.value, rel=1e-12, abs=0.0), field.name
            assert g.halfwidth == pytest.approx(w.halfwidth, rel=1e-12, abs=0.0), field.name
        else:
            assert g == w, field.name


@pytest.mark.parametrize("K, lam, horizon, seed, chunks", [
    (3, 5.0, 4000.0, 11, (1, 1)),
    (3, 20.0, 12_000.0, 4, (3, 5)),
    (200, 15.0, 200.0, 3, (1, 1)),  # jobs span batch edges
], ids=["one-chunk", "several-chunks", "jobs-span-batches"])
def test_streamed_report_matches_whole_array_estimator(K, lam, horizon, seed, chunks):
    policy, params = Policy(p=9.0, l=0.3, lam=lam), PARAMS_K3.with_updates(K=K)
    n_chunks = sum(1 for _ in _drain(policy, params, horizon, seed))
    assert chunks[0] <= n_chunks <= chunks[1]
    _assert_matches_reference(policy, params, horizon, seed)


def test_streamed_report_matches_when_jobs_span_chunks():
    # rho = 1.5 keeps the 200-slot buffer nearly full, so every chunk's last
    # admitted job departs after the next chunk's first arrival, and the
    # admission test reads departures carried over from the chunk before
    policy, params = Policy(p=9.0, l=0.3, lam=15.0), PARAMS_K3.with_updates(K=200)
    horizon, seed = 10_000.0, 5
    chunks = list(_drain(policy, params, horizon, seed))
    assert len(chunks) >= 3
    for (_, dep, _), (arr, _, blk) in zip(chunks, chunks[1:]):
        assert dep[-1] > min(arr[0], blk[0])
    _assert_same_paths(policy, params, horizon, seed)
    _assert_matches_reference(policy, params, horizon, seed)


_PEAK_RSS_SCRIPT = """
import resource
from leadquote import MarketParams, Policy, simulate

params = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=3)
policy = Policy(p=9.0, l=0.3, lam=5.0)
simulate(policy, params, horizon=2e4, seed=1)  # 1e5 arrivals
small = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
simulate(policy, params, horizon=2e5, seed=2)  # 1e6 arrivals
print(small, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _run_fresh(script: str) -> str:
    """stdout of script in a fresh interpreter that imports this leadquote."""
    src = str(Path(leadquote.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_peak_memory_does_not_grow_with_the_horizon():
    # A fresh process, so no earlier test sets the peak.  Holding every
    # arrival would cost about 45 bytes each, 45 MB here.
    out = _run_fresh(_PEAK_RSS_SCRIPT)
    small_kb, large_kb = map(int, out.split())
    assert large_kb - small_kb < 10 * 1024


def test_package_import_leaves_scipy_stats_out():
    # scipy.stats takes about a second to import; the simulator's t
    # quantile and the certify Erlang oracle use scipy.special instead
    out = _run_fresh("import sys, leadquote, leadquote.cli; print('scipy.stats' in sys.modules)")
    assert out.split() == ["False"]
