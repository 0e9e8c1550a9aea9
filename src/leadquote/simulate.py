"""Discrete-event simulation of the finite-buffer single-server queue.

FCFS with one server needs no event calendar: admitted departures are
non-decreasing, so an arrival at t is admitted when the K-th most recent
departure is at or before t, and it departs at max(t, latest departure)
+ service.  Two independent RNG streams (arrivals, services) are spawned
from one seed, so runs are reproducible bit-for-bit and the streams stay
aligned regardless of blocking decisions.

Estimates are taken over the post-warm-up window (first 5% of the horizon
discarded): counts are classified by arrival time, the time-average number
in system integrates occupancy over the window, and every estimate carries
a 95% half-width from 20 batch means.  The event loop hands its jobs over
one arrival chunk at a time; each chunk is added into the per-batch sums
and dropped, so memory does not grow with the horizon.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass
from itertools import chain, count

import numpy as np
from scipy import stats

from .market import MarketParams, Policy
from .numeric import mm1k_profit
from .queueing import (
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_mean_sojourn,
    mm1k_ontime_prob,
    mm1k_throughput,
)

WARMUP_FRACTION = 0.05
N_BATCHES = 20
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a 95% confidence half-width from batch means."""

    value: float
    halfwidth: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimReport:
    """Everything measured in one simulation run."""

    n_arrivals: int
    n_blocked: int
    n_served: int
    n_in_system_end: int
    block_prob: Estimate
    mean_number: Estimate
    throughput: Estimate
    mean_sojourn: Estimate
    ontime_prob: Estimate
    profit_factored_lateness: Estimate
    profit_exact_lateness: Estimate
    seed: int
    horizon: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricCheck:
    name: str
    estimate: float
    analytic: float
    sigma: float
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationVerdict:
    """Per-metric 3-sigma agreement between simulation and the formulas."""

    checks: tuple
    ok: bool

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def _drain(policy: Policy, params: MarketParams, horizon: float, seed: int):
    """Run the event loop, yielding one arrival chunk at a time: its admitted
    (arrival, departure) arrays and its blocked arrival times.  Arrival times
    come from a sequential cumsum, which matches t += gap bit for bit, and
    an arrival is blocked when the K-th most recent departure is later than
    it; only the last K departures are carried from chunk to chunk."""
    lam, K = policy.lam, params.K
    root = np.random.SeedSequence(seed)
    arr_rng, svc_rng = (np.random.default_rng(s) for s in root.spawn(2))
    next_service = chain.from_iterable(
        svc_rng.exponential(1.0 / params.mu, _CHUNK).tolist() for _ in count()).__next__

    departures = array("d")  # the last K carried over, then this chunk's
    last = 0.0  # latest departure so far
    t, cut = 0.0, _CHUNK
    while cut == _CHUNK:  # the last chunk ended before the horizon; t is its end
        times = np.cumsum(np.concatenate(([t], arr_rng.exponential(1.0 / lam, _CHUNK))))[1:]
        cut = int(np.searchsorted(times, horizon))
        arrivals, blocked, carried = array("d"), array("d"), len(departures)
        admit, depart, block = arrivals.append, departures.append, blocked.append
        for t in times[:cut].tolist():
            try:
                if departures[-K] > t:
                    block(t)
                    continue
            except IndexError:
                pass  # fewer than K jobs admitted so far
            last = (last if last > t else t) + next_service()
            admit(t)
            depart(last)
        yield (
            np.frombuffer(arrivals, dtype=float),
            np.frombuffer(departures[carried:], dtype=float),
            np.frombuffer(blocked, dtype=float),
        )
        del departures[:-K]


def _batch_ci(values: np.ndarray) -> float:
    spread = float(np.std(values, ddof=1))
    tcrit = float(stats.t.ppf(0.975, len(values) - 1))
    return float(tcrit * spread / math.sqrt(len(values)))


def _batch_areas(arr: np.ndarray, dep: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Integral of the number in system over each batch.  Arrivals and
    departures are both sorted, so the jobs in system during a batch (those
    departing after its left edge and arriving before its right edge) form
    one contiguous index range."""
    first = np.searchsorted(dep, edges[:-1], "right")
    stop = np.searchsorted(arr, edges[1:])
    return np.array([float((np.minimum(dep[i:k], hi) - np.maximum(arr[i:k], lo)).sum())
                     for i, k, lo, hi in zip(first, stop, edges[:-1], edges[1:])])


def _batch_sums(arr: np.ndarray, dep: np.ndarray, blk: np.ndarray,
                edges: np.ndarray, l: float) -> np.ndarray:
    """One chunk's share of each per-batch sum, one row each: admitted,
    blocked and served counts, sojourn, on-time and lateness-excess sums
    (each by arrival time, over arrivals in the window), and the occupancy
    area, to which warm-up arrivals still in system after t0 add too."""
    t0, horizon = edges[0], edges[-1]
    width = (horizon - t0) / N_BATCHES

    def batch(times):
        return np.clip(((times - t0) / width).astype(int), 0, N_BATCHES - 1)

    # All three arrays are sorted, so the window is a tail slice of each.
    first = np.searchsorted(arr, t0)
    a_w, d_w = arr[first:], dep[first:]
    adm_bin = batch(a_w)
    sojourn = d_w - a_w
    return np.stack([
        np.bincount(adm_bin, minlength=N_BATCHES),
        np.bincount(batch(blk[np.searchsorted(blk, t0):]), minlength=N_BATCHES),
        np.bincount(adm_bin, weights=d_w <= horizon, minlength=N_BATCHES),
        np.bincount(adm_bin, weights=sojourn, minlength=N_BATCHES),
        np.bincount(adm_bin, weights=sojourn <= l, minlength=N_BATCHES),
        np.bincount(adm_bin, weights=np.maximum(sojourn - l, 0.0), minlength=N_BATCHES),
        _batch_areas(arr, dep, edges),
    ])


def simulate(policy: Policy, params: MarketParams, horizon: float, seed: int = 0) -> SimReport:
    """Simulate the finite-buffer queue under a fixed policy.

    Demand is Poisson(policy.lam) regardless of the demand law; the report
    estimates queueing metrics and two profit-rate estimators: the analytic
    structure with empirical factors (throughput * P(late) * mean sojourn
    for the lateness exposure) and the exact per-job lateness (W - l)+.
    """
    if policy.lam <= 0:
        raise ValueError("simulation needs a positive demand rate")
    if not 0 < horizon < math.inf:
        raise ValueError(f"simulation horizon must be positive and finite, got {horizon}")
    t0 = WARMUP_FRACTION * horizon
    window = horizon - t0
    edges = np.linspace(t0, horizon, N_BATCHES + 1)
    width = window / N_BATCHES
    sums = np.zeros((7, N_BATCHES))
    for arr, dep, blk in _drain(policy, params, horizon, seed):
        sums += _batch_sums(arr, dep, blk, edges, policy.l)
    adm_counts, blk_counts, served_counts, sojourn_sums, ontime_sums, excess_sums, areas = sums

    n_adm = int(adm_counts.sum())
    n_blocked = int(blk_counts.sum())
    n_arrivals = n_adm + n_blocked
    if n_arrivals == 0:
        raise ValueError("no arrivals in the measurement window; enlarge the horizon")
    all_counts = adm_counts + blk_counts
    if np.any(all_counts == 0):
        raise ValueError("a batch saw no arrivals; enlarge the horizon")
    n_served = int(served_counts.sum())

    p_margin = policy.p - params.m
    F, c = params.F, params.c

    b_block = blk_counts / all_counts
    b_number = areas / width
    b_through = served_counts / width
    safe_adm = np.maximum(adm_counts, 1.0)
    b_sojourn = sojourn_sums / safe_adm
    b_ontime = ontime_sums / safe_adm
    b_profit_factored = b_through * p_margin - F * b_number - c * b_through * (1.0 - b_ontime) * b_sojourn
    b_profit_exact = b_through * p_margin - F * b_number - c * excess_sums / width

    throughput = n_served / window
    mean_number = float(areas.sum()) / window
    mean_sojourn = float(sojourn_sums.sum()) / n_adm if n_adm else 0.0
    ontime = float(ontime_sums.sum()) / n_adm if n_adm else 1.0
    profit_factored = throughput * p_margin - F * mean_number - c * throughput * (1.0 - ontime) * mean_sojourn
    profit_exact = throughput * p_margin - F * mean_number - c * float(excess_sums.sum()) / window

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


def validate(report: SimReport, params: MarketParams, policy: Policy) -> ValidationVerdict:
    """Compare a simulation report against the steady-state formulas.

    Each metric must sit within 3 standard errors (half-width / t-critical)
    of its analytic value.
    """
    lam, mu, K, l = policy.lam, params.mu, params.K, policy.l
    tcrit = float(stats.t.ppf(0.975, N_BATCHES - 1))
    analytic = {
        "block_prob": (report.block_prob, mm1k_blocking(lam, mu, K)),
        "mean_number": (report.mean_number, mm1k_mean_number(lam, mu, K)),
        "throughput": (report.throughput, mm1k_throughput(lam, mu, K)),
        "mean_sojourn": (report.mean_sojourn, mm1k_mean_sojourn(lam, mu, K)),
        "ontime_prob": (report.ontime_prob, mm1k_ontime_prob(lam, mu, K, l)),
        "profit_factored_lateness": (report.profit_factored_lateness, mm1k_profit(policy, params)),
    }
    checks = []
    for name, (est, truth) in analytic.items():
        sigma = est.halfwidth / tcrit
        ok = bool(abs(est.value - truth) <= 3.0 * sigma + 1e-9)
        checks.append(MetricCheck(name, est.value, float(truth), sigma, ok))
    return ValidationVerdict(checks=tuple(checks), ok=all(c.ok for c in checks))
