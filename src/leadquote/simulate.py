"""Discrete-event simulation of the finite-buffer single-server queue.

FCFS with one server needs no event calendar: admitted departures are
non-decreasing, so an arrival at t is admitted when the K-th most recent
departure is at or before t, and it departs at max(t, latest departure)
+ service.  Two independent RNG streams (arrivals, services) are spawned
from one seed, so runs are reproducible bit-for-bit and the streams stay
aligned regardless of blocking decisions.

Estimates are taken over the post-warm-up window (first 5% of the horizon
discarded): counts are classified by arrival time, the time-average
numbers in system and of late jobs integrate over the window, warm-up
arrivals still in system included, and every estimate carries
a 95% half-width from 20 batch means.  The event loop hands its jobs over
one arrival chunk at a time; each chunk is added into the per-batch sums
and dropped.  Between chunks the loop carries only the departures of the
jobs still in system, so memory does not grow with the horizon at any K.
One estimator (_estimates) turns those sums into the window's estimates
and, batch by batch, into the batch means.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain, count

import numpy as np
from scipy.special import bdtr, bdtrc, stdtrit

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

# The 3-sigma rule's two-sided false-alarm rate under a normal law,
# 2 (1 - Phi(3)) = 0.27 %, which validate's binomial tails keep.
FALSE_ALARM = math.erfc(3.0 / math.sqrt(2.0))
# The t critical value of a 95% half-width from N_BATCHES batch means.
_TCRIT = float(stdtrit(N_BATCHES - 1, 0.975))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a 95% confidence half-width from batch means."""

    value: float
    halfwidth: float


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
    an arrival is blocked when kth, the K-th most recent departure, is later
    than it.  kth is the front of a ring of the last K departures, read
    again on each admission.  At each chunk edge the ring drops the
    departures at or before the edge: those jobs have left and can block no
    later arrival.  If fewer than K are left, one -inf goes in front, and
    kth reads it until K departures stand behind it.  The ring thus holds
    the jobs in system plus one chunk's admissions, at any K."""
    lam, K = policy.lam, params.K
    root = np.random.SeedSequence(seed)
    arr_rng, svc_rng = (np.random.default_rng(s) for s in root.spawn(2))
    next_service = chain.from_iterable(
        memoryview(svc_rng.exponential(1.0 / params.mu, _CHUNK)) for _ in count()).__next__

    ring = deque(maxlen=min(K, sys.maxsize))  # no run admits sys.maxsize jobs
    push = ring.append
    last = 0.0  # latest departure so far
    t, cut = 0.0, _CHUNK
    while cut == _CHUNK:  # the last chunk ended before the horizon; t is its end
        times = np.cumsum(np.concatenate(([t], arr_rng.exponential(1.0 / lam, _CHUNK))))[1:]
        cut = int(np.searchsorted(times, horizon))
        while ring and ring[0] <= t:
            ring.popleft()
        if len(ring) < K:
            ring.appendleft(-math.inf)
        kth = ring[0]
        outcomes = array("d")  # each arrival's departure, or -1.0 if blocked
        record = outcomes.append
        for t in memoryview(times)[:cut]:
            if kth > t:
                record(-1.0)
                continue
            last = (last if last > t else t) + next_service()
            push(last)
            kth = ring[0]
            record(last)
        arrivals, departures = times[:cut], np.frombuffer(outcomes, dtype=float)
        admitted = departures >= 0.0
        yield arrivals[admitted], departures[admitted], arrivals[~admitted]


def _batch_ci(values: np.ndarray) -> float:
    spread = float(np.std(values, ddof=1))
    return float(_TCRIT * spread / math.sqrt(N_BATCHES))


def _batch_areas(arr: np.ndarray, dep: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Integral over each batch of the number of jobs whose interval
    [arr, dep] covers the time: the number in system, or with arr + l for
    arr the number of late jobs.  Both arrays are sorted, so the jobs whose
    interval can meet a batch (those ending after its left edge and
    starting before its right edge) form one contiguous index range; an
    empty interval (a job on time) adds 0."""
    first = np.searchsorted(dep, edges[:-1], "right")
    stop = np.searchsorted(arr, edges[1:])
    return np.array([float(np.maximum(np.minimum(dep[i:k], hi) - np.maximum(arr[i:k], lo), 0.0).sum())
                     for i, k, lo, hi in zip(first, stop, edges[:-1], edges[1:])])


def _batch_sums(arr: np.ndarray, dep: np.ndarray, blk: np.ndarray,
                edges: np.ndarray, l: float) -> np.ndarray:
    """One chunk's share of each per-batch sum, one row each: admitted,
    blocked and served counts, sojourn and on-time sums (each by arrival
    time, over arrivals in the window), and the lateness and occupancy
    areas, the integrals of the number of late jobs and of jobs in system,
    to which warm-up arrivals still in system after t0 add too."""
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
        _batch_areas(arr + l, dep, edges),
        _batch_areas(arr, dep, edges),
    ])


def _estimates(sums: np.ndarray, width: float, policy: Policy, params: MarketParams,
               empty_share: float) -> tuple:
    """SimReport's seven estimates, in its order, from sums laid out as
    _batch_sums's rows (per batch, or summed over the window) over periods
    of the given width.  A period that admitted no job has a mean sojourn
    of 0 and an on-time share of empty_share: 1 for the whole window, where
    no job was late, and 0 for a batch."""
    adm, blk, served, sojourn_sums, ontime_sums, late_areas, areas = sums
    admitted = np.maximum(adm, 1.0)
    sojourn = sojourn_sums / admitted
    ontime = np.where(adm > 0, ontime_sums / admitted, empty_share)
    number, through = areas / width, served / width
    revenue = through * (policy.p - params.m) - params.F * number
    return (blk / (adm + blk), number, through, sojourn, ontime,
            revenue - params.c * through * (1.0 - ontime) * sojourn,
            revenue - params.c * late_areas / width)


def simulate(policy: Policy, params: MarketParams, horizon: float, seed: int = 0) -> SimReport:
    """Simulate the finite-buffer queue under a fixed policy.

    Demand is Poisson(policy.lam) regardless of the demand law; the report
    estimates queueing metrics and two profit-rate estimators: the analytic
    structure with empirical factors (throughput * P(late) * mean sojourn
    for the lateness exposure, over the jobs admitted in the window) and
    the exact lateness: the time-average number of late jobs, each late
    from its arrival + l to its departure, which by Little's law is the
    rate of (W - l)+ and counts warm-up jobs still in system too.
    Each estimate is _estimates over the window, with the half-width of
    the same estimator's batch means.
    """
    if policy.lam <= 0:
        raise ValueError("simulation needs a positive demand rate")
    if not 0 < horizon < math.inf:
        raise ValueError(f"simulation horizon must be positive and finite, got {horizon}")
    t0 = WARMUP_FRACTION * horizon
    window = horizon - t0
    edges = np.linspace(t0, horizon, N_BATCHES + 1)
    sums = np.zeros((7, N_BATCHES))
    for arr, dep, blk in _drain(policy, params, horizon, seed):
        sums += _batch_sums(arr, dep, blk, edges, policy.l)
    total = sums.sum(axis=1)
    n_adm, n_blocked, n_served = (int(v) for v in total[:3])
    n_arrivals = n_adm + n_blocked
    if n_arrivals == 0:
        raise ValueError("no arrivals in the measurement window; enlarge the horizon")
    if np.any(sums[0] + sums[1] == 0):
        raise ValueError("a batch saw no arrivals; enlarge the horizon")
    batches = _estimates(sums, window / N_BATCHES, policy, params, 0.0)
    return SimReport(
        n_arrivals, n_blocked, n_served, n_adm - n_served,
        *(Estimate(float(value), _batch_ci(means)) for value, means in
          zip(_estimates(total, window, policy, params, 1.0), batches)),
        seed=seed,
        horizon=horizon,
    )


def validate(report: SimReport, params: MarketParams, policy: Policy) -> ValidationVerdict:
    """Compare a simulation report against the steady-state formulas.

    Each metric must sit within 3 standard errors (half-width / t-critical)
    of its analytic value.  A proportion whose batch means all agree, such
    as a blocking share of 0 or an on-time share of 1, has no standard
    error; its count is tested instead against the binomial law of the
    arrivals it counts (admitted jobs for the on-time share), in both
    tails, at the 3-sigma rule's false-alarm rate FALSE_ALARM.
    """
    lam, mu, K, l = policy.lam, params.mu, params.K, policy.l
    n_admitted = report.n_arrivals - report.n_blocked
    analytic = {
        "block_prob": (report.block_prob, mm1k_blocking(lam, mu, K), report.n_arrivals),
        "mean_number": (report.mean_number, mm1k_mean_number(lam, mu, K), None),
        "throughput": (report.throughput, mm1k_throughput(lam, mu, K), None),
        "mean_sojourn": (report.mean_sojourn, mm1k_mean_sojourn(lam, mu, K), None),
        "ontime_prob": (report.ontime_prob, mm1k_ontime_prob(lam, mu, K, l), n_admitted),
        "profit_factored_lateness": (report.profit_factored_lateness, mm1k_profit(policy, params), None),
    }
    checks = []
    for name, (est, truth, trials) in analytic.items():
        sigma = est.halfwidth / _TCRIT
        if sigma == 0.0 and trials is not None:
            ok = _binomial_agrees(round(est.value * trials), trials, float(truth))
        else:
            ok = bool(abs(est.value - truth) <= 3.0 * sigma + 1e-9)
        checks.append(MetricCheck(name, est.value, float(truth), sigma, ok))
    return ValidationVerdict(checks=tuple(checks), ok=all(c.ok for c in checks))


def _binomial_agrees(k: int, n: int, p: float) -> bool:
    """Whether k successes in n trials lie inside both FALSE_ALARM / 2
    tails of Binomial(n, p): P(X <= k) and P(X >= k) both exceed it."""
    below = bdtr(k, n, p)
    above = bdtrc(k - 1, n, p) if k > 0 else 1.0
    return bool(min(below, above) > FALSE_ALARM / 2.0)
