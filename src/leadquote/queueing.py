"""Steady-state metrics of the finite-buffer M/M/1/K queue, plus M/M/1 pieces.

Standard birth-death results (see e.g. Gross et al., Fundamentals of
Queueing Theory).  With rho = lambda/mu and a buffer of K jobs total:

    P_block = (1-rho) rho^K / (1 - rho^(K+1))          (1/(K+1) at rho = 1)
    L       = rho/(1-rho) - (K+1) rho^(K+1)/(1-rho^(K+1))   (K/2 at rho = 1)

An admitted arrival that finds k jobs in system waits an Erlang(k+1, mu)
sojourn (the residual service is again exponential), and by PASTA k is
distributed as the stationary queue length conditioned on k < K, which is
geometric with ratio rho over 0..K-1.  That yields the on-time probability
P(W <= l) used by the service-level constraint.

All rate/time arguments accept floats or numpy arrays and broadcast like
ufuncs; K is always a scalar int.  A negative or non-finite rate or lead
time raises ValueError rather than returning nan.  rho is treated as
exactly critical when |rho - 1| <= 1e-9, where the formulas switch to
their continuous limits.  Powers of rho are always taken of
min(rho, 1/rho) so nothing overflows for large K or rho.
"""

from __future__ import annotations

import math

import numpy as np

# Width of the rho = 1 branch switch.
RHO_ONE_TOL = 1e-9

# The on-time product starts on a rescaled value where its true first term
# is below exp(_LOG_TINY), and then renormalizes every _RENORM_EVERY terms.
_LOG_TINY = -700.0
_RENORM_EVERY = 8


def _check_rates(lam, mu: float, K: int) -> None:
    # The comparisons fail on nan, so a non-finite rate never passes.
    if not 0 < mu < math.inf:
        raise ValueError(f"service rate mu must be positive and finite, got {mu}")
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"capacity K must be an integer >= 1, got {K}")
    lam = np.asarray(lam)
    if not ((lam >= 0) & (lam < math.inf)).all():
        raise ValueError("arrival rate lambda must be finite and >= 0")


def _check_lead(l) -> None:
    l = np.asarray(l)
    if not ((l >= 0) & (l < math.inf)).all():
        raise ValueError("lead time l must be finite and >= 0")


def _ret(x: np.ndarray, scalar: bool):
    return float(x) if scalar else x


def _load(lam, mu: float, K: int):
    """Shared setup of the kernels: rho, the rho = 1 mask, the rho = 0 mask
    off that branch, and t = min(rho, 1/rho) <= 1 (0.5 where rho is 0 or 1,
    whose branches never read it)."""
    _check_rates(lam, mu, K)
    rho = np.asarray(lam, dtype=float) / mu
    near_one = np.abs(rho - 1.0) <= RHO_ONE_TOL
    idle = (rho == 0.0) & ~near_one
    t = np.where(near_one | (rho == 0.0), 0.5, rho)
    t = np.minimum(t, 1.0 / t)
    return rho, near_one, idle, t


def mm1k_blocking(lam, mu: float, K: int):
    """Probability an arrival finds the buffer full and is turned away."""
    scalar = np.isscalar(lam)
    rho, near_one, idle, t = _load(lam, mu, K)
    # For rho > 1 the blocking probability equals (1 - q)/(1 - q^(K+1))
    # with q = 1/rho = t.
    num = np.where(rho > 1.0, 1.0 - t, (1.0 - t) * t**K)
    block = np.where(near_one, 1.0 / (K + 1), num / (1.0 - t ** (K + 1)))
    return _ret(np.where(idle, 0.0, block), scalar)


def mm1k_mean_number(lam, mu: float, K: int):
    """Time-average number of jobs in system."""
    scalar = np.isscalar(lam)
    rho, near_one, idle, t = _load(lam, mu, K)
    tk1 = t ** (K + 1)
    # Second term of L: (K+1) rho^(K+1)/(1-rho^(K+1)); for rho > 1 rewrite
    # with q = 1/rho as -(K+1)/(1-q^(K+1)).
    tail = np.where(rho > 1.0, -(K + 1) / (1.0 - tk1), (K + 1) * tk1 / (1.0 - tk1))
    safe = np.where(near_one | idle, 0.5, rho)
    ls = np.where(near_one, K / 2.0, safe / (1.0 - safe) - tail)
    return _ret(np.where(idle, 0.0, ls), scalar)


def mm1k_throughput(lam, mu: float, K: int):
    """Effective (admitted) arrival rate lambda * (1 - P_block)."""
    block = mm1k_blocking(lam, mu, K)
    return np.asarray(lam, dtype=float) * (1.0 - block) if not np.isscalar(lam) else lam * (1.0 - block)


def mm1k_mean_sojourn(lam, mu: float, K: int):
    """Mean time in system of an admitted job, L / lambda_eff (Little).

    Undefined at lambda = 0; raises ValueError there.  For K = 1 this is
    identically 1/mu.
    """
    _check_rates(lam, mu, K)
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("mean sojourn undefined at lambda = 0")
    ls = mm1k_mean_number(lam, mu, K)
    leff = mm1k_throughput(lam, mu, K)
    return ls / leff


def mm1k_ontime_prob(lam, mu: float, K: int, l, log_density: bool = False):
    """P(sojourn <= l) for an admitted job in steady state.

    Sum over the k jobs found in system of the Erlang(k+1, mu) cdf at l,
    weighted by the conditional (admitted-arrival) queue-length law
    w_k = (1-rho) rho^k / (1-rho^K) for k = 0..K-1, uniform 1/K at rho = 1.
    With pi_j the Poisson(mu l) pmf, the late mass sum_k w_k P(Poisson <= k)
    is summed as a_k = rho a_(k-1) + b_k over the weighted terms
    b_k = w_k pi_k = b_(k-1) rho mu l / k, one running product with no
    cancellation.  Where the first term w_0 exp(-mu l) would underflow
    (mu l or (K-1) ln rho beyond ~700) the product runs on a per-point
    scale that is renormalized every few terms, so the result stays right
    at any K in O(points) memory.

    With log_density=True the call returns (P, log g, d log g / dl), where
    g = mu sum_k b_k is the sojourn density and
    g' = mu ((rho-1) g - rho mu b_(K-1)), both from the same product.
    """
    scalar = np.isscalar(lam) and np.isscalar(l)
    lam, lead = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(l, dtype=float))
    rho, near_one, idle, t = _load(lam, mu, K)
    _check_lead(lead)
    # log w_0; for rho > 1 it is log of (1-q) q^(K-1) / (1-q^K), q = 1/rho = t.
    log_w0 = np.log1p(-t) - np.log1p(-(t**K))
    log_w0 = np.where(rho > 1.0, log_w0 + (K - 1) * np.log(t), log_w0)
    log_w0 = np.where(near_one, -math.log(K), np.where(idle, 0.0, log_w0))
    ratio = np.where(near_one, 1.0, rho)

    x = mu * lead
    log_b0 = log_w0 - x
    shift = np.where(log_b0 < _LOG_TINY, -log_b0, 0.0)
    rescale = bool(shift.any())
    b = np.exp(log_b0 + shift)     # w_k pi_k, times exp(shift) * 2**-exp2
    a = b.copy()                   # w_k P(Poisson(mu l) <= k), same scale
    late = b.copy()
    dens = b.copy()
    exp2 = np.zeros(b.shape)
    y = ratio * x
    for k in range(1, K):
        b *= y
        b /= k
        a *= ratio
        a += b
        late += a
        if log_density:
            dens += b
        if rescale and k % _RENORM_EVERY == 0:
            late, e = np.frexp(late)
            a, b, dens = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(dens, -e)
            exp2 += e
    log_scale = exp2 * math.log(2.0) - shift
    if rescale:
        late = late * np.exp(log_scale)
    ontime = _ret(np.clip(1.0 - late, 0.0, 1.0), scalar)
    if not log_density:
        return ontime
    log_g = math.log(mu) + np.log(dens) + log_scale
    slope = mu * ((ratio - 1.0) - ratio * b / dens)
    return ontime, _ret(log_g, scalar), _ret(slope, scalar)


def mm1_ontime_prob(lam, mu: float, l):
    """P(sojourn <= l) = 1 - exp(-(mu-lambda) l) for the stable M/M/1 queue."""
    _check_rates(lam, mu, 1)
    _check_lead(l)
    if np.any(np.asarray(lam) >= mu):
        raise ValueError("unstable queue: lambda must be < mu for the M/M/1 law")
    scalar = np.isscalar(lam) and np.isscalar(l)
    out = 1.0 - np.exp(-(mu - np.asarray(lam, dtype=float)) * np.asarray(l, dtype=float))
    return _ret(out, scalar)


def erlang_quantile_bracket(mu: float, K: int, s: float) -> float:
    """Crude upper bound for the lead time meeting service level s at any load.

    The worst conditional sojourn is Erlang(K, mu), and every admitted
    sojourn is stochastically below it.  Its mean K/mu plus
    (8 + 2 ln(1/(1-s))) standard deviations dominates its s-quantile for
    any s < 1 (Chernoff bound on the gamma tail).  Used as the feasible end
    of the quote search's starting bracket.
    """
    if s <= 0.0:
        return 0.0
    spread = math.sqrt(K) / mu
    return K / mu + (8.0 + 2.0 * math.log(1.0 / (1.0 - s))) * spread
