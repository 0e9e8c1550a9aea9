"""Steady-state metrics of the finite-buffer M/M/1/K queue, plus M/M/1 pieces.

Standard birth-death results (see e.g. Gross et al., Fundamentals of
Queueing Theory).  With rho = lambda/mu and a buffer of K jobs total:

    P_block = (1-rho) rho^K / (1 - rho^(K+1))          (1/(K+1) at rho = 1)
    L       = rho/(1-rho) - (K+1) rho^(K+1)/(1-rho^(K+1))   (K/2 at rho = 1)

An admitted arrival that finds k jobs in system waits an Erlang(k+1, mu)
sojourn (the residual service is again exponential), and by PASTA k is
distributed as the stationary queue length conditioned on k < K, which is
geometric with ratio rho over 0..K-1.  That yields the on-time probability
P(W <= l) used by the service-level constraint.  Summing the geometric
weights first puts its late mass in closed form, two gammaincc terms per
point, so a call costs the same at any K.  Where those terms overflow
(rho > 1, mu l large) the first is taken in log space; where they cancel
(near rho = 1) the late mass is summed term by term as an array, whose
cost grows with K but which those few rows alone take.  Both switches
follow from the error bound stated in _late_mass.  The factors that
depend on rho alone (_rate_terms) are a dozen of a call's numpy
operations; a caller that evaluates many lead times at one vector of
rates, as the quote search does, takes them once from mm1k_rate_terms and
passes them back with rates=, for the same answer bit for bit.

All rate/time arguments accept floats or numpy arrays and broadcast like
ufuncs; K is always a scalar int.  A negative or non-finite rate or lead
time raises ValueError rather than returning nan.  The blocking
probability takes its two differences by expm1 of -|ln rho|, so they do
not cancel near rho = 1 and nothing overflows for large K or rho; it
switches to its limit only at rho = 1 exactly, and the mean number in
system needs no switch (see mm1k_mean_number).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc, gammaln, xlogy

# B_2k / (2k)!, k = 1..8: sigma(v) = 1/2 + sum_k B_2k v^(2k-1) / (2k)!.
_SIGMA_SERIES = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                 -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)

_EPS = np.finfo(float).eps

# The late mass's closed form (see _late_mass): rows whose subtraction has
# condition number above _KAPPA_MAX are summed term by term instead, and
# Q(K, rho x) below _TINY or an exponent above _EXP_MAX sends a row's first
# term to log space.  The term-by-term sum runs on at most _SUM_CELLS
# (row, term) cells at a time.
_KAPPA_MAX = 32.0
_TINY = 1e-300
_EXP_MAX = 700.0
_SUM_CELLS = 1 << 16


def _check_rates(lam, mu: float, K: int) -> None:
    # The comparisons fail on nan, so a non-finite rate never passes.
    if not 0 < mu < math.inf:
        raise ValueError(f"service rate mu must be positive and finite, got {mu}")
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"capacity K must be an integer >= 1, got {K}")
    if not _finite_nonnegative(lam):
        raise ValueError("arrival rate lambda must be finite and >= 0")


def _check_lead(l) -> None:
    if not _finite_nonnegative(l):
        raise ValueError("lead time l must be finite and >= 0")


def _finite_nonnegative(v) -> bool:
    # nan fails both comparisons.  count_nonzero costs a fraction of all().
    v = np.asarray(v)
    return np.count_nonzero((v >= 0) & (v < math.inf)) == v.size


def _is_scalar(x) -> bool:
    # np.isscalar is never true of an array, and costs more than this test.
    return not isinstance(x, np.ndarray) and np.isscalar(x)


def _ret(x: np.ndarray, scalar: bool):
    return float(x) if scalar else x


def mm1k_blocking(lam, mu: float, K: int):
    """Probability an arrival finds the buffer full and is turned away.

    With t = -|ln rho| <= 0, P_block = min(rho, 1)^K (e^t - 1)/(e^((K+1)t) - 1):
    (1-rho) rho^K / (1-rho^(K+1)) below rho = 1, the same in 1/rho without
    the power above it.  expm1 takes both differences without cancelling
    near rho = 1, so the one switch is 1/(K+1) where t == 0, and no power
    exceeds 1.
    """
    scalar = _is_scalar(lam)
    _check_rates(lam, mu, K)
    rho = np.asarray(lam, dtype=float) / mu
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.abs(np.log(rho))
        block = np.minimum(rho, 1.0) ** K * (np.expm1(t) / np.expm1((K + 1) * t))
    return _ret(np.where(t == 0.0, 1.0 / (K + 1), block), scalar)


def mm1k_mean_number(lam, mu: float, K: int):
    """Time-average number of jobs in system.

    With u = ln rho, L = rho/(1-rho) - (K+1) rho^(K+1)/(1-rho^(K+1)) is
    (K+1)/(1-e^-(K+1)u) - 1/(1-e^-u).  Both terms grow like 1/|u| near
    rho = 1, so for |u| < 1/2 each is taken less its 1/u pole, via
    _sigma, and the poles cancel exactly: L = (K+1) sigma((K+1)u) - sigma(u).
    This holds for every rho > 0, with no branch at rho = 1.  A call whose
    rates all lie outside that band skips the series.
    """
    scalar = _is_scalar(lam)
    _check_rates(lam, mu, K)
    n = K + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.log(np.asarray(lam, dtype=float) / mu)
        ls = 1.0 / np.expm1(-u) - n / np.expm1(-n * u)
        near = np.abs(u) < 0.5
        if np.count_nonzero(near):
            sigma = _sigma(np.multiply.outer((n, 1.0), u))
            ls = np.where(near, n * sigma[0] - sigma[1], ls)
    return _ret(ls, scalar)


def _sigma(v):
    """1/(1-e^-v) - 1/v, from its Bernoulli series where |v| < 1/2 (the
    truncation error is below 1e-19 there)."""
    w = v * v
    series = _SIGMA_SERIES[-1]
    for coef in _SIGMA_SERIES[-2::-1]:
        series = series * w + coef
    return np.where(np.abs(v) < 0.5, 0.5 + v * series, -1.0 / np.expm1(-v) - 1.0 / v)


def mm1k_throughput(lam, mu: float, K: int):
    """Effective (admitted) arrival rate lambda * (1 - P_block)."""
    return _ret(np.asarray(lam, dtype=float) * (1.0 - mm1k_blocking(lam, mu, K)), _is_scalar(lam))


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


def mm1k_ontime_prob(lam, mu: float, K: int, l, log_density: bool = False, *, rates=None):
    """P(sojourn <= l) for an admitted job in steady state.

    The sojourn is Erlang(k+1, mu) with probability
    w_k = (1-rho) rho^k / (1-rho^K) over k = 0..K-1 (uniform 1/K at
    rho = 1), so with x = mu l the late mass is
    sum_k w_k Q(k+1, x), Q the regularized upper gamma function.  Summing
    the geometric weights first gives it in closed form, one gammaincc pair
    per point.  Rows where its terms would overflow are taken in log space,
    and rows where they cancel (near rho = 1) are summed term by term, so
    the late mass is right to 32 * 4 eps S relative (see _late_mass).  A
    call costs a few dozen numpy operations at any K, plus O(K) array work
    on the cancelling rows alone.

    With log_density=True the call returns (P, log g, d log g / dl), where
    g = mu (1-rho)/(1-rho^K) e^-(1-rho)x Q(K, rho x) is the sojourn density
    and d log g / dl = mu ((rho-1) - rho pi_(K-1)(rho x) / Q(K, rho x)),
    pi_j(y) the Poisson(y) pmf at j; neither needs a subtraction.

    rates, if given, is mm1k_rate_terms at these arrival rates (lam and l
    of one shape), so a caller that evaluates many lead times per rate
    takes the per-rate terms once; the answer is the same bit for bit.
    """
    scalar = _is_scalar(lam) and _is_scalar(l)
    lam, lead = np.asarray(lam, dtype=float), np.asarray(l, dtype=float)
    if lam.shape != lead.shape:
        lam, lead = np.broadcast_arrays(lam, lead)
    _check_rates(lam, mu, K)
    _check_lead(lead)
    shape = lam.shape
    if rates is None:
        rates = _rate_terms(lam.ravel() / mu, K)
    elif rates.shape[1:] != (lam.size,):
        raise ValueError(f"rates hold {rates.shape[1:]} arrival rates, expected {lam.size}")
    late, log_h, slope = _late_mass(rates, mu * lead.ravel(), K, log_density)
    # np.clip's wrapper costs more than the two ufuncs it comes to.
    ontime = _ret(np.minimum(np.maximum(1.0 - late, 0.0), 1.0).reshape(shape), scalar)
    if not log_density:
        return ontime
    log_g = (math.log(mu) + log_h).reshape(shape)
    return ontime, _ret(log_g, scalar), _ret((mu * slope).reshape(shape), scalar)


def mm1k_rate_terms(lam, mu: float, K: int):
    """The factors of mm1k_ontime_prob that depend on the arrival rate
    alone, one column per rate of lam raveled (see _rate_terms).  Pass them
    back as rates=, or rates[:, rows] with lam[rows]."""
    lam = np.asarray(lam, dtype=float)
    _check_rates(lam, mu, K)
    return _rate_terms(lam.ravel() / mu, K)


def _rate_terms(rho, K: int):
    """The rows of _late_mass's factors that depend on rho alone, stacked:
    rho, rho - 1, m, e^(s-m), 1 - e^-|s| and ln h.  At K = 1 the late mass
    is e^-x at every rate, and rho is the only row."""
    if K == 1:
        return rho[None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = K * np.log(rho)
        m = np.maximum(s, 0.0)
        den = -np.expm1(-np.abs(s))
        rho_less_one = rho - 1.0
        h = np.where(s == 0.0, 1.0 / K, np.abs(rho_less_one) / den)
        return np.array([rho, rho_less_one, m, np.exp(s - m), den, np.log(h)])


def _late_mass(rates, x, K: int, log_density: bool = False):
    """Late mass sum_k w_k Q(k+1, x) at a 1-d array x = mu l, with rates
    the _rate_terms at each row's rho.

    With s = K ln rho, m = max(s, 0) and the two terms
    T1 = e^((rho-1)x - m) Q(K, rho x) and T2 = e^(s-m) Q(K, x), both <= 1,
    the late mass is |T1 - T2| / (1 - e^-|s|) for every rho, and the
    density over mu is h T1 with h = |1-rho| / (1 - e^-|s|) (1/K at
    rho = 1).

    Accuracy.  Each term goes through exponents of size at most
    S = 1 + x + y + |s| + K (ln(1+x) + ln(1+y)) + ln Gamma(K), y = rho x:
    gammaincc's prefactor e^-y y^(K-1) / Gamma(K), and the exps of
    (rho-1)x - m and s - m.  An exponent of size S is known to about
    eps S, so each term is right to 4 eps S relative.  The subtraction
    multiplies that by kappa = (T1 + T2) / |T1 - T2|, which grows like
    2 / (K |rho-1|) near rho = 1 and tends to (1+rho) / |1-rho| as x
    grows.  Rows with kappa > _KAPPA_MAX take _late_sum instead, whose
    positive terms need no subtraction and are right to 4 eps S as well.
    So the late mass is right to _KAPPA_MAX * 4 eps S relative on every
    row where it is a normal number.

    Log space.  For rho > 1 and x large, e^((rho-1)x - m) overflows while
    Q(K, rho x) underflows.  On those rows, and wherever Q(K, rho x) is
    below _TINY, T1 is exp((rho-1)x - m + ln Q(K, rho x)) with
    ln Q = ln pi_(K-1)(rho x) + ln _tail_ratio, so log g stays finite too.

    Returns (late, log(g/mu), d log g / dx); the last two are None unless
    log_density.
    """
    if K == 1:
        # An admitted job always finds the server idle: Exp(1) in x units.
        late = np.exp(-x)
        return (late, -x, np.full_like(x, -1.0)) if log_density else (late, None, None)
    rho, rho_less_one, m, exp_s, den, log_h = rates
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = rho * x
        e = rho_less_one * x - m
        q_y = gammaincc(K, y)
        t1 = np.exp(e) * q_y
        t2 = exp_s * gammaincc(K, x)
        deep = (~(q_y >= _TINY) | (e > _EXP_MAX)).nonzero()[0]
        if deep.size or log_density:
            log_pi = xlogy(K - 1, y) - y - math.lgamma(K)
            log_q = np.log(q_y)
        if deep.size:
            log_q[deep] = log_pi[deep] + np.log(_tail_ratio(K, y[deep]))
            t1[deep] = np.exp(e[deep] + log_q[deep])
        diff = np.abs(t1 - t2)
        late = diff / den
        cancels = (~(t1 + t2 <= _KAPPA_MAX * diff)).nonzero()[0]
        if cancels.size:
            late[cancels] = _late_sum(rho[cancels], x[cancels], K)
        if not log_density:
            return late, None, None
        slope = rho_less_one - rho * np.exp(log_pi - log_q)
        return late, log_h + e + log_q, slope


def _tail_ratio(K: int, y):
    """Q(K, y) / pi_(K-1)(y) = sum_(i<K) prod_(j<=i) (K-j)/y for y > K-1.
    The terms fall at least as fast as powers of q = (K-1)/y, so the sum
    stops at the first n with q^n < eps (1-q) / 2, which leaves out less
    than eps/2."""
    q = (K - 1) / y.min()
    n = K if q >= 1.0 else min(K, math.ceil(math.log(_EPS * (1.0 - q) / 2.0) / math.log(q)))
    terms = np.cumprod((K - np.arange(1, n)) / y[:, None], axis=1)
    return 1.0 + terms.sum(axis=1)


def _late_sum(rho, x, K: int):
    """Late mass summed over the queue length j found on arrival,
    sum_(j<K) pi_j(x) rho^j (1 - rho^(K-j)) / (1 - rho^K), (K-j)/K at
    rho = 1.  Every term is positive, so nothing cancels at any rho.  Each
    term is taken from its own logarithm, j ln(rho x) - x - ln j!, so its
    error does not build up over j; the work is O(K) array cells per row,
    with no Python loop over j.  Called under _late_mass's errstate."""
    late = np.empty_like(x)
    step = max(1, _SUM_CELLS // K)
    j = np.arange(K)
    log_fact = gammaln(j + 1.0)
    for lo in range(0, x.size, step):
        r, xs = rho[lo:lo + step, None], x[lo:lo + step, None]
        log_b = xlogy(j, r * xs) - xs - log_fact
        u = np.log(r)
        weight = np.where(u == 0.0, (K - j) / K, np.expm1((K - j) * u) / np.expm1(K * u))
        top = log_b.max(axis=1)
        late[lo:lo + step] = np.exp(top) * np.sum(np.exp(log_b - top[:, None]) * weight, axis=1)
    return late


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
