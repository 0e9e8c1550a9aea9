"""Numeric solvers: the finite-buffer profit problem, accept-all
baselines, and a brute-force oracle for certifying the closed forms.

All searches share one two-phase engine, _search: a dense coarse grid
followed by shrinking local refinements around the incumbent, over lambda
and u in [0, 1], which places the quote in a per-lambda band [lo, hi] and
so keeps the search box rectangular.  The solvers run it with fixed grid
constants; the oracle sets its steps from its resolution.

The solvers pin the quote as a function of lambda, so the band has zero
width and they search lambda alone.  For the accept-all M/M/1 benchmark
the profit is concave in l at fixed lambda and the best quote is
ln(x)/(mu - lambda), x = max{1/(1-s), b1 c/b2}: the single-slot rule
closed_form.quote_level with mu - lambda for mu.  For the finite-buffer
system the slope in l is c L_s g(l) - lambda_eff b2/b1, with g the
log-concave sojourn density, so it is positive on one interval at most
and the best quote is lo or that interval's right end (clipped to hi),
found by Newton steps on log g.  lo, the service-level minimum, is a
bracketed Newton search on the on-time probability.  Only the
brute-force oracle searches the full band (_oracle_band), up to the
zero-price bound (or a penalty-elimination cap when demand ignores lead
time).

Tie-breaking is deterministic: smallest lambda, then smallest quote, and
the incumbent is only replaced on strict improvement, so results do not
depend on evaluation order and the incumbent profit is monotone across
refinement rounds.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import (
    PENALTY_BINDING,
    PENALTY_ELIMINATION,
    SERVICE_BINDING,
    Solution,
    _infeasible,
    quote_level,
)
from .market import MarketParams, Policy, inverse_price
from .queueing import (
    erlang_quantile_bracket,
    mm1_ontime_prob,
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_ontime_prob,
)

# Mask tolerances used inside objectives: price may undershoot zero and the
# on-time probability may undershoot s by this much before a grid point is
# declared infeasible (the quote search stops within QUOTE_TOL of the
# service bound).
PRICE_SLACK = 1e-12
SERVICE_SLACK = 1e-9

# M/M/1 baselines never evaluate closer to instability than this.
STABILITY_MARGIN = 1e-6

# The solvers' lambda search: a coarse grid of _COARSE_POINTS intervals,
# then _REFINE_ROUNDS local rounds, each shrinking the window by
# _REFINE_SHRINK.
_COARSE_POINTS = 400
_REFINE_ROUNDS = 12
_REFINE_SHRINK = 0.25

# Quote accuracy of the Newton searches, and a cap on their iterations;
# they stop on a bracket width or a step size long before the cap.
QUOTE_TOL = 1e-10
_MAX_NEWTON_STEPS = 100

ORACLE_MODELS = ("mm11", "mm1", "mm1k")


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = int(math.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, max(n, 2))


def _search(objective, lam_hi, band, rounds=_REFINE_ROUNDS, step_lam=None, step_l=None):
    """Maximize objective(lam, l) over lam in [0, lam_hi] and l in band(lam).

    band(lam) returns the quote band (lo, hi) for a vector of arrival rates
    and is called once per vector.  objective takes broadcastable arrays
    (lam as a column, l as a matrix) and returns profits with -inf marking
    infeasible points.  The coarse steps default to span/_COARSE_POINTS
    (the quote step only matters on a band of nonzero width, which only
    the brute-force oracle searches).  Every refinement round runs: in one
    dimension a round often finds no better rate only because the optimum
    lies within its spacing of the incumbent, so stopping on a small
    improvement would stop short.
    """
    step_lam = step_lam or (lam_hi / _COARSE_POINTS if lam_hi > 0 else 1.0)
    lam = _axis(0.0, lam_hi, step_lam)
    lo, hi = band(lam)
    spans = np.maximum(hi - lo, 0.0)
    max_span = float(spans.max()) if spans.size else 0.0
    step_l = step_l or (max_span / _COARSE_POINTS if max_span > 0 else 1.0)
    n_u = int(math.ceil(max_span / step_l)) + 1 if max_span > 0 else 1
    u = np.linspace(0.0, 1.0, max(n_u, 1))

    evals = 0
    best = {"profit": -np.inf, "lam": 0.0, "l": float(lo[0]), "u": 0.0}

    def consider(lam_vec, row_lo, row_hi, u_vec):
        nonlocal evals
        row_span = np.maximum(row_hi - row_lo, 0.0)
        L = row_lo[:, None] + row_span[:, None] * u_vec[None, :]
        P = objective(lam_vec[:, None], L)
        evals += P.size
        flat = int(np.argmax(P))
        i, j = divmod(flat, P.shape[1])
        value = float(P[i, j])
        if np.isfinite(value) and value > best["profit"]:
            best.update(
                profit=value,
                lam=float(lam_vec[i]),
                l=float(L[i, j]),
                u=float(u_vec[j]),
            )

    consider(lam, lo, hi, u)
    round_profits = [best["profit"]]

    w_lam = step_lam
    w_u = 1.0 / (len(u) - 1) if len(u) > 1 else 0.0
    pts = int(round(2.0 / _REFINE_SHRINK)) + 1
    rounds_used = 0
    for _ in range(rounds):
        if not np.isfinite(best["profit"]):
            break
        lam_w = np.unique(np.clip(best["lam"] + w_lam * np.linspace(-1.0, 1.0, pts), 0.0, lam_hi))
        if w_u > 0:
            u_w = np.unique(np.clip(best["u"] + w_u * np.linspace(-1.0, 1.0, pts), 0.0, 1.0))
        else:
            u_w = np.array([best["u"]])
        consider(lam_w, *band(lam_w), u_w)
        rounds_used += 1
        round_profits.append(best["profit"])
        w_lam *= _REFINE_SHRINK
        w_u *= _REFINE_SHRINK

    return {
        "lam": best["lam"],
        "l": best["l"],
        "profit": best["profit"],
        "found": np.isfinite(best["profit"]),
        "evaluations": evals,
        "refine_rounds": rounds_used,
        "round_profits": round_profits,
    }


def min_leadtime_for_service(lam, params: MarketParams, tol: float = QUOTE_TOL):
    """Smallest quote meeting the service level at arrival rate lam.

    Safeguarded Newton iteration on P(W <= l) = s, vectorized over lam.
    Each row keeps a bracket [lo, hi] with P(lo) < s <= P(hi), starting
    from [0, erlang_quantile_bracket].  Steps are taken on log P(W > l),
    which is concave because the sojourn density is log-concave: the first
    step from l = 0 lands on the feasible side, and later ones approach the
    root from there.  A step that leaves the bracket becomes a bisection;
    a step shorter than tol/2 is pushed tol/2 past the root estimate so the
    next evaluation closes the bracket.  Stops when the bracket is at most
    tol wide and returns its feasible end.  Returns 0 when s = 0.
    """
    mu, K, s = params.mu, params.K, params.s
    scalar = np.isscalar(lam)
    arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if s <= 0.0:
        out = np.zeros_like(arr)
        return float(out[0]) if scalar else out
    log_late = math.log1p(-s)
    lo = np.zeros_like(arr)
    hi = np.full_like(arr, erlang_quantile_bracket(mu, K, s))
    # First Newton step from l = 0, where P = 0 and the density is mu * w_0
    # with w_0 = P(idle)/(1 - P_block), the chance an admitted job finds the
    # server idle: exact at K = 1, the M/M/1 quote z/(mu - lam) for rho < 1
    # and large K.  Cancellation in P(idle) at rho > 1 only sends it to hi.
    block = mm1k_blocking(arr, mu, K)
    idle = 1.0 - arr * (1.0 - block) / mu
    with np.errstate(divide="ignore"):
        x = np.minimum(-log_late * (1.0 - block) / (mu * idle), hi)
    x = np.where(idle > 0.0, x, hi)
    live = np.arange(arr.size)
    for _ in range(_MAX_NEWTON_STEPS):
        if not live.size:
            break
        xs, los, his = x[live], lo[live], hi[live]
        ontime, log_g, _ = mm1k_ontime_prob(arr[live], mu, K, xs, log_density=True)
        ok = ontime >= s
        his = np.where(ok, xs, his)
        los = np.where(ok, los, xs)
        late = 1.0 - ontime
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.log(late) - log_late) * np.exp(np.log(late) - log_g)
        step = np.where(np.abs(step) < 0.5 * tol, step + np.where(ok, -0.5, 0.5) * tol, step)
        nxt = xs + step
        nxt = np.where((nxt > los) & (nxt < his), nxt, 0.5 * (los + his))
        lo[live], hi[live], x[live] = los, his, nxt
        live = live[his - los > tol]
    return float(hi[0]) if scalar else hi


def _mm1k_objective(params: MarketParams):
    a, b1, b2, m = params.a, params.b1, params.b2, params.m
    mu, K, s, F, c = params.mu, params.K, params.s, params.F, params.c

    def objective(lam, L):
        p = (a - b2 * L - lam) / b1
        block = mm1k_blocking(lam, mu, K)
        ls = mm1k_mean_number(lam, mu, K)
        leff = lam * (1.0 - block)
        ontime = mm1k_ontime_prob(lam, mu, K, L)
        # Lateness term c * leff * P(late) * W collapses to c * ls * P(late)
        # by Little's law, which stays defined at lambda = 0.
        profit = leff * (p - m) - F * ls - c * ls * (1.0 - ontime)
        ok = (p >= -PRICE_SLACK) & (ontime >= s - SERVICE_SLACK)
        return np.where(ok, profit, -np.inf)

    return objective


def mm1k_profit(policy: Policy, params: MarketParams) -> float:
    """Expected profit rate of the finite-buffer system at a given policy.

    Pure evaluator: the service-level constraint is not checked here.
    """
    if policy.lam < 0:
        raise ValueError("policy demand rate must be >= 0")
    if policy.l < 0:
        raise ValueError("policy lead time must be >= 0")
    lam, mu, K = policy.lam, params.mu, params.K
    if lam == 0.0:
        return 0.0
    block = mm1k_blocking(lam, mu, K)
    ls = mm1k_mean_number(lam, mu, K)
    leff = lam * (1.0 - block)
    ontime = mm1k_ontime_prob(lam, mu, K, policy.l)
    return leff * (policy.p - params.m) - params.F * ls - params.c * ls * (1.0 - ontime)


def _leadtime_cap(lo, rate):
    # Quote beyond which the residual lateness factor exp(-rate*l) is dust.
    return lo + math.log(1.0 / PENALTY_ELIMINATION) / rate


def _mm1_objective(params: MarketParams):
    a, b1, b2, m, mu, F, c = params.a, params.b1, params.b2, params.m, params.mu, params.F, params.c

    def objective(lam, L):
        p = (a - b2 * L - lam) / b1
        slack = mu - lam
        profit = lam * (p - m) - F * lam / slack - c * lam * np.exp(-slack * L) / slack
        return np.where(p >= -PRICE_SLACK, profit, -np.inf)

    return objective


def _numeric_solution(params: MarketParams, result: dict, extra: dict) -> Solution:
    diagnostics = {"z": params.z, **extra,
                   "evaluations": result["evaluations"],
                   "refine_rounds": result["refine_rounds"],
                   "round_profits": [float(v) for v in result["round_profits"] if np.isfinite(v)]}
    if not result["found"] or result["profit"] < 0.0:
        return _infeasible(params, diagnostics)
    lam, l = result["lam"], result["l"]
    p = inverse_price(lam, l, params)
    if extra.get("model") == "mm1":
        attained = mm1_ontime_prob(lam, params.mu, l)
        branch = quote_level(params)[1]
    else:
        attained = mm1k_ontime_prob(lam, params.mu, params.K, l)
        branch = SERVICE_BINDING if attained <= params.s + 1e-6 else PENALTY_BINDING
    return Solution(
        policy=Policy(p=p, l=l, lam=lam),
        profit=result["profit"],
        feasible=True,
        service_level_attained=float(attained),
        branch=branch,
        diagnostics=diagnostics,
    )


def pinned_quote(lam, params: MarketParams):
    """Profit-maximizing quote of the finite-buffer system at each arrival rate.

    With lo the service-level minimum and hi = (a - lam)/b2 the zero-price
    bound, profit at fixed lam has slope c L_s g(l) - lambda_eff b2/b1 in
    l.  The sojourn density g is log-concave, so the slope is positive on
    one interval at most, and the best quote is lo or that interval's right
    end r clipped to hi, whichever earns more.  r is the largest root of
    phi(l) = log g(l) - log(lambda_eff b2 / (b1 c L_s)), found by Newton
    steps that approach it from the right: g falls on [m, oo) with
    m = max(lo, (K - 1)/mu) for rho > 1 and m = lo otherwise, and from m a
    step lands right of r by concavity, after which the iterates fall
    monotonically to r.  Reaching the rising side of g or passing below lo
    means there is no r above lo.  b2 = 0 pins the penalty-elimination cap
    (profit never falls in l); c = 0 or lam = 0 pins lo.  Vectorized over
    lam.
    """
    a, b2, mu, c = params.a, params.b2, params.mu, params.c
    scalar = np.isscalar(lam)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    lo = np.atleast_1d(min_leadtime_for_service(lam, params))
    if b2 == 0:
        quote = _leadtime_cap(lo, mu)
    else:
        quote = lo.copy()
        rows = np.flatnonzero((lam > 0) & (c > 0) & ((a - lam) / b2 > lo))
        if rows.size:
            quote[rows] = _penalty_quote(lam[rows], lo[rows], params)
    return float(quote[0]) if scalar else quote


def _penalty_quote(lam, lo, params: MarketParams):
    """The better of lo and the clipped right end r (see pinned_quote), for
    rows with lam > 0 and lo below the zero-price bound."""
    a, b1, b2, mu, K, c = params.a, params.b1, params.b2, params.mu, params.K, params.c
    hi = (a - lam) / b2
    leff = lam * (1.0 - mm1k_blocking(lam, mu, K))
    log_level = np.log(leff * b2 / (b1 * c * mm1k_mean_number(lam, mu, K)))
    x = np.where(lam > mu, np.maximum(lo, (K - 1) / mu), lo)
    x = np.minimum(x, hi)
    root = np.full_like(lam, np.nan)
    live = np.arange(lam.size)
    for _ in range(_MAX_NEWTON_STEPS):
        if not live.size:
            break
        xs = x[live]
        _, log_g, slope = mm1k_ontime_prob(lam[live], mu, K, xs, log_density=True)
        phi = log_g - log_level[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(slope < 0.0, xs - phi / slope, np.inf)
        # Left of r (only from the start point) the step overshoots past r;
        # at hi with phi still positive, r lies beyond the zero-price bound.
        # Right of r, a rising g or a step below lo means no r above lo.
        up = phi > 0.0
        at_cap = up & (xs >= hi[live])
        nxt = np.where(up, np.minimum(nxt, hi[live]), nxt)
        done = at_cap | (np.abs(nxt - xs) <= QUOTE_TOL)
        lost = ~up & ((slope >= 0.0) | (nxt <= lo[live]))
        root[live[done]] = np.where(at_cap, xs, nxt)[done]
        x[live] = nxt
        live = live[~(done | lost)]
    found = np.flatnonzero(np.isfinite(root))
    quote = lo.copy()
    if found.size:
        # A root that converged onto lo may sit up to QUOTE_TOL below it.
        r, objective = np.maximum(root[found], lo[found]), _mm1k_objective(params)
        better = objective(lam[found], r) > objective(lam[found], lo[found])
        quote[found] = np.where(better, r, lo[found])
    return quote


def solve_mm1k_numeric(params: MarketParams) -> Solution:
    """Optimal policy of the finite-buffer system by a search over lambda.

    The quote at each lambda is pinned by pinned_quote, so the grid search
    runs on a zero-width band.  Declared infeasible when no grid point
    attains nonnegative price, the service level, and nonnegative profit.
    """

    def band(lam):
        quote = pinned_quote(lam, params)
        return quote, quote

    result = _search(_mm1k_objective(params), params.a, band)
    return _numeric_solution(params, result, {"model": "mm1k", "K": params.K})


def mm1_profit(policy: Policy, params: MarketParams, costs_on: bool) -> float:
    """Expected profit rate of the accept-all M/M/1 benchmark at a policy.

    Revenue lambda*(p-m); with costs also holding F*lambda/(mu-lambda) and
    lateness c*lambda*exp(-(mu-lambda)l)/(mu-lambda).  Needs lambda < mu.
    """
    lam, mu = policy.lam, params.mu
    if lam < 0:
        raise ValueError("policy demand rate must be >= 0")
    if lam >= mu:
        raise ValueError("accept-all benchmark needs a stable queue (lambda < mu)")
    profit = lam * (policy.p - params.m)
    if costs_on:
        slack = mu - lam
        profit -= params.F * lam / slack
        profit -= params.c * lam * math.exp(-slack * policy.l) / slack
    return profit


def solve_mm1_baseline(params: MarketParams, costs_on: bool) -> Solution:
    """Optimal policy of the accept-all M/M/1 benchmark by a search over lambda.

    The quote at each lambda is pinned at ln(x)/(mu - lambda) (see
    closed_form.quote_level), so the grid search runs on a zero-width band,
    a stability margin away from lambda = mu.  Costs off means F = c = 0.
    """
    if not costs_on:
        params = params.with_updates(F=0.0, c=0.0)
    mu = params.mu
    lam_hi = min(params.a, mu - STABILITY_MARGIN)
    extra = {"model": "mm1", "costs_on": costs_on}
    if lam_hi <= 0:
        return _numeric_solution(params, {"found": False, "profit": -np.inf,
                                          "lam": 0.0, "l": params.z / mu,
                                          "evaluations": 0, "refine_rounds": 0,
                                          "round_profits": []}, extra)
    log_x = quote_level(params)[0]

    def band(lam):
        quote = log_x / (mu - lam)
        return quote, quote

    result = _search(_mm1_objective(params), lam_hi, band)
    return _numeric_solution(params, result, extra)


def _oracle_band(params: MarketParams, model: str):
    """The oracle's search box for one model: the top of its lambda range
    and its full quote band.  lo is the service-level minimum and hi the
    zero-price bound, or the penalty-elimination cap when b2 = 0 (profit
    never falls in l there).

    Positive profit needs p > m, and an admitted sojourn is stochastically
    at least Exp(mu), so every model quotes l >= z/mu; hence lambda stays
    below a - b1 m - b2 z/mu.  Capping the range there, from market fields
    alone, lets the coarse grid see thin regions of positive profit."""
    a, b2, mu, z = params.a, params.b2, params.mu, params.z
    lam_hi = max(a - params.b1 * params.m - b2 * z / mu, 0.0)
    if model == "mm1":
        lam_hi = min(lam_hi, mu - STABILITY_MARGIN)

    def band(lam):
        lam = np.asarray(lam, dtype=float)
        if model == "mm1k":
            lo, rate = np.atleast_1d(min_leadtime_for_service(lam, params)), mu
        elif model == "mm11":
            lo, rate = np.full_like(lam, z / mu), mu
        else:
            lo, rate = z / (mu - lam), mu - lam
        if b2 > 0:
            return lo, np.maximum((a - lam) / b2, lo)
        return lo, _leadtime_cap(lo, rate)

    return lam_hi, band


def brute_force_oracle(params: MarketParams, model: str, resolution: int = 160) -> Solution:
    """Dense two-phase grid search used to certify the closed-form solvers.

    The single-slot objective is written out inline here, independently of
    the closed-form module, so agreement is evidence rather than tautology.
    model picks the system: "mm11" single-slot, "mm1" accept-all benchmark
    or "mm1k" general finite buffer, each with the holding and lateness
    costs of params (pass F = c = 0 for the cost-free problem).  The
    search covers the full quote band of _oracle_band, with coarse
    steps of span/(resolution - 1) and a fixed 10-round refinement, so the
    oracle's accuracy is a function of resolution alone.
    """
    if model not in ORACLE_MODELS:
        raise ValueError(f"unknown oracle model {model!r}; pick one of {ORACLE_MODELS}")
    if resolution < 100:
        raise ValueError("oracle resolution must be at least 100")
    if model == "mm11" and params.K != 1:
        raise ValueError("single-slot oracle needs K = 1")
    a, b1, b2, m, mu, F, c = params.a, params.b1, params.b2, params.m, params.mu, params.F, params.c

    if model == "mm1k":
        objective = _mm1k_objective(params)
    elif model == "mm11":
        def objective(lam, L):
            p = (a - b2 * L - lam) / b1
            profit = lam * (mu * (p - m) - F - c * np.exp(-mu * L)) / (mu + lam)
            return np.where(p >= -PRICE_SLACK, profit, -np.inf)
    else:
        objective = _mm1_objective(params)
    lam_hi, band = _oracle_band(params, model)

    # Coarse l step: span of the widest band divided by the resolution.
    probe_lo, probe_hi = band(np.linspace(0.0, lam_hi, 32))
    widest = float(np.max(np.maximum(probe_hi - probe_lo, 0.0)))
    result = _search(objective, lam_hi, band, rounds=10,
                     step_lam=lam_hi / (resolution - 1) if lam_hi > 0 else 1.0,
                     step_l=widest / (resolution - 1) if widest > 0 else None)
    return _numeric_solution(params, result, {"model": model, "resolution": resolution})
