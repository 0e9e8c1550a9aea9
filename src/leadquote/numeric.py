"""Numeric solvers: the finite-buffer profit problem, accept-all
baselines, and a brute-force oracle for certifying the closed forms.

Two searches run here.  The finite-buffer solver pins the quote as a
function of lambda and searches lambda alone with _zoom: a coarse scan,
then a few wide rounds around the incumbent.  Its cost is the number of
sequential calls to the on-time kernel, each a few dozen numpy calls
whose cost hardly grows with the number of points (or with K, since the
kernel is closed form), so few wide rounds beat many narrow ones (and
beat golden-section or Brent steps, one sequential call each).  The accept-all baseline and
the oracle run _search, a dense coarse grid followed by shrinking local
refinements over lambda and u in [0, 1], which places the quote in a
per-lambda band [lo, hi] and so keeps the search box rectangular.  The
solvers run fixed grid constants; the oracle sets its steps from its
resolution.

For the accept-all M/M/1 benchmark the profit is concave in l at fixed
lambda and the best quote is ln(x)/(mu - lambda),
x = max{1/(1-s), b1 c/b2}: the single-slot rule closed_form.quote_level
with mu - lambda for mu, so its band has zero width.  For the
finite-buffer system the slope in l is c L_s g(l) - lambda_eff b2/b1,
with g the log-concave sojourn density, so it is positive on one
interval at most and the best quote is lo or that interval's right end
(clipped to hi), found by Newton steps on log g.  lo, the service-level
minimum, is a bracketed Newton search on the on-time probability, which
closes its bracket with one call of two points per row once Newton's own
error estimate allows it, and hands its kernel values at lo on to the
profit at lo and the first Newton step toward r (_pinned), so neither
costs a call.  Above a - b1 m - b2 z/mu (_zero_margin_rate) no quote
that meets the service level earns a margin, so the lambda search stops
there.  Only the brute-force oracle searches the full band
(_oracle_band), up to the zero-price bound (or a penalty-elimination cap
when demand ignores lead time).

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
# then local rounds, each shrinking the window.  _search (the baseline)
# runs _REFINE_ROUNDS rounds of 9 points at _REFINE_SHRINK; _zoom (the
# finite-buffer solver) runs _ZOOM_ROUNDS rounds of 129 points at
# _ZOOM_SHRINK, which ends on the same spacing, since 64**4 = 4**12.
_COARSE_POINTS = 400
_REFINE_ROUNDS = 12
_REFINE_SHRINK = 0.25
_ZOOM_ROUNDS = 4
_ZOOM_SHRINK = 1.0 / 64.0

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


def _zoom(evaluate, lam_hi):
    """Maximize a profit over lam in [0, lam_hi] with the quote pinned per lam.

    evaluate(lam) returns (quote, profit, penalty) for a vector of rates:
    profit is -inf where infeasible, and penalty marks quotes above the
    service-level minimum.  A coarse scan of _COARSE_POINTS intervals
    exposes a second peak; then each of _ZOOM_ROUNDS rounds spans the
    incumbent's window of half-width w (first the coarse step) with
    2/_ZOOM_SHRINK + 1 points and shrinks w by _ZOOM_SHRINK.  Every
    round runs, as in _search.
    """
    step = lam_hi / _COARSE_POINTS if lam_hi > 0 else 1.0
    offsets = np.linspace(-1.0, 1.0, int(round(2.0 / _ZOOM_SHRINK)) + 1)
    evals = 0
    best = {"profit": -np.inf, "lam": 0.0, "l": 0.0, "penalty": False}

    def consider(lam):
        nonlocal evals
        quote, profit, penalty = evaluate(lam)
        evals += lam.size
        i = int(np.argmax(profit))
        if np.isfinite(profit[i]) and profit[i] > best["profit"]:
            best.update(profit=float(profit[i]), lam=float(lam[i]), l=float(quote[i]),
                        penalty=bool(penalty[i]))

    consider(_axis(0.0, lam_hi, step))
    round_profits = [best["profit"]]
    rounds_used = 0
    for _ in range(_ZOOM_ROUNDS):
        if not np.isfinite(best["profit"]):
            break
        consider(np.unique(np.clip(best["lam"] + step * offsets, 0.0, lam_hi)))
        rounds_used += 1
        round_profits.append(best["profit"])
        step *= _ZOOM_SHRINK

    return {
        "lam": best["lam"],
        "l": best["l"],
        "profit": best["profit"],
        "found": np.isfinite(best["profit"]),
        "branch": PENALTY_BINDING if best["penalty"] else SERVICE_BINDING,
        "evaluations": evals,
        "refine_rounds": rounds_used,
        "round_profits": round_profits,
    }


def min_leadtime_for_service(lam, params: MarketParams, tol: float = QUOTE_TOL,
                             log_density: bool = False):
    """Smallest quote meeting the service level at arrival rate lam.

    Safeguarded Newton iteration on P(W <= l) = s, vectorized over lam.
    Each row keeps a bracket [lo, hi] with P(lo) < s <= P(hi), starting
    from [0, erlang_quantile_bracket].  Steps are taken on log P(W > l),
    which is concave because the sojourn density is log-concave: the first
    step from l = 0 lands on the feasible side, and later ones approach the
    root from there.  A step that leaves the bracket becomes a bisection.
    By that concavity a Newton iterate never lands left of the root, and
    its distance past it is about |(slope + g/late)/2| d^2 for a step d,
    with slope = d log g / dl.  Where that is at most tol/4 and the
    iterate lies in the bracket, the next call takes a point tol/20 right
    of it (clear of rounding in P, and at most hi) together with one
    0.9 tol left of that, and the two close the bracket at once.  Stops
    when the bracket is at most tol wide and returns its feasible end.
    Returns 0 when s = 0.

    With log_density=True the call returns (quote, P, log g, slope), the
    kernel's values at the quote (mm1k_ontime_prob with log_density), so
    a caller that needs them there makes no call of its own.
    """
    mu, K, s = params.mu, params.K, params.s
    scalar = np.isscalar(lam)
    arr = np.atleast_1d(np.asarray(lam, dtype=float))

    def result(quote, *at_quote):
        out = (quote, *at_quote)
        if scalar:
            out = tuple(float(v[0]) for v in out)
        return out if log_density else out[0]

    if s <= 0.0:
        quote = np.zeros_like(arr)
        at_zero = mm1k_ontime_prob(arr, mu, K, quote, log_density=True) if log_density else ()
        return result(quote, *at_zero)
    log_late = math.log1p(-s)
    lo = np.zeros_like(arr)
    hi = np.full_like(arr, erlang_quantile_bracket(mu, K, s))
    at_hi = np.full((3, arr.size), np.nan)
    # First Newton step from l = 0, where P = 0 and the density is mu * w_0
    # with w_0 = P(idle)/(1 - P_block), the chance an admitted job finds the
    # server idle: exact at K = 1, the M/M/1 quote z/(mu - lam) for rho < 1
    # and large K.  Cancellation in P(idle) at rho > 1 only sends it to hi.
    block = mm1k_blocking(arr, mu, K)
    idle = 1.0 - arr * (1.0 - block) / mu
    with np.errstate(divide="ignore"):
        x = np.minimum(-log_late * (1.0 - block) / (mu * idle), hi)
    x = np.where(idle > 0.0, x, hi)
    paired = np.zeros(arr.shape, dtype=bool)
    width, nudge = 0.9 * tol, 0.05 * tol
    live = np.arange(arr.size)
    for _ in range(_MAX_NEWTON_STEPS):
        if not live.size:
            break
        xs, los, his = x[live], lo[live], hi[live]
        # A paired row's points are x - width, in the row's own slot, and x,
        # appended after all rows unless it is hi, whose values are known.
        low = paired[live]
        two = np.flatnonzero(low & (xs < his))
        rows, pts = live, np.where(low, xs - width, xs)
        if two.size:
            rows, pts = np.concatenate([live, live[two]]), np.concatenate([pts, xs[two]])
        vals = np.array(mm1k_ontime_prob(arr[rows], mu, K, pts, log_density=True))
        ok = vals[0] >= s
        if two.size:
            # A paired row steps on from its point nearest the root: the
            # lower if feasible, else the upper, which if feasible closes
            # the bracket on the lower.
            low_fails = two[~ok[two]]
            straddle = low_fails[ok[live.size:][~ok[two]]]
            cur = np.arange(live.size)
            cur[low_fails] = live.size + np.flatnonzero(~ok[two])
            pts, vals, ok = pts[cur], vals[:, cur], ok[cur]
            los[straddle] = xs[straddle] - width
        his = np.where(ok, pts, his)
        los = np.where(ok, los, pts)
        at_hi[:, live[ok]] = vals[:, ok]
        ontime, log_g, slope = vals
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_late_now = np.log(1.0 - ontime)
            late_g = np.exp(log_late_now - log_g)
            step = (log_late_now - log_late) * late_g
            close = np.abs(slope + 1.0 / late_g) * step * step <= 0.5 * tol
        nxt = pts + step
        pair = close & (nxt >= los) & (nxt <= his)
        inside = (nxt > los) & (nxt < his)
        nxt = np.where(pair, np.minimum(nxt + nudge, his),
                       np.where(inside, nxt, 0.5 * (los + his)))
        lo[live], hi[live], x[live], paired[live] = los, his, nxt, pair
        live = live[his - los > tol]
    if log_density:
        # A row whose bracket closed on the starting bound never evaluated hi.
        todo = np.flatnonzero(np.isnan(at_hi[0]))
        if todo.size:
            at_hi[:, todo] = mm1k_ontime_prob(arr[todo], mu, K, hi[todo], log_density=True)
    return result(hi, *at_hi)


def _mm1k_load(lam, params: MarketParams):
    """The admitted rate lambda_eff and the mean number in system L_s at
    each arrival rate: the factors of the profit that do not depend on the
    quote, so a caller that evaluates many quotes per rate computes them
    once."""
    mu, K = params.mu, params.K
    return lam * (1.0 - mm1k_blocking(lam, mu, K)), mm1k_mean_number(lam, mu, K)


def _mm1k_rate(leff, ls, p, ontime, params: MarketParams):
    """The profit rate of mm1k_profit, vectorized, given _mm1k_load and the
    on-time probability at the quote."""
    return leff * (p - params.m) - params.F * ls - params.c * ls * (1.0 - ontime)


def _mm1k_value(lam, L, ontime, leff, ls, params: MarketParams):
    """The finite-buffer objective at quotes L given the on-time
    probability there and _mm1k_load: the profit rate, -inf where the
    price or the service level fails."""
    p = (params.a - params.b2 * L - lam) / params.b1
    ok = (p >= -PRICE_SLACK) & (ontime >= params.s - SERVICE_SLACK)
    return np.where(ok, _mm1k_rate(leff, ls, p, ontime, params), -np.inf)


def _mm1k_objective(params: MarketParams):
    def objective(lam, L):
        ontime = mm1k_ontime_prob(lam, params.mu, params.K, L)
        return _mm1k_value(lam, L, ontime, *_mm1k_load(lam, params), params)

    return objective


def mm1k_profit(policy: Policy, params: MarketParams) -> float:
    """Expected profit rate of the finite-buffer system at a given policy.

    leff*(p - m) - F*L - c*L*P(late): the lateness term
    c*leff*P(late)*W collapses to c*L*P(late) by Little's law, which stays
    defined (and 0) at lambda = 0.  Pure evaluator: the service-level
    constraint is not checked here.  Costs off means F = c = 0.
    """
    lam = policy.lam
    ontime = mm1k_ontime_prob(lam, params.mu, params.K, policy.l)
    return float(_mm1k_rate(*_mm1k_load(lam, params), policy.p, ontime, params))


def _leadtime_cap(lo, rate):
    # Quote beyond which the residual lateness factor exp(-rate*l) is dust.
    return lo + math.log(1.0 / PENALTY_ELIMINATION) / rate


def _mm1_rate(lam, p, l, params: MarketParams):
    """The profit rate of mm1_profit, vectorized."""
    slack = params.mu - lam
    return (lam * (p - params.m) - params.F * lam / slack
            - params.c * lam * np.exp(-slack * l) / slack)


def _mm1_objective(params: MarketParams):
    a, b1, b2 = params.a, params.b1, params.b2

    def objective(lam, L):
        p = (a - b2 * L - lam) / b1
        return np.where(p >= -PRICE_SLACK, _mm1_rate(lam, p, L, params), -np.inf)

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
        # The finite-buffer solver knows which end it quoted; the oracle,
        # which searches the full band, reads it off the attained level.
        branch = result.get("branch") or (
            SERVICE_BINDING if attained <= params.s + 1e-6 else PENALTY_BINDING)
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
    end r clipped to hi, whichever earns more (lo on a tie).  r is the
    largest root of phi(l) = log g(l) - log(lambda_eff b2 / (b1 c L_s)),
    found by Newton steps that approach it from the right: g falls on
    [m, oo) with m = max(lo, (K - 1)/mu) for rho > 1 and m = lo otherwise,
    and from m a step lands right of r by concavity, after which the
    iterates fall monotonically to r.  Reaching the rising side of g or
    passing below lo means there is no r above lo.  c = 0 or lam = 0 pins
    lo, since profit then never rises in l (with b2 = 0 as well it is flat,
    and the tie goes to the smallest quote); b2 = 0 with c > 0 pins the
    penalty-elimination cap (profit never falls in l).  Vectorized over
    lam.
    """
    scalar = np.isscalar(lam)
    quote = _pinned(np.atleast_1d(np.asarray(lam, dtype=float)), params)[0]
    return float(quote[0]) if scalar else quote


def _pinned(lam, params: MarketParams):
    """pinned_quote at a vector of rates, with the profit there and a mask
    of the rows quoted above lo (r or the cap).

    The quote search hands on its kernel values at lo, so the profit at lo
    and the first Newton step toward r cost no call of their own; one
    objective call covers the rows with an r, and lambda_eff and L_s are
    computed once for the whole vector."""
    a, b2, mu, K, c = params.a, params.b2, params.mu, params.K, params.c
    leff, ls = _mm1k_load(lam, params)
    lo, ontime, log_g, slope = min_leadtime_for_service(lam, params, log_density=True)
    if c > 0 and b2 == 0:
        quote = _leadtime_cap(lo, mu)
        profit = _mm1k_value(lam, quote, mm1k_ontime_prob(lam, mu, K, quote), leff, ls, params)
        return quote, profit, np.ones(lam.shape, dtype=bool)
    profit = _mm1k_value(lam, lo, ontime, leff, ls, params)
    quote, penalty = lo.copy(), np.zeros(lam.shape, dtype=bool)
    rows = np.flatnonzero((lam > 0) & ((a - lam) / b2 > lo)) if c > 0 else np.arange(0)
    root = _right_end(lam[rows], lo[rows], log_g[rows], slope[rows], leff[rows], ls[rows], params)
    found = np.isfinite(root)
    rows = rows[found]
    if rows.size:
        # A root that converged onto lo may sit up to QUOTE_TOL below it.
        r = np.maximum(root[found], lo[rows])
        at_r = _mm1k_value(lam[rows], r, mm1k_ontime_prob(lam[rows], mu, K, r),
                           leff[rows], ls[rows], params)
        better = at_r > profit[rows]
        rows = rows[better]
        quote[rows], profit[rows], penalty[rows] = r[better], at_r[better], True
    return quote, profit, penalty


def _right_end(lam, lo, log_g, slope, leff, ls, params: MarketParams):
    """The right end r (see pinned_quote) clipped to the zero-price bound,
    NaN where there is none above lo, for rows with lam > 0 and lo below
    that bound.  log_g and slope are the kernel's values at lo, and leff
    and ls those of _mm1k_load."""
    a, b1, b2, mu, K, c = params.a, params.b1, params.b2, params.mu, params.K, params.c
    hi = (a - lam) / b2
    log_level = np.log(leff * b2 / (b1 * c * ls))
    x = np.where(lam > mu, np.maximum(lo, (K - 1) / mu), lo)
    x = np.minimum(x, hi)
    log_g, slope = log_g.copy(), slope.copy()
    moved = np.flatnonzero(x != lo)
    if moved.size:
        _, log_g[moved], slope[moved] = mm1k_ontime_prob(lam[moved], mu, K, x[moved],
                                                         log_density=True)
    root = np.full_like(lam, np.nan)
    live = np.arange(lam.size)
    for _ in range(_MAX_NEWTON_STEPS):
        xs = x[live]
        phi = log_g[live] - log_level[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(slope[live] < 0.0, xs - phi / slope[live], np.inf)
        # Left of r (only from the start point) the step overshoots past r;
        # at hi with phi still positive, r lies beyond the zero-price bound.
        # Right of r, a rising g or a step below lo means no r above lo.
        up = phi > 0.0
        at_cap = up & (xs >= hi[live])
        nxt = np.where(up, np.minimum(nxt, hi[live]), nxt)
        done = at_cap | (np.abs(nxt - xs) <= QUOTE_TOL)
        lost = ~up & ((slope[live] >= 0.0) | (nxt <= lo[live]))
        root[live[done]] = np.where(at_cap, xs, nxt)[done]
        x[live] = nxt
        live = live[~(done | lost)]
        if not live.size:
            break
        _, log_g[live], slope[live] = mm1k_ontime_prob(lam[live], mu, K, x[live], log_density=True)
    return root


def _zero_margin_rate(params: MarketParams) -> float:
    """a - b1 m - b2 z/mu, floored at 0: above this arrival rate the price
    is at most m at every quote that meets the service level, so profit is
    at most 0.  Positive profit needs p > m, and an admitted sojourn is
    stochastically at least Exp(mu) in every model, so every quote is at
    least z/mu."""
    return max(params.a - params.b1 * params.m - params.b2 * params.z / params.mu, 0.0)


def solve_mm1k_numeric(params: MarketParams) -> Solution:
    """Optimal policy of the finite-buffer system by a search over lambda.

    The quote at each lambda is pinned by pinned_quote, and _zoom searches
    lambda alone, up to _zero_margin_rate.  Declared infeasible when no
    rate attains nonnegative price, the service level, and nonnegative
    profit.  The branch is service-binding where the quote is the
    service-level minimum and penalty-binding where it is above.
    """
    result = _zoom(lambda lam: _pinned(lam, params), _zero_margin_rate(params))
    return _numeric_solution(params, result, {"model": "mm1k", "K": params.K})


def mm1_profit(policy: Policy, params: MarketParams) -> float:
    """Expected profit rate of the accept-all M/M/1 benchmark at a policy.

    Revenue lambda*(p-m), minus holding F*lambda/(mu-lambda) and lateness
    c*lambda*exp(-(mu-lambda)l)/(mu-lambda).  Needs lambda < mu.  Costs
    off means F = c = 0.
    """
    if policy.lam >= params.mu:
        raise ValueError("accept-all benchmark needs a stable queue (lambda < mu)")
    return float(_mm1_rate(policy.lam, policy.p, policy.l, params))


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
    never falls in l there).  lambda stops at _zero_margin_rate: capping
    the range there, from market fields alone, lets the coarse grid see
    thin regions of positive profit."""
    a, b2, mu, z = params.a, params.b2, params.mu, params.z
    lam_hi = _zero_margin_rate(params)
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
