"""Numeric solvers: the finite-buffer profit problem, accept-all
baselines, and a brute-force oracle for certifying the closed forms.

Both solvers pin the quote as a function of lambda and search lambda
alone with _zoom, on one schedule: a coarse scan, then a few wide rounds
around the incumbent.  A call's cost hardly grows with its number of
points (the finite-buffer on-time kernel is a few dozen numpy calls,
whatever K), so few wide rounds beat many narrow ones, and golden-section
or Brent steps, one sequential call each.
The oracle, brute_force_oracles, runs a coarse grid of resolution rates
lambda by resolution band fractions u in [0, 1], which places the quote
lo + u (hi - lo) in a per-lambda band [lo, hi] and so keeps the search
box rectangular, followed by shrinking local refinements.  It searches a
stack of markets at once: the coarse grids one by one, each refinement
round for all of them.  A coarse grid skips each lambda row whose exact
profit bound (_row_bound: the model's own objective at the row's lowest
quote, with c = s = 0) is below a value found, so the answers are the
full grid's bit for bit.

For the accept-all M/M/1 benchmark the profit is concave in l at fixed
lambda and the best quote is ln(x)/(mu - lambda),
x = max{1/(1-s), b1 c/b2}: the single-slot rule closed_form.quote_level
with mu - lambda for mu.  For the finite-buffer system the slope in l is
c L_s g(l) - lambda_eff b2/b1, with g the log-concave sojourn density, so
it is positive on one interval at most and the best quote is lo or that
interval's right end (clipped to hi), found by Newton steps on log g.
lo, the service-level minimum, is a bracketed Newton search on the
on-time probability, which closes its bracket with one call of two points
per row once Newton's own error estimate allows it, and hands its kernel
values at lo on to the profit at lo and the first Newton step toward r
(_pinned), so neither costs a call.  A solve's time is mostly numpy
calls, not points, so _pinned computes the kernel's per-rate terms
(queueing.mm1k_rate_terms) once per vector of rates and hands them to
both Newton searches, whose steps run on the rows still open alone and
whose tolerances are stated in x = mu l, so that a solve's answer does
not depend on the unit of time.  Above a - b1 m - b2 z/mu
(_zero_margin_rate) no quote that meets the service level earns a
margin, so the lambda search stops there, and for the accept-all model
also a relative STABILITY_MARGIN below mu (_accept_all_cap), in the
baseline and the oracle alike.  Only the oracle searches the
full band (_oracle_band), up to the zero-price bound (or a
penalty-elimination cap when demand ignores lead time).

Tie-breaking is deterministic: smallest lambda, then smallest quote, and
the incumbent is only replaced on strict improvement, so results do not
depend on evaluation order and the incumbent profit is monotone across
refinement rounds.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .closed_form import (
    PENALTY_BINDING,
    PENALTY_STRETCH,
    SERVICE_BINDING,
    Solution,
    _sale,
    quote_level,
)
from .market import FEASIBILITY_SLACK, MarketParams, Policy
from .queueing import (
    _mm1_ontime,
    erlang_quantile_bracket,
    mm1_ontime_prob,
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_ontime_prob,
    mm1k_rate_terms,
)

# Inside objectives, price may undershoot zero by market.FEASIBILITY_SLACK,
# and the on-time probability s by SERVICE_SLACK, before a grid point is
# declared infeasible (the quote search stops within X_TOL/mu of the service bound).
SERVICE_SLACK = 1e-9

# The accept-all model never evaluates closer to instability than this
# share of mu (_accept_all_cap).
STABILITY_MARGIN = 1e-7

# The solvers' lambda search, _zoom: a coarse grid of _COARSE_POINTS
# intervals, then _ZOOM_ROUNDS rounds of 129 points at the window offsets
# _ZOOM_OFFSETS, each shrinking the window by _ZOOM_SHRINK.  The oracle,
# brute_force_oracles, runs _ORACLE_ROUNDS rounds of 9 x 9 points at the
# window offsets _OFFSETS, each shrinking the window by _REFINE_SHRINK.
_COARSE_POINTS = 400
_ZOOM_ROUNDS = 4
_ZOOM_SHRINK = 1.0 / 64.0
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, int(round(2.0 / _ZOOM_SHRINK)) + 1)
_FIRST_ROWS = 4
_ORACLE_ROUNDS = 10
_REFINE_SHRINK = 0.25
_OFFSETS = np.linspace(-1.0, 1.0, int(round(2.0 / _REFINE_SHRINK)) + 1)

# The oracle's resolution range: its coarse grid holds resolution^2
# points, about 27 MB at the upper bound.
MIN_RESOLUTION = 100
MAX_RESOLUTION = 1000

# Quote accuracy of the Newton searches in x = mu l (X_TOL/mu in time, so
# 1e-10 at mu = 10), and a cap on their iterations; they stop on a bracket
# width or a step size long before the cap.
X_TOL = 1e-9
_MAX_NEWTON_STEPS = 100


def _zoom(evaluate, lam_hi):
    """Maximize a profit over lam in [0, lam_hi] with the quote pinned per lam.

    evaluate(lam) returns (quote, profit, attained, penalty) for a vector
    of rates: profit is -inf where infeasible, attained is the on-time
    probability at the quote, and penalty marks quotes above the
    service-level minimum; the result keeps the attained level and branch
    at the best rate.  A coarse scan of _COARSE_POINTS intervals
    exposes a second peak; then each of _ZOOM_ROUNDS rounds spans the
    incumbent's window of half-width w (first the coarse step) with the
    129 points of _ZOOM_OFFSETS and shrinks w 64-fold.  Every round runs
    once a finite profit is found, as in the oracle, unless lam_hi is 0: the
    coarse scan is then the single point lam = 0, and no round can move
    it.  Both numeric solvers run this one schedule.
    """
    step = lam_hi / _COARSE_POINTS
    evals = 0
    best = {"profit": -np.inf, "lam": 0.0, "l": 0.0, "attained": 0.0, "penalty": False}

    def consider(lam):
        nonlocal evals
        quote, profit, attained, penalty = evaluate(lam)
        evals += lam.size
        i = int(np.argmax(profit))
        if np.isfinite(profit[i]) and profit[i] > best["profit"]:
            best.update(profit=float(profit[i]), lam=float(lam[i]), l=float(quote[i]),
                        attained=float(attained[i]), penalty=bool(penalty[i]))

    consider(np.linspace(0.0, lam_hi, _COARSE_POINTS + 1 if lam_hi > 0 else 1))
    round_profits = [best["profit"]]
    rounds_used = 0
    for _ in range(_ZOOM_ROUNDS if lam_hi > 0 else 0):
        if not np.isfinite(best["profit"]):
            break
        # The window is sorted, so the rates that clipping repeats are
        # neighbours; np.unique and np.clip would cost twice as much.
        lam = np.minimum(np.maximum(best["lam"] + step * _ZOOM_OFFSETS, 0.0), lam_hi)
        consider(lam[np.concatenate(([True], lam[1:] != lam[:-1]))])
        rounds_used += 1
        round_profits.append(best["profit"])
        step *= _ZOOM_SHRINK

    return {"lam": best["lam"], "l": best["l"], "profit": best["profit"], "attained": best["attained"],
            "branch": PENALTY_BINDING if best["penalty"] else SERVICE_BINDING,
            "evaluations": evals, "refine_rounds": rounds_used, "round_profits": round_profits}


def min_leadtime_for_service(lam, params: MarketParams, log_density: bool = False, *, rates=None):
    """Smallest quote meeting the service level at arrival rate lam.

    Safeguarded Newton iteration on P(W <= l) = s, vectorized over lam.
    Each row keeps a bracket [lo, hi] with P(lo) <= s <= P(hi), starting
    from [z/mu, erlang_quantile_bracket(mu, K, z)] (an admitted sojourn is
    stochastically at least Exp(mu)).  Steps are taken on log P(W > l),
    whose target is ln(1 - s) = -z (MarketParams.z) and which is concave
    because the sojourn density is log-concave: the first step from l = 0,
    z/(mu w_0) with g(0) = mu w_0 read off the per-rate terms, lands on the
    feasible side, and later ones approach the root from there.  A step
    that leaves the bracket becomes a bisection.
    By that concavity a Newton iterate never lands left of the root, and
    its distance past it is about |(slope + g/late)/2| d^2 for a step d,
    with slope = d log g / dl.  Where that is at most tol/4, tol =
    X_TOL/mu, and the iterate lies in the bracket, the next call takes a
    point tol/20 right of it (clear of rounding in P, and at most hi)
    with one 0.9 tol left of that, never below lo, and the two close the
    bracket at once; every point evaluated lies in [lo, hi].  Stops when
    the bracket is at most tol wide and returns its feasible end.  At
    s = 0 the bracket is [0, 0], so the first point, l = 0, meets the
    level and closes it.  Where rounding in P (1 - late moves in steps of
    eps/2) outweighs its rise over tol, a Newton step from a point below
    the level can land below it again, which concavity rules out; such a
    row bisects from then on, so its bracket still closes.  Steps run on
    the open rows alone, and the per-rate kernel terms are taken once.

    With log_density=True the call returns (quote, P, log g, slope), the
    kernel's values at the quote (mm1k_ontime_prob with log_density), so
    a caller that needs them there makes no call of its own.  rates, if
    given, is mm1k_rate_terms at a 1-d lam, as in mm1k_ontime_prob, from
    a caller that has them already.
    """
    mu, K, s, tol = params.mu, params.K, params.s, X_TOL / params.mu
    arr = np.atleast_1d(np.asarray(lam, dtype=float))
    terms = mm1k_rate_terms(arr, mu, K) if rates is None else rates
    log_late = -params.z
    lo = np.full_like(arr, params.z / mu)
    hi = np.full_like(arr, erlang_quantile_bracket(mu, K, params.z))
    at_hi = np.full((3, arr.size), np.nan)
    # The loop keeps the open rows alone, with their rates and terms, and
    # records every row's bracket in quote and at_quote before it drops any.
    quote, at_quote = hi.copy(), at_hi.copy()
    idx, rows_lam, rows_terms = np.arange(arr.size), arr, terms
    paired, rescue, stuck = np.zeros((3, arr.size), dtype=bool)
    width, nudge = 0.9 * tol, 0.05 * tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # w_0 = h e^-m is the chance that an admitted job finds the server
        # idle (1 at K = 1).  Where it underflows the step is inf, or 0/0 at
        # s = 0, and fmin sends it to hi.
        w_0 = np.exp(terms[5] - terms[2]) if K > 1 else 1.0
        x = np.fmin(params.z / (mu * w_0), hi)
        for _ in range(_MAX_NEWTON_STEPS):
            pts, vals, ok = _paired_points(rows_lam, rows_terms, x, lo, hi, paired, width, params)
            if np.count_nonzero(ok) == ok.size:
                # Newton iterates approach the root from the feasible side,
                # so most steps move hi alone.
                hi, at_hi = pts, np.array(vals)
            else:
                # hi and lo belong to this loop, so they move in place
                # (np.copyto costs half of np.where).
                np.copyto(hi, pts, where=ok)
                np.copyto(lo, pts, where=~ok)
                at_hi = np.where(ok, vals, at_hi)
                stuck |= rescue & ~ok  # a Newton step from a miss missed too
            ontime, log_g, slope = vals
            log_late_now = np.log(1.0 - ontime)
            late_g = np.exp(log_late_now - log_g)
            step = (log_late_now - log_late) * late_g
            close = np.abs(slope + 1.0 / late_g) * step * step <= 0.5 * tol
            nxt = pts + step
            np.copyto(nxt, np.nan, where=stuck)  # so the row bisects
            paired = close & (nxt >= lo) & (nxt <= hi)
            inside = (nxt > lo) & (nxt < hi)
            rescue = inside & ~ok
            x = 0.5 * (lo + hi)
            np.copyto(x, nxt, where=inside)
            np.copyto(x, np.minimum(nxt + nudge, hi), where=paired)
            keep = (hi - lo > tol).nonzero()[0]
            if not keep.size:
                break
            if keep.size < idx.size:
                quote[idx], at_quote[:, idx] = hi, at_hi
                idx, rows_lam, rows_terms, x, lo, hi, at_hi, paired, rescue, stuck = (
                    v.take(keep, axis=-1)
                    for v in (idx, rows_lam, rows_terms, x, lo, hi, at_hi, paired, rescue, stuck))
    quote[idx], at_quote[:, idx] = hi, at_hi
    if log_density:
        # A row whose bracket closed on the starting bound never evaluated hi.
        todo = np.isnan(at_quote[0]).nonzero()[0]
        if todo.size:
            at_quote[:, todo] = mm1k_ontime_prob(arr[todo], mu, K, quote[todo], log_density=True,
                                                 rates=terms.take(todo, axis=1))
    out = (quote, *at_quote) if log_density else (quote,)
    if np.isscalar(lam):
        out = tuple(float(v[0]) for v in out)
    return out if log_density else out[0]


def _paired_points(lam, terms, x, lo, hi, paired, width, params: MarketParams):
    """One kernel call of a quote-search step: a paired row's points are
    max(x - width, lo), in the row's own slot, and x, appended after all
    rows unless it is hi, whose values are known; other rows take x.
    Returns each row's point nearest the root, the kernel's values there
    and whether it meets the service level: the lower if feasible, else
    the upper, which if feasible closes the bracket on the lower (lo is
    moved in place to the lower point, never below lo)."""
    mu, K, s = params.mu, params.K, params.s
    pts = np.where(paired, np.maximum(x - width, lo), x)
    two = (paired & (x < hi)).nonzero()[0]
    if not two.size:
        vals = mm1k_ontime_prob(lam, mu, K, pts, log_density=True, rates=terms)
        return pts, vals, vals[0] >= s
    n = x.size
    rows = np.concatenate([np.arange(n), two])
    pts = np.concatenate([pts, x[two]])
    vals = np.array(mm1k_ontime_prob(lam[rows], mu, K, pts, log_density=True,
                                     rates=terms.take(rows, axis=1)))
    ok = vals[0] >= s
    low_fails = ~ok[two]
    upper = two[low_fails]
    pick = np.arange(n)
    pick[upper] = n + low_fails.nonzero()[0]
    straddle = upper[ok[n:][low_fails]]
    lo[straddle] = pts[straddle]
    return pts[pick], vals.take(pick, axis=1), ok[pick]


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
    ok = (p >= -FEASIBILITY_SLACK) & (ontime >= params.s - SERVICE_SLACK)
    return np.where(ok, _mm1k_rate(leff, ls, p, ontime, params), -np.inf)


def _mm1k_objective(lam, L, params: MarketParams):
    """The finite-buffer profit at arrival rates lam and quotes L."""
    ontime = mm1k_ontime_prob(lam, params.mu, params.K, L)
    return _mm1k_value(lam, L, ontime, *_mm1k_load(lam, params), params)


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
    return lo + PENALTY_STRETCH / rate


def _mm1_rate(lam, p, l, params: MarketParams):
    """The profit rate of mm1_profit, vectorized."""
    slack = params.mu - lam
    return (lam * (p - params.m) - params.F * lam / slack
            - params.c * lam * np.exp(-slack * l) / slack)


def _mm1_objective(lam, L, params: MarketParams):
    """The accept-all profit at arrival rates lam and quotes L, -inf where
    the price is negative."""
    p = (params.a - params.b2 * L - lam) / params.b1
    return np.where(p >= -FEASIBILITY_SLACK, _mm1_rate(lam, p, L, params), -np.inf)


def _numeric_solution(params: MarketParams, result: dict, extra: dict) -> Solution:
    """A search's result under closed_form._sale's rule, with its counters.
    The search hands on the attained level and branch at its best point."""
    diagnostics = {"z": params.z, **extra,
                   "evaluations": result["evaluations"],
                   "refine_rounds": result["refine_rounds"],
                   "round_profits": [float(v) for v in result["round_profits"] if np.isfinite(v)]}
    return _sale(params, result["lam"], result["l"], diagnostics, lambda policy: (
        result["profit"], result["attained"], result["branch"], diagnostics))


def _pinned(lam, params: MarketParams):
    """Profit-maximizing quote of the finite-buffer system at a vector of
    rates, with the profit and the on-time probability there and a mask of
    the rows quoted above lo (r or the cap).

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
    penalty-elimination cap (profit never falls in l).

    The load (_mm1k_load) and the kernel's per-rate terms are computed
    once for the vector; the terms serve the quote search, the search for
    r and the profit.  The quote search hands on its kernel values at lo,
    so the profit at lo and the first Newton step toward r cost no call of
    their own, and one objective call covers the rows with an r."""
    a, b2, mu, K, c = params.a, params.b2, params.mu, params.K, params.c
    leff, ls = _mm1k_load(lam, params)
    terms = mm1k_rate_terms(lam, mu, K)
    lo, ontime, log_g, slope = min_leadtime_for_service(lam, params, log_density=True, rates=terms)
    if c > 0 and b2 == 0:
        quote = _leadtime_cap(lo, mu)
        ontime = mm1k_ontime_prob(lam, mu, K, quote, rates=terms)
        return (quote, _mm1k_value(lam, quote, ontime, leff, ls, params), ontime,
                np.ones(lam.shape, dtype=bool))
    profit = _mm1k_value(lam, lo, ontime, leff, ls, params)
    quote, penalty = lo.copy(), np.zeros(lam.shape, dtype=bool)
    rows = ((lam > 0) & ((a - lam) / b2 > lo)).nonzero()[0] if c > 0 else np.arange(0)
    root = _right_end(lam[rows], lo[rows], log_g[rows], slope[rows], leff[rows], ls[rows],
                      terms.take(rows, axis=1), params)
    found = np.isfinite(root)
    rows = rows[found]
    if rows.size:
        # A root that converged onto lo may sit up to X_TOL/mu below it.
        r = np.maximum(root[found], lo[rows])
        ontime_r = mm1k_ontime_prob(lam[rows], mu, K, r, rates=terms.take(rows, axis=1))
        at_r = _mm1k_value(lam[rows], r, ontime_r, leff[rows], ls[rows], params)
        better = at_r > profit[rows]
        rows = rows[better]
        quote[rows], profit[rows], ontime[rows], penalty[rows] = (
            r[better], at_r[better], ontime_r[better], True)
    return quote, profit, ontime, penalty


def _right_end(lam, lo, log_g, slope, leff, ls, terms, params: MarketParams):
    """The right end r (see _pinned) clipped to the zero-price bound,
    NaN where there is none above lo, for rows with lam > 0 and lo below
    that bound.  log_g and slope are the kernel's values at lo, leff and
    ls the admitted rate and the mean number in system, and terms the
    kernel's per-rate terms.  A row stops on a step of at most X_TOL/mu,
    the quote search's tolerance.  Each step runs on the rows still
    searching alone."""
    a, b1, b2, mu, K, c = params.a, params.b1, params.b2, params.mu, params.K, params.c
    hi, tol = (a - lam) / b2, X_TOL / mu
    level = np.log(leff * b2 / (b1 * c * ls))
    x = np.where(lam > mu, np.maximum(lo, (K - 1) / mu), lo)
    x = np.minimum(x, hi)
    moved = (x != lo).nonzero()[0]
    if moved.size:
        log_g, slope = log_g.copy(), slope.copy()
        _, log_g[moved], slope[moved] = mm1k_ontime_prob(lam[moved], mu, K, x[moved], log_density=True,
                                                         rates=terms.take(moved, axis=1))
    root = np.full_like(lam, np.nan)
    idx = np.arange(lam.size)
    # A zero or subnormal slope (at rho = 1 and l << K/mu) makes the step
    # infinite; the cap at hi or the test against lo then settles the row.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_NEWTON_STEPS):
            phi = log_g - level
            nxt = np.where(slope < 0.0, x - phi / slope, np.inf)
            # Left of r (only from the start point) the step overshoots past r;
            # at hi with phi still positive, r lies beyond the zero-price bound.
            # Right of r, a rising g or a step below lo means no r above lo.
            up = phi > 0.0
            at_cap = up & (x >= hi)
            nxt = np.where(up, np.minimum(nxt, hi), nxt)
            done = at_cap | (np.abs(nxt - x) <= tol)
            lost = ~up & ((slope >= 0.0) | (nxt <= lo))
            found = done.nonzero()[0]
            root[idx[found]] = np.where(at_cap, x, nxt)[found]
            keep = (~(done | lost)).nonzero()[0]
            if not keep.size:
                break
            idx, lam, terms, x, lo, hi, level = (
                v.take(keep, axis=-1) for v in (idx, lam, terms, nxt, lo, hi, level))
            _, log_g, slope = mm1k_ontime_prob(lam, mu, K, x, log_density=True, rates=terms)
    return root


def _zero_margin_rate(params: MarketParams) -> float:
    """a - b1 m - b2 z/mu, floored at 0: above this arrival rate the price
    is at most m at every quote that meets the service level, so profit is
    at most 0.  Positive profit needs p > m, and an admitted sojourn is
    stochastically at least Exp(mu) in every model, so every quote is at
    least z/mu."""
    return max(params.a - params.b1 * params.m - params.b2 * params.z / params.mu, 0.0)


def _accept_all_cap(params: MarketParams) -> float:
    """The accept-all model's lambda cap: _zero_margin_rate, kept a
    relative STABILITY_MARGIN below mu."""
    return min(_zero_margin_rate(params), params.mu * (1.0 - STABILITY_MARGIN))


def solve_mm1k_numeric(params: MarketParams) -> Solution:
    """Optimal policy of the finite-buffer system by a search over lambda.

    The quote at each lambda is pinned by _pinned, and _zoom searches
    lambda alone, up to _zero_margin_rate.  Feasible only when it sells
    (lambda > 0) at a positive profit with a nonnegative price and the
    service level met.  The branch is service-binding where the quote is
    the service-level minimum and penalty-binding where it is above.
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
    closed_form.quote_level), so _zoom searches lambda alone, up to
    _accept_all_cap, on the finite-buffer solver's schedule.  Costs off
    means F = c = 0.
    """
    if not costs_on:
        params = params.with_updates(F=0.0, c=0.0)
    mu, (log_x, branch) = params.mu, quote_level(params)
    penalty = branch == PENALTY_BINDING

    def evaluate(lam):
        slack = mu - lam
        quote = log_x / slack
        attained = _mm1_ontime(slack, quote)
        return quote, _mm1_objective(lam, quote, params), attained, np.full(lam.shape, penalty)

    result = _zoom(evaluate, _accept_all_cap(params))
    return _numeric_solution(params, result, {"model": "mm1", "costs_on": costs_on})


def _oracle_band(lam, params, model: str):
    """The oracle's full quote band (lo, hi) at arrival rates lam for one
    model.  lo is the service-level minimum and hi the zero-price bound,
    or the penalty-elimination cap when b2 = 0 (profit never falls in l
    there).  params is one market or, for "mm11" and "mm1", a stack whose
    fields are columns that broadcast against lam."""
    a, b2, mu, z = params.a, params.b2, params.mu, params.z
    if model == "mm1k":
        lo, rate = min_leadtime_for_service(lam.ravel(), params).reshape(lam.shape), mu
    elif model == "mm11":
        lo, rate = np.full_like(lam, z / mu), mu
    else:
        lo, rate = z / (mu - lam), mu - lam
    with np.errstate(divide="ignore", invalid="ignore"):
        return lo, np.where(b2 > 0, np.maximum((a - lam) / b2, lo), _leadtime_cap(lo, rate))


def _mm11_objective(lam, L, params):
    """The single-slot profit, written out independently of the closed-form
    module so that agreement is evidence rather than tautology."""
    a, b1, b2, m, mu, F, c = params.a, params.b1, params.b2, params.m, params.mu, params.F, params.c
    p = (a - b2 * L - lam) / b1
    profit = lam * (mu * (p - m) - F - c * np.exp(-mu * L)) / (mu + lam)
    return np.where(p >= -FEASIBILITY_SLACK, profit, -np.inf)


def _row_bound(objective, lam, lo, params: MarketParams):
    """At least objective(lam, L, params) at every quote L >= lo, in floating
    point too: the objective itself at lo on the market with c = s = 0.
    There its lateness term c (...) >= 0 is an exact 0 (the mm1k kernel
    clips the on-time probability to <= 1) and no service level masks a
    point, so what is left is the price term, which falls in L since IEEE
    operations are monotone, less costs that do not depend on L.  A row
    whose price at lo is below -FEASIBILITY_SLACK reads -inf, as every
    point of it does."""
    return objective(lam, lo, params.with_updates(c=0.0, s=0.0))


_ORACLE = {"mm11": _mm11_objective, "mm1": _mm1_objective, "mm1k": _mm1k_objective}


def _coarse_grid(params, model: str, lam_hi, resolution):
    """A market's coarse grid: resolution rates lam in [0, lam_hi] (a
    column), the lo and span of its _oracle_band, and resolution band
    fractions u in [0, 1], with quotes lo + span * u; an empty axis (lam_hi
    0, or no band open) is the single point 0."""
    lam = np.linspace(0.0, lam_hi, resolution if lam_hi > 0 else 1)[:, None]
    lo, hi = _oracle_band(lam, params, model)
    span = np.maximum(hi - lo, 0.0)
    return lam, lo, span, np.linspace(0.0, 1.0, resolution if span.max() > 0 else 1)


def brute_force_oracles(markets, model: str, resolution: int = 160) -> list:
    """Two-phase grid search used to certify the solvers, for each of a
    list of markets: maximize the model's objective (_ORACLE) over lam in
    [0, lam_hi] and l = lo + u (hi - lo), u in [0, 1], across the full band
    [lo, hi] of _oracle_band, which keeps the search box rectangular.

    model picks the system: "mm11" single-slot, "mm1" accept-all benchmark
    or "mm1k" general finite buffer, with each market's costs (F = c = 0
    for the cost-free problem).  lam_hi is _zero_margin_rate
    (_accept_all_cap for "mm1"): a cap from market fields alone, which
    lets the coarse grid see thin regions of positive profit.  Accuracy is
    a function of resolution alone, an integer in [MIN_RESOLUTION,
    MAX_RESOLUTION].

    The coarse grids (_coarse_grid: resolution rates by resolution band
    fractions) run one market at a time, so memory stays at one grid.  Each
    evaluates its _FIRST_ROWS rows of highest _row_bound, then every row
    whose bound is not below the best found: no other row holds or ties the
    maximum, so the answers are the full grid's bit for bit.  Each of
    _ORACLE_ROUNDS rounds then runs 9 x 9 points around every found
    incumbent at once, in windows that start at the coarse steps,
    lam_hi/(resolution - 1) and 1/(resolution - 1) (0 on a single-point
    axis), and shrink by _REFINE_SHRINK.  A round evaluates one stack: the
    found markets' fields as columns, or for "mm1k", whose service search
    takes one K, the lone market, since such markets are searched one by
    one.  The clipped windows are sorted, so a duplicate point never
    changes argmax's first-index tie-break; evaluations count the distinct
    points evaluated.  Every round runs: the optimum often lies within a
    round's spacing of the incumbent, so stopping on a small improvement
    would stop short.

    The oracle searches the full band, so it does not know which end it
    quoted: each answer takes its model's on-time law at the found policy
    and reads the branch off it, service-binding within 1e-6 of s.
    """
    markets = list(markets)
    if model not in _ORACLE:
        raise ValueError(f"unknown oracle model {model!r}; pick one of {tuple(_ORACLE)}")
    if (isinstance(resolution, bool) or not isinstance(resolution, int)
            or not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION):
        raise ValueError(f"oracle resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                         f"got {resolution}")
    if model == "mm11" and any(p.K != 1 for p in markets):
        raise ValueError("single-slot oracle needs K = 1")
    if model == "mm1k" and len(markets) != 1:
        return [sol for p in markets for sol in brute_force_oracles([p], model, resolution)]
    objective = _ORACLE[model]
    cap = _accept_all_cap if model == "mm1" else _zero_margin_rate
    lam_hi = np.array([cap(p) for p in markets])
    n = len(markets)
    best, evals = np.full(n, -np.inf), np.zeros(n, dtype=int)
    at_lam, at_l, at_u, w_u = np.zeros((4, n))
    w_lam = lam_hi / (resolution - 1)
    for i, p in enumerate(markets):
        lam, lo, span, u = _coarse_grid(p, model, lam_hi[i], resolution)
        top = _row_bound(objective, lam, lo, p)[:, 0]
        P, L = np.full((lam.size, u.size), -np.inf), np.empty((lam.size, u.size))
        seen = np.zeros(lam.size, dtype=bool)
        rows = np.argsort(-top, kind="stable")[:_FIRST_ROWS]
        while rows.size:
            L[rows] = lo[rows] + span[rows] * u
            P[rows] = objective(lam[rows], L[rows], p)
            seen[rows] = True
            # ~(top < best) also keeps rows whose bound is NaN.
            rows = np.flatnonzero(~seen & ~(top < P.max()))
        evals[i] = np.count_nonzero(seen) * u.size
        j, k = divmod(int(np.argmax(P)), u.size)
        if np.isfinite(P[j, k]):
            best[i], at_lam[i], at_l[i], at_u[i] = P[j, k], lam[j, 0], L[j, k], u[k]
        w_u[i] = 1.0 / (u.size - 1) if u.size > 1 else 0.0

    live = np.flatnonzero(np.isfinite(best))
    stack = markets[0] if model == "mm1k" else SimpleNamespace(**{
        f: np.array([getattr(markets[i], f) for i in live])[:, None, None]
        for f in "a b1 b2 m mu F c z".split()})
    history = [best.copy()]
    for _ in range(_ORACLE_ROUNDS if live.size else 0):
        lam = np.clip(at_lam[live, None] + w_lam[live, None] * _OFFSETS, 0.0, lam_hi[live, None])
        u = np.clip(at_u[live, None] + w_u[live, None] * _OFFSETS, 0.0, 1.0)
        lo, hi = _oracle_band(lam[:, :, None], stack, model)
        L = lo + np.maximum(hi - lo, 0.0) * u[:, None, :]
        P = objective(lam[:, :, None], L, stack).reshape(live.size, -1)
        # The number of distinct rates and fractions of each sorted window.
        n_lam, n_u = (1 + np.count_nonzero(np.diff(x, axis=1), axis=1) for x in (lam, u))
        evals[live] += n_lam * n_u
        value, (j, k) = P.max(axis=1), np.divmod(P.argmax(axis=1), _OFFSETS.size)
        up = np.isfinite(value) & (value > best[live])
        rows = live[up]
        best[rows], at_lam[rows], at_l[rows], at_u[rows] = (
            value[up], lam[up, j[up]], L[up, j[up], k[up]], u[up, k[up]])
        history.append(best.copy())
        w_lam[live], w_u[live] = w_lam[live] * _REFINE_SHRINK, w_u[live] * _REFINE_SHRINK

    history = np.array(history)
    solutions = []
    for i, p in enumerate(markets):
        found, lam, l = np.isfinite(best[i]), float(at_lam[i]), float(at_l[i])
        attained = (mm1_ontime_prob(lam, p.mu, l) if model == "mm1"
                    else mm1k_ontime_prob(lam, p.mu, p.K, l))
        solutions.append(_numeric_solution(p, {
            "lam": lam, "l": l, "profit": float(best[i]), "attained": attained,
            "branch": SERVICE_BINDING if attained <= p.s + 1e-6 else PENALTY_BINDING,
            "evaluations": int(evals[i]), "refine_rounds": _ORACLE_ROUNDS if found else 0,
            "round_profits": history[:, i] if found else []},
            {"model": model, "resolution": resolution}))
    return solutions


def brute_force_oracle(params: MarketParams, model: str, resolution: int = 160) -> Solution:
    """brute_force_oracles for one market: the oracle's grid search, which
    certifies the solvers, is described there."""
    return brute_force_oracles([params], model, resolution)[0]
