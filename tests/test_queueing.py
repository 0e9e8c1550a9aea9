"""Finite-buffer queue formulas against frozen birth-death oracle values.

The frozen numbers were produced by solving the balance equations as a
linear system and assembling on-time probabilities from scipy's Erlang
cdf; the same construction is re-run live in test_certify.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadquote import (
    birth_death_stationary,
    mm1_ontime_prob,
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_mean_sojourn,
    mm1k_ontime_prob,
    mm1k_throughput,
    queueing,
)

# (lam, mu, K) -> (block, mean number, throughput), from the linear solve
BD_FROZEN = {
    (5.0, 10.0, 1): (1.0 / 3.0, 1.0 / 3.0, 10.0 / 3.0),
    (5.0, 10.0, 3): (0.0666666666666666, 0.733333333333333, 4.66666666666667),
    (12.0, 10.0, 4): (0.278649752741346, 2.35949258224038, 8.65620296710385),
    (10.0, 10.0, 4): (0.2, 2.0, 8.0),
}

# (lam, mu, K, l) -> P(W <= l), from stationary law + scipy erlang cdf
ONTIME_FROZEN = {
    (5.0, 10.0, 1, 0.2): 0.864664716763388,
    (5.0, 10.0, 3, 0.3): 0.854195014065542,
    (10.0, 10.0, 4, 0.5): 0.890789109056491,
    (12.0, 10.0, 2, 0.25): 0.805980912343511,
    (5.0, 10.0, 20, 2.0): 0.999955205326681,
}


@pytest.mark.parametrize("key,want", sorted(BD_FROZEN.items()))
def test_metrics_match_birth_death_values(key, want):
    lam, mu, K = key
    assert mm1k_blocking(lam, mu, K) == pytest.approx(want[0], abs=1e-12)
    assert mm1k_mean_number(lam, mu, K) == pytest.approx(want[1], abs=1e-12)
    assert mm1k_throughput(lam, mu, K) == pytest.approx(want[2], abs=1e-12)


@pytest.mark.parametrize("key,want", sorted(ONTIME_FROZEN.items()))
def test_ontime_matches_erlang_assembly(key, want):
    lam, mu, K, l = key
    assert mm1k_ontime_prob(lam, mu, K, l) == pytest.approx(want, abs=1e-12)


def test_single_slot_identities():
    """K = 1 collapses to rho/(1+rho) everywhere and W = 1/mu."""
    for lam, mu in ((5.0, 10.0), (2.0, 7.0), (30.0, 10.0)):
        rho = lam / mu
        assert mm1k_blocking(lam, mu, 1) == pytest.approx(rho / (1 + rho), rel=1e-14)
        assert mm1k_mean_number(lam, mu, 1) == pytest.approx(rho / (1 + rho), rel=1e-14)
        assert mm1k_mean_sojourn(lam, mu, 1) == pytest.approx(1.0 / mu, rel=1e-12)
        want = 1.0 - math.exp(-mu * 0.3)
        assert mm1k_ontime_prob(lam, mu, 1, 0.3) == pytest.approx(want, rel=1e-14)


def test_critical_load_values():
    for K in (1, 2, 5, 20):
        assert mm1k_blocking(10.0, 10.0, K) == pytest.approx(1.0 / (K + 1), rel=1e-13)
        assert mm1k_mean_number(10.0, 10.0, K) == pytest.approx(K / 2.0, rel=1e-13)


def test_continuity_through_critical_load():
    """Approaching rho = 1 from both sides lands on the K/2 limit."""
    for K in (1, 2, 5, 20):
        for lam in (10.0 * (1 - 1e-6), 10.0 * (1 + 1e-6)):
            assert abs(mm1k_mean_number(lam, 10.0, K) - K / 2.0) < 1e-4
    # the limit derivative grows ~K^2/6, so scale the window for K = 200
    for lam in (10.0 * (1 - 1e-6), 10.0 * (1 + 1e-6)):
        assert abs(mm1k_mean_number(lam, 10.0, 200) - 100.0) < 200**2 * 1e-6


def test_accept_all_limit_at_large_buffer():
    """K = 50 at rho = 0.5 is the plain M/M/1 to near machine precision."""
    ls = mm1k_mean_number(5.0, 10.0, 50)
    w = mm1k_mean_sojourn(5.0, 10.0, 50)
    assert abs(ls - 1.0) < 1e-9
    assert abs(w - 0.2) < 1e-9
    assert mm1k_blocking(5.0, 10.0, 50) < 1e-12


def test_heavy_traffic_saturates():
    # far above capacity the server never idles: throughput -> mu
    assert mm1k_throughput(500.0, 10.0, 3) == pytest.approx(10.0, rel=1e-3)
    assert mm1k_blocking(500.0, 10.0, 3) > 0.9


def test_ontime_monotone_in_lead_time_and_load():
    ls = np.linspace(0.0, 1.5, 40)
    for K in (1, 3, 10):
        vals = mm1k_ontime_prob(5.0, 10.0, K, ls)
        assert np.all(np.diff(vals) >= -1e-14)
        assert vals[0] == 0.0
    lams = np.linspace(0.1, 30.0, 60)
    for K in (2, 10):
        vals = mm1k_ontime_prob(lams, 10.0, K, 0.4)
        assert np.all(np.diff(vals) <= 1e-14)


def test_ontime_limits():
    assert mm1k_ontime_prob(5.0, 10.0, 4, 0.0) == 0.0
    assert mm1k_ontime_prob(5.0, 10.0, 4, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_zero_arrival_rate():
    assert mm1k_blocking(0.0, 10.0, 3) == 0.0
    assert mm1k_mean_number(0.0, 10.0, 3) == 0.0
    assert mm1k_throughput(0.0, 10.0, 3) == 0.0
    # an arrival to an empty system just faces its own service time
    assert mm1k_ontime_prob(0.0, 10.0, 3, 0.2) == pytest.approx(1 - math.exp(-2.0), rel=1e-14)
    with pytest.raises(ValueError):
        mm1k_mean_sojourn(0.0, 10.0, 3)


def test_subnormal_arrival_rate_raises_no_warning():
    # at rho = 5e-324, 1/rho overflows; blocking underflows to 0, so every
    # arrival is admitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = mm1k_blocking(5e-324, 1.0, 3)
        through = mm1k_throughput(5e-324, 1.0, 3)
        blocks = mm1k_blocking(np.array([5e-324, 5.0]), 1.0, 3)
    assert block == 0.0 and through == 5e-324
    assert blocks[0] == 0.0 and blocks[1] == mm1k_blocking(5.0, 1.0, 3)

def test_vectorized_matches_scalar():
    # numpy routes 0-d pow through libm but arrays through its simd kernel,
    # which may round the last ulp differently, hence rel and not ==
    lams = np.array([0.0, 2.0, 9.999999999, 10.0, 17.5])
    for K in (1, 4, 37):
        blocks = mm1k_blocking(lams, 10.0, K)
        numbers = mm1k_mean_number(lams, 10.0, K)
        ontimes = mm1k_ontime_prob(lams, 10.0, K, 0.35)
        for i, lam in enumerate(lams):
            assert blocks[i] == pytest.approx(mm1k_blocking(float(lam), 10.0, K), rel=5e-16, abs=0.0)
            assert numbers[i] == pytest.approx(mm1k_mean_number(float(lam), 10.0, K), rel=5e-16, abs=0.0)
            assert ontimes[i] == pytest.approx(mm1k_ontime_prob(float(lam), 10.0, K, 0.35), rel=5e-16, abs=0.0)


def test_broadcasting_column_against_row():
    lams = np.linspace(0.5, 20.0, 7)[:, None]
    leads = np.linspace(0.01, 1.0, 5)[None, :]
    grid = mm1k_ontime_prob(lams, 10.0, 6, leads)
    assert grid.shape == (7, 5)
    assert grid[3, 2] == mm1k_ontime_prob(float(lams[3, 0]), 10.0, 6, float(leads[0, 2]))


def test_large_buffer_stays_finite():
    # no Erlang term may overflow at K = 500
    for lam in (1.0, 10.0, 40.0):
        b = mm1k_blocking(lam, 10.0, 500)
        v = mm1k_ontime_prob(lam, 10.0, 500, 2.0)
        assert 0.0 <= b <= 1.0 and np.isfinite(b)
        assert 0.0 <= v <= 1.0 and np.isfinite(v)


def test_mm1_ontime():
    assert mm1_ontime_prob(5.0, 10.0, 0.3) == pytest.approx(1 - math.exp(-1.5), rel=1e-14)
    with pytest.raises(ValueError):
        mm1_ontime_prob(10.0, 10.0, 0.3)


@pytest.mark.parametrize("lam", [0.5, 5.0, 9.0, 9.999])
@pytest.mark.parametrize("l", [1e-15, 1e-12, 1e-8, 1e-4, 0.3, 5.0])
def test_mm1_ontime_matches_mpmath(lam, l):
    # 1 - exp(-x) loses its digits as x -> 0: at mu - lam = 1, l = 1e-12 it
    # is 2.2e-5 off.  The roundings of mu - lam and of the product move x
    # by at most eps relative, which moves 1 - exp(-x) by at most as much,
    # and expm1 adds under an ulp: 4 ulps in all.
    import mpmath

    with mpmath.workdps(50):
        want = float(-mpmath.expm1(-(10 - mpmath.mpf(lam)) * mpmath.mpf(l)))
    assert abs(mm1_ontime_prob(lam, 10.0, l) - want) <= 4 * np.spacing(want)


def test_input_validation():
    with pytest.raises(ValueError):
        mm1k_blocking(-1.0, 10.0, 2)
    with pytest.raises(ValueError):
        mm1k_blocking(5.0, 0.0, 2)
    with pytest.raises(ValueError):
        mm1k_blocking(5.0, 10.0, 0)
    with pytest.raises(ValueError):
        mm1k_ontime_prob(5.0, 10.0, 2, -0.1)
    with pytest.raises(ValueError, match="lead time"):
        mm1_ontime_prob(5.0, 10.0, -1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_raise(bad):
    # each used to return nan or a plausible number, e.g. a blocking
    # probability of 0 at mu = inf
    for kernel in (mm1k_blocking, mm1k_mean_number):
        with pytest.raises(ValueError, match="finite"):
            kernel(bad, 10.0, 3)
        with pytest.raises(ValueError, match="finite"):
            kernel(np.array([5.0, bad]), 10.0, 3)
        with pytest.raises(ValueError, match="finite"):
            kernel(5.0, bad, 3)
    with pytest.raises(ValueError, match="finite"):
        mm1k_ontime_prob(bad, 10.0, 3, 0.3)
    with pytest.raises(ValueError, match="finite"):
        mm1k_ontime_prob(5.0, bad, 3, 0.3)
    with pytest.raises(ValueError, match="finite"):
        mm1k_ontime_prob(5.0, 10.0, 3, bad)
    with pytest.raises(ValueError, match="finite"):
        mm1k_ontime_prob(5.0, 10.0, 3, np.array([0.3, bad]), log_density=True)
    for args in ((bad, 10.0, 0.3), (5.0, bad, 0.3), (5.0, 10.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            mm1_ontime_prob(*args)


@pytest.mark.parametrize("K", [1, 2, 5, 200])
def test_per_rate_terms_give_the_same_answer_bit_for_bit(K):
    # Rates across rho = 1 (the term-by-term rows), at 0, and deep in
    # overload with a long quote (the log-space rows); a column subset of
    # the terms goes with the same subset of rates.
    lam = np.array([0.0, 3.0, 9.99999, 10.0, 10.00001, 14.0, 80.0])
    lead = np.array([0.3, 0.0, 0.5, 0.2, 1.0, 0.7, 40.0])
    terms = queueing.mm1k_rate_terms(lam, 10.0, K)
    for log_density in (False, True):
        want = mm1k_ontime_prob(lam, 10.0, K, lead, log_density=log_density)
        got = mm1k_ontime_prob(lam, 10.0, K, lead, log_density=log_density, rates=terms)
        rows = np.array([1, 4, 6])
        sub = mm1k_ontime_prob(lam[rows], 10.0, K, lead[rows], log_density=log_density,
                               rates=terms.take(rows, axis=1))
        for w, g, s in zip(*(np.atleast_2d(v) for v in (want, got, sub))):
            assert w.tobytes() == g.tobytes()
            assert w[rows].tobytes() == s.tobytes()


def test_per_rate_terms_still_check_their_inputs():
    terms = queueing.mm1k_rate_terms(np.array([3.0, 12.0]), 10.0, 4)
    with pytest.raises(ValueError, match="rates hold"):
        mm1k_ontime_prob(np.array([3.0]), 10.0, 4, np.array([0.3]), rates=terms)
    with pytest.raises(ValueError, match="lambda"):
        mm1k_ontime_prob(np.array([3.0, -1.0]), 10.0, 4, np.array([0.3, 0.3]), rates=terms)
    with pytest.raises(ValueError, match="lead time"):
        mm1k_ontime_prob(np.array([3.0, 12.0]), 10.0, 4, np.array([0.3, -0.3]), rates=terms)
    with pytest.raises(ValueError, match="finite"):
        queueing.mm1k_rate_terms(np.array([3.0, math.nan]), 10.0, 4)


def _gammainc_ontime(lam, mu, K, l):
    """P(W <= l) as sum_k w_k gammainc(k+1, mu l), w_k proportional to rho^k,
    with the weights normalized in log space."""
    from scipy.special import gammainc

    k = np.arange(K)
    log_w = k * math.log(lam / mu)
    w = np.exp(log_w - log_w.max())
    return float(np.sum(w / w.sum() * gammainc(k + 1, mu * l)))


@pytest.mark.parametrize("K", [500, 1000, 2000])
@pytest.mark.parametrize("lam,l", [(20.0, 100.0), (20.0, 210.0), (7.0, 80.0), (12.0, 2.0), (70.0, 20.0)])
def test_ontime_large_buffer_matches_gammainc(K, lam, l):
    # mu*l beyond ~745 underflows exp(-mu l), and (K-1) ln rho beyond ~708
    # underflows the first weight at rho > 1; neither may leak into the sum
    want = _gammainc_ontime(lam, 10.0, K, l)
    assert mm1k_ontime_prob(lam, 10.0, K, l) == pytest.approx(want, abs=1e-11)


def test_ontime_large_buffer_probes():
    assert mm1k_ontime_prob(20.0, 10.0, 1000, 100.0) == pytest.approx(0.5167947514296165, abs=1e-12)
    assert mm1k_ontime_prob(20.0, 10.0, 2000, 210.0) == pytest.approx(0.9870732381109656, abs=1e-12)
    # rows that need the rescaled product and rows that do not, in one call
    got = mm1k_ontime_prob(np.array([5.0, 20.0]), 10.0, 2000, np.array([0.3, 210.0]))
    assert got[0] == pytest.approx(mm1k_ontime_prob(5.0, 10.0, 2000, 0.3), abs=1e-15)
    assert got[1] == pytest.approx(0.9870732381109656, abs=1e-12)


def test_cancelling_rows_sum_in_chunks():
    # at rho = 1 every row is summed term by term, a bounded number of
    # rows at a time; a long call must match one call per row
    leads = np.linspace(1.0, 300.0, 70)
    got = mm1k_ontime_prob(10.0, 10.0, 2000, leads)
    want = [mm1k_ontime_prob(10.0, 10.0, 2000, float(l)) for l in leads]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("K", [1, 4, 30, 200, 2000])
@pytest.mark.parametrize("lam", [0.0, 4.0, 10.0, 23.0, 45.0, 70.0])
def test_log_density_matches_differences(K, lam):
    # The long leads put rho > 1 rows where e^((rho-1) mu l) overflows
    # while Q(K, rho mu l) underflows: mu l in [180, 378] at K = 200, ten
    # times that at K = 2000.
    leads = np.concatenate([[0.05, 0.4, 1.7, 3.5], np.array([18.0, 27.0, 37.8]) * max(1, K // 200)])
    ontime, log_g, slope = mm1k_ontime_prob(lam, 10.0, K, leads, log_density=True)
    assert np.array_equal(ontime, mm1k_ontime_prob(lam, 10.0, K, leads))
    assert np.isfinite(ontime).all() and np.isfinite(log_g).all() and np.isfinite(slope).all()
    h = 1e-6
    up = mm1k_ontime_prob(lam, 10.0, K, leads + h, log_density=True)
    down = mm1k_ontime_prob(lam, 10.0, K, leads - h, log_density=True)
    density = (up[0] - down[0]) / (2 * h)
    keep = density > 1e-6
    assert np.allclose(np.exp(log_g[keep]), density[keep], rtol=1e-5)
    assert np.allclose(slope, (up[1] - down[1]) / (2 * h), rtol=1e-5, atol=1e-5)


def test_log_density_closed_form_at_single_slot():
    _, log_g, slope = mm1k_ontime_prob(3.0, 10.0, 1, 0.7, log_density=True)
    assert log_g == pytest.approx(math.log(10.0) - 7.0, rel=1e-14)
    assert slope == pytest.approx(-10.0, rel=1e-14)


@pytest.mark.parametrize("K", [2, 5, 20])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0])
def test_density_at_zero_is_the_admitted_idle_probability(K, rho):
    # g(0)/mu = h e^-m, the per-rate terms the quote search's first step
    # reads, is w_0 = pi_0/(1 - pi_K): the chance that an admitted job finds
    # the server idle, here from the balance equations.
    mu = 10.0
    _, log_g, _ = mm1k_ontime_prob(rho * mu, mu, K, 0.0, log_density=True)
    pi = birth_death_stationary(rho * mu, mu, K)
    assert math.exp(log_g) / mu == pytest.approx(pi[0] / (1.0 - pi[K]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("K", [1, 5, 200])
@pytest.mark.parametrize("gap", [-1e-3, -1e-6, -1e-7, -1e-8, -2e-9, 2e-9, 1e-8, 1e-7, 1e-6, 1e-3])
def test_mean_number_near_critical_load_matches_mpmath(K, gap):
    # rho/(1-rho) - (K+1) rho^(K+1)/(1-rho^(K+1)) subtracts two terms of
    # size 1/|rho-1|, which leaves no correct digit within ~1e-8 of rho = 1;
    # the blocking probability's 1 - rho and 1 - rho^(K+1) cancel there too.
    # Its bound is 4 ulps at the rho = lam/mu it computes: its roundings
    # (t, (K+1)t, two expm1 and a quotient) cost up to 2.3 ulps.
    import mpmath

    lam = 10.0 * (1.0 + gap)
    with mpmath.workdps(50):
        rho = mpmath.mpf(lam) / 10
        want = sum(k * rho**k for k in range(K + 1)) / sum(rho**k for k in range(K + 1))
        assert abs(mm1k_mean_number(lam, 10.0, K) - want) <= 1e-12 * want
        weights = [mpmath.mpf(lam / 10.0) ** k for k in range(K + 1)]
        block = weights[K] / sum(weights)
        assert abs(mm1k_blocking(lam, 10.0, K) - block) <= 4 * np.spacing(float(block))


def _mpmath_late(rho, K, x):
    """Late mass sum_(j<K) pi_j(x) (rho^j - rho^K)/(1 - rho^K) at 60 digits,
    with pi_j the Poisson(x) pmf; (K-j)/K in place of the ratio at rho = 1."""
    import mpmath

    with mpmath.workdps(60):
        rho, x = mpmath.mpf(rho), mpmath.mpf(x)
        pi, rho_j, rho_K, total = mpmath.exp(-x), mpmath.mpf(1), rho**K, mpmath.mpf(0)
        for j in range(K):
            if j:
                pi, rho_j = pi * x / j, rho_j * rho
            total += pi * ((rho_j - rho_K) if rho != 1 else K - j)
        return total / ((1 - rho_K) if rho != 1 else K)


# (rho, K, x) of the benchmark's large-K on-time probes (lambda = 20,
# mu = 10), and of K = 5000 next to rho = 1 and in log space.
_LATE_EXAMPLES = {"probe-K1000": (2.0, 1000, 1000.0), "probe-K2000": (2.0, 2000, 2100.0),
                  "K5000-near-one": (1.0 + 1e-9, 5000, 5000.0), "K5000-deep": (3.0, 5000, 5500.0)}


def _late_case(region, rng):
    """(rho, K, x): rho within 1e-9..1e-3 of 1, the K = 200 region where the
    unscaled closed form overflows, a wide box, or lambda = 0; K up to 5000."""
    if region in _LATE_EXAMPLES:
        return _LATE_EXAMPLES[region]
    if region == "overflow":
        return rng.uniform(1.0, 7.0), 200, rng.uniform(180.0, 378.0)
    K = int(np.exp(rng.uniform(0.0, np.log(5000.0))))
    x = np.exp(rng.uniform(np.log(1e-3), np.log(3.0 * K + 50.0)))
    if region == "near-one":
        return 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -3.0), K, x
    if region == "idle":
        return 0.0, K, x
    return np.exp(rng.uniform(np.log(0.01), np.log(10.0))), K, x


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),  # near-one and wide are drawn twice as often
       region=st.sampled_from(["near-one", "near-one", "overflow", "wide", "wide", "idle"]))
@example(seed=0, region="probe-K1000")
@example(seed=0, region="probe-K2000")
@example(seed=0, region="K5000-near-one")
@example(seed=0, region="K5000-deep")
def test_late_mass_matches_mpmath(seed, region):
    """The bound stated in _late_mass, _KAPPA_MAX * 4 eps S relative with
    _KAPPA_MAX = 32 and S = 1 + x + y + |s| + K (ln(1+x) + ln(1+y)) + ln Gamma(K),
    wherever the late mass is a normal number."""
    rho, K, x = _late_case(region, np.random.default_rng(seed))
    y = rho * x
    s = K * math.log(rho) if rho > 0 else 0.0
    size = 1 + x + y + abs(s) + K * (math.log1p(x) + math.log1p(y)) + math.lgamma(K)
    tol = 32 * 4 * np.finfo(float).eps * size
    got = queueing._late_mass(queueing._rate_terms(np.array([rho]), K), np.array([x]), K)[0][0]
    want = _mpmath_late(rho, K, x)
    if want > 1e-300:
        assert abs(got - want) <= tol * want
    else:
        assert 0.0 <= got <= 1e-300
