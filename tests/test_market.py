"""Demand law, parameter validation, and feasibility gates."""

import json
import math

import pytest

from leadquote import (
    MarketParams,
    Policy,
    expected_demand,
    feasible_no_costs,
    feasible_with_costs,
    inverse_price,
)

BASE = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)


def test_expected_demand_linear_form():
    # direct arithmetic: 30 - 4*5.5432 - 20*0.29957
    want = 30.0 - 4.0 * 5.5432 - 20.0 * 0.29957
    assert expected_demand(5.5432, 0.29957, BASE) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(1.8357, abs=5e-4)


def test_expected_demand_clamps_at_zero():
    assert expected_demand(100.0, 0.0, BASE) == 0.0
    assert expected_demand(7.5, 0.0, BASE) == 0.0  # exactly on the boundary


def test_inverse_price_roundtrip():
    for lam in (0.0, 0.5, 1.8357, 5.0):
        for l in (0.0, 0.3, 0.8):
            p = inverse_price(lam, l, BASE)
            assert expected_demand(p, l, BASE) == pytest.approx(lam, abs=1e-10)


def test_inverse_price_rejects_excess_demand():
    # lam beyond a - b2*l means a negative price
    with pytest.raises(ValueError):
        inverse_price(25.0, 0.3, BASE)


def test_inverse_price_boundary_is_zero():
    l = 0.3
    lam = BASE.a - BASE.b2 * l
    assert inverse_price(lam, l, BASE) == 0.0


def test_z_is_log_reciprocal_tail():
    assert BASE.z == pytest.approx(math.log(20.0), rel=1e-15)
    assert MarketParams(a=1, b1=1, b2=0, mu=1, s=0.0).z == 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("a", 0.0), ("a", -3.0),
        ("b1", 0.0), ("b1", -1.0),
        ("b2", -0.5),
        ("mu", 0.0),
        ("m", -1.0),
        ("s", 1.0), ("s", -0.1), ("s", 1.5),
        ("F", -2.0),
        ("c", -1.0),
        ("K", 0),
        ("b2", math.nan), ("m", math.nan), ("c", math.nan),
        ("F", math.inf), ("a", math.inf), ("mu", -math.inf),
        ("K", True), ("K", 2.5),
        ("a", "30"), ("c", None), ("s", True),
    ],
)
def test_params_validation(field, value):
    kwargs = BASE.to_dict()
    kwargs[field] = value
    with pytest.raises(ValueError):
        MarketParams(**kwargs)


def test_from_dict_keeps_boolean_capacity_rejectable():
    kwargs = BASE.to_dict()
    kwargs["K"] = True
    with pytest.raises(ValueError):
        MarketParams.from_dict(kwargs)


def test_params_json_roundtrip():
    text = BASE.to_json()
    assert MarketParams.from_json(text) == BASE
    # field names in the serialized form are the documented ones
    keys = set(json.loads(text))
    assert keys == {"a", "b1", "b2", "mu", "m", "s", "F", "c", "K"}


def test_policy_roundtrip():
    pol = Policy(p=5.54, l=0.3, lam=1.83)
    assert Policy.from_dict(pol.to_dict()) == pol
    assert pol.to_dict()["lambda"] == 1.83


def test_feasible_no_costs_base_case():
    # best margin price (a*mu - b2*z)/(mu*b1) = 6.002 covers m = 5
    assert feasible_no_costs(BASE)
    best = (BASE.a * BASE.mu - BASE.b2 * BASE.z) / (BASE.mu * BASE.b1)
    assert best == pytest.approx(6.0021, abs=5e-5)
    assert not feasible_no_costs(BASE.with_updates(m=7.0))
    # boundary: m exactly at the threshold stays feasible
    assert feasible_no_costs(BASE.with_updates(m=best))


def test_feasible_with_costs_example_margin():
    # frozen from direct evaluation: a*mu - mu*b2*l - mu*m*b1 - F*b1 - c*b1*e^(-mu*l)
    params = BASE.with_updates(a=50.0, b2=10.0)
    l = 0.29957
    margin = (
        params.a * params.mu
        - params.mu * params.b2 * l
        - params.mu * params.m * params.b1
        - params.F * params.b1
        - params.c * params.b1 * math.exp(-params.mu * l)
    )
    assert margin == pytest.approx(260.0427, abs=5e-3)
    assert margin > 0
    assert feasible_with_costs(params, l)


def test_feasible_with_costs_fails_when_margin_negative():
    assert not feasible_with_costs(BASE.with_updates(m=7.2), 0.3)
    with pytest.raises(ValueError):
        feasible_with_costs(BASE, -0.1)


def test_with_updates_returns_new_instance():
    other = BASE.with_updates(a=50.0)
    assert other.a == 50.0 and BASE.a == 30.0
