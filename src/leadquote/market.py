"""Market primitives: parameter bundle, linear demand law, feasibility gates.

Demand is linear in price and quoted lead time, lambda = a - b1*p - b2*l,
truncated at zero.  Throughout the package the demand constraint is taken
to bind at the optimum, so the price that clears a target rate lambda at
quote l is p = (a - b2*l - lambda)/b1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace

# Slack for feasibility inequalities so boundary instances do not flap.
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Exogenous constants of one problem instance.

    a   market potential: demand rate at zero price and instant delivery
    b1  price sensitivity of demand (must be positive so price inversion works)
    b2  lead-time sensitivity of demand
    mu  service rate of the single server
    m   unit direct variable cost
    s   minimum service level: P(sojourn <= quoted lead time) >= s
    F   holding cost per job per unit time in system
    c   lateness penalty per job per unit time delivered past the quote
    K   capacity, jobs in system including the one in service (1 = reject
        whenever busy; K -> infinity recovers the accept-all M/M/1)
    """

    a: float
    b1: float
    b2: float
    mu: float
    m: float = 0.0
    s: float = 0.0
    F: float = 0.0
    c: float = 0.0
    K: int = 1

    def __post_init__(self) -> None:
        for name in ("a", "b1", "b2", "mu", "m", "s", "F", "c"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not self.a > 0:
            raise ValueError(f"market potential a must be positive, got {self.a}")
        if not self.b1 > 0:
            raise ValueError(f"price sensitivity b1 must be positive, got {self.b1}")
        if self.b2 < 0:
            raise ValueError(f"lead-time sensitivity b2 must be >= 0, got {self.b2}")
        if not self.mu > 0:
            raise ValueError(f"service rate mu must be positive, got {self.mu}")
        if self.m < 0:
            raise ValueError(f"unit cost m must be >= 0, got {self.m}")
        if not 0.0 <= self.s < 1.0:
            raise ValueError(f"service level s must lie in [0, 1), got {self.s}")
        if self.F < 0:
            raise ValueError(f"holding cost F must be >= 0, got {self.F}")
        if self.c < 0:
            raise ValueError(f"lateness penalty c must be >= 0, got {self.c}")
        if isinstance(self.K, bool) or not (isinstance(self.K, int) and self.K >= 1):
            raise ValueError(f"capacity K must be an integer >= 1, got {self.K}")

    @property
    def z(self) -> float:
        """ln(1/(1-s)): minimum of mu*l imposed by the service-level constraint
        when sojourn is exponential (single-slot system)."""
        return math.log(1.0 / (1.0 - self.s))

    def with_updates(self, **changes) -> "MarketParams":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MarketParams":
        return cls(**{f: d[f] for f in ("a", "b1", "b2", "mu", "m", "s", "F", "c", "K") if f in d})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MarketParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Policy:
    """A firm decision: posted price, quoted lead time, induced demand rate."""

    p: float
    l: float
    lam: float

    def to_dict(self) -> dict:
        return {"p": self.p, "l": self.l, "lambda": self.lam}

    @classmethod
    def from_dict(cls, d: dict) -> "Policy":
        return cls(p=float(d["p"]), l=float(d["l"]), lam=float(d["lambda"]))


def expected_demand(p: float, l: float, params: MarketParams) -> float:
    """Demand rate at price p and quote l, truncated at zero."""
    return max(0.0, params.a - params.b1 * p - params.b2 * l)


def inverse_price(lam: float, l: float, params: MarketParams) -> float:
    """Price at which demand equals lam given quote l (demand constraint binding).

    Raises ValueError if the implied price is negative beyond tolerance,
    i.e. lam > a - b2*l.
    """
    p = (params.a - params.b2 * l - lam) / params.b1
    if p < -FEASIBILITY_SLACK:
        raise ValueError(
            f"infeasible price: rate {lam} exceeds demand potential at quote {l}"
        )
    return max(p, 0.0)


def feasible_no_costs(params: MarketParams) -> bool:
    """Existence gate for the single-slot problem without congestion costs.

    The best attainable margin price (a*mu - b2*z)/(mu*b1) must cover the
    unit cost m.
    """
    z = params.z
    best_price = (params.a * params.mu - params.b2 * z) / (params.mu * params.b1)
    return best_price - params.m >= -FEASIBILITY_SLACK


def feasible_with_costs(params: MarketParams, l: float) -> bool:
    """Existence gate for the single-slot problem with costs, at quote l.

    Two conditions: the zero-demand price at quote l covers m, and the
    margin also covers holding plus residual lateness exposure.
    """
    if l < 0:
        raise ValueError(f"quoted lead time must be >= 0, got {l}")
    a, b1, b2, mu = params.a, params.b1, params.b2, params.mu
    zero_demand_price = (a - b2 * l) / b1
    margin = (
        a * mu
        - mu * b2 * l
        - mu * params.m * b1
        - params.F * b1
        - params.c * b1 * math.exp(-mu * l)
    )
    return (
        zero_demand_price - params.m >= -FEASIBILITY_SLACK
        and margin >= -FEASIBILITY_SLACK
    )
