"""Market primitives: parameter bundle and linear demand law.

Demand is linear in price and quoted lead time, lambda = a - b1*p - b2*l,
truncated at zero.  Throughout the package the demand constraint is taken
to bind at the optimum, so the price that clears a target rate lambda at
quote l is p = (a - b2*l - lambda)/b1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

# A price may undershoot zero by this much before it counts as negative.
FEASIBILITY_SLACK = 1e-12


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


def _require_nonnegative(**values: float) -> None:
    _require_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


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
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            # A plain float or int (not bool) skips the slow ABC check.
            if type(value) not in (float, int) and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
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
        """z = ln(1/(1-s)), the least rate*l at which an exponential sojourn
        meets the service level: the single-slot quote is z/mu, the
        accept-all one z/(mu - lambda).  The package's one definition, as
        -log1p(-s), right to an ulp at any s; taken from 0.0, so s = 0 gives +0.0."""
        return 0.0 - math.log1p(-self.s)

    def with_updates(self, **changes) -> "MarketParams":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MarketParams":
        return cls(**{f: d[f] for f in MARKET_FIELDS if f in d})


# The field names, once (a sweep builds a market per cell): config keys and
# CLI flags, and the real-valued ones that __post_init__ checks.
MARKET_FIELDS = tuple(f.name for f in fields(MarketParams))
_REAL_FIELDS = tuple(name for name in MARKET_FIELDS if name != "K")


@dataclass(frozen=True)
class Policy:
    """A firm decision: posted price, quoted lead time, induced demand rate.
    Raises ValueError unless every field is finite and l, lam >= 0."""

    p: float
    l: float
    lam: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.p, self.l, self.lam)):
            raise ValueError(f"policy fields must be finite numbers, got {self}")
        if self.l < 0:
            raise ValueError(f"policy lead time l must be >= 0, got {self.l}")
        if self.lam < 0:
            raise ValueError(f"policy demand rate lam must be >= 0, got {self.lam}")

    def to_dict(self) -> dict:
        return {"p": self.p, "l": self.l, "lambda": self.lam}


def expected_demand(p: float, l: float, params: MarketParams) -> float:
    """Demand rate at price p and quote l, truncated at zero.  Raises
    ValueError unless p and l are finite and nonnegative."""
    _require_nonnegative(p=p, l=l)
    return max(0.0, params.a - params.b1 * p - params.b2 * l)


def inverse_price(lam: float, l: float, params: MarketParams) -> float:
    """Price at which demand equals lam given quote l (demand constraint binding).

    Raises ValueError unless lam is finite and l finite and nonnegative,
    or if the implied price is negative beyond tolerance, i.e.
    lam > a - b2*l.
    """
    _require_finite(lam=lam)
    _require_nonnegative(l=l)
    p = (params.a - params.b2 * l - lam) / params.b1
    if p < -FEASIBILITY_SLACK:
        raise ValueError(
            f"infeasible price: rate {lam} exceeds demand potential at quote {l}"
        )
    return max(p, 0.0)
