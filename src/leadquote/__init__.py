"""Optimal price and lead-time quotation for a make-to-order firm.

A single server quotes a price and a lead time to lead-time- and
price-sensitive customers (linear demand), subject to a service-level
constraint on on-time delivery.  The firm may hold a finite buffer of K
orders and reject the rest; the package solves that system (closed forms
for K = 1, numerically for general K), solves the accept-all M/M/1
benchmark, quantifies when rejection beats acceptance, and checks the
analytics against simulation.
"""

from .market import (
    FEASIBILITY_SLACK,
    MarketParams,
    Policy,
    expected_demand,
    inverse_price,
)
from .queueing import (
    mm1_ontime_prob,
    mm1k_blocking,
    mm1k_mean_number,
    mm1k_mean_sojourn,
    mm1k_ontime_prob,
    mm1k_throughput,
)
from .closed_form import (
    PENALTY_BINDING,
    SERVICE_BINDING,
    Solution,
    critical_service_level,
    feasible_no_costs,
    feasible_with_costs,
    mm11_profit,
    solve_mm11_no_costs,
    solve_mm11_with_costs,
)
from .numeric import (
    brute_force_oracle,
    brute_force_oracles,
    min_leadtime_for_service,
    mm1_profit,
    mm1k_profit,
    solve_mm1_baseline,
    solve_mm1k_numeric,
)
from .compare import GainTable, relative_gain, sweep
from .simulate import Estimate, MetricCheck, SimReport, ValidationVerdict, simulate, validate
from .certify import (
    PropertyResult,
    birth_death_stationary,
    erlang_ontime_oracle,
    random_feasible_params,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "FEASIBILITY_SLACK",
    "MarketParams",
    "Policy",
    "expected_demand",
    "inverse_price",
    "mm1_ontime_prob",
    "mm1k_blocking",
    "mm1k_mean_number",
    "mm1k_mean_sojourn",
    "mm1k_ontime_prob",
    "mm1k_throughput",
    "PENALTY_BINDING",
    "SERVICE_BINDING",
    "Solution",
    "critical_service_level",
    "feasible_no_costs",
    "feasible_with_costs",
    "mm11_profit",
    "solve_mm11_no_costs",
    "solve_mm11_with_costs",
    "brute_force_oracle",
    "brute_force_oracles",
    "min_leadtime_for_service",
    "mm1_profit",
    "mm1k_profit",
    "solve_mm1_baseline",
    "solve_mm1k_numeric",
    "GainTable",
    "relative_gain",
    "sweep",
    "Estimate",
    "MetricCheck",
    "SimReport",
    "ValidationVerdict",
    "simulate",
    "validate",
    "PropertyResult",
    "birth_death_stationary",
    "erlang_ontime_oracle",
    "random_feasible_params",
    "run_all_checks",
    "__version__",
]
