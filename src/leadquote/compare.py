"""Rejection-vs-acceptance comparison: relative profit gains over (a, b2) grids.

For each cell the single-slot rejection system is solved in closed form and
the accept-all M/M/1 benchmark numerically, under the same market
parameters; the headline number is the relative profit gain in percent.
Tables are laid out rows = b2 descending, columns = a ascending.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .closed_form import solve_mm11_no_costs, solve_mm11_with_costs
from .market import MarketParams
from .numeric import solve_mm1_baseline


def relative_gain(profit_reject: float, profit_accept: float) -> float:
    """Percent change (reject - accept)/accept * 100.  Needs accept > 0."""
    if profit_accept <= 0:
        raise ValueError("relative gain undefined for a nonpositive benchmark profit")
    return 100.0 * (profit_reject - profit_accept) / profit_accept


@dataclass
class GainTable:
    """Grid of relative gains plus the per-cell solutions behind them.

    gains[i][j] corresponds to (b2_values[i], a_values[j]); None marks a
    cell where either side was infeasible or the benchmark made no profit.
    """

    a_values: list
    b2_values: list
    gains: list
    reject: list
    accept: list
    base: MarketParams
    costs_on: bool
    notes: dict = field(default_factory=dict)

    def cell(self, a: float, b2: float):
        i = self.b2_values.index(b2)
        j = self.a_values.index(a)
        return self.gains[i][j]

    def positive_cells(self) -> int:
        return sum(1 for row in self.gains for g in row if g is not None and g > 0)

    def to_csv(self) -> str:
        def num(x):
            return f"{x:g}"

        lines = ["b2," + ",".join(num(a) for a in self.a_values)]
        for b2, row in zip(self.b2_values, self.gains):
            cells = ["n/a" if g is None else f"{g:.2f}" for g in row]
            lines.append(num(b2) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        cells = []
        for i, b2 in enumerate(self.b2_values):
            for j, a in enumerate(self.a_values):
                cells.append(
                    {
                        "a": a,
                        "b2": b2,
                        "gain_percent": self.gains[i][j],
                        "reject": self.reject[i][j].to_dict(),
                        "accept": self.accept[i][j].to_dict(),
                    }
                )
        return {
            "base": self.base.to_dict(),
            "costs_on": self.costs_on,
            "a_values": list(self.a_values),
            "b2_values": list(self.b2_values),
            "gains": [list(r) for r in self.gains],
            "cells": cells,
            "notes": dict(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def sweep(base: MarketParams, a_values, b2_values, costs_on: bool, jobs: int = 1) -> GainTable:
    """Solve both systems on the (a, b2) grid and tabulate relative gains.

    Cells always run one after another in this process; jobs is accepted
    for callers that pass it and changes nothing.
    """
    a_sorted = sorted(float(a) for a in a_values)
    b2_sorted = sorted((float(b) for b in b2_values), reverse=True)
    gains, rej_rows, acc_rows = [], [], []
    for b2 in b2_sorted:
        g_row, r_row, a_row = [], [], []
        for a in a_sorted:
            params = base.with_updates(a=a, b2=b2, K=1)
            rej = solve_mm11_with_costs(params) if costs_on else solve_mm11_no_costs(params)
            acc = solve_mm1_baseline(params, costs_on=costs_on)
            if rej.feasible and acc.feasible and acc.profit > 0:
                g_row.append(relative_gain(rej.profit, acc.profit))
            else:
                g_row.append(None)
            r_row.append(rej)
            a_row.append(acc)
        gains.append(g_row)
        rej_rows.append(r_row)
        acc_rows.append(a_row)
    return GainTable(
        a_values=a_sorted,
        b2_values=b2_sorted,
        gains=gains,
        reject=rej_rows,
        accept=acc_rows,
        base=base,
        costs_on=costs_on,
    )
