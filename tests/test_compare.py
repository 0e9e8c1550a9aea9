"""Gain tables: arithmetic, layout, serialization, and the parallel path."""

import json

import pytest

from leadquote import GainTable, MarketParams, relative_gain, sweep

BASE = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95, F=2.0, c=10.0, K=1)


def test_relative_gain_arithmetic():
    assert relative_gain(1.5, 1.0) == pytest.approx(50.0)
    assert relative_gain(0.5, 1.0) == pytest.approx(-50.0)
    assert relative_gain(2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        relative_gain(1.0, 0.0)
    with pytest.raises(ValueError):
        relative_gain(1.0, -0.2)


@pytest.fixture(scope="module")
def small_table():
    return sweep(BASE, a_values=[40.0, 30.0], b2_values=[5.0, 20.0], costs_on=False)


def test_sweep_orders_axes(small_table):
    assert small_table.a_values == [30.0, 40.0]
    assert small_table.b2_values == [20.0, 5.0]
    assert len(small_table.gains) == 2 and len(small_table.gains[0]) == 2


def test_sweep_anchor_cell(small_table):
    # the (a=30, b2=20) no-costs cell is the headline comparison
    assert small_table.cell(30.0, 20.0) == pytest.approx(40.869, abs=0.005)


def test_cells_match_standalone_solves(small_table):
    from leadquote import solve_mm11_no_costs, solve_mm1_baseline

    params = BASE.with_updates(a=40.0, b2=5.0)
    rej = solve_mm11_no_costs(params)
    acc = solve_mm1_baseline(params, costs_on=False)
    want = relative_gain(rej.profit, acc.profit)
    assert small_table.cell(40.0, 5.0) == pytest.approx(want, rel=1e-12)


def test_csv_layout(small_table):
    text = small_table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "b2,30,40"
    assert lines[1].startswith("20,")
    assert lines[2].startswith("5,")
    first_cell = lines[1].split(",")[1]
    float(first_cell)  # two-decimal number, not a marker
    assert first_cell == f"{small_table.cell(30.0, 20.0):.2f}"


def test_infeasible_cells_serialize_as_na():
    # huge b2 wipes out the market for any positive quote
    table = sweep(BASE, a_values=[30.0], b2_values=[1000.0], costs_on=False)
    assert table.gains[0][0] is None
    assert table.positive_cells() == 0
    assert "n/a" in table.to_csv()
    payload = json.loads(table.to_json())
    assert payload["gains"][0][0] is None


def test_json_round_trip_structure(small_table):
    payload = json.loads(small_table.to_json())
    assert payload["a_values"] == [30.0, 40.0]
    assert payload["b2_values"] == [20.0, 5.0]
    assert len(payload["cells"]) == 4
    cell = payload["cells"][0]
    assert cell["a"] == 30.0 and cell["b2"] == 20.0
    assert cell["reject"]["policy"]["lambda"] > 0
    assert payload["costs_on"] is False


def test_positive_cells_counts_only_strict_gains(small_table):
    wins = small_table.positive_cells()
    explicit = sum(
        1 for row in small_table.gains for g in row if g is not None and g > 0
    )
    assert wins == explicit


def test_parallel_matches_serial():
    serial = sweep(BASE, a_values=[30.0, 50.0], b2_values=[10.0, 20.0], costs_on=True, jobs=1)
    parallel = sweep(BASE, a_values=[30.0, 50.0], b2_values=[10.0, 20.0], costs_on=True, jobs=2)
    assert serial.gains == parallel.gains
    assert serial.to_csv() == parallel.to_csv()


PUBLISHED_A = [30.0, 40.0, 50.0, 60.0, 70.0]
PUBLISHED_B2 = [float(v) for v in range(5, 21)]


@pytest.mark.parametrize("costs_on,s", [(False, 0.95), (True, 0.95), (True, 0.5)])
def test_baseline_branch_matches_single_slot(costs_on, s):
    # Both systems pin their quote at ln(x)/rate with the same
    # x = max{1/(1-s), b1 c/b2}, so the branch agrees cell by cell.  The
    # published grids (s = 0.95) are service-binding throughout; at s = 0.5
    # every b2 < 20 is penalty-binding and b2 = 20 is the tie s_c = s.
    table = sweep(BASE.with_updates(s=s), PUBLISHED_A, PUBLISHED_B2, costs_on=costs_on)
    branches = [(rej.branch, acc.branch)
                for rej_row, acc_row in zip(table.reject, table.accept)
                for rej, acc in zip(rej_row, acc_row)]
    assert all(rej == acc for rej, acc in branches)
    if s == 0.5:
        assert sum(acc == "penalty-binding" for _, acc in branches) == 75


def test_tightest_published_costed_cell():
    # a=40, b2=5 with costs is published as -13.35; a search that stops
    # refining once a round finds no better rate reads -13.344998 here
    table = sweep(BASE, a_values=[40.0], b2_values=[5.0], costs_on=True)
    assert table.cell(40.0, 5.0) == pytest.approx(-13.35, abs=0.005)
