"""Negative controls for the benchmark's checks: a wrong reference or
perturbed parameters must count as a failed output, so that a failure can
never be counted as a success.  Run with `python -m pytest bench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from leadquote import Policy, numeric  # noqa: E402

BASE_K1 = workloads.BASE


def _failed(outcomes):
    return [o.output for o in outcomes if not o.ok]


def test_gain_check_flags_a_wrong_published_cell():
    wl = workloads.GainTables(seed=0)
    table = workloads.compare.sweep(workloads.BASE, wl.a_values, wl.b2_values,
                                    costs_on=False, jobs=1)
    assert _failed(wl.check(table, costs_on=False)) == []
    wl.tables = {False: [row[:] for row in wl.tables[False]]}
    wl.tables[False][0][0] += 0.01
    assert _failed(wl.check(table, costs_on=False)) == ["costs-off a=30 b2=20"]


def test_finite_check_flags_perturbed_parameters():
    wl = workloads.FiniteBufferSolve(seed=0)
    sol = numeric.solve_mm1k_numeric(BASE_K1)
    label = "a=30 b2=20 K=1"
    assert _failed(wl.check(sol, BASE_K1, label)) == []
    outcome, = wl.check(sol, BASE_K1.with_updates(m=5.5), label)
    assert not outcome.ok
    assert "mm1k_profit" in outcome.detail and "closed form" in outcome.detail


def test_finite_check_flags_profit_below_reference():
    wl = workloads.FiniteBufferSolve(seed=0)
    sol = numeric.solve_mm1k_numeric(BASE_K1)
    label = "a=30 b2=20 K=1"
    wl.reference = {label: sol.profit * (1 + 1e-6)}
    outcome, = wl.check(sol, BASE_K1, label)
    assert not outcome.ok and "below reference" in outcome.detail


def test_simulate_check_flags_a_service_rate_five_percent_off():
    K, policy = 3, Policy(p=9.0, l=0.3, lam=5.0)
    params = BASE_K1.with_updates(K=K)
    report = workloads.sim.simulate(policy, params, horizon=1e5 / policy.lam, seed=5)
    wl = workloads.SimulateValidate(seed=0)
    right, = wl.check((report, workloads.sim.validate(report, params, policy)), "right")
    wrong, = wl.check((report, workloads.sim.validate(report, params.with_updates(mu=10.5), policy)),
                      "wrong")
    assert right.ok
    assert not wrong.ok and "p < 1e-07" in wrong.detail
    assert workloads.grade([right, wrong], known={}) == ([wrong], False)


def test_probe_references_match_an_independent_computation():
    for probe in workloads.REFERENCE["ontime_probes"]["probes"].values():
        k = np.arange(probe["K"])
        log_w = k * np.log(probe["lam"] / probe["mu"])
        w = np.exp(log_w - log_w.max())
        truth = float(np.sum(w * special.gammainc(k + 1, probe["mu"] * probe["l"])) / w.sum())
        assert truth == pytest.approx(probe["ontime"], abs=1e-12)
    probes = workloads.REFERENCE["ontime_probes"]["probes"]
    assert round(probes["probe-K1000"]["ontime"], 4) == 0.5168
    assert round(probes["probe-K2000"]["ontime"], 4) == 0.9871
    wl = workloads.CertifyBattery(seed=0)
    assert _failed(wl.check_probe(1.0, "probe-K1000", probes["probe-K1000"])) == ["probe-K1000"]


def test_known_failures_count_but_unexpected_ones_make_a_run_incorrect():
    known = {"probe-K1000": "reason"}
    listed = workloads.Outcome("probe-K1000", False, "")
    assert workloads.grade([listed], known) == ([listed], True)
    unlisted = workloads.Outcome("probe-K2000", False, "")
    assert workloads.grade([unlisted], known) == ([unlisted], False)
    raised = workloads.Outcome("probe-K1000", False, "ValueError: boom", raised=True)
    assert workloads.grade([raised], known) == ([raised], False)
    op = workloads.Op("probe-K1000", run=None, check=None)
    record = run.Record(op, 0.1, None, "Traceback\nValueError: boom")
    assert workloads.CertifyBattery(seed=0).outcomes([record]) == [raised]


def test_self_times_add_up_to_each_operation_and_wrappers_are_restored():
    before = numeric.mm1k_ontime_prob
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert numeric.mm1k_ontime_prob is not before
        for _ in range(2):
            with tracer.operation("solve"):
                numeric.solve_mm1k_numeric(BASE_K1.with_updates(K=5))
    finally:
        tracer.restore()
    assert numeric.mm1k_ontime_prob is before
    own = tracing.self_times(tracer.spans)
    assert tracing.self_time_residual(tracer.spans, own) < 1e-9
    m = tracing.layer_metrics(tracer.spans, own, 0, len(tracer.spans))
    assert m["numeric.grid.calls"] == 2 and m["numeric.quote_search.calls"] > 0
    assert m["queueing.ontime.term_steps"] == 5 * m["queueing.ontime.points"]


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "gain_tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
