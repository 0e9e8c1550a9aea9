"""CLI behavior: exit codes, precedence, output files, determinism.

Everything runs in-process through main(argv) so the tests see exit
codes directly; capsys/ tmp_path take care of the streams and files.
"""

import json
import sys

import pytest

from leadquote import (
    MarketParams,
    PropertyResult,
    solve_mm11_with_costs,
    solve_mm1_baseline,
    solve_mm1k_numeric,
)
from leadquote.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    entrypoint,
    main,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_default_instance(capsys):
    code, doc = run_json(capsys, ["solve", "--no-timestamp"])
    assert code == EXIT_OK
    assert doc["command"] == "solve"
    assert doc["model"] == "mm11" and doc["costs_on"] is True
    assert doc["solution"]["feasible"] is True
    assert doc["solution"]["profit"] == pytest.approx(0.493855229725, rel=1e-9)
    assert doc["solution"]["policy"]["lambda"] > 0
    assert "generated_at" not in doc


def test_solve_costs_off_matches_no_costs_form(capsys):
    code, doc = run_json(capsys, ["solve", "--costs", "off", "--no-timestamp"])
    assert code == EXIT_OK
    assert doc["solution"]["profit"] == pytest.approx(0.842509113364, rel=1e-9)


def test_solve_timestamp_present_by_default(capsys):
    code, doc = run_json(capsys, ["solve"])
    assert code == EXIT_OK
    assert "generated_at" in doc


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"a": 50.0, "b2": 10.0}))
    code, doc = run_json(capsys, ["solve", "--config", str(cfg), "--no-timestamp"])
    assert code == EXIT_OK
    assert doc["params"]["a"] == 50.0 and doc["params"]["b2"] == 10.0
    assert doc["solution"]["profit"] == pytest.approx(20.1367164544, rel=1e-9)

    code, doc = run_json(
        capsys, ["solve", "--config", str(cfg), "--a", "30", "--b2", "20", "--no-timestamp"]
    )
    assert code == EXIT_OK
    assert doc["params"]["a"] == 30.0 and doc["params"]["b2"] == 20.0


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing)]) == EXIT_CONFIG

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"a": 30.0, "price_cap": 9.0}))
    assert main(["solve", "--config", str(unknown)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "price_cap" in err


def test_invalid_parameter_exits_config(capsys):
    assert main(["solve", "--a", "-5"]) == EXIT_CONFIG
    assert main(["solve", "--s", "1.5"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["--b2", "nan"],
        ["--m", "nan"],
        ["--c", "nan"],
        ["--F", "inf"],
        ["--a", "inf"],
    ],
)
def test_non_finite_parameter_exits_config(argv, capsys):
    assert main(["solve", "--model", "mm1k", *argv]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_boolean_capacity_in_config_exits_config(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"K": True}))
    assert main(["solve", "--model", "mm1k", "--config", str(cfg)]) == EXIT_CONFIG
    assert "capacity K" in capsys.readouterr().err


@pytest.mark.parametrize("loaded,message", [({"K": 2.5}, "capacity K"),
                                             ({"a": "30"}, "real number")],
                         ids=["fractional-K", "string-a"])
def test_mistyped_config_value_exits_config(tmp_path, capsys, loaded, message):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(loaded))
    assert main(["solve", "--model", "mm1k", "--config", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == EXIT_CONFIG and message in err["error"]


def test_single_slot_model_requires_unit_buffer(capsys):
    assert main(["solve", "--model", "mm11", "--K", "3"]) == EXIT_CONFIG
    code, doc = run_json(capsys, ["solve", "--model", "mm1k", "--K", "3", "--no-timestamp"])
    assert code == EXIT_OK
    assert doc["solution"]["feasible"] is True


def test_infeasible_instance_exit_code(capsys):
    code, doc = run_json(capsys, ["solve", "--m", "7.5", "--no-timestamp"])
    assert code == EXIT_INFEASIBLE
    assert doc["solution"]["feasible"] is False


@pytest.mark.parametrize("model", ["mm11", "mm1", "mm1k"])
def test_a_market_that_sells_nothing_is_infeasible_under_every_model(capsys, model):
    # At a = 20 the best rate of every model is 0, and a solve that sells
    # nothing at a positive profit exits as infeasible
    code, doc = run_json(capsys, ["solve", "--model", model, "--a", "20", "--no-timestamp"])
    assert code == EXIT_INFEASIBLE
    assert doc["solution"]["feasible"] is False
    assert doc["solution"]["policy"]["lambda"] == 0.0


def test_no_timestamp_reruns_are_byte_identical(capsys):
    main(["solve", "--no-timestamp"])
    first = capsys.readouterr().out
    main(["solve", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_stdout_csv(capsys):
    code = main(["sweep", "--costs", "off", "--a-values", "30,40",
                 "--b2-values", "20,5", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "b2,30,40"
    assert lines[1].startswith("20,") and lines[2].startswith("5,")
    headline = float(lines[1].split(",")[1])
    assert headline == pytest.approx(40.87, abs=0.01)


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "table.out"
    code = main(["sweep", "--costs", "off", "--a-values", "30,40",
                 "--b2-values", "20,10", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    csv_text = (tmp_path / "table.csv").read_text()
    assert csv_text.startswith("b2,30,40")
    doc = json.loads((tmp_path / "table.json").read_text())
    assert doc["command"] == "sweep"
    assert doc["table"]["gains"][0][0] == pytest.approx(40.869, abs=0.005)


def test_sweep_rejects_bad_grid(capsys):
    assert main(["sweep", "--a-values", "30,oops"]) == EXIT_CONFIG
    assert main(["sweep", "--a-values", ","]) == EXIT_CONFIG
    assert main(["sweep", "--jobs", "0"]) == EXIT_CONFIG


def test_sweep_rejects_a_capacity_other_than_one(tmp_path, capsys):
    # The gain table compares the single-slot system, so a sweep at K = 3
    # would tabulate K = 1 under a base that names K = 3.
    out = tmp_path / "table"
    code = main(["sweep", "--K", "3", "--a-values", "30", "--b2-values", "20",
                 "--out", str(out), "--no-timestamp"])
    err = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_CONFIG
    assert err["error"] == "sweep compares the single-slot system; needs K = 1, got K = 3"
    assert not list(tmp_path.iterdir())


def test_out_path_in_missing_directory_is_clean_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "table"
    code = main(["sweep", "--a-values", "30", "--b2-values", "5",
                 "--out", str(target), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"].startswith("cannot write")


def test_simulate_fixed_policy(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--K", "3", "--model", "mm1k",
                 "--policy", "9.0,0.3,5.0", "--horizon", "1500",
                 "--seed", "3", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"]["ok"] is True
    assert doc["policy"] == {"p": 9.0, "l": 0.3, "lambda": 5.0}
    assert doc["report"]["n_arrivals"] > 0
    assert "solution" not in doc


def test_simulate_solves_when_policy_absent(capsys):
    code, doc = run_json(capsys, ["simulate", "--horizon", "1500", "--no-timestamp"])
    assert code == EXIT_OK
    assert doc["solution"]["feasible"] is True
    assert doc["policy"]["lambda"] == pytest.approx(doc["solution"]["policy"]["lambda"])
    assert doc["verdict"]["ok"] is True


def test_simulate_infeasible_instance(capsys):
    # a = 20 sells nothing under the finite-buffer solver, as m = 7.5 under mm11
    for argv in (["--m", "7.5"], ["--model", "mm1k", "--a", "20"]):
        code, doc = run_json(capsys, ["simulate", *argv, "--no-timestamp"])
        assert code == EXIT_INFEASIBLE
        assert "error" in doc


def test_simulate_rejects_bad_policy(capsys):
    assert main(["simulate", "--policy", "9.0,0.3"]) == EXIT_CONFIG
    assert main(["simulate", "--policy", "9.0,0.3,0.0"]) == EXIT_CONFIG
    assert main(["simulate", "--policy", "9.0,-1.0,5.0"]) == EXIT_CONFIG
    assert main(["simulate", "--horizon", "-5"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["--horizon", "nan"],
    ["--horizon", "inf"],
    ["--policy", "9,0.3,inf"],
    ["--policy", "9,nan,5"],
    ["--policy", "nan,0.3,5"],
])
def test_simulate_rejects_non_finite_inputs(capsys, argv):
    assert main(["simulate", *argv]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_validate_prints_one_line_per_check(capsys, monkeypatch):
    import leadquote.cli as cli

    def fake_checks(n_instances, resolution, seed):
        return [
            PropertyResult("first", True, "fine"),
            PropertyResult("second", True, "also fine"),
        ]

    monkeypatch.setattr(cli, "run_all_checks", fake_checks)
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS first: fine", "PASS second: also fine"]


def test_validate_failure_exit_code(capsys, monkeypatch, tmp_path):
    import leadquote.cli as cli

    def fake_checks(n_instances, resolution, seed):
        return [PropertyResult("broken", False, "mismatch 0.1")]

    monkeypatch.setattr(cli, "run_all_checks", fake_checks)
    out = tmp_path / "battery.json"
    code = main(["validate", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_VALIDATION
    assert "FAIL broken" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["ok"] is False


def test_validate_passes_at_seed_9(capsys):
    # one costed instance at this seed earns profit only in a thin region of small lambda
    assert main(["validate", "--seed", "9"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_validate_guards(capsys):
    assert main(["validate", "--instances", "0"]) == EXIT_CONFIG
    assert main(["validate", "--resolution", "50"]) == EXIT_CONFIG


def test_validate_rejects_a_resolution_above_the_cap(capsys, monkeypatch):
    import leadquote.cli as cli

    def no_battery(**_):
        raise AssertionError("the battery must not run")

    monkeypatch.setattr(cli, "run_all_checks", no_battery)
    assert main(["validate", "--resolution", "1001"]) == EXIT_CONFIG
    assert "[100, 1000]" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("costs", ["on", "off"])
@pytest.mark.parametrize("model", ["mm11", "mm1", "mm1k"])
def test_solve_runs_the_library_solver_of_each_model(capsys, model, costs):
    K = 3 if model == "mm1k" else 1
    code, doc = run_json(capsys, ["solve", "--model", model, "--costs", costs,
                                  "--F", "1.5", "--c", "8", "--K", str(K),
                                  "--no-timestamp"])
    params = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95,
                          F=1.5, c=8.0, K=K)
    costs_on = costs == "on"
    if model == "mm1":
        expected = solve_mm1_baseline(params, costs_on=costs_on)
    else:
        solve = solve_mm11_with_costs if model == "mm11" else solve_mm1k_numeric
        expected = solve(params if costs_on else params.with_updates(F=0.0, c=0.0))
    assert code == (EXIT_OK if expected.feasible else EXIT_INFEASIBLE)
    assert doc["model"] == model and doc["costs_on"] is costs_on
    assert doc["solution"] == json.loads(json.dumps(expected.to_dict()))
    assert doc["params"]["F"] == 1.5 and doc["params"]["c"] == 8.0


@pytest.mark.parametrize("argv,code", [
    (["solve", "--no-timestamp"], EXIT_OK),
    (["solve", "--config", "no_such_config.json"], EXIT_CONFIG),
], ids=["success", "config-error"])
def test_entrypoint_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["leadquote", *argv])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == code


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_config(tmp_path, capsys, kind):
    path = tmp_path / "params.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"a": 30.0, "note": "caf\xe9"}')
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == EXIT_CONFIG and str(path) in err["error"]


def test_simulate_fixed_policy_ignores_model(tmp_path, capsys):
    argv = ["simulate", "--K", "3", "--policy", "9.0,0.3,5.0", "--horizon", "1500",
            "--seed", "3", "--no-timestamp", "--out"]
    assert main([*argv, str(tmp_path / "default.json")]) == EXIT_OK
    assert main([*argv, str(tmp_path / "mm1k.json"), "--model", "mm1k"]) == EXIT_OK
    default = (tmp_path / "default.json").read_bytes()
    assert default == (tmp_path / "mm1k.json").read_bytes()
    assert json.loads(default)["params"]["K"] == 3
    # without --policy the model picks the solver, and mm11 still needs K = 1
    assert main(["simulate", "--K", "3"]) == EXIT_CONFIG
