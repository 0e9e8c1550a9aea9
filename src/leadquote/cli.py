"""Command-line interface: solve, sweep, simulate, validate.

Parameter precedence is explicit flag > config file (JSON) > built-in
default.  Outputs are deterministic JSON (and CSV for sweeps); the
timestamp field can be suppressed with --no-timestamp so repeated runs are
byte-identical.  Exit codes: 0 success, 2 invalid configuration, 3
infeasible instance, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .certify import run_all_checks
from .closed_form import Solution, solve_mm11_with_costs
from .compare import sweep
from .market import MarketParams, Policy
from .numeric import solve_mm1_baseline, solve_mm1k_numeric
from .simulate import simulate, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

PARAM_FIELDS = ("a", "b1", "b2", "mu", "m", "s", "F", "c", "K")

DEFAULTS = {
    "a": 30.0,
    "b1": 4.0,
    "b2": 20.0,
    "mu": 10.0,
    "m": 5.0,
    "s": 0.95,
    "F": 2.0,
    "c": 10.0,
    "K": 1,
}

SWEEP_A_DEFAULT = [30.0, 40.0, 50.0, 60.0, 70.0]
SWEEP_B2_DEFAULT = [float(v) for v in range(5, 21)]

MODELS = ("mm11", "mm1", "mm1k")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated, fully-resolved description of one CLI run."""

    command: str
    params: MarketParams
    model: str = "mm11"
    costs_on: bool = True
    a_values: list = field(default_factory=lambda: list(SWEEP_A_DEFAULT))
    b2_values: list = field(default_factory=lambda: list(SWEEP_B2_DEFAULT))
    out: str | None = None
    timestamp: bool = True
    horizon: float = 2000.0
    seed: int = 0
    policy: Policy | None = None
    instances: int = 100
    resolution: int = 160


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with market parameters (flags override it)")
    for name in PARAM_FIELDS:
        kind = int if name == "K" else float
        sub.add_argument(f"--{name}", type=kind, default=None,
                         help=f"market parameter {name} (default {DEFAULTS[name]})")
    sub.add_argument("--out", type=str, default=None, help="output path")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the generated_at field for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadquote",
        description="Optimal price and lead-time quotes for a make-to-order queue "
                    "that may reject work, with accept-all benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve one instance")
    _add_param_flags(p_solve)
    p_solve.add_argument("--model", choices=MODELS, default="mm11",
                         help="mm11: single-slot closed form; mm1: accept-all "
                              "benchmark; mm1k: general finite buffer (numeric)")
    p_solve.add_argument("--costs", choices=("on", "off"), default="on",
                         help="include holding and lateness costs (default on)")

    p_sweep = subs.add_parser("sweep", help="gain table over an (a, b2) grid")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--costs", choices=("on", "off"), default="on")
    p_sweep.add_argument("--a-values", type=str, default=None,
                         help="comma-separated a grid (default 30,...,70)")
    p_sweep.add_argument("--b2-values", type=str, default=None,
                         help="comma-separated b2 grid (default 5,...,20)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; must be >= 1, and cells "
                              "always run in this process")

    p_sim = subs.add_parser("simulate", help="simulate the finite-buffer queue")
    _add_param_flags(p_sim)
    p_sim.add_argument("--model", choices=("mm11", "mm1k"), default="mm11",
                       help="which solver supplies the policy when --policy is absent")
    p_sim.add_argument("--costs", choices=("on", "off"), default="on")
    p_sim.add_argument("--policy", type=str, default=None,
                       help="simulate this fixed policy, as 'price,leadtime,lambda'")
    p_sim.add_argument("--horizon", type=float, default=2000.0)
    p_sim.add_argument("--seed", type=int, default=0)

    p_val = subs.add_parser("validate", help="run the certification battery")
    p_val.add_argument("--instances", type=int, default=100,
                       help="random instances per closed-form check (default 100)")
    p_val.add_argument("--resolution", type=int, default=160,
                       help="oracle grid resolution (default 160)")
    p_val.add_argument("--seed", type=int, default=11)
    p_val.add_argument("--out", type=str, default=None)
    p_val.add_argument("--no-timestamp", action="store_true")
    return parser


def _resolve_params(args: argparse.Namespace) -> MarketParams:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(PARAM_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for name in PARAM_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    try:
        return MarketParams.from_dict(merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_values(text: str, what: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def _parse_policy(text: str) -> Policy:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("policy must be 'price,leadtime,lambda'")
    try:
        p, l, lam = (float(tok) for tok in parts)
    except ValueError as exc:
        raise ConfigError(f"bad policy {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in (p, l, lam)):
        raise ConfigError(f"bad policy {text!r}: every field must be finite")
    if l < 0 or lam <= 0:
        raise ConfigError("policy needs leadtime >= 0 and lambda > 0")
    return Policy(p=p, l=l, lam=lam)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "validate":
        if args.instances < 1:
            raise ConfigError("--instances must be >= 1")
        if args.resolution < 100:
            raise ConfigError("--resolution must be >= 100")
        return RunConfig(
            command=command,
            params=MarketParams.from_dict(DEFAULTS),
            instances=args.instances,
            resolution=args.resolution,
            seed=args.seed,
            out=args.out,
            timestamp=not args.no_timestamp,
        )
    params = _resolve_params(args)
    cfg = RunConfig(
        command=command,
        params=params,
        out=args.out,
        timestamp=not args.no_timestamp,
    )
    if hasattr(args, "costs"):
        cfg.costs_on = args.costs == "on"
    if hasattr(args, "model"):
        cfg.model = args.model
        if cfg.model == "mm11" and params.K != 1:
            raise ConfigError("model mm11 is the single-slot system; needs K = 1")
    if command == "sweep":
        if args.a_values is not None:
            cfg.a_values = _parse_values(args.a_values, "a")
        if args.b2_values is not None:
            cfg.b2_values = _parse_values(args.b2_values, "b2")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
    if command == "simulate":
        if not (math.isfinite(args.horizon) and args.horizon > 0):
            raise ConfigError("--horizon must be positive and finite")
        cfg.horizon = args.horizon
        cfg.seed = args.seed
        if args.policy is not None:
            cfg.policy = _parse_policy(args.policy)
    return cfg


def _stamp(doc: dict, config: RunConfig) -> dict:
    if config.timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return doc


def _write_out(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, config: RunConfig) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if config.out:
        _write_out(Path(config.out), text)
    else:
        sys.stdout.write(text)


def _costed(params: MarketParams, costs_on: bool) -> MarketParams:
    # Costs off means F = c = 0.
    return params if costs_on else params.with_updates(F=0.0, c=0.0)


def _solve_dispatch(model: str, params: MarketParams, costs_on: bool) -> Solution:
    if model == "mm1":
        return solve_mm1_baseline(params, costs_on=costs_on)
    solve = solve_mm11_with_costs if model == "mm11" else solve_mm1k_numeric
    return solve(_costed(params, costs_on))


def _run_solve(config: RunConfig) -> int:
    solution = _solve_dispatch(config.model, config.params, config.costs_on)
    doc = _stamp(
        {
            "command": "solve",
            "model": config.model,
            "costs_on": config.costs_on,
            "params": config.params.to_dict(),
            "solution": solution.to_dict(),
        },
        config,
    )
    _emit(doc, config)
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def _run_sweep(config: RunConfig) -> int:
    table = sweep(config.params, config.a_values, config.b2_values,
                  costs_on=config.costs_on)
    doc = _stamp({"command": "sweep", "table": table.to_dict()}, config)
    if config.out:
        base = Path(config.out)
        csv_path = base.with_suffix(".csv")
        json_path = base.with_suffix(".json")
        _write_out(csv_path, table.to_csv())
        _write_out(json_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(table.to_csv())
    return EXIT_OK


def _run_simulate(config: RunConfig) -> int:
    params = _costed(config.params, config.costs_on)
    if config.model == "mm11":
        params = params.with_updates(K=1)
    solved = None
    policy = config.policy
    if policy is None:
        solved = _solve_dispatch(config.model, params, config.costs_on)
        if not solved.feasible or solved.policy.lam <= 0:
            _emit(_stamp({"command": "simulate",
                          "error": "instance infeasible; nothing to simulate",
                          "solution": solved.to_dict()}, config), config)
            return EXIT_INFEASIBLE
        policy = solved.policy
    report = simulate(policy, params, horizon=config.horizon, seed=config.seed)
    verdict = validate(report, params, policy)
    doc = {
        "command": "simulate",
        "params": params.to_dict(),
        "policy": policy.to_dict(),
        "report": report.to_dict(),
        "verdict": verdict.to_dict(),
    }
    if solved is not None:
        doc["solution"] = solved.to_dict()
    _emit(_stamp(doc, config), config)
    return EXIT_OK if verdict.ok else EXIT_VALIDATION


def _run_validate(config: RunConfig) -> int:
    results = run_all_checks(n_instances=config.instances,
                             resolution=config.resolution, seed=config.seed)
    for res in results:
        sys.stdout.write(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}\n")
    if config.out:
        doc = _stamp({"command": "validate",
                      "checks": [r.to_dict() for r in results],
                      "ok": all(r.ok for r in results)}, config)
        _write_out(Path(config.out),
                   json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(r.ok for r in results) else EXIT_VALIDATION


def run(config: RunConfig) -> int:
    if config.command == "solve":
        return _run_solve(config)
    if config.command == "sweep":
        return _run_sweep(config)
    if config.command == "simulate":
        return _run_simulate(config)
    if config.command == "validate":
        return _run_validate(config)
    raise ConfigError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}) + "\n")
        return EXIT_CONFIG
    try:
        return run(config)
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}) + "\n")
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
