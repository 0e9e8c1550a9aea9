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
from datetime import datetime, timezone
from pathlib import Path

from .certify import run_all_checks
from .closed_form import Solution, solve_mm11_with_costs
from .compare import sweep
from .market import MARKET_FIELDS, MarketParams, Policy
from .numeric import MAX_RESOLUTION, MIN_RESOLUTION, solve_mm1_baseline, solve_mm1k_numeric
from .simulate import simulate, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

DEFAULTS = MarketParams(a=30.0, b1=4.0, b2=20.0, mu=10.0, m=5.0, s=0.95,
                        F=2.0, c=10.0, K=1).to_dict()

SWEEP_A_DEFAULT = [30.0, 40.0, 50.0, 60.0, 70.0]
SWEEP_B2_DEFAULT = [float(v) for v in range(5, 21)]

MODELS = ("mm11", "mm1", "mm1k")


class ConfigError(ValueError):
    pass


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with market parameters (flags override it)")
    for name in MARKET_FIELDS:
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
    p_solve.set_defaults(run=_run_solve)

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
    p_sweep.set_defaults(run=_run_sweep)

    p_sim = subs.add_parser("simulate", help="simulate the finite-buffer queue")
    _add_param_flags(p_sim)
    p_sim.add_argument("--model", choices=("mm11", "mm1k"), default="mm11",
                       help="which solver supplies the policy when --policy is absent")
    p_sim.add_argument("--costs", choices=("on", "off"), default="on")
    p_sim.add_argument("--policy", type=str, default=None,
                       help="simulate this fixed policy, as 'price,leadtime,lambda'")
    p_sim.add_argument("--horizon", type=float, default=2000.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(run=_run_simulate)

    p_val = subs.add_parser("validate", help="run the certification battery")
    p_val.add_argument("--instances", type=int, default=100,
                       help="random instances per closed-form check (default 100)")
    p_val.add_argument("--resolution", type=int, default=160,
                       help="oracle grid resolution (default 160)")
    p_val.add_argument("--seed", type=int, default=11)
    p_val.add_argument("--out", type=str, default=None)
    p_val.add_argument("--no-timestamp", action="store_true")
    p_val.set_defaults(run=_run_validate)
    return parser


def _resolve_params(args: argparse.Namespace) -> MarketParams:
    merged = dict(DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(MARKET_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for name in MARKET_FIELDS:
        value = getattr(args, name)
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
        policy = Policy(p=p, l=l, lam=lam)
    except ValueError as exc:
        raise ConfigError(f"bad policy {text!r}: {exc}") from exc
    if lam <= 0:
        raise ConfigError("policy needs lambda > 0")
    return policy


def _require_model_fits(model: str, params: MarketParams) -> None:
    if model == "mm11" and params.K != 1:
        raise ConfigError("model mm11 is the single-slot system; needs K = 1")


def _solve(args: argparse.Namespace, params: MarketParams) -> Solution:
    """The optimum of the model --model names; costs off means F = c = 0."""
    costs_on = args.costs == "on"
    if args.model == "mm1":
        return solve_mm1_baseline(params, costs_on=costs_on)
    if not costs_on:
        params = params.with_updates(F=0.0, c=0.0)
    return (solve_mm11_with_costs if args.model == "mm11" else solve_mm1k_numeric)(params)


def _dump(doc: dict, args: argparse.Namespace) -> str:
    """doc as indented JSON, stamped with the time unless --no-timestamp."""
    if not args.no_timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path: str | Path | None, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_solve(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    _require_model_fits(args.model, params)
    solution = _solve(args, params)
    _write(args.out, _dump({
        "command": "solve",
        "model": args.model,
        "costs_on": args.costs == "on",
        "params": params.to_dict(),
        "solution": solution.to_dict(),
    }, args))
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def _run_sweep(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    a_values = (SWEEP_A_DEFAULT if args.a_values is None
                else _parse_values(args.a_values, "a"))
    b2_values = (SWEEP_B2_DEFAULT if args.b2_values is None
                 else _parse_values(args.b2_values, "b2"))
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    table = sweep(params, a_values, b2_values, costs_on=args.costs == "on")
    if not args.out:
        sys.stdout.write(table.to_csv())
        return EXIT_OK
    base = Path(args.out)
    _write(base.with_suffix(".csv"), table.to_csv())
    _write(base.with_suffix(".json"),
           _dump({"command": "sweep", "table": table.to_dict()}, args))
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    if args.policy is None:
        # --model only picks the solver, so a fixed policy runs at any K
        _require_model_fits(args.model, params)
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise ConfigError("--horizon must be positive and finite")
    policy = None if args.policy is None else _parse_policy(args.policy)
    if args.costs == "off":
        params = params.with_updates(F=0.0, c=0.0)
    doc = {"command": "simulate"}
    if policy is None:
        solved = _solve(args, params)
        doc["solution"] = solved.to_dict()
        if not solved.feasible:
            doc["error"] = "instance infeasible; nothing to simulate"
            _write(args.out, _dump(doc, args))
            return EXIT_INFEASIBLE
        policy = solved.policy
    report = simulate(policy, params, horizon=args.horizon, seed=args.seed)
    verdict = validate(report, params, policy)
    doc.update(params=params.to_dict(), policy=policy.to_dict(),
               report=report.to_dict(), verdict=verdict.to_dict())
    _write(args.out, _dump(doc, args))
    return EXIT_OK if verdict.ok else EXIT_VALIDATION


def _run_validate(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ConfigError("--instances must be >= 1")
    if not MIN_RESOLUTION <= args.resolution <= MAX_RESOLUTION:
        raise ConfigError(f"--resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]")
    results = run_all_checks(n_instances=args.instances,
                             resolution=args.resolution, seed=args.seed)
    for res in results:
        sys.stdout.write(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}\n")
    ok = all(r.ok for r in results)
    if args.out:
        _write(args.out, _dump({"command": "validate",
                                "checks": [r.to_dict() for r in results],
                                "ok": ok}, args))
    return EXIT_OK if ok else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}) + "\n")
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
