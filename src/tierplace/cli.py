"""Command-line surface: validate | solve | simulate | sweep | gen.

Exit codes: 0 ok, 2 infeasible or constraint violations, 3 invalid input,
4 exhaustive search limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .bundle import (
    BundleError,
    ScenarioBundle,
    dumps,
    load_bundle,
    load_placement,
    save_bundle,
    solution_to_json,
    synth_bundle,
    validate_bundle,
)
from .cost_model import CostReport, InvalidPlacement
from .simulator import simulate, summarize
from .solver import (
    SETTING_RANGES,
    SOLVER_KINDS,
    SearchSpaceTooLarge,
    Solution,
    SolverConfig,
    solve,
)
from .topology import TopologyError
from .workload import UnknownDevice

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_LIMIT = 4


def _load_valid_bundle(path: str) -> ScenarioBundle:
    bundle = load_bundle(path)
    violations = validate_bundle(bundle)
    if violations:
        lines = "; ".join(f"{kind}: {ident}" for kind, ident in violations)
        raise BundleError(f"invalid bundle: {lines}")
    return bundle


def _solver_config(args, bundle: ScenarioBundle) -> SolverConfig:
    """Command-line options over the bundle's solver defaults (already validated)
    over SolverConfig's own defaults."""
    settings = dict(bundle.solver or {})
    for key in ("kind", *SETTING_RANGES):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return SolverConfig(**settings)


def _print_costs(report: CostReport, *between: str) -> None:
    """The cost breakdown, the lines `between`, then one line per violation."""
    print(
        f"cost: total {report.total_cost:.6g} "
        f"(server {report.server_cost:.6g}, network {report.network_cost:.6g}, "
        f"deploy {report.deploy_cost:.6g}, dispatch {report.dispatch_cost:.6g})"
    )
    for line in between:
        print(line)
    for violation in report.violations:
        print(f"violation: {violation.kind} {violation.ident} by {violation.magnitude:.6g}")


def _print_solution(solution: Solution, budget: float) -> None:
    report = solution.report
    within, excess = report.total_cost <= budget, max(0.0, report.total_cost - budget)
    status = "ok" if not solution.best_effort else "infeasible (best effort)"
    print(f"solver: {solution.solver_kind}  status: {status}")
    print(
        f"mean latency: {report.mean_latency_ms:.6g} ms   "
        f"max latency: {report.max_latency_ms:.6g} ms"
    )
    _print_costs(report, f"budget: {budget:.6g}  within: {within}  excess: {excess:.6g}")
    print(
        f"states examined: {solution.states_examined}  "
        f"elapsed: {solution.elapsed_ms:.1f} ms"
    )


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def cmd_validate(args) -> int:
    violations = validate_bundle(load_bundle(args.bundle))
    if violations:
        for kind, ident in violations:
            print(f"violation: {kind}: {ident}")
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_solve(args) -> int:
    bundle = _load_valid_bundle(args.bundle)
    if args.budget is not None:
        bundle = replace(bundle, budget=args.budget)
    cfg = _solver_config(args, bundle)
    solution = solve(bundle.topology, bundle.service_spec(), cfg)
    _print_solution(solution, bundle.budget)
    if args.out:
        Path(args.out).write_text(dumps(solution_to_json(solution)), encoding="utf-8")
        print(f"wrote {args.out}")
    return EXIT_INFEASIBLE if solution.best_effort else EXIT_OK


def cmd_simulate(args) -> int:
    bundle = _load_valid_bundle(args.bundle)
    placement = load_placement(args.placement)
    report = simulate(bundle.topology, bundle.service_spec(), placement)
    summary = summarize(report)
    if args.csv:
        fields = ["traffic_gb", "server_cost", "network_cost", "dispatch_cost", "mean_latency_ms"]
        rows = [[record.index, ";".join(record.active)] + [getattr(record, f) for f in fields]
                for record in report.records]
        _write_csv(args.csv, ["slot", "active_devices"] + fields, rows)
    print(
        f"slots: {len(report.records)}   mean latency: {summary.mean_latency_ms:.6g} ms"
    )
    _print_costs(summary)
    return EXIT_INFEASIBLE if summary.violations else EXIT_OK


def cmd_sweep(args) -> int:
    bundle = _load_valid_bundle(args.bundle)
    cfg = _solver_config(args, bundle)
    header = [
        "budget",
        "feasible",
        "mean_latency_ms",
        "total_cost",
        "server_cost",
        "network_cost",
        "deploy_cost",
        "dispatch_cost",
    ]
    rows = []
    for budget in args.budgets:
        spec = replace(bundle.service_spec(), budget=budget)
        solution = solve(bundle.topology, spec, cfg)
        if solution.best_effort:
            rows.append([budget, "false"] + [""] * len(header[2:]))
        else:
            rows.append([budget, "true"] + [getattr(solution.report, f) for f in header[2:]])
    if args.csv:
        _write_csv(args.csv, header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(str(cell) for cell in row))
    return EXIT_OK if any(row[1] == "true" for row in rows) else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    bundle = synth_bundle(
        devices=args.devices,
        slots=args.slots,
        step=args.step,
        seed=args.seed,
        budget=args.budget,
    )
    save_bundle(bundle, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _at_least(convert, low, high=math.inf):
    """argparse type: convert, then require a finite value in [low, high] (exit 3 otherwise)."""

    def parse(text: str):
        value = convert(text)
        if not abs(value) < math.inf:  # NaN too; unlike math.isfinite, exact for any int
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}: {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" message
    return parse


@cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierplace",
        description="Placement optimization and simulation for tiered IoT pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a bundle file")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    solver_options = argparse.ArgumentParser(add_help=False)
    solver_options.add_argument("--solver", dest="kind", choices=SOLVER_KINDS, default=None)
    for field, (types, low, high) in SETTING_RANGES.items():
        flag = "--" + field.replace("_", "-")
        solver_options.add_argument(flag, type=_at_least(types[-1], low, high), default=None)

    p = sub.add_parser("solve", help="optimize a placement for a bundle", parents=[solver_options])
    p.add_argument("bundle")
    p.add_argument("--budget", type=_at_least(float, 0), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="replay a scenario under a placement")
    p.add_argument("bundle")
    p.add_argument("placement")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="solve across a list of budgets", parents=[solver_options])
    p.add_argument("bundle")
    p.add_argument("--budgets", type=_at_least(float, 0), nargs="+", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="emit a synthetic bundle")
    p.add_argument("--devices", type=_at_least(int, 1), required=True)
    p.add_argument("--slots", type=_at_least(int, 1), required=True)
    p.add_argument("--step", type=_at_least(float, -math.inf), default=10.0)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--budget", type=_at_least(float, 0), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (
        BundleError,
        InvalidPlacement,
        TopologyError,
        UnknownDevice,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
