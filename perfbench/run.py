#!/usr/bin/env python3
"""End-to-end benchmark of tierplace's solve, simulate and sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory. It runs in one process with no threads.

``--trace 0`` sets the program up (import, instance generation, bundle
write and load, warm-up) several times, then runs rounds of every operation
of the workload for S seconds, checks every answer, and reports the
end-to-end metrics.
``--trace 1`` runs one fixed pass of the same operations untraced, then the
same pass again with every layer wrapped in spans, and reports the per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with the
environment, sample counts and the metrics the JSON line leaves out, is
written to ``.perfbench_out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
ANNEAL_CAP_MS = 120_000.0  # far above any anneal run of these workloads; reaching it fails
REL_TOL = 1e-9

# Timings are scaled to a fixed host speed (see HostSpeed): REF_MS is the
# time the reference loop of REF_ITERS iterations is taken to need. On a shared
# 2-vCPU x86-64 host (CPython 3.11.7) it took 0.5-1.3 ms.
REF_ITERS = 3500
REF_MS = 1.0
REF_EVERY_NS = 50_000_000

# Budgets the CLI sweep tries, as multiples of the bundle budget; the first is
# below every placement's cost on every workload, so one row is infeasible.
SWEEP_MULTIPLES = (0.005, 0.5, 1.0)
# Per workload: every how many rounds exhaustive search runs (0: never; on
# walk_large it takes as long as all other operations together), the anneal
# schedule, how many instances anneal rotates over (a default schedule takes
# about a second), how many times a round repeats the other operations on
# each instance (single-instance workloads need more samples per round), and
# how many instances the traced pass uses.
SETTINGS = {
    "oracle_small": {"exact_every": 1, "cooling": 0.95, "iters_per_temp": 50,
                     "anneal_cases": 8, "repeat": 1, "trace_cases": 3},
    "walk_large": {"exact_every": 4, "cooling": 0.5, "iters_per_temp": 4,
                   "anneal_cases": 1, "repeat": 2, "trace_cases": 1},
    "multi_stream": {"exact_every": 0, "cooling": 0.5, "iters_per_temp": 4,
                     "anneal_cases": 1, "repeat": 3, "trace_cases": 1},
}

# Metrics on the JSON line: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "greedy_solve_ms": "ms",
    "anneal_solve_ms": "ms",
    "simulate_ms": "ms",
    "cli_solve_ms": "ms",
    "cli_simulate_ms": "ms",
    "cli_sweep_ms": "ms",
    "greedy_mean_latency_ms": "ms",
    "greedy_total_cost": "cost",
    "anneal_mean_latency_ms": "ms",
}
# Reported in the record and on the console only: they exist on some
# workloads (exact search) or are zero on correct code (error_rate).
REPORTED = {
    "exact_solve_ms": "ms",
    "greedy_gap_pct": "%",
    "anneal_gap_pct": "%",
    "error_rate": "ratio",
}

PER_LAYER = {
    "workload.derive_active_streams.calls": "count",
    "workload.derive_active_streams.self_ms": "ms",
    "topology.nearest_device.calls": "count",
    "topology.nearest_device.self_ms": "ms",
    "topology.route.calls": "count",
    "topology.route.self_ms": "ms",
    "cost_model.stream_route.self_ms": "ms",
    "cost_model.evaluate.calls": "count",
    "cost_model.evaluate.us_per_call": "us",
    "cost_model.evaluate.self_ms": "ms",
    "cost_model.evaluate.invalid_ratio": "ratio",
    "cost_model.evaluate.derive_share": "ratio",
    "cost_model.peak_aggregated_demand.calls": "count",
    "cost_model.first_touch_slots.calls": "count",
    "solver.candidate_termini.calls": "count",
    "solver.choose_predeploy.calls": "count",
    "solver.exhaustive.states": "count",
    "solver.exhaustive.evals_per_s": "1/s",
    "solver.exhaustive.useful_ratio": "ratio",
    "solver.greedy.evals": "count",
    "solver.greedy.evals_per_s": "1/s",
    "solver.greedy.search_self_ms": "ms",
    "solver.anneal.evals": "count",
    "solver.anneal.evals_per_s": "1/s",
    "solver.anneal.search_self_ms": "ms",
    "simulator.simulate.self_ms": "ms",
    "simulator.summarize.us": "us",
    "bundle.load_bundle.ms": "ms",
    "bundle.validate_bundle.ms": "ms",
    "bundle.dumps.ms": "ms",
    "cli.main.solve.self_ms": "ms",
    "cli.main.simulate.self_ms": "ms",
    "cli.main.sweep.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _reference_loop() -> float:
    """Fixed interpreter work that does not touch tierplace: dict updates and
    float arithmetic, the stuff of the package's inner loops."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(REF_ITERS):
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    return total


class HostSpeed:
    """Scales timings to a fixed host speed.

    On a shared 2-vCPU x86-64 host (CPython 3.11.7) the same pure-Python work
    took anywhere from 16 to 27 ms, in spells lasting from a second to minutes,
    and process CPU time moved with wall time, so the spells are the CPU's own
    speed, not time the process waited. The reference loop slows with it: over
    one 40 s probe, greedy solves on multi_stream ranged 141-226 ms while their
    ratio to the loop's time ranged 57-64.

    Before a timed operation, when REF_EVERY_NS has passed since the last
    measurement, the loop's time is measured (median of three). A sample is
    scaled by REF_MS over the mean of the measurements just before and just
    after it, so it reads in ms of a host on which the loop takes REF_MS.
    The unscaled wall times are kept in the record.
    """

    def __init__(self) -> None:
        self.last_ms: float | None = None
        self.last_ns = 0
        self.pending: list[tuple[list[float], float]] = []
        self.reference_ms: list[float] = []

    def before(self) -> None:
        if self.last_ms is None or perf_counter_ns() - self.last_ns > REF_EVERY_NS:
            self.measure()

    def add(self, sink: list[float], value: float) -> None:
        """Append value, scaled, to sink once the next measurement is made."""
        self.pending.append((sink, value))

    def measure(self) -> None:
        times = []
        for _ in range(3):
            start = perf_counter_ns()
            _reference_loop()
            times.append((perf_counter_ns() - start) / 1e6)
        ref_ms = statistics.median(times)
        if self.pending:
            scale = 2 * REF_MS / (self.last_ms + ref_ms)
            for sink, value in self.pending:
                sink.append(value * scale)
            self.pending.clear()
        self.last_ms = ref_ms
        self.last_ns = perf_counter_ns()
        self.reference_ms.append(ref_ms)


class BenchError(Exception):
    """The benchmark cannot run: the sources are missing or a generated bundle is invalid."""


class Program:
    """A fresh import of tierplace from the checkout, and the modules called through."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "tierplace" or m.startswith("tierplace.")]:
            del sys.modules[name]
        self.tp = importlib.import_module("tierplace")
        if not Path(self.tp.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"tierplace was imported from {self.tp.__file__}, not {SRC}")
        self.cli = importlib.import_module("tierplace.cli")
        self.bundle = importlib.import_module("tierplace.bundle")
        self.cost_model = importlib.import_module("tierplace.cost_model")
        self.simulator = importlib.import_module("tierplace.simulator")
        self.solver = importlib.import_module("tierplace.solver")
        self.workload = importlib.import_module("tierplace.workload")


class Case:
    """One problem instance: its bundle file, the loaded bundle, first answers."""

    def __init__(self, index: int, bundle, path: Path) -> None:
        self.index = index
        self.topology = bundle.topology
        self.spec = bundle.service_spec()
        self.path = str(path)
        self.solution_path = str(path.with_suffix(".solution.json"))
        self.slots_csv = str(path.with_suffix(".slots.csv"))
        self.sweep_csv = str(path.with_suffix(".sweep.csv"))
        self.first: dict[str, object] = {}  # solver kind -> first Solution
        self.solution_bytes: bytes | None = None
        self.sweep_reference: list | None = None


class Bench:
    def __init__(self, workload: str, seed: int, sizes: dict, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.settings = SETTINGS[workload]
        self.work = work
        self.samples: dict[str, dict[int, list[float]]] = {}  # metric -> case -> scaled ms
        self.wall: dict[str, dict[int, list[float]]] = {}  # metric -> case -> ms
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.setup_s: list[float] = []

    # ---- set-up ---------------------------------------------------------

    def setup(self, directory: Path) -> tuple[Program, list[Case]]:
        """Import, generate, write and reload the bundles, validate, warm up;
        record the time it took."""
        self.speed.before()
        start = perf_counter_ns()
        program = Program()
        bundles = workloads.GENERATORS[self.workload](program.tp, self.seed, self.sizes)
        directory.mkdir(parents=True, exist_ok=True)
        cases = []
        for index, generated in enumerate(bundles):
            path = directory / f"case{index}.json"
            program.tp.save_bundle(generated, path)
            loaded = program.tp.load_bundle(path)
            problems = program.tp.validate_bundle(loaded)
            if problems:
                raise BenchError(f"generated bundle {index} is invalid: {problems[:3]}")
            cases.append(Case(index, loaded, path))
        for case in cases:
            program.solver.solve(case.topology, case.spec, self.config(program, "greedy"))
        self.speed.add(self.setup_s, (perf_counter_ns() - start) / 1e9)
        return program, cases

    def config(self, program, kind: str):
        if kind == "anneal":
            return program.tp.SolverConfig(
                kind="anneal", seed=self.seed, time_budget_ms=ANNEAL_CAP_MS,
                cooling=self.settings["cooling"], iters_per_temp=self.settings["iters_per_temp"],
            )
        return program.tp.SolverConfig(kind=kind, seed=self.seed)

    # ---- one round of operations on one instance -------------------------

    def run_case(self, case: Case, check: bool, exact: bool, anneal: bool, repeat: int) -> None:
        """Exact once when asked, then repeat times anneal (when asked) and the
        other operations."""
        p = self.program
        if exact:
            solution = self.solve(case, "exact")
            if check:
                self.check_solution(case, "exact", solution, None)
        budgets = [repr(m * case.spec.budget) for m in SWEEP_MULTIPLES]
        commands = {
            "cli_solve_ms": ["solve", case.path, "--solver", "greedy", "--seed", str(self.seed),
                             "--out", case.solution_path],
            "cli_simulate_ms": ["simulate", case.path, case.solution_path,
                                "--csv", case.slots_csv],
            "cli_sweep_ms": ["sweep", case.path, "--solver", "greedy",
                             "--budgets", *budgets, "--csv", case.sweep_csv],
        }
        for _ in range(repeat):
            if anneal:
                solution = self.solve(case, "anneal")
                if check:
                    self.check_solution(case, "anneal", solution, case.first.get("exact"))
            greedy = self.solve(case, "greedy")
            summary = self.timed("simulate_ms", case, lambda: p.simulator.summarize(
                p.simulator.simulate(case.topology, case.spec, greedy.placement)))
            codes = {}
            for metric, argv in commands.items():
                codes[metric] = self.timed(metric, case, lambda: _quiet(p.cli.main, argv))
                if check and metric == "cli_solve_ms":
                    self.check_cli_solve(case, codes[metric], greedy)
            if check:
                self.check_solution(case, "greedy", greedy, case.first.get("exact"))
                self.check_agreement(case, "simulate", p.cost_model.evaluate(
                    case.topology, case.spec, greedy.placement), summary)
                self.check_cli_simulate(case, codes["cli_simulate_ms"], greedy.placement)
                self.check_cli_sweep(case, codes["cli_sweep_ms"], budgets)

    def solve(self, case: Case, kind: str):
        cfg = self.config(self.program, kind)
        solution = self.timed(f"{kind}_solve_ms", case, lambda: self.program.solver.solve(
            case.topology, case.spec, cfg))
        case.first.setdefault(kind, solution)
        return solution

    def timed(self, metric: str, case: Case, fn):
        if self.tracer is not None:
            self.tracer.begin_op(f"{metric}/case{case.index}")
        self.speed.before()
        start = perf_counter_ns()
        result = fn()
        ms = (perf_counter_ns() - start) / 1e6
        self.wall.setdefault(metric, {}).setdefault(case.index, []).append(ms)
        self.speed.add(self.samples.setdefault(metric, {}).setdefault(case.index, []), ms)
        return result

    # ---- answer checks ---------------------------------------------------

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)

    def check_agreement(self, case: Case, what: str, expected, actual) -> None:
        self.expect(_reports_agree(expected, actual),
                    f"case{case.index} {what}: reports differ: {expected} vs {actual}")

    def check_solution(self, case: Case, kind: str, solution, exact) -> None:
        """Re-evaluate, replay, and hold a heuristic answer to the exact optimum."""
        p = self.program
        label = f"case{case.index} {kind}"
        report = p.cost_model.evaluate(case.topology, case.spec, solution.placement)
        self.check_agreement(case, f"{kind} report vs evaluate", report, solution.report)
        replay = p.simulator.summarize(
            p.simulator.simulate(case.topology, case.spec, solution.placement))
        self.check_agreement(case, f"{kind} evaluate vs simulate", report, replay)
        # Every workload admits a feasible in-budget placement (all stages at
        # one uncapped DC), so no solver may fall back to best effort.
        self.expect(not solution.best_effort, f"{label}: best effort")
        self.expect(report.feasible and report.total_cost <= case.spec.budget,
                    f"{label}: infeasible or over budget: {report}")
        if exact is not None and kind != "exact":
            ours = (report.mean_latency_ms, report.total_cost)
            best = (exact.report.mean_latency_ms, exact.report.total_cost)
            self.expect(ours >= best, f"{label} beats exact: {ours} < {best}")
        if kind == "anneal":
            # The loop only stops early by reaching the wall-clock cap.
            self.expect(solution.elapsed_ms < ANNEAL_CAP_MS,
                        f"{label}: cut by the time cap after {solution.elapsed_ms} ms")

    def check_cli_solve(self, case: Case, code: int, greedy) -> None:
        p = self.program
        self.expect(code == (2 if greedy.best_effort else 0), f"case{case.index} solve exit {code}")
        written = Path(case.solution_path).read_bytes()
        expected = p.bundle.dumps(p.bundle.solution_to_json(greedy)).encode("utf-8")
        self.expect(written == expected, f"case{case.index} solve file differs from in-process greedy")
        if case.solution_bytes is None:
            case.solution_bytes = written
        self.expect(written == case.solution_bytes,
                    f"case{case.index} solve file differs between seeded runs")

    def check_cli_simulate(self, case: Case, code: int, placement) -> None:
        p = self.program
        replay = p.simulator.simulate(case.topology, case.spec, placement)
        self.expect(code == (2 if replay.violations else 0), f"case{case.index} simulate exit {code}")
        with open(case.slots_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        same = len(rows) == len(replay.records) and all(
            int(row[0]) == record.index
            and row[1] == ";".join(record.active)
            and all(_close(float(cell), value) for cell, value in zip(row[2:], (
                record.traffic_gb, record.server_cost, record.network_cost,
                record.dispatch_cost, record.mean_latency_ms)))
            for row, record in zip(rows, replay.records)
        )
        self.expect(same, f"case{case.index} simulate CSV differs from the replay")

    def check_cli_sweep(self, case: Case, code: int, budgets: list[str]) -> None:
        p = self.program
        if case.sweep_reference is None:
            case.sweep_reference = [
                p.solver.solve(case.topology, replace(case.spec, budget=float(b)),
                               self.config(p, "greedy"))
                for b in budgets
            ]
        feasible = [not s.best_effort for s in case.sweep_reference]
        self.expect(not all(feasible), f"case{case.index} sweep has no infeasible budget")
        self.expect(code == (0 if any(feasible) else 2), f"case{case.index} sweep exit {code}")
        with open(case.sweep_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        same = len(rows) == len(budgets)
        for row, budget, solution, ok in zip(rows, budgets, case.sweep_reference, feasible):
            r = solution.report
            same = same and float(row[0]) == float(budget) and row[1] == ("true" if ok else "false")
            if ok:
                same = same and all(_close(float(cell), value) for cell, value in zip(row[2:], (
                    r.mean_latency_ms, r.total_cost, r.server_cost, r.network_cost,
                    r.deploy_cost, r.dispatch_cost)))
        self.expect(same, f"case{case.index} sweep CSV differs from in-process solves")

    # ---- metrics --------------------------------------------------------

    def quality(self) -> dict[str, float]:
        """Answer quality over every instance, from each solver's first answer."""
        def mean_of(kind, field):
            return statistics.fmean(getattr(c.first[kind].report, field)
                                    for c in self.cases if kind in c.first)

        def gap_pct(kind):
            return 100.0 * statistics.fmean(
                c.first[kind].report.mean_latency_ms / c.first["exact"].report.mean_latency_ms - 1.0
                for c in self.cases if kind in c.first)

        out = {
            "greedy_mean_latency_ms": mean_of("greedy", "mean_latency_ms"),
            "greedy_total_cost": mean_of("greedy", "total_cost"),
            "anneal_mean_latency_ms": mean_of("anneal", "mean_latency_ms"),
        }
        if self.settings["exact_every"]:
            out["greedy_gap_pct"] = gap_pct("greedy")
            out["anneal_gap_pct"] = gap_pct("anneal")
        return out


def _quiet(fn, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(argv)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _reports_agree(a, b) -> bool:
    """Every numeric field of two CostReports within REL_TOL, same violations."""
    fields = ("server_cost", "network_cost", "deploy_cost", "dispatch_cost", "total_cost",
              "mean_latency_ms", "max_latency_ms")
    return (
        all(_close(getattr(a, f), getattr(b, f)) for f in fields)
        and a.feasible == b.feasible
        and a.peak_cpu.keys() == b.peak_cpu.keys()
        and all(_close(a.peak_cpu[k], b.peak_cpu[k]) for k in a.peak_cpu)
        and [(v.kind, v.ident) for v in a.violations] == [(v.kind, v.ident) for v in b.violations]
        and all(_close(v.magnitude, w.magnitude) for v, w in zip(a.violations, b.violations))
    )


def timing_stats(scaled: dict[int, list[float]], wall: dict[int, list[float]]) -> dict:
    """A timing's value: the mean over instances of each instance's median
    scaled sample. Also the sample count, the highest percentile of all
    scaled samples with ten samples beyond it, and the same mean of medians
    and of minima of the unscaled wall times.

    Averaging per instance keeps a batch's figure independent of how often the
    window happened to revisit each instance.
    """
    ordered = sorted(v for values in scaled.values() for v in values)
    n = len(ordered)
    out = {"value": statistics.fmean(statistics.median(v) for v in scaled.values()), "n": n,
           "wall_median": statistics.fmean(statistics.median(v) for v in wall.values()),
           "wall_min": statistics.fmean(min(v) for v in wall.values())}
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        out[f"p{pct}"] = ordered[math.ceil(pct / 100 * n) - 1]
    return out


def per_layer(summary: dict, overhead_pct: float) -> dict[str, float]:
    spans, solvers = summary["spans"], summary["solvers"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("workload.derive_active_streams", "topology.nearest_device", "topology.route",
                 "cost_model.evaluate", "cost_model.peak_aggregated_demand",
                 "cost_model.first_touch_slots", "solver.candidate_termini",
                 "solver.choose_predeploy"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("workload.derive_active_streams", "topology.nearest_device", "topology.route",
                 "cost_model.stream_route", "cost_model.evaluate", "simulator.simulate"):
        out[f"{name}.self_ms"] = get(name, "self_ns") / 1e6
    evaluate = "cost_model.evaluate"
    out[f"{evaluate}.us_per_call"] = ratio(get(evaluate, "total_ns") / 1e3, get(evaluate, "calls"))
    out[f"{evaluate}.invalid_ratio"] = ratio(get(evaluate, "raised"), get(evaluate, "calls"))
    out[f"{evaluate}.derive_share"] = ratio(summary["derive_in_evaluate_ns"], get(evaluate, "total_ns"))
    exhaustive = solvers["solver.exhaustive"]
    out["solver.exhaustive.states"] = exhaustive["evals"]
    out["solver.exhaustive.evals_per_s"] = ratio(
        exhaustive["evals"], get("solver.exhaustive", "total_ns") / 1e9)
    out["solver.exhaustive.useful_ratio"] = ratio(exhaustive["useful"], exhaustive["evals"])
    for kind in ("greedy", "anneal"):
        name = f"solver.{kind}"
        out[f"{name}.evals"] = solvers[name]["evals"]
        out[f"{name}.evals_per_s"] = ratio(solvers[name]["evals"], get(name, "total_ns") / 1e9)
        out[f"{name}.search_self_ms"] = get(name, "self_ns") / 1e6
    out["simulator.summarize.us"] = ratio(get("simulator.summarize", "total_ns") / 1e3,
                                          get("simulator.summarize", "calls"))
    for name in ("bundle.load_bundle", "bundle.validate_bundle", "bundle.dumps"):
        out[f"{name}.ms"] = ratio(get(name, "total_ns") / 1e6, get(name, "calls"))
    for command in ("solve", "simulate", "sweep"):
        out[f"cli.main.{command}.self_ms"] = get(f"cli.main.{command}", "self_ns") / 1e6
    out["trace.overhead_pct"] = overhead_pct
    return out


def environment(args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "not_controlled": "CPU frequency, CPU caches and co-tenant load on the machine",
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None, after_setup=None) -> dict:
    """Run one benchmark; return the record whose ``result`` is the JSON line.

    sizes replaces the workload's instance sizes and after_setup(program) is
    called on the imported program before any operation runs; both exist for
    the self-test.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sizes = sizes or workloads.SIZES[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    bench = Bench(workload, seed, sizes, work)
    try:
        # Back-to-back set-ups, each with a fresh import; the last is used.
        for _ in range(1 if trace else SETUP_REPEATS):
            bench.program, bench.cases = bench.setup(work / "live")
        if after_setup is not None:
            after_setup(bench.program)
        if trace:
            record = traced_run(bench, seed)
        else:
            record = timed_run(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["failures"] = bench.failures
    return record


def timed_run(bench: Bench, seconds: float) -> dict:
    """Rounds for the given time; every round runs each instance once, with
    anneal on one of the first anneal_cases instances in turn."""
    start = perf_counter_ns()
    rounds = 0
    anneal_cases = bench.settings["anneal_cases"]
    while rounds < anneal_cases or perf_counter_ns() - start < seconds * 1e9:
        exact_every = bench.settings["exact_every"]
        for case in bench.cases:
            bench.run_case(case, check=True, exact=exact_every and rounds % exact_every == 0,
                           anneal=case.index == rounds % anneal_cases,
                           repeat=bench.settings["repeat"])
        rounds += 1
    bench.speed.measure()
    timings = {name: timing_stats(by_case, bench.wall[name])
               for name, by_case in bench.samples.items()}
    values = {name: stats.pop("value") for name, stats in timings.items()}
    values["setup_s"] = statistics.median(bench.setup_s)
    timings["setup_s"] = {"n": len(bench.setup_s)}
    values.update(bench.quality())
    values["error_rate"] = bench.failed / bench.attempted
    units = {**END_TO_END, **REPORTED}
    refs = bench.speed.reference_ms
    return {
        "result": result_line(bench, {name: (values[name], END_TO_END[name]) for name in END_TO_END}),
        "reported": {name: {"value": values[name], "unit": units[name], **timings.get(name, {})}
                     for name in units if name in values},
        "rounds": rounds,
        "reference_ms": {"n": len(refs), "min": min(refs), "median": statistics.median(refs),
                         "max": max(refs)},
    }


def traced_run(bench: Bench, seed: int) -> dict:
    """One untraced pass with checks, then the same operations traced.

    Overhead compares the summed operation times of the two passes, so the
    checks (run only in the first) do not count.
    """
    cases = bench.cases[:SETTINGS[bench.workload]["trace_cases"]]
    exact = bool(bench.settings["exact_every"])
    for case in cases:
        bench.run_case(case, check=True, exact=exact, anneal=True, repeat=1)
    untraced_ms = _total_ms(bench.wall)
    bench.wall.clear()
    tracer = Tracer()
    with tracer.patched(bench.program):
        bench.tracer = tracer
        try:
            for case in cases:
                bench.run_case(case, check=False, exact=exact, anneal=True, repeat=1)
        finally:
            bench.tracer = None
    traced_ms = _total_ms(bench.wall)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{bench.workload}_seed{seed}.jsonl.gz")
    values = per_layer(tracer.summary(), 100.0 * (traced_ms / untraced_ms - 1.0))
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return {"result": result_line(bench, metrics),
            "reported": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "pass_ms": {"untraced": untraced_ms, "traced": traced_ms}}


def _total_ms(samples: dict) -> float:
    return sum(sum(values) for by_case in samples.values() for values in by_case.values())


def result_line(bench: Bench, metrics: dict) -> dict:
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tierplace" / "__init__.py").is_file():
        print(f"error: no tierplace sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["environment"] = environment(args)
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for metric, entry in record["reported"].items():
        extra = "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in entry.items() if k not in ("value", "unit"))
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}  {extra}".rstrip())
    for failure in record["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
