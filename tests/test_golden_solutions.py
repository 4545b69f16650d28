"""Solution files must not change under a refactor of the solvers.

`golden_solutions.json` holds the sha256 of `dumps(solution_to_json(...))`
for each solver on `mini_bundle` and `random_instance(0..9)`. Anneal runs a
short schedule (cooling 0.8, 10 iterations per temperature) and the default
one (cooling 0.95, 50 iterations) under a time budget it never reaches, so
its walk, and with it its file, depends only on the seed. One more digest
covers the report of every state exhaustive scores on `mini_bundle` and
`random_instance(0..4)`, in enumeration order and with `Instance.scored`
empty, so a change to the scorer cannot hide behind the winners. Only the
mini instance is wholly cold: `random_instance` evaluates one placement to
set its budget, which leaves one `Instance.terms` entry and one sink's device rows.

The replay is pinned bit for bit the same way: one digest per instance over
the `simulate` report of each solver's answer, and one over the replay of
every valid state exhaustive scores on the first six instances. Each covers
every slot record, with its order-dependent `traffic_gb` and
`mean_latency_ms`, and the summary's totals, peak CPU and violations. The
summary is laid out in the fields these digests were first taken over, when
the replay had a report type of its own: the server cost split into the usage
total over the records and the reservation, and no total cost or feasibility.

The command line's files are pinned too: the `simulate --csv` file of each solver's
solution file and each solver's `sweep --csv` file, all written through `cli.main` for
`bundles/mini.json` and two `gen` bundles, one digest each.

The package adds every float total left to right with `cost_model._total`, never
with `sum()`, which compensates from CPython 3.12, so the files and these digests
are the same on CPython 3.10 to 3.13.

When a change is meant to alter answers, rewrite the solution and replay
digests together with `PYTHONPATH=src python tests/test_golden_solutions.py`
and say why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from tierplace import SolverConfig, mini_bundle, simulate, solve
from tierplace import solver as solver_module
from tierplace.bundle import dumps, report_to_json, solution_to_json
from tierplace.cost_model import _total
from tierplace.cli import main
from _instances import random_instance

DIGESTS = Path(__file__).with_name("golden_solutions.json")
MINI_PATH = Path(__file__).resolve().parents[1] / "bundles" / "mini.json"
CONFIGS = {
    "exact": SolverConfig(kind="exact", seed=3, time_budget_ms=600000.0),
    "greedy": SolverConfig(kind="greedy", seed=3, time_budget_ms=600000.0),
    "anneal": SolverConfig(
        kind="anneal", seed=3, time_budget_ms=600000.0, cooling=0.8, iters_per_temp=10
    ),
    "anneal-default": SolverConfig(kind="anneal", seed=3, time_budget_ms=600000.0),
}


def _instances():
    mini = mini_bundle()
    yield "mini", mini.topology, mini.service_spec()
    for seed in range(10):
        yield (f"random_instance({seed})", *random_instance(seed))


def _replay_json(topology, spec, placement) -> dict:
    """The `simulate` report in the fields the replay digests were first taken over (see
    above), plus each record's sums, which depend on the insertion order of its dicts
    (dumps sorts their keys)."""
    report = simulate(topology, spec, placement)
    summary = report.summary
    usage = _total([record.server_cost for record in report.records])
    agg = placement.agg_node
    reservation = placement.alloc * topology.node(agg).cpu_cost_rate if agg else 0.0
    assert summary.server_cost == usage + reservation
    out = asdict(summary)
    for name in ("server_cost", "total_cost", "feasible"):
        del out[name]
    out.update(records=[asdict(record) for record in report.records],
               server_usage_cost=usage, reservation_cost=reservation)
    for record, fields in zip(report.records, out["records"]):
        fields["traffic_gb"] = record.traffic_gb
        fields["mean_latency_ms"] = record.mean_latency_ms
    return out


def _digests() -> dict[str, str]:
    out = {}
    for name, topology, spec in _instances():
        replays = hashlib.sha256()
        for kind, cfg in CONFIGS.items():
            solution = solve(topology, spec, cfg)
            text = dumps(solution_to_json(solution))
            out[f"{name} {kind}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            replays.update(dumps(_replay_json(topology, spec, solution.placement)).encode("utf-8"))
        out[f"{name} replays"] = replays.hexdigest()
    out["exhaustive reports"], out["exhaustive replays"] = _exhaustive_reports()
    out.update(_cli_digests())
    return out


def _cli_digests() -> dict[str, str]:
    """sha256 of each CSV file `simulate` and `sweep` write, run through `cli.main` on the
    mini bundle file and on two `gen` bundles; solve and sweep run each solver, seeded,
    under a time budget they never reach."""
    out = {}
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        solution, table = Path(work, "solution.json"), Path(work, "table.csv")

        def run(*argv) -> None:
            assert main([str(arg) for arg in argv]) in (0, 2), argv  # ok, or infeasible

        def csv_digest(*argv) -> str:
            run(*argv, "--csv", table)
            return hashlib.sha256(table.read_bytes()).hexdigest()

        bundles = {"mini": MINI_PATH}
        for devices, slots, seed in ((40, 30, 3), (12, 8, 5)):
            path = bundles[f"gen({devices}, {slots}, {seed})"] = Path(work, f"gen{devices}.json")
            run("gen", "--devices", devices, "--slots", slots, "--seed", seed, "--out", path)
        for name, bundle in bundles.items():
            for kind in ("exact", "greedy", "anneal"):
                options = ("--solver", kind, "--seed", 3, "--time-budget-ms", 600000)
                run("solve", bundle, *options, "--out", solution)
                out[f"cli {name} {kind} simulate csv"] = csv_digest("simulate", bundle, solution)
                out[f"cli {name} {kind} sweep csv"] = csv_digest(
                    "sweep", bundle, *options, "--budgets", 0.1, 2.0, 5.0, 50)
    return out


def _exhaustive_reports() -> tuple[str, str]:
    """sha256 over the report (null for an invalid state) of every state
    `_Best.score` is handed by exhaustive on the first six instances, and
    sha256 over the replay of every valid one of those states."""
    digest = hashlib.sha256()
    replays = hashlib.sha256()
    real_score = solver_module._Best.score

    def recording_score(self, *state):
        outcome = real_score(self, *state)
        record = report_to_json(outcome[1]) if outcome is not None else None
        digest.update(dumps(record).encode("utf-8"))
        if outcome is not None:
            replay = _replay_json(self.topology, self.spec, outcome[0])
            replays.update(dumps(replay).encode("utf-8"))
        return outcome

    solver_module._Best.score = recording_score
    try:
        for _, topology, spec in itertools.islice(_instances(), 6):
            solve(topology, spec, CONFIGS["exact"])
    finally:
        solver_module._Best.score = real_score
    return digest.hexdigest(), replays.hexdigest()


def test_solution_files_match_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = _digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"solution files changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(dumps(_digests()), encoding="utf-8")
    print(f"wrote {DIGESTS}")
