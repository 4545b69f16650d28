"""Solution files must not change under a refactor of the solvers.

`golden_solutions.json` holds the sha256 of `dumps(solution_to_json(...))`
for each solver on `mini_bundle` and `random_instance(0..9)`. Anneal runs a
short schedule (cooling 0.8, 10 iterations per temperature) and the default
one (cooling 0.95, 50 iterations) under a time budget it never reaches, so
its walk, and with it its file, depends only on the seed. One more digest
covers the report of every state exhaustive scores on `mini_bundle` and
`random_instance(0..4)`, in enumeration order and on cold instances, so a
change to the scorer cannot hide behind the winners. When a change is meant
to alter answers, rewrite the digests with
`python tests/test_golden_solutions.py` and say why in the change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from tierplace import SolverConfig, mini_bundle, solve
from tierplace import solver as solver_module
from tierplace.bundle import dumps, report_to_json, solution_to_json
from _instances import random_instance

DIGESTS = Path(__file__).with_name("golden_solutions.json")
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


def _digests() -> dict[str, str]:
    out = {}
    for name, topology, spec in _instances():
        for kind, cfg in CONFIGS.items():
            text = dumps(solution_to_json(solve(topology, spec, cfg)))
            out[f"{name} {kind}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    out["exhaustive reports"] = _exhaustive_reports()
    return out


def _exhaustive_reports() -> str:
    """sha256 over the report (null for an invalid state) of every state
    `_Best.score` is handed by exhaustive on the first six instances."""
    digest = hashlib.sha256()
    real_score = solver_module._Best.score

    def recording_score(self, *state):
        outcome = real_score(self, *state)
        record = report_to_json(outcome[1]) if outcome is not None else None
        digest.update(dumps(record).encode("utf-8"))
        return outcome

    solver_module._Best.score = recording_score
    try:
        for _, topology, spec in itertools.islice(_instances(), 6):
            solve(topology, spec, CONFIGS["exact"])
    finally:
        solver_module._Best.score = real_score
    return digest.hexdigest()


def test_solution_files_match_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = _digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"solution files changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(dumps(_digests()), encoding="utf-8")
    print(f"wrote {DIGESTS}")
