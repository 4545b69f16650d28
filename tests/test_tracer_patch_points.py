"""perfbench/tracer.py wraps tierplace functions at the module attributes their
callers resolve, and the solver table `solve` dispatches through. Several of
those attributes are imports that tierplace itself never calls (kept with
`noqa: F401`); this test fails when one of them, or a solver kind, goes away,
instead of a traced benchmark run failing later."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import tierplace.solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_exist():
    tracer = _load_tracer()
    missing = [
        f"tierplace.{module_name}.{attr}"
        for module_name, attr, _ in tracer.PATCH_POINTS
        if not callable(getattr(importlib.import_module(f"tierplace.{module_name}"), attr, None))
    ]
    assert missing == []
    assert set(tracer.SOLVER_TABLE) <= set(tierplace.solver._SOLVERS)
