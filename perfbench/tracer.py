"""In-memory span tracing of tierplace's layers, applied from outside the package.

``Tracer.patched(program)`` replaces each traced function at the module
attribute its callers actually resolve (``tierplace.solver.evaluate``,
``tierplace.workload.nearest_device``, ...) with a wrapper that records a span,
and restores every original on exit. A span is (name, start, end, parent,
operation, flag); spans live in flat arrays and are written out only when the
run ends. Self time is a span's duration minus the time its direct children
cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

OK, RAISED, USEFUL = 0, 1, 2

# (module under tierplace, attribute, span name). A function imported into
# several modules is patched in each module whose code calls it.
PATCH_POINTS = [
    ("workload", "nearest_device", "topology.nearest_device"),
    ("cost_model", "route", "topology.route"),
    ("cost_model", "derive_active_streams", "workload.derive_active_streams"),
    ("simulator", "derive_active_streams", "workload.derive_active_streams"),
    ("solver", "derive_active_streams", "workload.derive_active_streams"),
    ("cost_model", "stream_route", "cost_model.stream_route"),
    ("simulator", "stream_route", "cost_model.stream_route"),
    ("cost_model", "first_touch_slots", "cost_model.first_touch_slots"),
    ("solver", "first_touch_slots", "cost_model.first_touch_slots"),
    ("cost_model", "peak_aggregated_demand", "cost_model.peak_aggregated_demand"),
    ("solver", "peak_aggregated_demand", "cost_model.peak_aggregated_demand"),
    ("solver", "evaluate", "cost_model.evaluate"),
    ("solver", "candidate_termini", "solver.candidate_termini"),
    ("solver", "choose_predeploy", "solver.choose_predeploy"),
    ("solver", "solve_greedy", "solver.greedy"),  # anneal's warm start
    ("simulator", "simulate", "simulator.simulate"),
    ("simulator", "summarize", "simulator.summarize"),
    ("cli", "simulate", "simulator.simulate"),
    ("cli", "summarize", "simulator.summarize"),
    ("cli", "load_bundle", "bundle.load_bundle"),
    ("cli", "validate_bundle", "bundle.validate_bundle"),
    ("cli", "dumps", "bundle.dumps"),
]
# solver.solve dispatches through this table, bound when the module loaded.
SOLVER_TABLE = {"exhaustive": "solver.exhaustive", "exact": "solver.exhaustive",
                "greedy": "solver.greedy", "anneal": "solver.anneal"}
SOLVER_SPANS = frozenset(SOLVER_TABLE.values())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.current_op = -1
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self._stack: list[int] = []

    def begin_op(self, label: str) -> None:
        """Start a new operation id; spans recorded from now on carry it."""
        self.ops.append(label)
        self.current_op = len(self.ops) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.flag.append(OK)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int, flag: int) -> None:
        self.end[index] = perf_counter_ns()
        self.flag[index] = flag
        self._stack.pop()

    def wrap(self, fn, name, classify=None):
        """Wrap fn so each call records a span.

        name is a span name or a function of the call's positional arguments;
        classify(args, result) may mark a returned call USEFUL.
        """
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(fixed if fixed is not None else self._name_id(name(args)))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, RAISED)
                raise
            self._close(index, classify(args, result) if classify else OK)
            return result

        return traced

    @contextmanager
    def patched(self, program):
        """Install the wrappers on the imported program; restore them on exit."""
        saved: list[tuple[object, str, object]] = []
        wrappers: dict[int, object] = {}

        def install(owner, key, fn, name, classify=None):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, name, classify)
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = wrappers[id(fn)]
            else:
                saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrappers[id(fn)])

        try:
            table = program.solver._SOLVERS
            for kind, name in SOLVER_TABLE.items():
                install(table, kind, table[kind], name)
            for module_name, attr, name in PATCH_POINTS:
                module = getattr(program, module_name)
                classify = _within_budget if name == "cost_model.evaluate" else None
                install(module, attr, getattr(module, attr), name, classify)
            install(program.cli, "main", program.cli.main,
                    lambda args: "cli.main." + (args[0][0] if args and args[0] else "none"))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    # ---- analysis -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, raised, useful, total_ns, self_ns; plus
        evaluate calls attributed to their nearest enclosing solver span and
        the time derive_active_streams takes directly under evaluate."""
        count = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child_ns = [0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += duration[i]
        stats = {
            name: {"calls": 0, "raised": 0, "useful": 0, "total_ns": 0, "self_ns": 0}
            for name in self.names
        }
        by_solver = {name: {"evals": 0, "useful": 0} for name in SOLVER_SPANS}
        derive_in_evaluate_ns = 0
        evaluate_id = self._name_ids.get("cost_model.evaluate")
        derive_id = self._name_ids.get("workload.derive_active_streams")
        for i in range(count):
            entry = stats[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["raised"] += self.flag[i] == RAISED
            entry["useful"] += self.flag[i] == USEFUL
            entry["total_ns"] += duration[i]
            entry["self_ns"] += duration[i] - child_ns[i]
            parent = self.parent[i]
            if self.name[i] == derive_id and parent >= 0 and self.name[parent] == evaluate_id:
                derive_in_evaluate_ns += duration[i]
            if self.name[i] == evaluate_id:
                while parent >= 0 and self.names[self.name[parent]] not in SOLVER_SPANS:
                    parent = self.parent[parent]
                if parent >= 0:
                    solver = by_solver[self.names[self.name[parent]]]
                    solver["evals"] += 1
                    solver["useful"] += self.flag[i] == USEFUL
        return {"spans": stats, "solvers": by_solver,
                "derive_in_evaluate_ns": derive_in_evaluate_ns}

    def write(self, path) -> None:
        """Write every span as one JSON line, after a header naming the operations."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "flag"],
                                     "ops": self.ops}) + "\n")
            for i in range(len(self.name)):
                handle.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                         self.parent[i], self.op[i], self.flag[i]]) + "\n")


def _within_budget(args, report) -> int:
    """Flag an evaluate call whose placement is feasible and within budget."""
    spec = args[1]
    return USEFUL if report.feasible and report.total_cost <= spec.budget else OK
