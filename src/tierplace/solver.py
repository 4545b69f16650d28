"""Placement search: an exhaustive oracle plus short-wall-clock heuristics.

All solvers share one state shape (stage layer vector, aggregation host and
sink DC, predeploy gateway set, with the reservation always fixed to the
minimal covering value) and one total order: lexicographic
(mean latency, total cost, canonical placement encoding). Every solver is
deterministic given its inputs and seed.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from dataclasses import dataclass

from . import cost_model
# first_touch_slots, peak_aggregated_demand and derive_active_streams are not
# called here but stay importable: perfbench/tracer.py wraps them in this module.
from .cost_model import (  # noqa: F401
    CostReport,
    InvalidPlacement,
    Placement,
    compile_instance,
    evaluate,
    first_touch_slots,
    peak_aggregated_demand,
)
from .topology import Layer, Topology
from .workload import ServiceSpec, derive_active_streams  # noqa: F401

__all__ = [
    "CompareRow",
    "SOLVER_KINDS",
    "SearchSpaceTooLarge",
    "Solution",
    "SolverConfig",
    "candidate_termini",
    "choose_dc",
    "choose_predeploy",
    "compare",
    "solve",
    "solve_anneal",
    "solve_exhaustive",
    "solve_greedy",
]


PENALTY = 1000.0  # anneal's energy weight per unit of budget excess or violation


class SearchSpaceTooLarge(ValueError):
    """Exhaustive enumeration would exceed the configured state cap."""


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "exhaustive"  # exhaustive | greedy | anneal
    time_budget_ms: float = 1000.0
    seed: int = 0
    max_states: int = 200_000
    cooling: float = 0.95
    iters_per_temp: int = 50


# Settings that bundle defaults and command-line options may give SolverConfig:
# field -> (accepted types, lowest, highest value); options are read as the last type.
SETTING_RANGES = {
    "time_budget_ms": ((int, float), 0, sys.float_info.max),  # solve takes a float
    "seed": ((int,), 0, math.inf),
    "max_states": ((int,), 1, math.inf),
}


@dataclass(frozen=True)
class Solution:
    placement: Placement
    report: CostReport
    solver_kind: str
    elapsed_ms: float
    states_examined: int
    best_effort: bool = False  # True when no feasible in-budget state was found


@dataclass(frozen=True)
class CompareRow:
    kind: str
    solution: Solution | None = None
    error: str | None = None
    optimal: bool = False


def _objective_key(state: tuple[Placement, CostReport]) -> tuple:
    placement, report = state
    return (report.mean_latency_ms, report.total_cost, placement.encode())


def _violation_score(report: CostReport, budget: float) -> float:
    excess = max(0.0, report.total_cost - budget)
    return excess + sum(v.magnitude for v in report.violations)


def _within(report: CostReport, budget: float) -> bool:
    return report.feasible and report.total_cost <= budget


class _Best:
    """Score search states for a solver: `outcome` is the only place in this module
    where a state becomes a placement and is evaluated. Keeps the best feasible
    in-budget state, the least-violating fallback and how many valid states it was offered."""

    def __init__(self, topology: Topology, spec: ServiceSpec, deadline: float = math.inf) -> None:
        self.topology = topology
        self.spec = spec
        self.instance = compile_instance(topology, spec)
        self.deadline = deadline
        self.best: tuple | None = None
        self.fallback: tuple | None = None
        self.offers = 0
        self.energies: dict[tuple, float | None] = {}  # state -> energy, None if invalid

    def outcome(self, state: tuple) -> tuple[Placement, CostReport] | None:
        """The evaluated placement of a (vector, terminus, predeploy) state with the
        minimal reservation; None if invalid, or if new once a state was valid and the
        deadline has passed. `Instance.scored` keeps it for every later solve: a report
        does not depend on the budget, and states hold only Layer tuples and frozensets."""
        table = self.instance.scored
        outcome = table.get(state, False)
        if outcome is False:
            if self.offers and time.monotonic() >= self.deadline:
                return None
            vector, (agg_id, sink), predeploy = state
            alloc = self.instance.min_reservation if agg_id else 0
            placement = Placement(vector, agg_id, sink, predeploy, alloc)
            try:
                outcome = placement, evaluate(self.topology, self.spec, placement)
            except InvalidPlacement:
                outcome = None
            if len(table) < cost_model.REPORT_MEMO_CAP:
                table[state] = outcome
        return outcome

    def offer(self, placement: Placement, report: CostReport, violation=None) -> None:
        """Count a valid state and keep it if it beats best or fallback. Once there
        is a best, the fallback is never used, so it is no longer updated."""
        self.offers += 1
        encoding = placement.encode()
        if _within(report, self.spec.budget):
            key = (report.mean_latency_ms, report.total_cost, encoding)  # _objective_key
            if self.best is None or key < self.best[0]:
                self.best = (key, placement, report)
        elif self.best is None:
            if violation is None:
                violation = _violation_score(report, self.spec.budget)
            if self.fallback is None or (violation, encoding) < self.fallback[0]:
                self.fallback = ((violation, encoding), placement, report)

    def score(
        self,
        vector: tuple[Layer, ...],
        terminus: tuple[str | None, str],
        predeploy: frozenset[str] = frozenset(),
    ) -> tuple[Placement, CostReport] | None:
        """`outcome` of the state, offered when valid."""
        outcome = self.outcome((vector, terminus, predeploy))
        if outcome is not None:
            self.offer(*outcome)
        return outcome

    def energy(self, state: tuple) -> float:
        """Anneal's energy of a state: mean latency plus PENALTY times the budget excess
        and violations, inf when invalid. A state this tracker has scored before costs a
        lookup in `energies` and one more offer, which cannot change best or fallback."""
        known = self.energies.get(state, False)
        if known is False:
            outcome, known = self.outcome(state), None
            if outcome is not None:
                placement, report = outcome
                violation = _violation_score(report, self.spec.budget)
                self.offer(placement, report, violation)
                known = report.mean_latency_ms + PENALTY * violation
            self.energies[state] = known
        elif known is not None:
            self.offers += 1
        return math.inf if known is None else known

    def solution(self, kind: str, elapsed_ms: float, states: int) -> Solution:
        if self.best is not None:
            _, placement, report = self.best
            return Solution(placement, report, kind, elapsed_ms, states, False)
        if self.fallback is None:
            raise InvalidPlacement("invalid placement: no candidate placements")
        _, placement, report = self.fallback
        return Solution(placement, report, kind, elapsed_ms, states, True)


def candidate_termini(topology: Topology, spec: ServiceSpec) -> list[tuple[str | None, str]]:
    """Legal (aggregation host, sink DC) pairs for this instance.

    Every cloud DC hosts aggregation for itself; an edge node is a
    candidate only when it lies on every active stream's path, and then
    pairs with each DC it is linked to. Without a merged stage the choice
    reduces to the sink DC alone.
    """
    clouds = [n.id for n in topology.clouds()]
    if not spec.pipeline.has_aggregation:
        return [(None, dc) for dc in clouds]
    out: list[tuple[str | None, str]] = [(dc, dc) for dc in clouds]
    edges_used = compile_instance(topology, spec).edge_weights.keys()
    for edge in topology.edges():
        if edges_used <= {edge.id}:
            out.extend((edge.id, dc) for dc in topology.dcs_of_edge(edge.id))
    return out


def _top(topology: Topology, agg_id: str | None) -> Layer:
    """The highest tier a per-stream stage may take under this aggregation host."""
    return topology.node(agg_id).layer if agg_id else Layer.CLOUD


def _subsets(items: list[str]):
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def solve_exhaustive(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Enumerate every legal placement; the ground-truth oracle.

    No pruning beyond structural legality: every state is scored by
    `_Best.score`, and infeasible ones are rejected there, never skipped, so
    the optimum cannot be missed. Raises
    SearchSpaceTooLarge when the state count exceeds cfg.max_states.
    """
    cfg = cfg or SolverConfig(kind="exhaustive")
    start = time.monotonic()
    instance = compile_instance(topology, spec)
    visited = sorted(instance.first_touch)
    states = [
        (tuple(map(Layer, combo)), terminus)
        for terminus in candidate_termini(topology, spec)
        for combo in itertools.combinations_with_replacement(
            range(_top(topology, terminus[0]) + 1), spec.pipeline.pre_count
        )
    ]
    size = sum(2 ** len(visited) if Layer.GATEWAY in vector else 1 for vector, _ in states)
    if size > cfg.max_states:
        raise SearchSpaceTooLarge(f"search space too large ({size} states)")

    tracker = _Best(topology, spec)
    for vector, terminus in states:
        predeploys = _subsets(visited) if Layer.GATEWAY in vector else [frozenset()]
        for predeploy in predeploys:
            tracker.score(vector, terminus, predeploy)
    elapsed = (time.monotonic() - start) * 1000.0
    return tracker.solution("exhaustive", elapsed, size)


def choose_dc(topology: Topology, spec: ServiceSpec) -> str:
    """DC minimizing activation-weighted edge latency; ties go to the smaller id."""
    weight = compile_instance(topology, spec).edge_weights
    clouds = topology.clouds()
    if not clouds:
        raise InvalidPlacement("invalid placement: topology has no cloud DC")
    best: tuple[float, str] | None = None
    for dc in clouds:
        score = 0.0
        for edge_id, count in sorted(weight.items()):
            link = topology.dc_link(edge_id, dc.id)
            if link is None:
                score = math.inf
                break
            score += count * link.latency_ms
        if best is None or (score, dc.id) < best:
            best = (score, dc.id)
    return best[1]


def choose_predeploy(
    topology: Topology,
    spec: ServiceSpec,
    placement: Placement,
    remaining_budget: float,
) -> frozenset[str]:
    """The visited gateways that pre-install the gateway stages: a ranked prefix.

    Pre-installing at one gateway costs the same net amount at every gateway
    (the deploy cost less the dispatch cost it saves), removes the dispatch
    penalty from the streams of the gateway's first slot, and moves no CPU or
    bandwidth load. So among sets of one size, the gateways with the most
    first-slot streams (ties to the smaller id) give the least mean latency
    at the same cost, and the longest such prefix whose net cost fits
    remaining_budget is the (mean latency, total cost) optimum for this
    layer vector and terminus. None are taken when they lower no latency and
    save no cost.
    """
    per_stream = zip(spec.pipeline.stages, placement.layer_of)
    stages = [stage for stage, layer in per_stream if layer == Layer.GATEWAY]
    if not stages:
        return frozenset()
    penalty_ms = sum(s.dispatch_penalty_ms for s in stages)
    net_cost = sum(s.deploy_cost for s in stages) - sum(s.dispatch_cost for s in stages)
    if penalty_ms <= 0.0 and net_cost >= 0.0:
        return frozenset()
    served = compile_instance(topology, spec).first_touch
    chosen: list[str] = []
    remaining = max(0.0, remaining_budget)
    for gateway in sorted(served, key=lambda g: (-len(served[g]), g)):
        if net_cost > remaining:
            break
        chosen.append(gateway)
        remaining -= net_cost
    return frozenset(chosen)


def _greedy_candidate(
    topology: Topology,
    spec: ServiceSpec,
    terminus: tuple[str | None, str],
    tracker: _Best,
) -> bool:
    """Run the layer-lowering scan for one terminus, scoring each state through
    `tracker.score`; False when the first state is not feasible within budget."""

    def complete(vector: tuple[Layer, ...]):
        base = tracker.score(vector, terminus)
        if base is None or Layer.GATEWAY not in vector:
            return base
        predeploy = choose_predeploy(topology, spec, base[0], spec.budget - base[1].total_cost)
        return tracker.score(vector, terminus, predeploy) if predeploy else base

    vector = (_top(topology, terminus[0]),) * spec.pipeline.pre_count
    current = complete(vector)
    if current is None or not _within(current[1], spec.budget):
        return False
    # Lower stages from the merge point toward the devices; each step scans
    # every tier at or below the stage's current one (clamping earlier
    # stages down to keep the vector monotone) and keeps the best trial.
    for k in range(len(vector) - 1, -1, -1):
        trials = []
        for level in map(Layer, range(vector[k] + 1)):
            below = tuple(min(layer, level) for layer in vector[:k])
            trial = complete(below + (level,) + vector[k + 1:])
            if trial is not None and _within(trial[1], spec.budget):
                trials.append(trial)
        if trials:
            vector = min(trials, key=_objective_key)[0].layer_of
    return True


def solve_greedy(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None, deadline=math.inf
) -> Solution:
    """Deterministic construction: pick a DC, sink stages toward the devices,
    and pre-install gateway functions on the ranked prefix of
    `choose_predeploy`, the best predeploy set for each layer vector tried.
    Each scan ends on the best in-budget state it scored, so the answer is the
    tracker's best. Past `deadline` (anneal's warm start), the scans evaluate
    no new state once one is valid: they only look up what the instance holds."""
    start = time.monotonic()
    tracker = _Best(topology, spec, deadline)
    primary_dc = choose_dc(topology, spec)
    primary = (primary_dc if spec.pipeline.has_aggregation else None, primary_dc)
    if not _greedy_candidate(topology, spec, primary, tracker):
        # Initial all-at-DC placement did not fit; scan every terminus.
        for terminus in candidate_termini(topology, spec):
            _greedy_candidate(topology, spec, terminus, tracker)
    elapsed = (time.monotonic() - start) * 1000.0
    return tracker.solution("greedy", elapsed, tracker.offers)


def _below(getrandbits, n: int) -> int:
    """`rng.randrange(n)` for n >= 1 from `rng.getrandbits`, drawing the same bits as
    CPython does (n.bit_length() at a time, rejecting values >= n) without its checks."""
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def solve_anneal(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Simulated annealing over (layer vector, terminus, predeploy set).

    Energy is mean latency plus PENALTY times the sum of the budget
    excess and all capacity/bandwidth violation magnitudes, so the walk may
    cross infeasible regions; the returned state is the best strictly
    feasible in-budget one seen. The walk starts from the greedy
    construction (a deterministic warm start) at a temperature calibrated
    from 16 probe moves, cools geometrically, and stops at the temperature
    floor or the wall-clock budget, which cuts the warm start and the probes
    short too. A revisited state costs a lookup of its energy in this solve's
    tracker and one more offer. With a fixed seed the run is fully
    deterministic whenever the schedule completes inside the time budget.
    """
    cfg = cfg or SolverConfig(kind="anneal")
    start = time.monotonic()
    deadline = start + cfg.time_budget_ms / 1000.0
    rng = random.Random(cfg.seed)
    draw = rng.getrandbits
    tracker = _Best(topology, spec)
    termini = candidate_termini(topology, spec)
    tops = {terminus: _top(topology, terminus[0]) for terminus in termini}
    layers = tuple(Layer)  # Layer(level), by index
    visited = sorted(tracker.instance.first_touch)

    def propose(state):
        vector, terminus, predeploy = state
        for _ in range(8):
            move = _below(draw, 3)
            if move == 0 and vector:
                k = _below(draw, len(vector))
                level = vector[k] + (-1, 1)[_below(draw, 2)]
                high = vector[k + 1] if k + 1 < len(vector) else tops[terminus]
                if not (vector[k - 1] if k else 0) <= level <= high:
                    continue
                new_vector, new_terminus = vector[:k] + (layers[level],) + vector[k + 1:], terminus
            elif move == 1 and len(termini) > 1:
                new_terminus = termini[_below(draw, len(termini))]
                if new_terminus == terminus:
                    continue
                new_vector = tuple(min(layer, tops[new_terminus]) for layer in vector)
            elif move == 2 and visited and Layer.GATEWAY in vector:
                gateway = visited[_below(draw, len(visited))]
                return vector, terminus, frozenset(predeploy ^ {gateway})
            else:
                continue
            new_predeploy = predeploy if Layer.GATEWAY in new_vector else frozenset()
            return new_vector, new_terminus, new_predeploy
        return None

    warm = solve_greedy(topology, spec, deadline=deadline).placement
    state = (warm.layer_of, (warm.agg_node, warm.sink_dc), warm.predeploy)
    current_energy = tracker.energy(state)

    deltas = []
    for _ in range(16):
        if time.monotonic() >= deadline:
            break
        probe = propose(state)
        if probe is None:
            continue
        probe_energy = tracker.energy(probe)
        if math.isfinite(probe_energy):
            deltas.append(abs(probe_energy - current_energy))
    temperature = max(2.0 * (sum(deltas) / len(deltas)), max(deltas), 1.0) if deltas else 1.0
    floor = max(temperature * 1e-3, 1e-9)

    while temperature > floor and time.monotonic() < deadline:
        for _ in range(cfg.iters_per_temp):
            if time.monotonic() >= deadline:
                break
            candidate = propose(state)
            if candidate is None:
                continue
            candidate_energy = tracker.energy(candidate)
            delta = candidate_energy - current_energy
            if delta <= 0 or (
                math.isfinite(delta)
                and rng.random() < math.exp(-delta / max(temperature, 1e-12))
            ):
                state, current_energy = candidate, candidate_energy
        temperature *= cfg.cooling

    elapsed = (time.monotonic() - start) * 1000.0
    return tracker.solution("anneal", elapsed, tracker.offers)


_SOLVERS = {
    "exhaustive": solve_exhaustive,
    "exact": solve_exhaustive,
    "greedy": solve_greedy,
    "anneal": solve_anneal,
}
SOLVER_KINDS = tuple(_SOLVERS)


def solve(topology: Topology, spec: ServiceSpec, cfg: SolverConfig) -> Solution:
    try:
        fn = _SOLVERS[cfg.kind]
    except KeyError:
        raise ValueError(f"unknown solver kind: {cfg.kind!r}") from None
    return fn(topology, spec, cfg)


def compare(
    topology: Topology, spec: ServiceSpec, configs: list[SolverConfig]
) -> list[CompareRow]:
    """Run each configured solver on identical inputs; one row per config."""
    rows: list[CompareRow] = []
    for cfg in configs:
        try:
            solution = solve(topology, spec, cfg)
        except (SearchSpaceTooLarge, InvalidPlacement, ValueError) as exc:
            rows.append(CompareRow(kind=cfg.kind, error=str(exc)))
            continue
        rows.append(
            CompareRow(
                kind=cfg.kind,
                solution=solution,
                optimal=cfg.kind in ("exhaustive", "exact") and not solution.best_effort,
            )
        )
    return rows
