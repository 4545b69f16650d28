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
import time
from dataclasses import dataclass

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


class SearchSpaceTooLarge(ValueError):
    """Exhaustive enumeration would exceed the configured state cap."""


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "exhaustive"  # exhaustive | greedy | anneal
    time_budget_ms: float = 1000.0
    seed: int = 0
    max_states: int = 200_000
    initial_temperature: float | None = None  # auto-calibrated when None
    cooling: float = 0.95
    iters_per_temp: int = 50
    penalty: float = 1000.0  # energy weight per unit of constraint violation


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


def _objective_key(report: CostReport, placement: Placement) -> tuple:
    return (report.mean_latency_ms, report.total_cost, placement.encode())


def _violation_score(report: CostReport, budget: float) -> float:
    excess = max(0.0, report.total_cost - budget)
    return excess + sum(v.magnitude for v in report.violations)


def _within(report: CostReport, budget: float) -> bool:
    return report.feasible and report.total_cost <= budget


class _Best:
    """Track the best feasible state and the least-violating fallback."""

    def __init__(self, budget: float) -> None:
        self.budget = budget
        self.best: tuple | None = None
        self.fallback: tuple | None = None

    def offer(self, placement: Placement, report: CostReport) -> None:
        if _within(report, self.budget):
            key = _objective_key(report, placement)
            if self.best is None or key < self.best[0]:
                self.best = (key, placement, report)
        score_key = (_violation_score(report, self.budget), placement.encode())
        if self.fallback is None or score_key < self.fallback[0]:
            self.fallback = (score_key, placement, report)

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


def _layer_vectors(pre_count: int, max_layer: int):
    if pre_count == 0:
        yield ()
        return
    for combo in itertools.combinations_with_replacement(range(max_layer + 1), pre_count):
        yield tuple(Layer(v) for v in combo)


def _subsets(items: list[str]):
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def solve_exhaustive(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Enumerate every legal placement; the ground-truth oracle.

    No pruning beyond structural legality: infeasible states are rejected by
    evaluation, never skipped, so the optimum cannot be missed. Raises
    SearchSpaceTooLarge when the state count exceeds cfg.max_states.
    """
    cfg = cfg or SolverConfig(kind="exhaustive")
    start = time.monotonic()
    pre_count = spec.pipeline.pre_count
    instance = compile_instance(topology, spec)
    termini = candidate_termini(topology, spec)
    visited = sorted(instance.first_touch)

    size = 0
    for agg_id, _sink in termini:
        max_layer = int(topology.node(agg_id).layer) if agg_id else int(Layer.CLOUD)
        for vector in _layer_vectors(pre_count, max_layer):
            size += 2 ** len(visited) if Layer.GATEWAY in vector else 1
    if size > cfg.max_states:
        raise SearchSpaceTooLarge(f"search space too large ({size} states)")

    tracker = _Best(spec.budget)
    examined = 0
    for agg_id, sink in termini:
        # The reservation is always the minimal covering value, never searched.
        alloc = instance.min_reservation if agg_id else 0
        max_layer = int(topology.node(agg_id).layer) if agg_id else int(Layer.CLOUD)
        for vector in _layer_vectors(pre_count, max_layer):
            predeploys = _subsets(visited) if Layer.GATEWAY in vector else iter([frozenset()])
            for predeploy in predeploys:
                examined += 1
                placement = Placement(
                    layer_of=vector,
                    agg_node=agg_id,
                    sink_dc=sink,
                    predeploy=predeploy,
                    alloc=alloc,
                )
                try:
                    report = evaluate(topology, spec, placement)
                except InvalidPlacement:
                    continue
                tracker.offer(placement, report)
    elapsed = (time.monotonic() - start) * 1000.0
    return tracker.solution("exhaustive", elapsed, examined)


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
    """Greedy knapsack over scenario-visited gateways.

    benefit(g) is the drop in mean latency from avoiding g's dispatch
    penalties; cost(g) is the deploy cost net of the avoided dispatch cost.
    Gateways are taken in descending benefit / max(cost, 1e-9) order while
    they fit the remaining budget and actually help (positive benefit or
    negative net cost). Ties are broken by gateway id.
    """
    stages = spec.pipeline.stages
    gateway_stages = [
        k for k, layer in enumerate(placement.layer_of) if layer == Layer.GATEWAY
    ]
    if not gateway_stages:
        return frozenset()
    instance = compile_instance(topology, spec)
    total_pairs = sum(len(active) for active in instance.streams)
    if total_pairs == 0:
        return frozenset()
    penalty_ms = sum(stages[k].dispatch_penalty_ms for k in gateway_stages)
    per_dispatch = sum(stages[k].dispatch_cost for k in gateway_stages)
    per_deploy = sum(stages[k].deploy_cost for k in gateway_stages)

    scored: list[tuple[float, str, float, float]] = []
    for gateway, slot in sorted(instance.first_touch.items()):
        hit = instance.gateway_counts[slot][gateway]
        benefit = hit * penalty_ms / total_pairs
        cost = per_deploy - per_dispatch
        scored.append((-(benefit / max(cost, 1e-9)), gateway, benefit, cost))

    chosen: set[str] = set()
    remaining = max(0.0, remaining_budget)
    for _ratio, gateway, benefit, cost in sorted(scored):
        if benefit <= 0.0 and cost >= 0.0:
            continue
        if cost <= remaining:
            chosen.add(gateway)
            remaining -= cost
    return frozenset(chosen)


def _greedy_candidate(
    topology: Topology,
    spec: ServiceSpec,
    terminus: tuple[str | None, str],
    tracker: _Best,
) -> tuple[tuple[tuple, Placement, CostReport] | None, int]:
    """Run the layer-lowering scan for one terminus.

    Returns (result, evaluations); result is None when nothing at this
    terminus is both feasible and within budget.
    """
    agg_id, sink = terminus
    agg_layer = topology.node(agg_id).layer if agg_id else Layer.CLOUD
    alloc = compile_instance(topology, spec).min_reservation if agg_id else 0
    pre_count = spec.pipeline.pre_count
    evals = 0

    def complete(vector: tuple[Layer, ...]):
        nonlocal evals
        base = Placement(
            layer_of=vector, agg_node=agg_id, sink_dc=sink,
            predeploy=frozenset(), alloc=alloc,
        )
        try:
            base_report = evaluate(topology, spec, base)
        except InvalidPlacement:
            return None
        evals += 1
        tracker.offer(base, base_report)
        if Layer.GATEWAY not in vector:
            return base, base_report
        remaining = spec.budget - base_report.total_cost
        predeploy = choose_predeploy(topology, spec, base, max(0.0, remaining))
        if not predeploy:
            return base, base_report
        chosen = Placement(
            layer_of=vector, agg_node=agg_id, sink_dc=sink,
            predeploy=predeploy, alloc=alloc,
        )
        report = evaluate(topology, spec, chosen)
        evals += 1
        tracker.offer(chosen, report)
        return chosen, report

    vector = tuple([agg_layer] * pre_count)
    current = complete(vector)
    if current is None or not _within(current[1], spec.budget):
        return None, evals
    # Lower stages from the merge point toward the devices; each step scans
    # every tier at or below the stage's current one (clamping earlier
    # stages down to keep the vector monotone) and keeps the best trial.
    for k in range(pre_count - 1, -1, -1):
        best_trial = None
        for level in range(int(vector[k]) + 1):
            trial_vector = list(vector)
            trial_vector[k] = Layer(level)
            for j in range(k):
                trial_vector[j] = min(trial_vector[j], Layer(level))
            trial = complete(tuple(trial_vector))
            if trial is None or not _within(trial[1], spec.budget):
                continue
            key = _objective_key(trial[1], trial[0])
            if best_trial is None or key < best_trial[0]:
                best_trial = (key, trial[0], trial[1], tuple(trial_vector))
        if best_trial is not None:
            vector = best_trial[3]
            current = (best_trial[1], best_trial[2])
    placement, report = current
    return (_objective_key(report, placement), placement, report), evals


def solve_greedy(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Deterministic construction: pick a DC, sink stages toward the devices,
    then pre-install gateway functions by knapsack and size the reservation."""
    start = time.monotonic()
    tracker = _Best(spec.budget)
    states = 0

    primary_dc = choose_dc(topology, spec)
    primary: tuple[str | None, str] = (
        (primary_dc, primary_dc) if spec.pipeline.has_aggregation else (None, primary_dc)
    )
    result, evals = _greedy_candidate(topology, spec, primary, tracker)
    states += evals
    if result is None:
        # Initial all-at-DC placement did not fit; scan every terminus.
        best = None
        for terminus in candidate_termini(topology, spec):
            candidate, evals = _greedy_candidate(topology, spec, terminus, tracker)
            states += evals
            if candidate is None:
                continue
            if best is None or candidate[0] < best[0]:
                best = candidate
        result = best
    elapsed = (time.monotonic() - start) * 1000.0
    if result is None:
        return tracker.solution("greedy", elapsed, states)
    _, placement, report = result
    return Solution(placement, report, "greedy", elapsed, states, False)


def _clamp_vector(vector: tuple[Layer, ...], max_layer: Layer) -> tuple[Layer, ...]:
    return tuple(min(layer, max_layer) for layer in vector)


def solve_anneal(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Simulated annealing over (layer vector, terminus, predeploy set).

    Energy is mean latency plus cfg.penalty times the sum of the budget
    excess and all capacity/bandwidth violation magnitudes, so the walk may
    cross infeasible regions; the returned state is the best strictly
    feasible in-budget one seen. The walk starts from the greedy
    construction (a deterministic warm start), cools geometrically, and
    stops at the temperature floor or the wall-clock budget. With a fixed
    seed the run is fully deterministic whenever the schedule completes
    inside the time budget.
    """
    cfg = cfg or SolverConfig(kind="anneal")
    start = time.monotonic()
    deadline = start + cfg.time_budget_ms / 1000.0
    rng = random.Random(cfg.seed)
    tracker = _Best(spec.budget)
    instance = compile_instance(topology, spec)
    termini = candidate_termini(topology, spec)
    visited = sorted(instance.first_touch)
    alloc_by_agg = {agg: instance.min_reservation if agg else 0 for agg, _ in termini}
    evals = 0

    def placement_of(state) -> Placement:
        vector, (agg_id, sink), predeploy = state
        return Placement(
            layer_of=vector, agg_node=agg_id, sink_dc=sink,
            predeploy=predeploy, alloc=alloc_by_agg[agg_id],
        )

    def energy(state) -> float:
        nonlocal evals
        placement = placement_of(state)
        try:
            report = evaluate(topology, spec, placement)
        except InvalidPlacement:
            return math.inf
        evals += 1
        tracker.offer(placement, report)
        return report.mean_latency_ms + cfg.penalty * _violation_score(report, spec.budget)

    def propose(state):
        vector, terminus, predeploy = state
        agg_layer = (
            topology.node(terminus[0]).layer if terminus[0] else Layer.CLOUD
        )
        for _ in range(8):
            move = rng.randrange(3)
            if move == 0 and vector:
                k = rng.randrange(len(vector))
                step = rng.choice((-1, 1))
                level = int(vector[k]) + step
                low = int(vector[k - 1]) if k else 0
                high = int(vector[k + 1]) if k + 1 < len(vector) else int(agg_layer)
                if not low <= level <= high:
                    continue
                new_vector = vector[:k] + (Layer(level),) + vector[k + 1:]
                new_predeploy = predeploy if Layer.GATEWAY in new_vector else frozenset()
                return new_vector, terminus, new_predeploy
            if move == 1 and len(termini) > 1:
                candidate = termini[rng.randrange(len(termini))]
                if candidate == terminus:
                    continue
                new_layer = (
                    topology.node(candidate[0]).layer if candidate[0] else Layer.CLOUD
                )
                new_vector = _clamp_vector(vector, new_layer)
                new_predeploy = predeploy if Layer.GATEWAY in new_vector else frozenset()
                return new_vector, candidate, new_predeploy
            if move == 2 and visited and Layer.GATEWAY in vector:
                gateway = visited[rng.randrange(len(visited))]
                return vector, terminus, frozenset(predeploy ^ {gateway})
        return None

    warm = solve_greedy(topology, spec)
    state = (
        warm.placement.layer_of,
        (warm.placement.agg_node, warm.placement.sink_dc),
        warm.placement.predeploy,
    )
    current_energy = energy(state)

    temperature = cfg.initial_temperature
    if temperature is None:
        deltas = []
        for _ in range(16):
            probe = propose(state)
            if probe is None:
                continue
            probe_energy = energy(probe)
            if math.isfinite(probe_energy):
                deltas.append(abs(probe_energy - current_energy))
        mean_delta = sum(deltas) / len(deltas) if deltas else 0.0
        peak_delta = max(deltas) if deltas else 0.0
        temperature = max(2.0 * mean_delta, peak_delta, 1.0)
    floor = max(temperature * 1e-3, 1e-9)

    while temperature > floor and time.monotonic() < deadline:
        for _ in range(cfg.iters_per_temp):
            if time.monotonic() >= deadline:
                break
            candidate = propose(state)
            if candidate is None:
                continue
            candidate_energy = energy(candidate)
            delta = candidate_energy - current_energy
            if delta <= 0 or (
                math.isfinite(delta)
                and rng.random() < math.exp(-delta / max(temperature, 1e-12))
            ):
                state, current_energy = candidate, candidate_energy
        temperature *= cfg.cooling

    elapsed = (time.monotonic() - start) * 1000.0
    return tracker.solution("anneal", elapsed, evals)


_SOLVERS = {
    "exhaustive": solve_exhaustive,
    "exact": solve_exhaustive,
    "greedy": solve_greedy,
    "anneal": solve_anneal,
}


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
