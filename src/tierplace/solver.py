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
    _total,
    compile_instance,
    evaluate,
    first_touch_slots,
    peak_aggregated_demand,
)
from .topology import Layer, Topology
from .workload import ServiceSpec, derive_active_streams  # noqa: F401

__all__ = [
    "SOLVER_KINDS", "SearchSpaceTooLarge", "Solution", "SolverConfig", "candidate_termini",
    "choose_dc", "choose_predeploy", "solve", "solve_anneal", "solve_exhaustive", "solve_greedy"
]


PENALTY = 1000.0  # anneal's energy weight per unit of budget excess or violation
_LAYERS = tuple(Layer)  # Layer(level), by index


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


def _within(report: CostReport, budget: float) -> bool:
    return report.feasible and report.total_cost <= budget


def _before(score: tuple, placement: Placement, kept: tuple | None) -> bool:
    """Whether (score, placement's encoding) sorts before kept's; encodes only on a tie."""
    return kept is None or score < kept[0] or (
        score == kept[0] and placement.encode() < kept[1].encode())


class _Best:
    """Score search states for a solver: `score` is the only place in this module where a
    state becomes a placement and is evaluated, and where a new valid state is offered.
    Keeps the best feasible in-budget state, the least-violating fallback and `offers`,
    the valid states offered, to which anneal adds its walk's revisits of valid states."""

    def __init__(self, topology: Topology, spec: ServiceSpec, deadline: float = math.inf) -> None:
        self.topology = topology
        self.spec = spec
        self.instance = compile_instance(topology, spec)
        self.deadline = deadline
        self.best: tuple | None = None
        self.fallback: tuple | None = None
        self.offers = 0

    def score(
        self,
        vector: tuple[Layer, ...],
        terminus: tuple[str | None, str],
        predeploy: frozenset[str] = frozenset(),
    ) -> tuple[Placement, CostReport, float] | None:
        """The state's placement with the minimal reservation, its report and its
        violation (budget excess plus violation magnitudes), offered: counted, and kept
        if it beats best or, while there is no best, fallback. None if invalid, or if new
        once a state was valid and the deadline has passed. `Instance.scored` keeps the
        placement, report and magnitude sum for every later solve: none depends on the
        budget, and states hold only Layer tuples and frozensets."""
        state = (vector, terminus, predeploy)
        table = self.instance.scored
        scored = table.get(state, False)
        if scored is False:
            if self.offers and time.monotonic() >= self.deadline:
                return None
            alloc = self.instance.min_reservation if terminus[0] else 0
            placement = Placement(vector, *terminus, predeploy, alloc)
            try:
                report = evaluate(self.topology, self.spec, placement)
                scored = placement, report, _total([v.magnitude for v in report.violations])
            except InvalidPlacement:
                scored = None
            if len(table) < cost_model.REPORT_MEMO_CAP:
                table[state] = scored
        if scored is None:
            return None
        placement, report, magnitudes = scored
        violation = max(0.0, report.total_cost - self.spec.budget) + magnitudes
        self.offers += 1
        if _within(report, self.spec.budget):
            key = (report.mean_latency_ms, report.total_cost)  # the total order, less encoding
            if _before(key, placement, self.best):
                self.best = (key, placement, report)
        elif self.best is None and _before((violation,), placement, self.fallback):
            self.fallback = ((violation,), placement, report)
        return placement, report, violation

    def solution(self, kind: str, start: float, states: int) -> Solution:
        elapsed_ms = (time.monotonic() - start) * 1000.0
        kept = self.best or self.fallback
        if kept is None:
            raise InvalidPlacement("invalid placement: no candidate placements")
        _, placement, report = kept
        return Solution(placement, report, kind, elapsed_ms, states, self.best is None)


def candidate_termini(topology: Topology, spec: ServiceSpec) -> list[tuple[str | None, str]]:
    """Legal (aggregation host, sink DC) pairs for this instance.

    Every cloud DC hosts aggregation for itself; an edge node is a
    candidate only when it lies on every active stream's path, and then
    pairs with each DC it is linked to. Without a merged stage the choice
    reduces to the sink DC alone.
    """
    clouds = [n.id for n in topology.layer(Layer.CLOUD)]
    if not spec.pipeline.has_aggregation:
        return [(None, dc) for dc in clouds]
    out: list[tuple[str | None, str]] = [(dc, dc) for dc in clouds]
    edges_used = compile_instance(topology, spec).edge_weights.keys()
    for edge in topology.layer(Layer.EDGE):
        if edges_used <= {edge.id}:
            out.extend((edge.id, dc) for dc in clouds if topology.dc_link(edge.id, dc))
    return out


def _top(topology: Topology, agg_id: str | None) -> Layer:
    """The highest tier a per-stream stage may take under this aggregation host."""
    return topology.node(agg_id).layer if agg_id else Layer.CLOUD


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
    tracker = _Best(topology, spec)
    visited = sorted(tracker.instance.first_touch)
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

    for vector, terminus in states:
        for count in range(len(visited) + 1) if Layer.GATEWAY in vector else (0,):
            for combo in itertools.combinations(visited, count):
                tracker.score(vector, terminus, frozenset(combo))
    return tracker.solution("exhaustive", start, size)


def choose_dc(topology: Topology, spec: ServiceSpec) -> str:
    """Of the `Instance.serving_dcs`, the one with the least activation-weighted edge
    latency; ties go to the smaller id. When no DC is linked from every used edge, the
    first DC by id."""
    clouds, latency = topology.layer(Layer.CLOUD), compile_instance(topology, spec).serving_dcs
    if not clouds:
        raise InvalidPlacement("invalid placement: topology has no cloud DC")
    return min(latency, key=latency.__getitem__, default=clouds[0].id)


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
    penalty_ms = _total([s.dispatch_penalty_ms for s in stages])
    net_cost = _total([s.deploy_cost for s in stages]) - _total([s.dispatch_cost for s in stages])
    if penalty_ms <= 0.0 and net_cost >= 0.0:
        return frozenset()
    chosen: list[str] = []
    remaining = max(0.0, remaining_budget)
    for gateway in compile_instance(topology, spec).predeploy_order:
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
    # stages down to keep the vector monotone) and keeps the trial of least (mean latency,
    # total cost, encoding): trials rise in layer vector, so in encoding, so it is the
    # first of least (latency, cost).
    for k in range(len(vector) - 1, -1, -1):
        trials = []
        for level in map(Layer, range(vector[k] + 1)):
            below = tuple(min(layer, level) for layer in vector[:k])
            trial = complete(below + (level,) + vector[k + 1:])
            if trial is not None and _within(trial[1], spec.budget):
                trials.append(trial)
        if trials:
            best = min(trials, key=lambda t: (t[1].mean_latency_ms, t[1].total_cost))
            vector = best[0].layer_of
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
    return tracker.solution("greedy", start, tracker.offers)


def _proposer(draw, termini: list, tops: dict, visited: list[str], pre_count: int, start: tuple):
    """Anneal's move over numbered states, (propose, states, energies): `propose(i)` makes up
    to 8 tries of a random move from state i and returns the first new state's number, else
    None. A move puts stage k one tier down or up (keeping the vector monotone and under the
    terminus's top), changes the terminus (clamping stages to its top), or, while a stage sits
    on the gateway tier, toggles a visited gateway in the predeploy set, empty otherwise.
    Draws are `randrange`'s: n.bit_length() bits of `draw` (a Random's getrandbits) until one
    is below n. A state is numbered when first proposed (`start` is 0); `energies[i]` is False
    until the walk scores `states[i]`. Its slots, 2*pre_count stage moves, one per terminus,
    then one per gateway from its first gateway move, get a number or None on first draw."""
    gateway_tier = Layer.GATEWAY  # a local: enum attribute lookups are slow
    n_termini, n_gateways = len(termini), len(visited)
    k_bits, t_bits, g_bits = map(int.bit_length, (pre_count, n_termini, n_gateways))
    first_terminus = 2 * pre_count
    first_gateway = first_terminus + n_termini
    gateway_slots = [False] * n_gateways
    ids, states, energies, successors = {}, [], [], []  # state -> number; the rest by number

    def number(state: tuple) -> int:
        i = ids.setdefault(state, len(states))
        if i == len(states):
            states.append(state)
            energies.append(False)
            successors.append([False] * first_gateway)
        return i

    def successor(state, slot: int) -> int | None:
        vector, terminus, predeploy = state
        if slot >= first_gateway:
            return number((vector, terminus, predeploy ^ {visited[slot - first_gateway]}))
        if slot >= first_terminus:
            new_terminus = termini[slot - first_terminus]
            if new_terminus == terminus:
                return None
            new_vector = tuple(min(layer, tops[new_terminus]) for layer in vector)
        else:
            k, up = divmod(slot, 2)
            level = vector[k] + (-1, 1)[up]
            high = vector[k + 1] if k + 1 < pre_count else tops[terminus]
            if not (vector[k - 1] if k else 0) <= level <= high:
                return None
            new_vector, new_terminus = vector[:k] + (_LAYERS[level],) + vector[k + 1:], terminus
        empty = gateway_tier not in new_vector
        return number((new_vector, new_terminus, frozenset() if empty else predeploy))

    def propose(i: int) -> int | None:
        slots = successors[i]
        for _ in range(8):
            while (move := draw(2)) == 3:
                pass
            if move == 0 and pre_count:
                while (k := draw(k_bits)) >= pre_count:
                    pass
                while (up := draw(2)) >= 2:
                    pass
                slot = 2 * k + up
            elif move == 1 and n_termini > 1:
                while (slot := draw(t_bits)) >= n_termini:
                    pass
                slot += first_terminus
            elif move == 2 and n_gateways and gateway_tier in states[i][0]:
                while (slot := draw(g_bits)) >= n_gateways:
                    pass
                if len(slots) == first_gateway:
                    slots += gateway_slots
                slot += first_gateway
            else:
                continue
            new = slots[slot]
            if new is False:
                new = slots[slot] = successor(states[i], slot)
            if new is not None:
                return new
        return None

    number(start)
    return propose, states, energies


def solve_anneal(
    topology: Topology, spec: ServiceSpec, cfg: SolverConfig | None = None
) -> Solution:
    """Simulated annealing over (layer vector, terminus, predeploy set).

    Energy is mean latency plus PENALTY times the sum of the budget excess and all
    capacity/bandwidth violation magnitudes, so the walk may cross infeasible regions; the
    returned state is the best strictly feasible in-budget one seen. The walk starts from
    the greedy construction (a deterministic warm start) at a temperature calibrated from
    16 probe moves, cools geometrically, and stops at the temperature floor or the
    wall-clock budget, which cuts the warm start and the probes short too. It carries
    state numbers (`_proposer`), so a revisited state costs one read of this solve's
    energy list and, when valid, one more offer. With a fixed seed the run is fully
    deterministic whenever the schedule completes inside the time budget.
    """
    cfg = cfg or SolverConfig(kind="anneal")
    start = time.monotonic()
    deadline = start + cfg.time_budget_ms / 1000.0
    rng = random.Random(cfg.seed)
    tracker = _Best(topology, spec)
    termini = candidate_termini(topology, spec)
    tops = {terminus: _top(topology, terminus[0]) for terminus in termini}
    warm = solve_greedy(topology, spec, deadline=deadline).placement
    propose, states, energies = _proposer(
        rng.getrandbits, termini, tops, sorted(tracker.instance.first_touch),
        spec.pipeline.pre_count, (warm.layer_of, (warm.agg_node, warm.sink_dc), warm.predeploy))
    monotonic, uniform, exp, inf = time.monotonic, rng.random, math.exp, math.inf  # read per step

    def energy(i: int) -> float:  # scored on the first visit; a valid revisit is an offer
        known = energies[i]
        if known is False:
            scored = tracker.score(*states[i])
            known = inf if scored is None else scored[1].mean_latency_ms + PENALTY * scored[2]
            energies[i] = known
        elif known != inf:
            tracker.offers += 1
        return known

    state, current_energy = 0, energy(0)
    deltas = []
    for _ in range(16):
        if monotonic() >= deadline:
            break
        probe = propose(state)
        if probe is not None and (probe_energy := energy(probe)) < inf:
            deltas.append(abs(probe_energy - current_energy))
    temperature = max(2.0 * (_total(deltas) / len(deltas)), max(deltas), 1.0) if deltas else 1.0
    floor = temperature * 1e-3

    while temperature > floor and monotonic() < deadline:
        for _ in range(cfg.iters_per_temp):
            if monotonic() >= deadline:
                break
            candidate = propose(state)
            if candidate is None:
                continue
            candidate_energy = energies[candidate]  # energy(), inlined: most steps revisit
            if candidate_energy is False:
                candidate_energy = energy(candidate)
            elif candidate_energy != inf:
                tracker.offers += 1
            delta = candidate_energy - current_energy
            if delta <= 0 or (delta < inf and uniform() < exp(-delta / temperature)):
                state, current_energy = candidate, candidate_energy
        temperature *= cfg.cooling

    return tracker.solution("anneal", start, tracker.offers)


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
