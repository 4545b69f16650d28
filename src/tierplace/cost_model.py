"""Placement evaluation: cost components, latency statistics, feasibility.

The model a placement is scored under:

* Every active stream follows its full device -> gateway -> edge -> sink-DC
  route. Per-stream stages run on the route node of their assigned tier;
  merged stages run on the aggregation host, which must lie on every route.
* The rate crossing a link is the source rate times the reductions of all
  stages hosted at or below the link's child side. Traffic is billed per
  decimal GB (8000 Mb).
* Per-stream stages are billed by usage, prorated by slot share of the
  charging period; merged stages are billed as a whole-period reservation
  of `alloc` CPU units on the aggregation host.
* A stage placed on gateways is either pre-installed (deploy cost per
  gateway, once per period) or dispatched on a gateway's first active slot
  (one-time dispatch cost plus a latency penalty on that slot's streams;
  the function stays cached afterwards).
* Feasibility = per-slot CPU usage within node capacity (and within alloc
  on the aggregation host) and per-slot link load within bandwidth.

Every cost term and the latency sum are linear in how many slots each
device is active, so `evaluate` scores a placement in closed form from
placement-independent counts, and `simulator.simulate` is the slot-by-slot
replay it is tested against. `compile_instance` derives those counts, the
routes and the reduction prefix once per problem into an `Instance`, and
memoizes the last one by the identity of the topology, pipeline and
scenario, so none of the three may be mutated after first use. The Instance
also keeps the outcome of each search state the solvers score, for every solve.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

from .topology import Layer, Link, Node, Route, Topology, TopologyError, route
from .workload import Pipeline, Scenario, ServiceSpec, derive_active_streams, flow_profile

__all__ = [
    "AggregationTooSmall",
    "CostReport",
    "Instance",
    "InvalidPlacement",
    "Placement",
    "Violation",
    "check_budget",
    "compile_instance",
    "evaluate",
    "first_touch_slots",
    "min_alloc",
]

GB_PER_MBPS_SECOND = 1.0 / 8000.0
# States an Instance keeps, invalid ones too. The default anneal schedule stores
# 2,542 on the multi_stream benchmark bundle (seed 1); exhaustive fills all 8,192.
REPORT_MEMO_CAP = 8192


class InvalidPlacement(ValueError):
    """The placement breaks a structural invariant or references unknown ids."""


class AggregationTooSmall(ValueError):
    """Peak merged-stage demand exceeds the aggregation host's capacity."""


@dataclass(frozen=True)
class Placement:
    """Where each piece of the pipeline runs.

    layer_of assigns a tier to every per-stream stage (monotone toward the
    cloud). agg_node hosts the merged stages and is absent exactly when the
    pipeline has none; sink_dc names the data center that finally receives
    the output (it equals agg_node whenever that already is a DC and may
    then be omitted). predeploy lists gateways where gateway-tier stage
    functions are pre-installed; alloc is the CPU reservation on agg_node.
    """

    layer_of: tuple[Layer, ...]
    agg_node: str | None = None
    sink_dc: str | None = None
    predeploy: frozenset[str] = frozenset()
    alloc: int = 0

    def encode(self) -> tuple:
        """Canonical total-order encoding used for deterministic tie-breaks."""
        return (
            tuple(int(layer) for layer in self.layer_of),
            self.agg_node or "",
            self.sink_dc or "",
            tuple(sorted(self.predeploy)),
        )


@dataclass(frozen=True)
class Violation:
    kind: str  # "cpu_capacity" | "alloc" | "bandwidth"
    ident: str
    magnitude: float


@dataclass(frozen=True)
class CostReport:
    server_cost: float
    network_cost: float
    deploy_cost: float
    dispatch_cost: float
    total_cost: float
    mean_latency_ms: float
    max_latency_ms: float
    peak_cpu: Mapping[str, float]  # read-only: solutions share the reports an Instance keeps
    feasible: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class _Plan:
    """A validated placement resolved against a topology and pipeline."""

    sink: str
    agg_id: str | None
    positions: tuple[int, ...]  # path index per pipeline stage
    hosted_below: tuple[int, ...]  # stages hosted at or below each link's child
    pre_count: int
    gateway_stages: tuple[int, ...]  # 0-based indices of gateway-tier stages
    predeploy: frozenset[str]
    alloc: int


def resolve_placement(
    topology: Topology, pipeline: Pipeline, placement: Placement
) -> _Plan:
    """Validate a placement and precompute stage hosting positions.

    Raises InvalidPlacement with a human-readable reason on any breach.
    """
    stages = pipeline.stages
    if not stages or not 1 <= pipeline.aggregation_index <= len(stages) + 1:
        raise InvalidPlacement("invalid placement: malformed pipeline")
    pre_count = pipeline.pre_count
    layers = tuple(placement.layer_of)
    if len(layers) != pre_count:
        raise InvalidPlacement(
            f"invalid placement: expected {pre_count} stage layers, got {len(layers)}"
        )
    if any(not isinstance(layer, Layer) for layer in layers):
        raise InvalidPlacement("invalid placement: layer_of entries must be layers")
    if any(layers[i] > layers[i + 1] for i in range(len(layers) - 1)):
        raise InvalidPlacement("invalid placement: stage layers must be monotone")

    if pipeline.has_aggregation:
        if placement.agg_node is None:
            raise InvalidPlacement("invalid placement: aggregation host required")
        if not topology.has_node(placement.agg_node):
            raise InvalidPlacement(f"invalid placement: unknown node: {placement.agg_node}")
        agg = topology.node(placement.agg_node)
        if agg.layer not in (Layer.EDGE, Layer.CLOUD):
            raise InvalidPlacement(
                "invalid placement: aggregation host must sit on the Edge or Cloud tier"
            )
        if agg.layer == Layer.CLOUD:
            sink = placement.sink_dc or agg.id
            if sink != agg.id:
                raise InvalidPlacement(
                    "invalid placement: sink must equal a cloud aggregation host"
                )
        else:
            if placement.sink_dc is None:
                raise InvalidPlacement(
                    "invalid placement: edge aggregation requires a sink DC"
                )
            sink = placement.sink_dc
            if not topology.has_node(sink) or topology.node(sink).layer != Layer.CLOUD:
                raise InvalidPlacement(f"invalid placement: invalid sink DC: {sink}")
            if topology.dc_link(agg.id, sink) is None:
                raise InvalidPlacement(
                    f"invalid placement: {agg.id} is not linked to {sink}"
                )
        if layers and layers[-1] > agg.layer:
            raise InvalidPlacement(
                "invalid placement: stage layers must not exceed the aggregation tier"
            )
        agg_id: str | None = agg.id
        agg_pos = int(agg.layer)
    else:
        if placement.agg_node is not None:
            raise InvalidPlacement(
                "invalid placement: no merged stage, aggregation host must be absent"
            )
        if placement.alloc != 0:
            raise InvalidPlacement(
                "invalid placement: no merged stage, alloc must be 0"
            )
        sink = placement.sink_dc or ""
        if not topology.has_node(sink) or topology.node(sink).layer != Layer.CLOUD:
            raise InvalidPlacement(f"invalid placement: invalid sink DC: {sink!r}")
        agg_id = None
        agg_pos = int(Layer.CLOUD)

    gateway_stages = tuple(
        k for k in range(pre_count) if layers[k] == Layer.GATEWAY
    )
    for gw in placement.predeploy:
        if not topology.has_node(gw) or topology.node(gw).layer != Layer.GATEWAY:
            raise InvalidPlacement(f"invalid placement: invalid predeploy gateway: {gw}")
    if placement.predeploy and not gateway_stages:
        raise InvalidPlacement(
            "invalid placement: predeploy set requires a gateway-tier stage"
        )
    # Above the largest float, alloc * cpu_cost_rate cannot be computed.
    if not 0 <= placement.alloc <= sys.float_info.max or int(placement.alloc) != placement.alloc:
        raise InvalidPlacement("invalid placement: alloc must be a nonnegative integer "
                               "no larger than the largest float")

    positions = tuple(
        int(layers[k]) if k < pre_count else agg_pos for k in range(len(stages))
    )
    return _Plan(
        sink=sink,
        agg_id=agg_id,
        positions=positions,
        hosted_below=tuple(sum(1 for p in positions if p <= i) for i in range(3)),
        pre_count=pre_count,
        gateway_stages=gateway_stages,
        predeploy=frozenset(placement.predeploy),
        alloc=int(placement.alloc),
    )


def stream_route(topology: Topology, device_id: str, plan: _Plan) -> Route:
    """Route one stream to the plan's sink, checking the aggregation host is on it."""
    try:
        path = route(topology, device_id, plan.sink)
    except TopologyError as exc:
        raise InvalidPlacement(f"invalid placement: {exc}") from exc
    if plan.agg_id is not None and plan.agg_id not in path.nodes:
        raise InvalidPlacement(
            f"invalid placement: aggregation host {plan.agg_id} is off the path of {device_id}"
        )
    return path


def first_touch_slots(topology: Topology, streams: list[list[str]]) -> dict[str, int]:
    """Map each scenario-visited gateway to the first slot it serves a stream."""
    first: dict[str, int] = {}
    for index, active in enumerate(streams):
        for device_id in active:
            gateway = topology.parent_of(device_id)
            if gateway is not None and gateway.id not in first:
                first[gateway.id] = index
    return first


def peak_aggregated_demand(topology: Topology, spec: ServiceSpec) -> float:
    """Peak over slots of total merged-stage CPU demand (placement-independent)."""
    return compile_instance(topology, spec).peak_demand


def _repeated_sum(values: tuple[float, ...], times: int) -> float:
    """0.0 plus `values`, in order, `times` over: how the replay adds up one
    slot's per-stream loads, so a closed-form peak rounds exactly like it."""
    total = 0.0
    for _ in range(times):
        for value in values:
            total += value
    return total


class Instance:
    """Placement-independent data of one (topology, pipeline, scenario).

    Built by `compile_instance`: the fields set in __init__ on construction,
    every other one on first use. Treat it as read-only but for the memos:
    `scored` maps up to REPORT_MEMO_CAP solver states (layer vector, terminus,
    predeploy set) to their evaluated (placement, report), or None if invalid;
    `paths` fills the routes once per sink, and `_closed_form` their Node objects in `hosts`.
    """

    def __init__(self, topology: Topology, pipeline: Pipeline, scenario: Scenario) -> None:
        self.topology, self.pipeline, self.scenario = topology, pipeline, scenario
        self.streams: tuple[tuple[str, ...], ...] = tuple(
            map(tuple, derive_active_streams(topology, scenario))
        )
        self.prefix = flow_profile(pipeline, 1.0)  # products of the first k reductions
        # device -> number of active slots, in order of first activation
        self.activations = Counter(d for active in self.streams for d in active)
        self._routes: dict[str, dict[str, Route | None]] = {}  # sink -> device -> route
        self.hosts: dict[str, dict[str, tuple[Node, ...]]] = {}  # sink -> device -> route nodes
        self._on_every_route: set[tuple[str, str | None]] = set()  # (sink, agg host) checked
        self.scored: dict[tuple, tuple[Placement, CostReport] | None] = {}

    @cached_property
    def peak_streams(self) -> dict[str, int]:
        """Node id -> most streams through it in one slot; each DC gets the busiest slot."""
        parent_of = self.topology.parent_of
        peak: dict[str, int] = {}
        for active in self.streams:
            gateways = [g.id for g in map(parent_of, active) if g is not None]
            through = Counter(active + tuple(gateways))
            through.update(e.id for e in map(parent_of, gateways) if e is not None)
            for node_id, count in through.items():
                peak[node_id] = max(peak.get(node_id, 0), count)
        busiest = max(map(len, self.streams), default=0)
        peak.update((dc.id, busiest) for dc in self.topology.clouds())
        return peak

    @cached_property
    def first_touch(self) -> dict[str, tuple[str, ...]]:
        """Visited gateway -> the devices it serves in its first active slot."""
        node = self.topology.node
        return {
            gateway_id: tuple(d for d in self.streams[slot] if node(d).parent == gateway_id)
            for gateway_id, slot in first_touch_slots(self.topology, self.streams).items()
        }

    @cached_property
    def edge_weights(self) -> Counter[str]:
        """Edge id -> stream activations through it; its keys are the used edges."""
        parent_of = self.topology.parent_of
        weights: Counter[str] = Counter()
        for device_id, count in self.activations.items():
            gateway = parent_of(device_id)
            edge = parent_of(gateway.id) if gateway is not None else None
            if edge is not None:
                weights[edge.id] += count
        return weights

    @cached_property
    def peak_demand(self) -> float:
        """Merged-stage CPU demand of the busiest slot, the peak over slots."""
        pre_count = self.pipeline.pre_count
        per_stream = self.scenario.source_rate_mbps * self.prefix[pre_count]
        merged = _repeated_sum((per_stream,), max(map(len, self.streams), default=0))
        demand = 0.0
        rate_in = merged
        for stage in self.pipeline.stages[pre_count:]:
            demand += stage.cpu_per_unit * rate_in
            rate_in *= stage.reduction
        return demand

    @cached_property
    def min_reservation(self) -> int:
        """Smallest integer reservation covering peak_demand (floor 1); the ceiling
        forgives last-ulp noise from float accumulation."""
        demand = self.peak_demand
        return max(1, math.ceil(demand - 1e-12 * max(1.0, abs(demand))))

    def paths(self, plan: _Plan) -> dict[str, Route]:
        """Every active device's route to the plan's sink, built once per sink.

        For the first device, in scenario order, that has no route or whose
        route misses the aggregation host, stream_route raises the reason.
        """
        table = self._routes.get(plan.sink)
        if table is None:
            table = {}
            for device_id in self.activations:
                try:
                    table[device_id] = route(self.topology, device_id, plan.sink)
                except TopologyError:
                    table[device_id] = None
            self._routes[plan.sink] = table
        if (plan.sink, plan.agg_id) not in self._on_every_route:
            for device_id, path in table.items():
                if path is None or (plan.agg_id is not None and plan.agg_id not in path.nodes):
                    stream_route(self.topology, device_id, plan)  # raises InvalidPlacement
            self._on_every_route.add((plan.sink, plan.agg_id))
        return table  # type: ignore[return-value]  # no None left once checked


# (topology, pipeline, scenario, Instance) of the last compile, replaced as a whole.
_memo: tuple[Topology, Pipeline, Scenario, Instance] | None = None


def compile_instance(topology: Topology, spec: ServiceSpec) -> Instance:
    """The Instance of (topology, spec.pipeline, spec.scenario), memoized.

    The one-entry memo is keyed by object identity and ignores the budget;
    it holds the three objects, so their ids cannot be reused while cached.
    """
    global _memo
    memo = _memo
    if memo and memo[0] is topology and memo[1] is spec.pipeline and memo[2] is spec.scenario:
        return memo[3]
    instance = Instance(topology, spec.pipeline, spec.scenario)
    _memo = (topology, spec.pipeline, spec.scenario, instance)
    return instance


def min_alloc(topology: Topology, spec: ServiceSpec, placement: Placement) -> int:
    """Smallest integer reservation covering peak merged-stage demand (floor 1).

    Raises AggregationTooSmall when even the raw demand exceeds the
    aggregation host's capacity, i.e. no reservation can help.
    """
    plan = resolve_placement(topology, spec.pipeline, placement)
    if plan.agg_id is None:
        raise InvalidPlacement("invalid placement: no merged stage to size")
    instance = compile_instance(topology, spec)
    if instance.peak_demand > topology.node(plan.agg_id).capacity_cpu:
        raise AggregationTooSmall(
            f"aggregation node too small: {plan.agg_id} needs {instance.peak_demand:g} CPU"
        )
    return instance.min_reservation


def check_budget(report: CostReport, budget: float) -> tuple[bool, float]:
    """(within, excess): within is inclusive at the boundary; excess is 0 when within."""
    if report.total_cost <= budget:
        return True, 0.0
    return False, report.total_cost - budget


def evaluate(topology: Topology, spec: ServiceSpec, placement: Placement) -> CostReport:
    """Score a placement over the whole scenario in closed form, with no slot loop.

    Every call validates the placement and computes its report afresh; the
    solvers keep the reports of the states they score in `Instance.scored`.
    """
    plan = resolve_placement(topology, spec.pipeline, placement)
    return _closed_form(compile_instance(topology, spec), plan)


def _closed_form(instance: Instance, plan: _Plan) -> CostReport:
    """The report of a validated plan.

    Each active device adds its number of active slots times its per-stream
    network cost, usage cost and latency; each dispatching gateway adds the
    dispatch cost once and the penalty on the streams of its first slot. Peaks
    need the precondition `validate_bundle` enforces, that every rate, CPU
    demand and reduction is finite and nonnegative: a slot's load, added up
    stream by stream, then never shrinks as the streams through its node or
    link grow, nor merged demand as the streams in the slot grow. So a peak is
    the per-stream loads added up for the most streams through the node (or the
    link's child side) in one slot, plus peak merged demand on the aggregation
    host and in its alloc check. Added up in the replay's order, not multiplied,
    they let `simulator.simulate` agree on every field, at a capacity boundary too.
    """
    topology = instance.topology
    paths = instance.paths(plan)
    prefix = instance.prefix
    scenario = instance.scenario
    stages = instance.pipeline.stages
    share = scenario.slot_seconds / scenario.period_seconds
    src_rate = scenario.source_rate_mbps
    agg_speed = topology.node(plan.agg_id or plan.sink).speed

    used = [stages[k].cpu_per_unit * (src_rate * prefix[k]) for k in range(plan.pre_count)]
    tier_loads: list[tuple[float, ...]] = [()] * 4  # nonzero per-stream loads per path index
    for k, load in enumerate(used):
        if load != 0.0:
            tier_loads[plan.positions[k]] += (load,)
    loaded_tiers = [i for i, loads in enumerate(tier_loads) if loads]
    # The device loop's device-independent terms, each with the loop's operation order.
    link_rates = [src_rate * prefix[below] for below in plan.hosted_below]
    link_factors = [rate * scenario.slot_seconds * GB_PER_MBPS_SECOND for rate in link_rates]
    rows = [(plan.positions[k], used[k], stages[k].base_ms) for k in range(plan.pre_count)]
    merged_ms = [stage.base_ms / agg_speed for stage in stages[plan.pre_count:]]
    hosts = instance.hosts.get(plan.sink)
    if hosts is None:  # built here, not in `paths`: the replay reads no Node objects
        hosts = {device: tuple(map(topology.node, p.nodes)) for device, p in paths.items()}
        instance.hosts[plan.sink] = hosts

    usage_cost = 0.0
    network_cost = 0.0
    latency_sum = 0.0
    latency: dict[str, float] = {}  # device -> stream latency without dispatch penalty
    loaded: dict[str, int] = {}  # node id -> path index of a tier with CPU load
    capped: dict[str, tuple[Link, float]] = {}  # link key -> (link, per-stream rate)
    for device_id, count in instance.activations.items():
        path, nodes = paths[device_id], hosts[device_id]
        network = 0.0
        for li, link in enumerate(path.links):
            network += link_factors[li] * link.traffic_cost_rate
            if link.bandwidth_mbps is not None:
                capped[link.key] = (link, link_rates[li])
        usage = 0.0
        stream_latency = path.latency_ms
        for position, load, base_ms in rows:
            host = nodes[position]
            usage += load * host.cpu_cost_rate * share
            stream_latency += base_ms / host.speed
        for merged in merged_ms:
            stream_latency += merged
        network_cost += count * network
        usage_cost += count * usage
        latency_sum += count * stream_latency
        latency[device_id] = stream_latency
        for i in loaded_tiers:
            loaded[path.nodes[i]] = i

    dispatch_cost = 0.0
    max_latency = max(latency.values(), default=0.0)
    if plan.gateway_stages:
        penalty_ms = sum(stages[k].dispatch_penalty_ms for k in plan.gateway_stages)
        cost_per_dispatch = sum(stages[k].dispatch_cost for k in plan.gateway_stages)
        for gateway, devices in instance.first_touch.items():
            if gateway not in plan.predeploy:
                dispatch_cost += cost_per_dispatch
                latency_sum += len(devices) * penalty_ms
                max_latency = max(max_latency, max(map(latency.get, devices)) + penalty_ms)

    peak_of = cache(lambda i, streams: _repeated_sum(tier_loads[i], streams))
    peak_streams = instance.peak_streams
    peak_cpu = {node_id: peak_of(i, peak_streams[node_id]) for node_id, i in loaded.items()}
    violations: list[Violation] = []
    if plan.agg_id is not None:
        demand = instance.peak_demand
        if demand != 0.0:
            peak_cpu[plan.agg_id] = peak_cpu.get(plan.agg_id, 0.0) + demand
        if demand > plan.alloc:
            violations.append(Violation("alloc", plan.agg_id, demand - plan.alloc))
    for node_id, peak in peak_cpu.items():
        capacity = topology.node(node_id).capacity_cpu
        if peak > capacity:
            violations.append(Violation("cpu_capacity", node_id, peak - capacity))
    for key, (link, rate) in capped.items():
        load = _repeated_sum((rate,), instance.peak_streams[link.src])
        if load > link.bandwidth_mbps:
            violations.append(Violation("bandwidth", key, load - link.bandwidth_mbps))
    violations.sort(key=lambda v: (v.kind, v.ident))

    per_gateway_deploy = sum(stages[k].deploy_cost for k in plan.gateway_stages)
    deploy_cost = _repeated_sum((per_gateway_deploy,), len(plan.predeploy))

    reservation = plan.alloc * topology.node(plan.agg_id).cpu_cost_rate if plan.agg_id else 0.0
    streams = sum(instance.activations.values())
    server_cost = usage_cost + reservation
    total_cost = server_cost + network_cost + deploy_cost + dispatch_cost
    return CostReport(
        server_cost=server_cost,
        network_cost=network_cost,
        deploy_cost=deploy_cost,
        dispatch_cost=dispatch_cost,
        total_cost=total_cost,
        mean_latency_ms=latency_sum / streams if streams else 0.0,
        max_latency_ms=max_latency,
        peak_cpu=MappingProxyType(peak_cpu),
        feasible=not violations,
        violations=tuple(violations),
    )
