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

Placement-independent data (active streams, per-sink routes, first-touch
slots, per-gateway and per-edge stream counts, the reduction prefix, peak
merged demand and minimal reservation) is derived once per problem into an
`Instance` by `compile_instance`, which memoizes the last one by the
identity of the topology, pipeline and scenario, so none of the three may
be mutated after first use.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .topology import Layer, Route, Topology, TopologyError, route
from .workload import Pipeline, Scenario, ServiceSpec, derive_active_streams

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
    peak_cpu: dict[str, float]
    feasible: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class _Plan:
    """A validated placement resolved against a topology and pipeline."""

    sink: str
    agg_id: str | None
    agg_pos: int  # path index (0..3) of the merged-stage host
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
    if placement.alloc < 0 or int(placement.alloc) != placement.alloc:
        raise InvalidPlacement("invalid placement: alloc must be a nonnegative integer")

    positions = tuple(
        int(layers[k]) if k < pre_count else agg_pos for k in range(len(stages))
    )
    return _Plan(
        sink=sink,
        agg_id=agg_id,
        agg_pos=agg_pos,
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


def _ceil_tolerant(value: float) -> int:
    """Ceiling that forgives last-ulp noise from float accumulation."""
    return math.ceil(value - 1e-12 * max(1.0, abs(value)))


def peak_aggregated_demand(topology: Topology, spec: ServiceSpec) -> float:
    """Peak over slots of total merged-stage CPU demand (placement-independent)."""
    return compile_instance(topology, spec).peak_demand


class Instance:
    """Placement-independent data of one (topology, pipeline, scenario).

    Built by `compile_instance`: `streams` is derived on construction, every
    other field on first use. Treat all of it as read-only.
    """

    def __init__(self, topology: Topology, pipeline: Pipeline, scenario: Scenario) -> None:
        self.topology, self.pipeline, self.scenario = topology, pipeline, scenario
        self.streams: tuple[tuple[str, ...], ...] = tuple(
            map(tuple, derive_active_streams(topology, scenario))
        )
        self._routes: dict[str, dict[str, Route | None]] = {}  # sink -> device -> route

    @cached_property
    def prefix(self) -> list[float]:
        """prefix[k] is the product of the first k stage reductions."""
        prefix = [1.0]
        for stage in self.pipeline.stages:
            prefix.append(prefix[-1] * stage.reduction)
        return prefix

    @cached_property
    def first_touch(self) -> dict[str, int]:
        return first_touch_slots(self.topology, self.streams)

    @cached_property
    def gateway_counts(self) -> list[Counter[str]]:
        """Per slot: gateway id -> number of active streams it serves."""
        parent_of = self.topology.parent_of
        return [Counter(g.id for g in map(parent_of, active) if g) for active in self.streams]

    @cached_property
    def edge_weights(self) -> Counter[str]:
        """Edge id -> stream activations through it; its keys are the used edges."""
        weights: Counter[str] = Counter()
        for counts in self.gateway_counts:
            for gateway_id, count in counts.items():
                edge = self.topology.parent_of(gateway_id)
                if edge is not None:
                    weights[edge.id] += count
        return weights

    @cached_property
    def peak_demand(self) -> float:
        """Peak over slots of total merged-stage CPU demand."""
        stages = self.pipeline.stages
        pre_count = self.pipeline.pre_count
        peak = 0.0
        for active in self.streams:
            merged = 0.0
            for _ in active:
                merged += self.scenario.source_rate_mbps * self.prefix[pre_count]
            demand = 0.0
            rate_in = merged
            for k in range(pre_count, len(stages)):
                demand += stages[k].cpu_per_unit * rate_in
                rate_in *= stages[k].reduction
            peak = max(peak, demand)
        return peak

    @cached_property
    def min_reservation(self) -> int:
        """Smallest integer reservation covering peak_demand (floor 1)."""
        return max(1, _ceil_tolerant(self.peak_demand))

    def paths(self, plan: _Plan) -> dict[str, Route]:
        """Every active device's route to the plan's sink, built once per sink.

        For the first device, in scenario order, that has no route or whose
        route misses the aggregation host, stream_route raises the reason.
        """
        table = self._routes.get(plan.sink)
        if table is None:
            table = {}
            for device_id in dict.fromkeys(d for active in self.streams for d in active):
                try:
                    table[device_id] = route(self.topology, device_id, plan.sink)
                except TopologyError:
                    table[device_id] = None
            self._routes[plan.sink] = table
        for device_id, path in table.items():
            if path is None or (plan.agg_id is not None and plan.agg_id not in path.nodes):
                stream_route(self.topology, device_id, plan)  # raises InvalidPlacement
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
    """Score a placement over the whole scenario.

    Costs, latency statistics, and violations follow the module-level model
    notes; the result is a pure function of the inputs. The replay in
    `simulator.simulate` must agree with this report on every numeric field;
    the two are written independently as a cross-check.
    """
    plan = resolve_placement(topology, spec.pipeline, placement)
    instance = compile_instance(topology, spec)
    paths = instance.paths(plan)
    prefix = instance.prefix
    hosted_below = plan.hosted_below
    scenario = spec.scenario
    stages = spec.pipeline.stages
    period = scenario.period_seconds
    share = scenario.slot_seconds / period
    src_rate = scenario.source_rate_mbps

    if plan.gateway_stages:
        dispatch_slot = {g: s for g, s in instance.first_touch.items() if g not in plan.predeploy}
    else:
        dispatch_slot = {}
    penalty_ms = sum(stages[k].dispatch_penalty_ms for k in plan.gateway_stages)
    cost_per_dispatch = sum(stages[k].dispatch_cost for k in plan.gateway_stages)
    agg_speed = topology.node(plan.agg_id or plan.sink).speed

    usage_cost = 0.0
    network_cost = 0.0
    dispatch_cost = 0.0
    latencies: list[float] = []
    peak_cpu: dict[str, float] = {}
    worst: dict[tuple[str, str], float] = {}

    for slot_index, active in enumerate(instance.streams):
        node_usage: dict[str, float] = {}
        link_load: dict[str, float] = {}
        link_by_key: dict[str, object] = {}
        merged = 0.0
        for device_id in active:
            path = paths[device_id]
            for li, link in enumerate(path.links):
                rate = src_rate * prefix[hosted_below[li]]
                network_cost += (
                    rate * scenario.slot_seconds * GB_PER_MBPS_SECOND
                    * link.traffic_cost_rate
                )
                link_load[link.key] = link_load.get(link.key, 0.0) + rate
                link_by_key[link.key] = link
            latency = path.latency_ms
            for k in range(plan.pre_count):
                host = topology.node(path.nodes[plan.positions[k]])
                used = stages[k].cpu_per_unit * (src_rate * prefix[k])
                if used != 0.0:
                    node_usage[host.id] = node_usage.get(host.id, 0.0) + used
                    usage_cost += used * host.cpu_cost_rate * share
                latency += stages[k].base_ms / host.speed
            for k in range(plan.pre_count, len(stages)):
                latency += stages[k].base_ms / agg_speed
            if dispatch_slot.get(path.nodes[1]) == slot_index:
                latency += penalty_ms
            latencies.append(latency)
            merged += src_rate * prefix[plan.pre_count]

        agg_usage = 0.0
        if plan.agg_id is not None and active:
            rate_in = merged
            for k in range(plan.pre_count, len(stages)):
                agg_usage += stages[k].cpu_per_unit * rate_in
                rate_in *= stages[k].reduction
            if agg_usage != 0.0:
                node_usage[plan.agg_id] = node_usage.get(plan.agg_id, 0.0) + agg_usage

        for gateway, slot in dispatch_slot.items():
            if slot == slot_index:
                dispatch_cost += cost_per_dispatch

        for node_id in sorted(node_usage):
            used = node_usage[node_id]
            peak_cpu[node_id] = max(peak_cpu.get(node_id, 0.0), used)
            capacity = topology.node(node_id).capacity_cpu
            if used > capacity:
                key = ("cpu_capacity", node_id)
                worst[key] = max(worst.get(key, 0.0), used - capacity)
        if plan.agg_id is not None and agg_usage > plan.alloc:
            key = ("alloc", plan.agg_id)
            worst[key] = max(worst.get(key, 0.0), agg_usage - plan.alloc)
        for link_key in sorted(link_load):
            bandwidth = link_by_key[link_key].bandwidth_mbps
            if bandwidth is not None and link_load[link_key] > bandwidth:
                key = ("bandwidth", link_key)
                worst[key] = max(worst.get(key, 0.0), link_load[link_key] - bandwidth)

    deploy_cost = 0.0
    per_gateway_deploy = sum(stages[k].deploy_cost for k in plan.gateway_stages)
    for _ in sorted(plan.predeploy):
        deploy_cost += per_gateway_deploy
    reservation = plan.alloc * topology.node(plan.agg_id).cpu_cost_rate if plan.agg_id else 0.0

    server_cost = usage_cost + reservation
    total_cost = server_cost + network_cost + deploy_cost + dispatch_cost
    violations = tuple(
        Violation(kind, ident, worst[(kind, ident)]) for kind, ident in sorted(worst)
    )
    return CostReport(
        server_cost=server_cost,
        network_cost=network_cost,
        deploy_cost=deploy_cost,
        dispatch_cost=dispatch_cost,
        total_cost=total_cost,
        mean_latency_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        max_latency_ms=max(latencies) if latencies else 0.0,
        peak_cpu=peak_cpu,
        feasible=not violations,
        violations=violations,
    )
