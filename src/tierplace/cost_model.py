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
replay it is tested against. `compile_instance` derives those counts and each
stage's per-stream rate and CPU load once per problem into an `Instance`. It keeps
one per live topology, for the last pipeline and scenario compiled against it, by
identity, which holds because none of the three can be changed; the Instance is freed
with its topology. Both read its per-sink device rows, which `Instance.paths` checks
against the plan on every call, and `_stream_terms`, and each adds up in its own way;
the evaluator alone keeps the terms that all predeploy sets and allocs share.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

from .topology import Layer, Route, Topology, TopologyError, route
from .workload import Pipeline, Scenario, ServiceSpec, derive_active_streams, flow_profile

__all__ = [
    "AggregationTooSmall", "CostReport", "Instance", "InvalidPlacement", "Placement", "Violation",
    "compile_instance", "evaluate", "first_touch_slots", "min_alloc"
]

GB_PER_MBPS_SECOND = 1.0 / 8000.0
# Entries an Instance keeps in `scored` (states, invalid ones too; a valid state's entry
# holds its placement, report and violation magnitude sum) and in `terms`. The default
# anneal schedule (seed 1) stores 2,821 states and 30 terms on the multi_stream benchmark
# bundle (seed 1); exhaustive fills all 8,192 states.
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
    gateway_stages: tuple[int, ...]  # 0-based indices of gateway-tier stages
    predeploy: frozenset[str]
    alloc: int
    reservation: float  # alloc times the aggregation host's CPU price
    deploy_cost: float  # each gateway-tier stage's deploy cost, on each predeployed gateway
    penalty_ms: float  # latency a stream pays in its gateway's dispatch slot


def resolve_placement(
    topology: Topology, pipeline: Pipeline, placement: Placement
) -> _Plan:
    """Validate a placement; precompute its stage positions, reservation, deploy cost and penalty.

    The first failed check raises InvalidPlacement. The checks, in order: pipeline;
    stage layer count, type and order; aggregation host and sink; sink DC; edge-host
    link to the sink; stage layers within the aggregation tier; predeploy; alloc; alloc
    times the aggregation host's CPU price, at most half the largest float.
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

    agg_id, top, sink = placement.agg_node, Layer.CLOUD, placement.sink_dc or ""
    if pipeline.has_aggregation:
        if agg_id is None:
            raise InvalidPlacement("invalid placement: aggregation host required")
        if agg_id not in topology.nodes:
            raise InvalidPlacement(f"invalid placement: unknown node: {agg_id}")
        top = topology.node(agg_id).layer
        if top not in (Layer.EDGE, Layer.CLOUD):
            raise InvalidPlacement(
                "invalid placement: aggregation host must sit on the Edge or Cloud tier"
            )
        sink = (placement.sink_dc or agg_id) if top == Layer.CLOUD else placement.sink_dc
        if top == Layer.CLOUD and sink != agg_id:
            raise InvalidPlacement("invalid placement: sink must equal a cloud aggregation host")
        if sink is None:
            raise InvalidPlacement("invalid placement: edge aggregation requires a sink DC")
    elif agg_id is not None:
        raise InvalidPlacement(
            "invalid placement: no merged stage, aggregation host must be absent"
        )
    elif placement.alloc != 0:
        raise InvalidPlacement("invalid placement: no merged stage, alloc must be 0")
    if sink not in topology.nodes or topology.node(sink).layer != Layer.CLOUD:
        raise InvalidPlacement(f"invalid placement: invalid sink DC: {sink!r}")
    if top == Layer.EDGE and topology.dc_link(agg_id, sink) is None:
        raise InvalidPlacement(
            f"invalid placement: {agg_id} is not linked to {sink}"
        )
    if layers and layers[-1] > top:
        raise InvalidPlacement(
            "invalid placement: stage layers must not exceed the aggregation tier"
        )

    gateway_stages = tuple(k for k in range(pre_count) if layers[k] == Layer.GATEWAY)
    for gw in placement.predeploy:
        if gw not in topology.nodes or topology.node(gw).layer != Layer.GATEWAY:
            raise InvalidPlacement(f"invalid placement: invalid predeploy gateway: {gw}")
    if placement.predeploy and not gateway_stages:
        raise InvalidPlacement(
            "invalid placement: predeploy set requires a gateway-tier stage"
        )
    # Above the largest float, alloc * cpu_cost_rate cannot be computed.
    if not 0 <= placement.alloc <= sys.float_info.max or int(placement.alloc) != placement.alloc:
        raise InvalidPlacement("invalid placement: alloc must be a nonnegative integer "
                               "no larger than the largest float")
    # `validate_bundle` bounds a report's other costs by the other half, so totals stay finite.
    reservation = placement.alloc * topology.node(agg_id).cpu_cost_rate if agg_id else 0.0
    if not reservation <= sys.float_info.max / 2:
        raise InvalidPlacement(f"invalid placement: alloc times the CPU price of {agg_id} "
                               "exceeds half the largest float")

    predeploy = frozenset(placement.predeploy)
    per_gateway_deploy = _total([stages[k].deploy_cost for k in gateway_stages])
    return _Plan(
        sink=sink,
        agg_id=agg_id,
        positions=tuple(map(int, layers)) + (int(top),) * (len(stages) - pre_count),
        gateway_stages=gateway_stages,
        predeploy=predeploy,
        alloc=int(placement.alloc),
        reservation=reservation,
        deploy_cost=_total((per_gateway_deploy,) * len(predeploy)),
        penalty_ms=_total([stages[k].dispatch_penalty_ms for k in gateway_stages]),
    )


def stream_route(topology: Topology, device_id: str, plan: _Plan) -> Route:
    """Route one stream to the plan's sink; no route raises why, as an InvalidPlacement."""
    try:
        return route(topology, device_id, plan.sink)
    except TopologyError as exc:
        raise InvalidPlacement(f"invalid placement: {exc}") from exc


def first_touch_slots(parts: Mapping[str, tuple | None], streams: Iterable) -> dict[str, tuple]:
    """Visited gateway, in order of first touch -> the devices it serves in its first slot, in
    one scan of the slots; each active device's gateway is read from its `_to_edge` part."""
    first, served = {}, {}  # gateway -> index of its first slot, and its devices there
    for index, active in enumerate(streams):
        for device_id in active:
            part = parts[device_id]
            if part is not None and first.setdefault(part[2], index) == index:
                served.setdefault(part[2], []).append(device_id)
    return {gateway: tuple(devices) for gateway, devices in served.items()}


def peak_aggregated_demand(topology: Topology, spec: ServiceSpec) -> float:
    """Peak over slots of total merged-stage CPU demand (placement-independent)."""
    return compile_instance(topology, spec).peak_demand


def _total(values: Iterable[float]) -> float:
    """0.0 plus each value, left to right: how the package adds up every float total, never
    by `sum()`, which compensates from CPython 3.12, so files are alike on 3.10-3.13."""
    total = 0.0
    for value in values:
        total += value
    return total


class Instance:
    """Placement-independent data of one (topology, pipeline, scenario).

    Built by `compile_instance`: the fields set in __init__ on construction,
    every other one on first use. Treat it as read-only but for the memos:
    `scored` maps up to REPORT_MEMO_CAP solver states (layer vector, terminus,
    predeploy set) to their (placement, report, sum of the report's violation magnitudes
    by `_total`, in report order), or None if invalid; `solver._Best.score` fills it;
    `terms` maps up to as many valid (sink, agg host, positions) to their `_shared_terms`;
    `paths` keeps one table of device rows per sink.
    The tree is walked once, in `_to_edge`, which every table and per-node stream count reads.
    It refers to its topology weakly, so its memo entry never keeps its key alive.
    """

    def __init__(self, topology: Topology, pipeline: Pipeline, scenario: Scenario) -> None:
        self._topology = weakref.ref(topology)
        self.pipeline, self.scenario = pipeline, scenario
        self.streams: tuple[tuple[str, ...], ...] = tuple(
            map(tuple, derive_active_streams(topology, scenario))
        )
        # A stream's rate into stage k (K + 1 values) and the CPU stage k draws from it.
        self.rates = tuple(scenario.source_rate_mbps * p for p in flow_profile(pipeline, 1.0))
        self.loads = tuple(s.cpu_per_unit * rate for s, rate in zip(pipeline.stages, self.rates))
        # device -> number of active slots, in order of first activation
        self.activations = Counter(d for active in self.streams for d in active)
        self.total_streams = sum(self.activations.values())  # stream activations, all slots
        self.busiest = max(map(len, self.streams), default=0)  # most streams in one slot
        self._rows: dict[str, dict[str, tuple | None]] = {}  # sink -> device -> row, see `paths`
        self.scored: dict[tuple, tuple[Placement, CostReport, float] | None] = {}
        self.terms: dict[tuple, tuple] = {}

    @property
    def topology(self) -> Topology:
        """The topology compiled, or None once it is freed. Unlike a weak proxy, it costs
        nothing per attribute read, which building device rows makes by the thousand."""
        return self._topology()  # type: ignore[return-value]

    @cached_property
    def peak_streams(self) -> dict[str, int]:
        """Node id -> most streams through it in one slot; each DC gets the busiest slot."""
        parts, peak = self._to_edge, dict.fromkeys(self.activations, 1)  # a device: 1 a slot
        for active in self.streams:
            through = Counter([node for d in active if (part := parts[d]) for node in part[2:4]])
            for node_id, count in through.items():
                if count > peak.get(node_id, 0):
                    peak[node_id] = count
        peak.update((dc.id, self.busiest) for dc in self.topology.layer(Layer.CLOUD))
        return peak

    @cached_property
    def first_touch(self) -> dict[str, tuple[str, ...]]:
        """`first_touch_slots` of the active streams: gateway -> its first slot's devices."""
        return first_touch_slots(self._to_edge, self.streams)

    @cached_property
    def predeploy_order(self) -> tuple[str, ...]:
        """Visited gateways by most first-slot streams, ties to the smaller id."""
        return tuple(sorted(self.first_touch, key=lambda g: (-len(self.first_touch[g]), g)))

    @cached_property
    def edge_weights(self) -> Counter[str]:
        """Edge id -> stream activations through it; its keys are the used edges."""
        weights = Counter()
        for part in self._to_edge.values():
            if part is not None:
                weights[part[3]] += part[0]
        return weights

    @cached_property
    def serving_dcs(self) -> dict[str, float]:
        """Each DC linked from every edge a stream uses, in id order -> its activation-weighted
        edge latency, added by `_total` in edge id order."""
        dc_link, edges = self.topology.dc_link, sorted(self.edge_weights.items())
        return {dc.id: _total([count * dc_link(edge, dc.id).latency_ms for edge, count in edges])
                for dc in self.topology.layer(Layer.CLOUD)
                if all(dc_link(edge, dc.id) for edge, _ in edges)}

    @cached_property
    def peak_demand(self) -> float:
        """Merged-stage CPU demand of the busiest slot, the peak over slots."""
        pre_count = self.pipeline.pre_count
        rate_in = _total((self.rates[pre_count],) * self.busiest)
        demand = 0.0
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

    @cached_property
    def _to_edge(self) -> dict[str, tuple | None]:
        """Active device -> its row's part below the sink (count, 3 node ids, 2 link keys, 2
        prices, 2 bandwidths, latency `0 + l0 + l1`, to which `paths` adds l2 as `_total` would, 3
        CPU prices, 3 speeds); None where `route` raises whatever the sink."""
        nodes, uplink, parts = self.topology.nodes, self.topology.uplink, {}
        for device_id, count in self.activations.items():
            nd = nodes.get(device_id)
            ng = nodes.get(nd.parent) if nd is not None and nd.layer == Layer.DEVICE else None
            ne = nodes.get(ng.parent) if ng is not None and ng.layer == Layer.GATEWAY else None
            l0, l1 = uplink(device_id), ng and uplink(ng.id)
            routed = ne is not None and ne.layer == Layer.EDGE and l0 and l1
            parts[device_id] = None if not routed else (
                count, device_id, ng.id, ne.id, l0.key, l1.key, l0.traffic_cost_rate,
                l1.traffic_cost_rate, l0.bandwidth_mbps, l1.bandwidth_mbps,
                0 + l0.latency_ms + l1.latency_ms, nd.cpu_cost_rate, ng.cpu_cost_rate,
                ne.cpu_cost_rate, nd.speed, ng.speed, ne.speed)
        return parts

    def paths(self, plan: _Plan) -> dict[str, tuple]:
        """Each active device's row for the plan's sink, equal to one built from its `route`:
        (count, 4 node ids, 3 link keys, 3 link prices, 3 bandwidths, path latency, 4 CPU prices,
        4 speeds), in tier order; built once per sink from `_to_edge` and the edge's hop to the
        sink, read with `Topology.dc_link`. On every call, the first device in scenario order
        with no route (worded by `stream_route`), or off the plan's edge host, raises why."""
        topology, sink, table = self.topology, plan.sink, self._rows.get(plan.sink)
        if table is None:
            table, dc = self._rows.setdefault(sink, {}), topology.nodes[sink]
            cc, sc = dc.cpu_cost_rate, dc.speed
            for device_id, part in self._to_edge.items():
                hop = topology.dc_link(part[3], sink) if part else None
                if hop is None:
                    table[device_id] = None
                    continue
                count, d, g, e, k0, k1, p0, p1, b0, b1, latency, cd, cg, ce, sd, sg, se = part
                table[device_id] = (count, d, g, e, sink, k0, k1, hop.key, p0, p1,
                                    hop.traffic_cost_rate, b0, b1, hop.bandwidth_mbps,
                                    latency + hop.latency_ms, cd, cg, ce, cc, sd, sg, se, sc)
        edge_host = plan.agg_id if plan.agg_id != plan.sink else None  # the sink ends each route
        for device_id, row in table.items():  # only index 3 of a row can hold an edge id
            if row is None:
                stream_route(topology, device_id, plan)  # raises InvalidPlacement
            if edge_host is not None and row[3] != edge_host:
                raise InvalidPlacement(f"invalid placement: aggregation host {edge_host} "
                                       f"is off the path of {device_id}")
        return table  # type: ignore[return-value]  # no None left once checked


# topology -> the Instance of the last compile against it; an entry goes when its topology
# is freed, and the Instance with it.
_memo: weakref.WeakKeyDictionary[Topology, Instance] = weakref.WeakKeyDictionary()


def compile_instance(topology: Topology, spec: ServiceSpec) -> Instance:
    """The Instance of (topology, spec.pipeline, spec.scenario), memoized.

    The memo keeps one Instance per live topology, keyed by object identity and not by
    the budget; compiling another pipeline or scenario against it replaces its entry.
    An entry's Instance holds its pipeline and scenario, and it goes when its topology is
    freed, so no id is reused while cached.
    """
    instance = _memo.get(topology)
    if instance and instance.pipeline is spec.pipeline and instance.scenario is spec.scenario:
        return instance
    instance = _memo[topology] = Instance(topology, spec.pipeline, spec.scenario)
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


def evaluate(topology: Topology, spec: ServiceSpec, placement: Placement) -> CostReport:
    """Score a placement over the whole scenario in closed form, with no slot loop.

    Every call validates the placement. The report is the `_shared_terms` of its sink, agg
    host and positions, from `Instance.terms` after the first call, plus the reservation,
    deploy and dispatch costs, dispatch penalties and `alloc` violation of its predeploy set
    and alloc. The solvers keep the reports of the states they score in `Instance.scored`.
    """
    plan = resolve_placement(topology, spec.pipeline, placement)
    instance = compile_instance(topology, spec)
    key = (plan.sink, plan.agg_id, plan.positions)
    terms = instance.terms.get(key)
    if terms is None:  # a hit skips `paths`, whose check each stored (sink, agg host) passed
        terms = _shared_terms(instance, plan)
        if len(instance.terms) < REPORT_MEMO_CAP:
            instance.terms[key] = terms
    usage_cost, network_cost, latency_sum, latency, max_latency, peak_cpu, violations = terms
    stages = instance.pipeline.stages
    dispatch_cost = 0.0
    if plan.gateway_stages:
        cost_per_dispatch = _total([stages[k].dispatch_cost for k in plan.gateway_stages])
        for gateway, devices in instance.first_touch.items():
            if gateway not in plan.predeploy:
                dispatch_cost += cost_per_dispatch
                latency_sum += len(devices) * plan.penalty_ms
                max_latency = max(max_latency, max(map(latency.get, devices)) + plan.penalty_ms)
    demand = instance.peak_demand
    if plan.agg_id is not None and demand > plan.alloc:  # "alloc" sorts before the rest
        violations = (Violation("alloc", plan.agg_id, demand - plan.alloc),) + violations

    server_cost = usage_cost + plan.reservation
    total_cost = server_cost + network_cost + plan.deploy_cost + dispatch_cost
    return CostReport(
        server_cost=server_cost,
        network_cost=network_cost,
        deploy_cost=plan.deploy_cost,
        dispatch_cost=dispatch_cost,
        total_cost=total_cost,
        mean_latency_ms=latency_sum / instance.total_streams if instance.total_streams else 0.0,
        max_latency_ms=max_latency,
        peak_cpu=peak_cpu,
        feasible=not violations,
        violations=violations,
    )


def _stream_terms(instance: Instance, plan: _Plan) -> tuple:
    """What one stream adds under a plan on any route: the slot's share of the period,
    each route link's rate and GB, a (path index, CPU load, base_ms) row per per-stream
    stage, and each merged stage's latency on the aggregation host."""
    scenario, stages, loads = instance.scenario, instance.pipeline.stages, instance.loads
    pre_count = instance.pipeline.pre_count
    # A link carries the rate out of the stages hosted at or below its child side.
    link_rates = [instance.rates[sum(p <= i for p in plan.positions)] for i in range(3)]
    link_gbs = [rate * scenario.slot_seconds * GB_PER_MBPS_SECOND for rate in link_rates]
    rows = [(plan.positions[k], loads[k], stages[k].base_ms) for k in range(pre_count)]
    agg_speed = instance.topology.node(plan.agg_id or plan.sink).speed
    merged_ms = [stage.base_ms / agg_speed for stage in stages[pre_count:]]
    return scenario.slot_seconds / scenario.period_seconds, link_rates, link_gbs, rows, merged_ms


def _shared_terms(instance: Instance, plan: _Plan) -> tuple:
    """What a plan's report takes from its sink, agg host and positions alone: usage and
    network cost, latency sum, per-device and max latency (no dispatch penalties), read-only
    peak CPU, and the sorted CPU and bandwidth violations.

    Each active device adds its number of active slots times its per-stream network cost, usage
    cost and latency, which plain arithmetic on its `Instance.paths` row gives in the replay's
    order of operations. Peaks need the precondition that `validate_bundle` enforces, that
    every rate, CPU demand and reduction is finite and nonnegative: a slot's load, added up
    stream by stream, then never shrinks as the streams through its node or link grow, nor
    merged demand as the streams in the slot grow. So a peak is the per-stream loads added up
    for the most streams through the node (or the link's child side) in one slot, plus peak
    merged demand on the aggregation host, which alloc must cover too. Added up in the replay's
    order, not multiplied, they let `simulator.simulate` agree on every field, at a capacity
    boundary too.
    """
    topology = instance.topology
    share, link_rates, link_gbs, rows, merged_ms = _stream_terms(instance, plan)
    tier_loads: list[tuple[float, ...]] = [()] * 4  # nonzero per-stream loads per path index
    for position, load, _ in rows:
        if load != 0.0:
            tier_loads[position] += (load,)
    loaded_tiers = [i for i, loads in enumerate(tier_loads) if loads]
    hosts = [(15 + position, 19 + position, load, base_ms) for position, load, base_ms in rows]
    (gb0, gb1, gb2), (rate0, rate1, rate2) = link_gbs, link_rates

    usage_cost = 0.0
    network_cost = 0.0
    latency_sum = 0.0
    latency: dict[str, float] = {}  # device -> stream latency without dispatch penalty
    loaded: dict[str, int] = {}  # node id -> path index of a tier with CPU load
    capped: dict[str, tuple[str, float, float]] = {}  # link key -> (child, bandwidth, rate)
    for device_id, row in instance.paths(plan).items():
        count = row[0]
        network = 0.0 + gb0 * row[8] + gb1 * row[9] + gb2 * row[10]
        if row[11] is not None:
            capped[row[5]] = (row[1], row[11], rate0)
        if row[12] is not None:
            capped[row[6]] = (row[2], row[12], rate1)
        if row[13] is not None:
            capped[row[7]] = (row[3], row[13], rate2)
        usage = 0.0
        stream_latency = row[14]
        for cpu_price, speed, load, base_ms in hosts:
            usage += load * row[cpu_price] * share
            stream_latency += base_ms / row[speed]
        for merged in merged_ms:
            stream_latency += merged
        network_cost += count * network
        usage_cost += count * usage
        latency_sum += count * stream_latency
        latency[device_id] = stream_latency
        for i in loaded_tiers:
            loaded[row[1 + i]] = i

    peak_of = cache(lambda i, streams: _total(tier_loads[i] * streams))
    peak_streams = instance.peak_streams
    peak_cpu = {node_id: peak_of(i, peak_streams[node_id]) for node_id, i in loaded.items()}
    if plan.agg_id is not None and instance.peak_demand != 0.0:
        peak_cpu[plan.agg_id] = peak_cpu.get(plan.agg_id, 0.0) + instance.peak_demand
    violations: list[Violation] = []
    for node_id, peak in peak_cpu.items():
        capacity = topology.node(node_id).capacity_cpu
        if peak > capacity:
            violations.append(Violation("cpu_capacity", node_id, peak - capacity))
    for key, (child, bandwidth, rate) in capped.items():
        load = _total((rate,) * peak_streams[child])
        if load > bandwidth:
            violations.append(Violation("bandwidth", key, load - bandwidth))
    violations.sort(key=lambda v: (v.kind, v.ident))
    return (usage_cost, network_cost, latency_sum, latency, max(latency.values(), default=0.0),
            MappingProxyType(peak_cpu), tuple(violations))
