"""Slot-by-slot replay of a scenario under a fixed placement.

The replay is the semantic ground truth for dispatch caching: the first
slot in which a non-pre-installed gateway serves a stream triggers one
dispatch per gateway-tier stage (cost plus latency penalty on that slot's
streams through it), after which the function stays cached for the rest of
the period. `summarize` collapses the time series into a report that must
match `cost_model.evaluate` field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

# stream_route and derive_active_streams are not called here but stay
# importable: perfbench/tracer.py wraps them in this module.
from .cost_model import (  # noqa: F401
    GB_PER_MBPS_SECOND,
    CostReport,
    Placement,
    Violation,
    compile_instance,
    resolve_placement,
    stream_route,
)
from .topology import Topology
from .workload import ServiceSpec, derive_active_streams  # noqa: F401

__all__ = ["SlotRecord", "TimeSeriesReport", "simulate", "summarize"]


@dataclass(frozen=True)
class SlotRecord:
    index: int
    active: tuple[str, ...]
    link_traffic_gb: dict[str, float]
    node_cpu: dict[str, float]
    dispatches: tuple[tuple[str, str], ...]  # (gateway, stage name)
    network_cost: float
    server_cost: float  # usage-billed share accrued this slot
    dispatch_cost: float
    stream_latency_ms: dict[str, float]

    @property
    def mean_latency_ms(self) -> float:
        if not self.stream_latency_ms:
            return 0.0
        return sum(self.stream_latency_ms.values()) / len(self.stream_latency_ms)

    @property
    def traffic_gb(self) -> float:
        return sum(self.link_traffic_gb.values())


@dataclass(frozen=True)
class TimeSeriesReport:
    records: tuple[SlotRecord, ...]
    deploy_cost: float  # booked once for the period
    reservation_cost: float  # booked once for the period
    network_cost: float  # cumulative over slots
    server_usage_cost: float  # cumulative over slots
    dispatch_cost: float  # cumulative over slots
    mean_latency_ms: float
    max_latency_ms: float
    peak_cpu: dict[str, float]
    violations: tuple[Violation, ...]


def simulate(topology: Topology, spec: ServiceSpec, placement: Placement) -> TimeSeriesReport:
    """Replay every slot in order, accruing realized costs and latencies."""
    plan = resolve_placement(topology, spec.pipeline, placement)
    instance = compile_instance(topology, spec)
    routes = instance.paths(plan)
    prefix = instance.prefix
    hosted_below = plan.hosted_below
    scenario = spec.scenario
    stages = spec.pipeline.stages
    share = scenario.slot_seconds / scenario.period_seconds
    src_rate = scenario.source_rate_mbps

    penalty_ms = sum(stages[k].dispatch_penalty_ms for k in plan.gateway_stages)
    agg_speed = topology.node(plan.agg_id or plan.sink).speed

    dispatched: set[str] = set()
    records: list[SlotRecord] = []
    latencies: list[float] = []
    peak_cpu: dict[str, float] = {}
    worst: dict[tuple[str, str], float] = {}

    for slot_index, active in enumerate(instance.streams):
        touched = sorted({routes[d].nodes[1] for d in active})
        dispatch_now = []
        if plan.gateway_stages:
            dispatch_now = [
                g for g in touched if g not in plan.predeploy and g not in dispatched
            ]
            dispatched.update(dispatch_now)

        link_gb: dict[str, float] = {}
        link_load: dict[str, float] = {}
        link_by_key: dict[str, object] = {}
        node_cpu: dict[str, float] = {}
        stream_latency: dict[str, float] = {}
        slot_network = 0.0
        slot_server = 0.0
        merged = 0.0
        for device_id in active:
            path = routes[device_id]
            for li, link in enumerate(path.links):
                rate = src_rate * prefix[hosted_below[li]]
                gb = rate * scenario.slot_seconds * GB_PER_MBPS_SECOND
                slot_network += gb * link.traffic_cost_rate
                link_gb[link.key] = link_gb.get(link.key, 0.0) + gb
                link_load[link.key] = link_load.get(link.key, 0.0) + rate
                link_by_key[link.key] = link
            latency = path.latency_ms
            for k in range(plan.pre_count):
                host = topology.node(path.nodes[plan.positions[k]])
                used = stages[k].cpu_per_unit * (src_rate * prefix[k])
                if used != 0.0:
                    node_cpu[host.id] = node_cpu.get(host.id, 0.0) + used
                    slot_server += used * host.cpu_cost_rate * share
                latency += stages[k].base_ms / host.speed
            for k in range(plan.pre_count, len(stages)):
                latency += stages[k].base_ms / agg_speed
            if path.nodes[1] in dispatch_now:
                latency += penalty_ms
            stream_latency[device_id] = latency
            latencies.append(latency)
            merged += src_rate * prefix[plan.pre_count]

        agg_usage = 0.0
        if plan.agg_id is not None and active:
            rate_in = merged
            for k in range(plan.pre_count, len(stages)):
                agg_usage += stages[k].cpu_per_unit * rate_in
                rate_in *= stages[k].reduction
            if agg_usage != 0.0:
                node_cpu[plan.agg_id] = node_cpu.get(plan.agg_id, 0.0) + agg_usage

        events = tuple(
            (g, stages[k].name) for g in dispatch_now for k in plan.gateway_stages
        )
        slot_dispatch = 0.0
        for g in dispatch_now:
            for k in plan.gateway_stages:
                slot_dispatch += stages[k].dispatch_cost

        for node_id in sorted(node_cpu):
            used = node_cpu[node_id]
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

        records.append(
            SlotRecord(
                index=slot_index,
                active=tuple(active),
                link_traffic_gb=link_gb,
                node_cpu=node_cpu,
                dispatches=events,
                network_cost=slot_network,
                server_cost=slot_server,
                dispatch_cost=slot_dispatch,
                stream_latency_ms=stream_latency,
            )
        )

    per_gateway_deploy = sum(stages[k].deploy_cost for k in plan.gateway_stages)
    deploy_cost = 0.0
    for _ in sorted(plan.predeploy):
        deploy_cost += per_gateway_deploy
    reservation = (
        plan.alloc * topology.node(plan.agg_id).cpu_cost_rate if plan.agg_id else 0.0
    )

    network_total = 0.0
    server_total = 0.0
    dispatch_total = 0.0
    for record in records:
        network_total += record.network_cost
        server_total += record.server_cost
        dispatch_total += record.dispatch_cost

    return TimeSeriesReport(
        records=tuple(records),
        deploy_cost=deploy_cost,
        reservation_cost=reservation,
        network_cost=network_total,
        server_usage_cost=server_total,
        dispatch_cost=dispatch_total,
        mean_latency_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        max_latency_ms=max(latencies) if latencies else 0.0,
        peak_cpu=peak_cpu,
        violations=tuple(
            Violation(kind, ident, worst[(kind, ident)]) for kind, ident in sorted(worst)
        ),
    )


def summarize(report: TimeSeriesReport) -> CostReport:
    """Collapse a time series into the equivalent one-shot cost report."""
    server_cost = report.server_usage_cost + report.reservation_cost
    total_cost = (
        server_cost + report.network_cost + report.deploy_cost + report.dispatch_cost
    )
    return CostReport(
        server_cost=server_cost,
        network_cost=report.network_cost,
        deploy_cost=report.deploy_cost,
        dispatch_cost=report.dispatch_cost,
        total_cost=total_cost,
        mean_latency_ms=report.mean_latency_ms,
        max_latency_ms=report.max_latency_ms,
        peak_cpu=report.peak_cpu,
        feasible=not report.violations,
        violations=report.violations,
    )
