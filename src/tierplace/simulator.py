"""Slot-by-slot replay of a scenario under a fixed placement.

The replay is the semantic ground truth for dispatch caching: the first
slot in which a non-pre-installed gateway serves a stream triggers one
dispatch per gateway-tier stage (cost plus latency penalty on that slot's
streams through it), after which the function stays cached for the rest of
the period. `simulate` returns the slot records and the `CostReport` read off them,
which must match `cost_model.evaluate` field for field. So that this check means something,
the replay adds up every slot stream by stream from per-device terms computed
once per call, where `evaluate` multiplies by activation counts. It shares the
per-stream terms and the per-sink device rows, never a memo (`Instance.terms`, `Instance.scored`).
"""

from __future__ import annotations

from dataclasses import dataclass

# stream_route and derive_active_streams are not called here but stay
# importable: perfbench/tracer.py wraps them in this module.
from .cost_model import (  # noqa: F401
    CostReport,
    Placement,
    Violation,
    _stream_terms,
    _total,
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
        return _total(self.stream_latency_ms.values()) / len(self.stream_latency_ms)

    @property
    def traffic_gb(self) -> float:
        return _total(self.link_traffic_gb.values())


@dataclass(frozen=True)
class TimeSeriesReport:
    records: tuple[SlotRecord, ...]
    summary: CostReport  # read off the records; what `evaluate` must equal

    @property
    def violations(self) -> tuple[Violation, ...]:
        return self.summary.violations


def simulate(topology: Topology, spec: ServiceSpec, placement: Placement) -> TimeSeriesReport:
    """Replay every slot in order, accruing realized costs and latencies: what one stream
    of each active device adds in any slot is computed once per call, then added up slot
    by slot, stream by stream, never multiplied by how often a device is active. The summary
    is read off the slot records: its totals and latency statistics in slot then device order,
    its violations from the peak CPU of each node, merged demand and load of each capped link."""
    plan = resolve_placement(topology, spec.pipeline, placement)
    instance = compile_instance(topology, spec)
    routes = instance.paths(plan)
    stages, pre_count = spec.pipeline.stages, spec.pipeline.pre_count
    share, link_rates, link_gbs, stage_rows, merged_ms = _stream_terms(instance, plan)
    merged_rate = instance.rates[pre_count]

    caps = {}  # link key -> bandwidth
    terms = {}  # device -> (gateway, latency without penalty, link terms, host terms)
    for device_id, row in routes.items():  # loops, not comprehensions: fewer calls
        links, hosts, latency = [], [], row[14]
        for li in range(3):
            key, gb = row[5 + li], link_gbs[li]
            caps[key] = row[11 + li]
            links.append((key, gb, link_rates[li], gb * row[8 + li]))
        for position, used, base_ms in stage_rows:
            if used != 0.0:
                hosts.append((row[1 + position], used, used * row[15 + position] * share))
            latency += base_ms / row[19 + position]
        for ms in merged_ms:
            latency += ms
        terms[device_id] = row[2], latency, links, hosts

    dispatched: set[str] = set()
    records: list[SlotRecord] = []
    peak_cpu: dict[str, float] = {}
    peak_load: dict[str, float] = {}  # capped link key -> peak load
    peak_demand = 0.0  # merged stages' CPU on the aggregation host

    for slot_index, active in enumerate(instance.streams):
        dispatching = ({terms[d][0] for d in active} - plan.predeploy - dispatched
                       if plan.gateway_stages else set())
        dispatched |= dispatching

        link_gb: dict[str, float] = {}
        link_load: dict[str, float] = {}
        node_cpu: dict[str, float] = {}
        stream_latency: dict[str, float] = {}
        slot_network = 0.0
        slot_server = 0.0
        merged = 0.0
        for device_id in active:
            gateway, latency, links, hosts = terms[device_id]
            for key, gb, rate, cost in links:
                slot_network += cost
                link_gb[key] = link_gb.get(key, 0.0) + gb
                link_load[key] = link_load.get(key, 0.0) + rate
            for host_id, used, cost in hosts:
                node_cpu[host_id] = node_cpu.get(host_id, 0.0) + used
                slot_server += cost
            if gateway in dispatching:
                latency += plan.penalty_ms
            stream_latency[device_id] = latency
            merged += merged_rate

        if plan.agg_id is not None and active:
            agg_usage, rate_in = 0.0, merged
            for k in range(pre_count, len(stages)):
                agg_usage += stages[k].cpu_per_unit * rate_in
                rate_in *= stages[k].reduction
            if agg_usage != 0.0:
                node_cpu[plan.agg_id] = node_cpu.get(plan.agg_id, 0.0) + agg_usage
                peak_demand = max(peak_demand, agg_usage)

        events, slot_dispatch = [], 0.0
        for gateway in sorted(dispatching):
            for k in plan.gateway_stages:
                events.append((gateway, stages[k].name))
                slot_dispatch += stages[k].dispatch_cost

        for node_id, used in node_cpu.items():
            peak_cpu[node_id] = max(peak_cpu.get(node_id, 0.0), used)
        for key, load in link_load.items():
            if caps[key] is not None:
                peak_load[key] = max(peak_load.get(key, 0.0), load)

        records.append(
            SlotRecord(
                index=slot_index,
                active=tuple(active),
                link_traffic_gb=link_gb,
                node_cpu=node_cpu,
                dispatches=tuple(events),
                network_cost=slot_network,
                server_cost=slot_server,
                dispatch_cost=slot_dispatch,
                stream_latency_ms=stream_latency,
            )
        )

    # (kind, id, peak, limit); rounding is monotone, so a peak's excess is the worst slot's.
    limits = [("cpu_capacity", node_id, peak, topology.node(node_id).capacity_cpu)
              for node_id, peak in peak_cpu.items()]
    limits += [("bandwidth", key, peak, caps[key]) for key, peak in peak_load.items()]
    if plan.agg_id is not None:
        limits.append(("alloc", plan.agg_id, peak_demand, plan.alloc))
    violations = tuple(Violation(kind, ident, peak - limit)
                       for kind, ident, peak, limit in sorted(limits) if peak > limit)

    network_cost = _total([record.network_cost for record in records])
    dispatch_cost = _total([record.dispatch_cost for record in records])
    server_cost = _total([record.server_cost for record in records]) + plan.reservation
    latencies = [ms for record in records for ms in record.stream_latency_ms.values()]
    return TimeSeriesReport(tuple(records), CostReport(
        server_cost=server_cost,
        network_cost=network_cost,
        deploy_cost=plan.deploy_cost,
        dispatch_cost=dispatch_cost,
        total_cost=server_cost + network_cost + plan.deploy_cost + dispatch_cost,
        mean_latency_ms=_total(latencies) / len(latencies) if latencies else 0.0,
        max_latency_ms=max(latencies) if latencies else 0.0,
        peak_cpu=peak_cpu,
        feasible=not violations,
        violations=violations,
    ))


def summarize(report: TimeSeriesReport) -> CostReport:
    """The replay's one-shot cost report, which `simulate` reads off its slot records."""
    return report.summary
