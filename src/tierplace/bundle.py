"""Problem-instance bundles: JSON round-trip, validation, and generators.

A bundle is one complete problem: topology + pipeline + scenario + budget,
optionally with solver defaults. Files are UTF-8 JSON with sorted keys so
that identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .cost_model import CostReport, Placement
from .solver import Solution
from .topology import Layer, Link, Node, Topology, validate_topology
from .workload import (
    Pipeline,
    Scenario,
    ServiceSpec,
    Slot,
    Stage,
    gen_random_walk,
)

__all__ = [
    "BundleError",
    "ScenarioBundle",
    "bundle_from_json",
    "bundle_to_json",
    "dumps",
    "load_bundle",
    "load_placement",
    "mini_bundle",
    "placement_from_json",
    "placement_to_json",
    "report_to_json",
    "save_bundle",
    "solution_to_json",
    "synth_bundle",
    "validate_bundle",
]


class BundleError(ValueError):
    """The bundle file cannot be parsed into a problem instance."""


@dataclass(frozen=True)
class ScenarioBundle:
    topology: Topology
    pipeline: Pipeline
    scenario: Scenario
    budget: float
    solver: dict | None = None  # optional solver defaults (kind, seed, ...)

    def service_spec(self) -> ServiceSpec:
        return ServiceSpec(
            pipeline=self.pipeline, scenario=self.scenario, budget=self.budget
        )


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _node_to_json(node: Node) -> dict:
    return {
        "id": node.id,
        "layer": node.layer.label,
        "parent": node.parent,
        "capacity_cpu": node.capacity_cpu,
        "cpu_cost_rate": node.cpu_cost_rate,
        "speed": node.speed,
        "location": list(node.location) if node.location is not None else None,
    }


def _node_from_json(data: dict) -> Node:
    location = data.get("location")
    return Node(
        id=str(data["id"]),
        layer=Layer.from_label(data["layer"]),
        parent=data.get("parent"),
        capacity_cpu=float(data.get("capacity_cpu", 0.0)),
        cpu_cost_rate=float(data.get("cpu_cost_rate", 0.0)),
        speed=float(data.get("speed", 1.0)),
        location=(float(location[0]), float(location[1])) if location else None,
    )


def _link_to_json(link: Link) -> dict:
    return {
        "src": link.src,
        "dst": link.dst,
        "latency_ms": link.latency_ms,
        "traffic_cost_rate": link.traffic_cost_rate,
        "bandwidth_mbps": link.bandwidth_mbps,
    }


def _link_from_json(data: dict) -> Link:
    bandwidth = data.get("bandwidth_mbps")
    return Link(
        src=str(data["src"]),
        dst=str(data["dst"]),
        latency_ms=float(data.get("latency_ms", 0.0)),
        traffic_cost_rate=float(data.get("traffic_cost_rate", 0.0)),
        bandwidth_mbps=float(bandwidth) if bandwidth is not None else None,
    )


def _stage_to_json(stage: Stage) -> dict:
    return {
        "name": stage.name,
        "cpu_per_unit": stage.cpu_per_unit,
        "reduction": stage.reduction,
        "base_ms": stage.base_ms,
        "deploy_cost": stage.deploy_cost,
        "dispatch_cost": stage.dispatch_cost,
        "dispatch_penalty_ms": stage.dispatch_penalty_ms,
    }


def _stage_from_json(data: dict) -> Stage:
    return Stage(
        name=str(data["name"]),
        cpu_per_unit=float(data["cpu_per_unit"]),
        reduction=float(data["reduction"]),
        base_ms=float(data.get("base_ms", 0.0)),
        deploy_cost=float(data.get("deploy_cost", 0.0)),
        dispatch_cost=float(data.get("dispatch_cost", 0.0)),
        dispatch_penalty_ms=float(data.get("dispatch_penalty_ms", 0.0)),
    )


def _slot_to_json(slot: Slot) -> dict:
    if slot.target is not None:
        return {"target": list(slot.target)}
    return {"devices": list(slot.devices or ())}


def _slot_from_json(data: dict) -> Slot:
    has_target = data.get("target") is not None
    has_devices = data.get("devices") is not None
    if has_target == has_devices:
        raise BundleError("slot must carry exactly one of 'devices' or 'target'")
    if has_target:
        target = data["target"]
        return Slot.at(float(target[0]), float(target[1]))
    return Slot.explicit(str(d) for d in data["devices"])


def bundle_to_json(bundle: ScenarioBundle) -> dict:
    out = {
        "topology": {
            "nodes": [_node_to_json(n) for n in bundle.topology.node_list],
            "tree_links": [_link_to_json(l) for l in bundle.topology.tree_link_list],
            "dc_links": [_link_to_json(l) for l in bundle.topology.dc_link_list],
        },
        "pipeline": {
            "stages": [_stage_to_json(s) for s in bundle.pipeline.stages],
            "aggregation_index": bundle.pipeline.aggregation_index,
        },
        "scenario": {
            "slot_seconds": bundle.scenario.slot_seconds,
            "slots": [_slot_to_json(s) for s in bundle.scenario.slots],
            "source_rate_mbps": bundle.scenario.source_rate_mbps,
            "seed": bundle.scenario.seed,
        },
        "budget": bundle.budget,
    }
    if bundle.solver is not None:
        out["solver"] = bundle.solver
    return out


def bundle_from_json(data: dict) -> ScenarioBundle:
    try:
        topo = data["topology"]
        topology = Topology(
            nodes=[_node_from_json(n) for n in topo["nodes"]],
            tree_links=[_link_from_json(l) for l in topo.get("tree_links", [])],
            dc_links=[_link_from_json(l) for l in topo.get("dc_links", [])],
        )
        pipe = data["pipeline"]
        pipeline = Pipeline(
            stages=tuple(_stage_from_json(s) for s in pipe["stages"]),
            aggregation_index=int(pipe["aggregation_index"]),
        )
        scen = data["scenario"]
        scenario = Scenario(
            slot_seconds=float(scen["slot_seconds"]),
            slots=tuple(_slot_from_json(s) for s in scen["slots"]),
            source_rate_mbps=float(scen["source_rate_mbps"]),
            seed=int(scen.get("seed", 0)),
        )
        budget = float(data["budget"])
        solver = data.get("solver")
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise BundleError(f"malformed bundle: {exc}") from exc
    return ScenarioBundle(
        topology=topology,
        pipeline=pipeline,
        scenario=scenario,
        budget=budget,
        solver=solver,
    )


def validate_bundle(bundle: ScenarioBundle) -> list[tuple[str, str]]:
    """Topology invariants plus pipeline/scenario/budget sanity, all collected.

    Every number must be finite: NaN and +-inf are reported like any other
    out-of-range value (the chained bounds below are false for them).
    """
    violations = list(validate_topology(bundle.topology))

    pipeline = bundle.pipeline
    if not pipeline.stages:
        violations.append(("empty pipeline", "pipeline"))
    if not 1 <= pipeline.aggregation_index <= len(pipeline.stages) + 1:
        violations.append(("invalid aggregation index", str(pipeline.aggregation_index)))
    for stage in pipeline.stages:
        amounts = (stage.cpu_per_unit, stage.base_ms, stage.deploy_cost,
                   stage.dispatch_cost, stage.dispatch_penalty_ms)
        if not (0 < stage.reduction < math.inf and all(0 <= v < math.inf for v in amounts)):
            violations.append(("invalid stage value", stage.name))

    scenario = bundle.scenario
    if not scenario.slots:
        violations.append(("invalid scenario value", "slots"))
    if not 0 < scenario.slot_seconds < math.inf:
        violations.append(("invalid scenario value", "slot_seconds"))
    if not 0 < scenario.source_rate_mbps < math.inf:
        violations.append(("invalid scenario value", "source_rate_mbps"))
    if scenario.seed < 0:
        violations.append(("invalid scenario value", "seed"))
    for slot in scenario.slots:
        if slot.target is not None and not all(map(math.isfinite, slot.target)):
            violations.append(("invalid scenario value", "target"))
        for device_id in slot.devices or ():
            node = bundle.topology.nodes.get(device_id)
            if node is None or node.layer != Layer.DEVICE:
                violations.append(("unknown device", device_id))

    if not 0 <= bundle.budget < math.inf:
        violations.append(("invalid budget", str(bundle.budget)))
    return violations


def load_bundle(path: str | Path) -> ScenarioBundle:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BundleError(f"bundle must be a JSON object: {path}")
    return bundle_from_json(data)


def save_bundle(bundle: ScenarioBundle, path: str | Path) -> None:
    Path(path).write_text(dumps(bundle_to_json(bundle)), encoding="utf-8")


def placement_to_json(placement: Placement) -> dict:
    return {
        "layer_of": [layer.label for layer in placement.layer_of],
        "agg_node": placement.agg_node,
        "sink_dc": placement.sink_dc,
        "predeploy": sorted(placement.predeploy),
        "alloc": placement.alloc,
    }


def placement_from_json(data: dict) -> Placement:
    try:
        return Placement(
            layer_of=tuple(Layer.from_label(l) for l in data.get("layer_of", [])),
            agg_node=data.get("agg_node"),
            sink_dc=data.get("sink_dc"),
            predeploy=frozenset(str(g) for g in data.get("predeploy", [])),
            alloc=int(data.get("alloc", 0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"malformed placement: {exc}") from exc


def load_placement(path: str | Path) -> Placement:
    """Read a placement file; solution files (with a 'placement' key) also work."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {path}: {exc}") from exc
    if isinstance(data, dict) and "placement" in data:
        data = data["placement"]
    if not isinstance(data, dict):
        raise BundleError(f"placement must be a JSON object: {path}")
    return placement_from_json(data)


def report_to_json(report: CostReport) -> dict:
    return {
        "server_cost": report.server_cost,
        "network_cost": report.network_cost,
        "deploy_cost": report.deploy_cost,
        "dispatch_cost": report.dispatch_cost,
        "total_cost": report.total_cost,
        "mean_latency_ms": report.mean_latency_ms,
        "max_latency_ms": report.max_latency_ms,
        "peak_cpu": dict(sorted(report.peak_cpu.items())),
        "feasible": report.feasible,
        "violations": [
            {"kind": v.kind, "id": v.ident, "magnitude": v.magnitude}
            for v in report.violations
        ],
    }


def solution_to_json(solution: Solution) -> dict:
    """Solution file payload. Wall-clock time is deliberately left out so a
    seeded run rewrites byte-identical files; it is reported on the console."""
    return {
        "solver_kind": solution.solver_kind,
        "states_examined": solution.states_examined,
        "best_effort": solution.best_effort,
        "placement": placement_to_json(solution.placement),
        "report": report_to_json(solution.report),
    }


def mini_bundle() -> ScenarioBundle:
    """The canonical hand-sized instance shipped with the repo.

    Three cameras on a line feed two gateways under one edge with two DCs;
    the pipeline is a heavy per-stream analyze step (100x data reduction)
    followed by a merged detect step.
    """
    nodes = [
        Node("cam1", Layer.DEVICE, parent="gw1", capacity_cpu=0.0, location=(0.0, 0.0)),
        Node("cam2", Layer.DEVICE, parent="gw1", capacity_cpu=0.0, location=(10.0, 0.0)),
        Node("cam3", Layer.DEVICE, parent="gw2", capacity_cpu=0.0, location=(20.0, 0.0)),
        Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=2.0, cpu_cost_rate=1.0, speed=1.0),
        Node("gw2", Layer.GATEWAY, parent="edge1", capacity_cpu=2.0, cpu_cost_rate=1.0, speed=1.0),
        Node("edge1", Layer.EDGE, capacity_cpu=8.0, cpu_cost_rate=0.5, speed=0.5),
        Node("dc1", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0),
        Node("dc2", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0),
    ]
    tree_links = [
        Link("cam1", "gw1", latency_ms=2.0, traffic_cost_rate=0.0),
        Link("cam2", "gw1", latency_ms=2.0, traffic_cost_rate=0.0),
        Link("cam3", "gw2", latency_ms=2.0, traffic_cost_rate=0.0),
        Link("gw1", "edge1", latency_ms=5.0, traffic_cost_rate=0.1),
        Link("gw2", "edge1", latency_ms=5.0, traffic_cost_rate=0.1),
    ]
    dc_links = [
        Link("edge1", "dc1", latency_ms=15.0, traffic_cost_rate=0.2),
        Link("edge1", "dc2", latency_ms=40.0, traffic_cost_rate=0.2),
    ]
    pipeline = Pipeline(
        stages=(
            Stage(
                name="analyze",
                cpu_per_unit=0.2,
                reduction=0.01,
                base_ms=50.0,
                deploy_cost=0.05,
                dispatch_cost=0.02,
                dispatch_penalty_ms=500.0,
            ),
            Stage(name="detect", cpu_per_unit=0.1, reduction=1.0, base_ms=20.0),
        ),
        aggregation_index=2,
    )
    scenario = Scenario(
        slot_seconds=3600.0,
        slots=(Slot.explicit(["cam1"]), Slot.explicit(["cam3"])),
        source_rate_mbps=8.0,
        seed=0,
    )
    return ScenarioBundle(
        topology=Topology(nodes, tree_links, dc_links),
        pipeline=pipeline,
        scenario=scenario,
        budget=5.0,
    )


def synth_bundle(
    devices: int,
    slots: int,
    step: float = 10.0,
    seed: int = 0,
    budget: float | None = None,
) -> ScenarioBundle:
    """Synthetic instance: a line of cameras, fan-in 2 gateways and edges,
    two DCs, the canonical pipeline, and a random-walk scenario.

    When budget is None it is set to twice the cost of the everything-in-
    the-cloud placement, which keeps the instance solvable by construction.
    """
    if devices < 1 or slots < 1:
        raise BundleError("devices and slots must both be at least 1")
    mini = mini_bundle()
    gateways = (devices + 1) // 2
    edges = (gateways + 1) // 2

    nodes: list[Node] = []
    tree_links: list[Link] = []
    for i in range(devices):
        cam = f"cam{i + 1:03d}"
        gw = f"gw{i // 2 + 1:03d}"
        nodes.append(
            Node(cam, Layer.DEVICE, parent=gw, capacity_cpu=0.0, location=(10.0 * i, 0.0))
        )
        tree_links.append(Link(cam, gw, latency_ms=2.0, traffic_cost_rate=0.0))
    for j in range(gateways):
        gw = f"gw{j + 1:03d}"
        edge = f"edge{j // 2 + 1:03d}"
        nodes.append(
            Node(gw, Layer.GATEWAY, parent=edge, capacity_cpu=2.0, cpu_cost_rate=1.0, speed=1.0)
        )
        tree_links.append(Link(gw, edge, latency_ms=5.0, traffic_cost_rate=0.1))
    dc_links: list[Link] = []
    for e in range(edges):
        edge = f"edge{e + 1:03d}"
        nodes.append(Node(edge, Layer.EDGE, capacity_cpu=8.0, cpu_cost_rate=0.5, speed=0.5))
        dc_links.append(Link(edge, "dc1", latency_ms=15.0, traffic_cost_rate=0.2))
        dc_links.append(Link(edge, "dc2", latency_ms=40.0, traffic_cost_rate=0.2))
    nodes.append(Node("dc1", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0))
    nodes.append(Node("dc2", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0))

    topology = Topology(nodes, tree_links, dc_links)
    scenario = gen_random_walk(topology, num_slots=slots, step=step, seed=seed)

    if budget is None:
        from .cost_model import evaluate, min_alloc

        spec = ServiceSpec(pipeline=mini.pipeline, scenario=scenario, budget=0.0)
        layers = (Layer.CLOUD,) * mini.pipeline.pre_count
        baseline = Placement(layer_of=layers, agg_node="dc1", sink_dc="dc1")
        baseline = replace(baseline, alloc=min_alloc(topology, spec, baseline))
        budget = 2.0 * evaluate(topology, spec, baseline).total_cost

    return ScenarioBundle(
        topology=topology,
        pipeline=mini.pipeline,
        scenario=scenario,
        budget=budget,
    )
