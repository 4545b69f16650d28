"""Seeded random instances and report-comparison helpers shared across tests."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from tierplace import (
    Layer,
    Link,
    Node,
    Pipeline,
    Placement,
    Scenario,
    ServiceSpec,
    Slot,
    Stage,
    Topology,
    candidate_termini,
    derive_active_streams,
    evaluate,
    min_alloc,
    mini_bundle,
)
from tierplace.cost_model import first_touch_slots


def random_instance(
    seed: int,
    *,
    max_gateways: int = 6,
    max_pre_stages: int = 2,
    max_slots: int = 4,
    budget_factor: float = 1.5,
) -> tuple[Topology, ServiceSpec]:
    """A feasible-by-construction instance: the budget is set above the cost
    of the everything-in-the-cloud placement."""
    rng = random.Random(seed)
    n_gw = rng.randint(2, max_gateways)
    n_edge = 1 if n_gw <= 3 else rng.randint(1, 2)

    nodes: list[Node] = []
    tree: list[Link] = []
    dc_links: list[Link] = []
    cams: list[str] = []
    cam_i = 0
    for g in range(n_gw):
        gw = f"gw{g + 1:02d}"
        edge = f"edge{g % n_edge + 1}"
        nodes.append(
            Node(
                gw,
                Layer.GATEWAY,
                parent=edge,
                capacity_cpu=rng.uniform(2.0, 6.0),
                cpu_cost_rate=rng.uniform(0.5, 2.0),
                speed=rng.uniform(0.8, 1.5),
            )
        )
        tree.append(Link(gw, edge, latency_ms=rng.uniform(3, 8), traffic_cost_rate=rng.uniform(0.05, 0.2)))
        for _ in range(rng.randint(1, 2)):
            cam_i += 1
            cam = f"cam{cam_i:02d}"
            cams.append(cam)
            nodes.append(
                Node(cam, Layer.DEVICE, parent=gw, capacity_cpu=0.0, location=(10.0 * cam_i, 0.0))
            )
            tree.append(Link(cam, gw, latency_ms=rng.uniform(1, 3)))
    for e in range(n_edge):
        edge = f"edge{e + 1}"
        nodes.append(
            Node(
                edge,
                Layer.EDGE,
                capacity_cpu=rng.uniform(8.0, 16.0),
                cpu_cost_rate=rng.uniform(0.2, 1.0),
                speed=rng.uniform(0.5, 1.5),
            )
        )
        for dc in ("dc1", "dc2"):
            bounded = rng.random() < 0.3
            dc_links.append(
                Link(
                    edge,
                    dc,
                    latency_ms=rng.uniform(10, 50),
                    traffic_cost_rate=rng.uniform(0.1, 0.3),
                    bandwidth_mbps=rng.uniform(80, 200) if bounded else None,
                )
            )
    nodes.append(Node("dc1", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=rng.uniform(0.1, 0.5)))
    nodes.append(Node("dc2", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=rng.uniform(0.1, 0.5)))
    topology = Topology(nodes, tree, dc_links)

    n_pre = rng.randint(1, max_pre_stages)
    stages = [
        Stage(
            name=f"s{i + 1}",
            cpu_per_unit=rng.uniform(0.05, 0.3),
            reduction=rng.uniform(0.01, 1.0),
            base_ms=rng.uniform(10, 60),
            deploy_cost=rng.uniform(0.02, 0.3),
            dispatch_cost=rng.uniform(0.005, 0.05),
            dispatch_penalty_ms=rng.uniform(100, 800),
        )
        for i in range(n_pre)
    ]
    if rng.random() < 0.8:
        stages.append(
            Stage(name="agg", cpu_per_unit=rng.uniform(0.05, 0.2), reduction=1.0, base_ms=rng.uniform(10, 30))
        )
    pipeline = Pipeline(stages=tuple(stages), aggregation_index=n_pre + 1)

    slots: list[Slot] = []
    for _ in range(rng.randint(1, max_slots)):
        if rng.random() < 0.5:
            slots.append(Slot.at(rng.uniform(0.0, 10.0 * cam_i), rng.uniform(-5.0, 5.0)))
        else:
            slots.append(Slot.explicit(rng.sample(cams, rng.randint(1, min(2, len(cams))))))
    scenario = Scenario(
        slot_seconds=3600.0,
        slots=tuple(slots),
        source_rate_mbps=rng.uniform(4.0, 10.0),
        seed=0,
    )

    spec = ServiceSpec(pipeline=pipeline, scenario=scenario, budget=0.0)
    base = baseline_placement(topology, spec)
    budget = budget_factor * evaluate(topology, spec, base).total_cost
    return topology, replace(spec, budget=budget)


def baseline_placement(topology: Topology, spec: ServiceSpec) -> Placement:
    """Everything in the cloud at dc1; always routable, rarely optimal."""
    pre = spec.pipeline.pre_count
    if spec.pipeline.has_aggregation:
        probe = Placement(layer_of=(Layer.CLOUD,) * pre, agg_node="dc1", sink_dc="dc1")
        return replace(probe, alloc=min_alloc(topology, spec, probe))
    return Placement(layer_of=(Layer.CLOUD,) * pre, agg_node=None, sink_dc="dc1")


def random_placement(topology: Topology, spec: ServiceSpec, rng: random.Random) -> Placement:
    """A structurally valid (not necessarily feasible) placement."""
    termini = candidate_termini(topology, spec)
    agg, sink = termini[rng.randrange(len(termini))]
    max_layer = int(topology.node(agg).layer) if agg else int(Layer.CLOUD)
    pre = spec.pipeline.pre_count
    vector = tuple(sorted(Layer(rng.randint(0, max_layer)) for _ in range(pre)))
    visited = sorted(first_touch_slots(topology, derive_active_streams(topology, spec.scenario)))
    if Layer.GATEWAY in vector:
        predeploy = frozenset(g for g in visited if rng.random() < 0.5)
    else:
        predeploy = frozenset()
    if agg is None:
        alloc = 0
    else:
        probe = Placement(layer_of=vector, agg_node=agg, sink_dc=sink)
        alloc = min_alloc(topology, spec, probe) + rng.randint(0, 1)
    return Placement(layer_of=vector, agg_node=agg, sink_dc=sink, predeploy=predeploy, alloc=alloc)


def scale_costs(topology: Topology, pipeline: Pipeline, alpha: float) -> tuple[Topology, Pipeline]:
    """Multiply every cost rate (CPU, traffic, deploy, dispatch) by alpha."""
    nodes = [replace(n, cpu_cost_rate=n.cpu_cost_rate * alpha) for n in topology.node_list]
    tree = [replace(l, traffic_cost_rate=l.traffic_cost_rate * alpha) for l in topology.tree_link_list]
    dc = [replace(l, traffic_cost_rate=l.traffic_cost_rate * alpha) for l in topology.dc_link_list]
    stages = tuple(
        replace(s, deploy_cost=s.deploy_cost * alpha, dispatch_cost=s.dispatch_cost * alpha)
        for s in pipeline.stages
    )
    return Topology(nodes, tree, dc), replace(pipeline, stages=stages)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def reports_close(a, b, rel: float = 1e-9) -> bool:
    scalar_fields = (
        "server_cost",
        "network_cost",
        "deploy_cost",
        "dispatch_cost",
        "total_cost",
        "mean_latency_ms",
        "max_latency_ms",
    )
    for field in scalar_fields:
        if not close(getattr(a, field), getattr(b, field), rel):
            return False
    if a.feasible != b.feasible:
        return False
    if sorted(a.peak_cpu) != sorted(b.peak_cpu):
        return False
    for key in a.peak_cpu:
        if not close(a.peak_cpu[key], b.peak_cpu[key], rel):
            return False
    if len(a.violations) != len(b.violations):
        return False
    for va, vb in zip(a.violations, b.violations):
        if (va.kind, va.ident) != (vb.kind, vb.ident) or not close(va.magnitude, vb.magnitude, rel):
            return False
    return True


def split_dc_bundle(*extra_dc_links: Link):
    """mini_bundle with gw2 (cam3's gateway) moved under a new edge2. edge1 links
    only to dc1 and edge2 only to dc2, so no sink DC reaches both streams."""
    mini = mini_bundle()
    t = mini.topology
    nodes = [replace(n, parent="edge2") if n.id == "gw2" else n for n in t.node_list]
    nodes.append(Node("edge2", Layer.EDGE, capacity_cpu=8.0, cpu_cost_rate=0.5, speed=0.5))
    tree_links = [replace(l, dst="edge2") if l.src == "gw2" else l for l in t.tree_link_list]
    dc_links = [t.dc_link("edge1", "dc1"), Link("edge2", "dc2", latency_ms=40.0),
                *extra_dc_links]
    return replace(mini, topology=Topology(nodes, tree_links, dc_links))


def unlocated_bundle():
    """mini_bundle with no device located and one target slot, which no device
    can serve."""
    mini = mini_bundle()
    t = mini.topology
    nodes = [replace(n, location=None) for n in t.node_list]
    slots = mini.scenario.slots + (Slot.at(1, 2),)
    return replace(mini, topology=Topology(nodes, t.tree_link_list, t.dc_link_list),
                   scenario=replace(mini.scenario, slots=slots))
