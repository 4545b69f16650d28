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
    TopologyError,
    candidate_termini,
    derive_active_streams,
    evaluate,
    min_alloc,
    mini_bundle,
)


def first_touch_by_parent(topology: Topology, streams: list[list[str]]) -> dict[str, int]:
    """Reference: each gateway -> the first slot it serves a stream, found by parent pointers."""
    first: dict[str, int] = {}
    for index, active in enumerate(streams):
        for device_id in active:
            gateway = topology.nodes.get(topology.nodes[device_id].parent)
            if gateway is not None and gateway.id not in first:
                first[gateway.id] = index
    return first


def brute_force_nearest_device(topology: Topology, target: tuple[float, float]) -> str:
    """Reference: the located device closest (Euclidean) to target, ties to the smaller id,
    found by checking every device."""
    best: tuple[float, str] | None = None
    tx, ty = target
    for node in topology.layer(Layer.DEVICE):
        if node.location is None:
            continue
        dx = node.location[0] - tx
        dy = node.location[1] - ty
        key = (dx * dx + dy * dy, node.id)
        if best is None or key < best:
            best = key
    if best is None:
        raise TopologyError("no candidate device")
    return best[1]


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
        tree.append(Link(gw, edge, latency_ms=rng.uniform(3, 8),
                         traffic_cost_rate=rng.uniform(0.05, 0.2)))
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
            Stage(name="agg", cpu_per_unit=rng.uniform(0.05, 0.2), reduction=1.0,
                  base_ms=rng.uniform(10, 30))
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
    visited = sorted(
        first_touch_by_parent(topology, derive_active_streams(topology, spec.scenario)))
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
    tree = [replace(l, traffic_cost_rate=l.traffic_cost_rate * alpha)
            for l in topology.tree_link_list]
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


def colliding_link_keys_bundle(second_device: str = "a->b"):
    """mini_bundle's edge1 and dc1 under two gateways `b->c` and `c`, with device `a` under
    `b->c` and `second_device` under `c`, both active in one slot and each with an uplink
    capped at 10 Mb/s. The two uplinks are distinct, but with the default second device
    both have the key `a->b->c`."""
    mini = mini_bundle()
    t = mini.topology
    gateway, camera = t.node("gw1"), t.node("cam1")
    up_camera, up_gateway = t.uplink("cam1"), t.uplink("gw1")
    nodes = [t.node("dc1"), t.node("edge1"), replace(gateway, id="b->c"),
             replace(gateway, id="c"), replace(camera, id="a", parent="b->c"),
             replace(camera, id=second_device, parent="c")]
    tree_links = [replace(up_camera, src="a", dst="b->c", bandwidth_mbps=10.0),
                  replace(up_camera, src=second_device, dst="c", bandwidth_mbps=10.0),
                  replace(up_gateway, src="b->c"), replace(up_gateway, src="c")]
    topology = Topology(nodes, tree_links, [t.dc_link("edge1", "dc1")])
    slots = (Slot.explicit(["a", second_device]),)
    return replace(mini, topology=topology, scenario=replace(mini.scenario, slots=slots))


def unlocated_bundle():
    """mini_bundle with no device located and one target slot, which no device
    can serve."""
    mini = mini_bundle()
    t = mini.topology
    nodes = [replace(n, location=None) for n in t.node_list]
    slots = mini.scenario.slots + (Slot.at(1, 2),)
    return replace(mini, topology=Topology(nodes, t.tree_link_list, t.dc_link_list),
                   scenario=replace(mini.scenario, slots=slots))


def _number_paths(value, path=()):
    """Key paths of every JSON number (not bool) inside value."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path
        return
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _number_paths(child, path + (key,))


# Edits of a bundle's JSON whose report fields overflow; `validate` rejects each one.
def _huge_link_prices(data):  # 360 GB per stream and link at 1e308 a GB: an infinite cost
    data["scenario"]["source_rate_mbps"] = 800
    for link in data["topology"]["tree_links"] + data["topology"]["dc_links"]:
        link["traffic_cost_rate"] = 1e308


def _huge_stage_latency(data):  # analyze takes 2e308 ms on a gateway: an infinite latency
    data["pipeline"]["stages"][0]["base_ms"] = 1e308
    for node in data["topology"]["nodes"]:
        if node["layer"] == "Gateway":
            node["speed"] = 0.5


def _huge_stage_load(data):  # two streams of 1.2e308 CPU each on gw1 in slot 0, CPU free
    data["scenario"]["slots"][0]["devices"] = ["cam1", "cam2"]
    data["pipeline"]["stages"][0]["cpu_per_unit"] = 1.5e307
    for node in data["topology"]["nodes"]:
        node["cpu_cost_rate"] = 0.0


def _long_period(data):  # two slots of 1e308 s: an infinite charging period, no usage cost
    data["scenario"]["slot_seconds"] = 1e308
    data["scenario"]["source_rate_mbps"] = 1e-3


def _crowded_free_slot(data):  # 1.7e308 s of every camera in one slot on free links
    for link in data["topology"]["tree_links"] + data["topology"]["dc_links"]:
        link["traffic_cost_rate"] = 0.0
    cams = [node["id"] for node in data["topology"]["nodes"] if node["layer"] == "Device"]
    data["scenario"].update(slots=[{"devices": cams}], slot_seconds=1.7e308, source_rate_mbps=1)


def three_dc_instance(seed: int, active_edges: int = 3) -> tuple[Topology, ServiceSpec]:
    """A small multi_stream-shaped instance: 3 edges of 3 gateways of 4 cameras, each edge
    linked to 3 DCs, and 6 crowded explicit slots. Slot k draws 60 % of the cameras of the
    first k + 2 gateways of the first `active_edges` edges, so gateways are first touched in
    later slots too; with one active edge, edge1 lies on every route and can aggregate."""
    rng = random.Random(seed)
    nodes = [Node(f"dc{d}", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=rng.uniform(0.1, 0.5))
             for d in (1, 2, 3)]
    tree: list[Link] = []
    dc_links: list[Link] = []
    active: list[list[str]] = []  # cameras per gateway, active edges only
    for e in range(1, 4):
        edge = f"edge{e}"
        nodes.append(Node(edge, Layer.EDGE, capacity_cpu=rng.uniform(20.0, 60.0),
                          cpu_cost_rate=rng.uniform(0.2, 1.0), speed=rng.uniform(0.5, 1.5)))
        dc_links += [Link(edge, f"dc{d}", latency_ms=rng.uniform(10, 50),
                          traffic_cost_rate=rng.uniform(0.1, 0.3),
                          bandwidth_mbps=rng.uniform(60, 300) if rng.random() < 0.3 else None)
                     for d in (1, 2, 3)]
        for g in range(1, 4):
            gw = f"gw{e}{g}"
            nodes.append(Node(gw, Layer.GATEWAY, parent=edge, capacity_cpu=rng.uniform(2.0, 6.0),
                              cpu_cost_rate=rng.uniform(0.5, 2.0), speed=rng.uniform(0.8, 1.5)))
            tree.append(Link(gw, edge, latency_ms=rng.uniform(3, 8),
                             traffic_cost_rate=rng.uniform(0.05, 0.2)))
            cams = [f"cam{e}{g}{c}" for c in range(1, 5)]
            nodes += [Node(cam, Layer.DEVICE, parent=gw) for cam in cams]
            tree += [Link(cam, gw, latency_ms=rng.uniform(1, 3)) for cam in cams]
            if e <= active_edges:
                active.append(cams)
    stages = (
        Stage("s1", cpu_per_unit=0.1, reduction=0.5, base_ms=20.0, deploy_cost=0.1,
              dispatch_cost=0.02, dispatch_penalty_ms=300.0),
        Stage("s2", cpu_per_unit=0.05, reduction=0.2, base_ms=30.0, deploy_cost=0.05,
              dispatch_cost=0.01, dispatch_penalty_ms=200.0),
        Stage("merge", cpu_per_unit=0.1, reduction=1.0, base_ms=15.0),
    )
    slots = []
    for k in range(6):
        cams = [cam for group in active[:k + 2] for cam in group]
        slots.append(Slot.explicit(rng.sample(cams, math.ceil(0.6 * len(cams)))))
    scenario = Scenario(slot_seconds=3600.0, slots=tuple(slots), source_rate_mbps=4.0)
    topology = Topology(nodes, tree, dc_links)
    spec = ServiceSpec(Pipeline(stages, aggregation_index=3), scenario, budget=0.0)
    budget = 1.5 * evaluate(topology, spec, baseline_placement(topology, spec)).total_cost
    return topology, replace(spec, budget=budget)
