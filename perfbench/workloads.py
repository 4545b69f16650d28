"""Seeded workload generators, built only on the public ``tierplace`` API.

Each generator takes the imported ``tierplace`` package, a seed and a size
table and returns the problem bundles of one workload. The program under test
only ever sees these bundles (in memory, or as files written by ``run.py``).

Why each workload exists and what it stresses:

* ``oracle_small``: a batch of small heterogeneous instances (at most 6
  gateways and 4 slots, explicit and target slots mixed, varied node speeds
  and cost rates, bandwidth caps on some DC links). Exhaustive search is
  cheap, so the exact optimum is known and gap-to-exact is defined. Time goes
  to the fixed per-call cost of ``evaluate`` and to the solver loops.
* ``walk_large``: the ``synth_bundle`` line topology at hundreds of devices,
  with one random-walk target per slot. ``nearest_device`` inside
  ``derive_active_streams`` dominates every ``evaluate``. The walk is
  confined to a corridor so that exactly ``visited`` gateways are touched,
  which fixes the exhaustive state count (2 DCs x (3 + 2**visited)).
  Link latencies and traffic prices get a seeded jitter so that answer quality
  differs from seed to seed instead of being one constant.
* ``multi_stream``: explicit slots, each activating a seeded random 25-30 %
  of a few hundred devices. The per-stream loop (route, link load, CPU
  accounting) dominates; stream derivation is cheap and ``nearest_device`` is
  never called.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

# Sizes the benchmark runs with; the self-test substitutes tiny ones.
SIZES = {
    "oracle_small": {"instances": 16},
    "walk_large": {"devices": 300, "slots": 100, "visited": 5, "step": 40.0},
    "multi_stream": {"devices": 240, "per_gateway": 4, "gateways_per_edge": 6, "slots": 16},
}


def oracle_small(tp, seed: int, sizes: dict) -> list:
    rng = random.Random(f"oracle_small/{seed}")
    return [_small_instance(tp, rng, i) for i in range(sizes["instances"])]


def _small_instance(tp, rng: random.Random, i: int):
    """Instance i of the batch. Its shape (gateway, edge and stage counts,
    merged stage or not, capped dc1 links or not) is fixed by i, so every
    seed gives the batch the same mix of solver paths; the seed draws the
    rates, speeds, latencies, caps and active devices."""
    L = tp.Layer
    n_gw = 3 + i % 4
    n_edge = 1 + (i // 2) % 2
    n_pre = 1 + (i // 6) % 2
    has_merge = i % 4 != 3
    # dc1 is always the nearer DC, so greedy starts there. A capped dc1 link
    # carries less than one full-rate stream, which forces greedy onto its
    # scan of every terminus.
    capped = i % 3 == 1
    nodes, tree, dc_links, cams = [], [], [], []
    for g in range(n_gw):
        gw, edge = f"gw{g + 1}", f"edge{g % n_edge + 1}"
        nodes.append(tp.Node(
            gw, L.GATEWAY, parent=edge, capacity_cpu=rng.uniform(2.0, 6.0),
            cpu_cost_rate=rng.uniform(0.8, 1.5), speed=rng.uniform(0.8, 1.5),
        ))
        tree.append(tp.Link(gw, edge, latency_ms=rng.uniform(3.0, 8.0),
                            traffic_cost_rate=rng.uniform(0.05, 0.2)))
        for _ in range(rng.randint(1, 2)):
            cam = f"cam{len(cams) + 1}"
            nodes.append(tp.Node(cam, L.DEVICE, parent=gw,
                                 location=(10.0 * len(cams), 0.0)))
            tree.append(tp.Link(cam, gw, latency_ms=rng.uniform(1.0, 3.0)))
            cams.append(cam)
    for e in range(n_edge):
        edge = f"edge{e + 1}"
        nodes.append(tp.Node(
            edge, L.EDGE, capacity_cpu=rng.uniform(8.0, 16.0),
            cpu_cost_rate=rng.uniform(0.3, 0.8), speed=rng.uniform(0.5, 1.5),
        ))
        # dc2 links are never capped, so everything-at-dc2 is always feasible.
        dc_links.append(tp.Link(edge, "dc1", latency_ms=rng.uniform(20.0, 30.0),
                                traffic_cost_rate=rng.uniform(0.15, 0.25),
                                bandwidth_mbps=rng.uniform(4.0, 7.0) if capped else None))
        dc_links.append(tp.Link(edge, "dc2", latency_ms=rng.uniform(30.0, 40.0),
                                traffic_cost_rate=rng.uniform(0.15, 0.25)))
    for dc in ("dc1", "dc2"):
        nodes.append(tp.Node(dc, L.CLOUD, capacity_cpu=1000.0,
                             cpu_cost_rate=rng.uniform(0.15, 0.35), speed=rng.uniform(0.8, 1.2)))
    topology = tp.Topology(nodes, tree, dc_links)

    stages = [
        tp.Stage(
            name=f"s{i + 1}", cpu_per_unit=rng.uniform(0.05, 0.3),
            reduction=rng.uniform(0.05, 0.6), base_ms=rng.uniform(20.0, 50.0),
            deploy_cost=rng.uniform(0.05, 0.2), dispatch_cost=rng.uniform(0.01, 0.04),
            dispatch_penalty_ms=rng.uniform(200.0, 600.0),
        )
        for i in range(n_pre)
    ]
    if has_merge:
        stages.append(tp.Stage(name="agg", cpu_per_unit=rng.uniform(0.05, 0.2),
                               reduction=1.0, base_ms=rng.uniform(10.0, 30.0)))
    pipeline = tp.Pipeline(stages=tuple(stages), aggregation_index=n_pre + 1)

    # Four slots: two explicit pairs and two tracked targets, in seeded order.
    slots = [tp.Slot.explicit(rng.sample(cams, 2)) for _ in range(2)]
    slots += [tp.Slot.at(rng.uniform(0.0, 10.0 * len(cams)), rng.uniform(-5.0, 5.0))
              for _ in range(2)]
    rng.shuffle(slots)
    scenario = tp.Scenario(slot_seconds=3600.0, slots=tuple(slots),
                           source_rate_mbps=8.0, seed=0)
    budget = rng.uniform(1.1, 1.6) * _all_at_dc_cost(tp, topology, pipeline, scenario, "dc2")
    return tp.ScenarioBundle(topology, pipeline, scenario, budget)


def walk_large(tp, seed: int, sizes: dict) -> list:
    rng = random.Random(f"walk_large/{seed}")
    base = tp.synth_bundle(sizes["devices"], 1, seed=0, budget=0.0)
    topology = _jitter(tp, base.topology, rng)
    visited = sizes["visited"]
    gateways = (sizes["devices"] + 1) // 2
    first = rng.randrange(0, gateways - visited + 1)
    # Cameras sit at x = 10 i, two per gateway, so gateways first .. first +
    # visited - 1 own every target whose x lies in [lo, hi].
    lo, hi = 20.0 * first - 4.9, 20.0 * (first + visited) - 5.1
    while True:
        scenario = _corridor_walk(tp, rng, sizes["slots"], sizes["step"], lo, hi)
        streams = tp.derive_active_streams(topology, scenario)
        touched = {topology.node(s[0]).parent for s in streams}
        if len(touched) == visited:
            break
    budget = 2.0 * _all_at_dc_cost(tp, topology, base.pipeline, scenario, "dc1")
    return [tp.ScenarioBundle(topology, base.pipeline, scenario, budget)]


def _jitter(tp, topology, rng: random.Random):
    """The same topology with each link's latency and traffic price scaled by 0.8-1.2.

    Node speeds stay put: the gateway and the DC run the heavy stage equally
    fast, so the optimal tiers do not flip from seed to seed.
    """
    def scaled(link):
        return replace(link, latency_ms=link.latency_ms * rng.uniform(0.8, 1.2),
                       traffic_cost_rate=link.traffic_cost_rate * rng.uniform(0.8, 1.2))
    return tp.Topology(topology.node_list, [scaled(l) for l in topology.tree_link_list],
                       [scaled(l) for l in topology.dc_link_list])


def _corridor_walk(tp, rng: random.Random, num_slots: int, step: float,
                   lo: float, hi: float):
    """Random walk of a tracked target whose x reflects off the corridor walls."""
    x, y = rng.uniform(lo, hi), 0.0
    slots = []
    for _ in range(num_slots):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = rng.uniform(0.0, step)
        x += length * math.cos(angle)
        y += length * math.sin(angle)
        while not lo <= x <= hi:
            x = 2 * lo - x if x < lo else 2 * hi - x
        slots.append(tp.Slot.at(x, y))
    return tp.Scenario(slot_seconds=3600.0, slots=tuple(slots), source_rate_mbps=8.0, seed=0)


def multi_stream(tp, seed: int, sizes: dict) -> list:
    rng = random.Random(f"multi_stream/{seed}")
    L = tp.Layer
    n_dev = sizes["devices"]
    n_gw = math.ceil(n_dev / sizes["per_gateway"])
    n_edge = math.ceil(n_gw / sizes["gateways_per_edge"])
    dcs = ("dc1", "dc2", "dc3")
    nodes, tree, dc_links, cams = [], [], [], []
    for d in range(n_dev):
        cam, gw = f"cam{d + 1:04d}", f"gw{d // sizes['per_gateway'] + 1:03d}"
        nodes.append(tp.Node(cam, L.DEVICE, parent=gw))
        tree.append(tp.Link(cam, gw, latency_ms=rng.uniform(1.0, 3.0)))
        cams.append(cam)
    # Gateways run decode faster than the DCs but are too small for analyze
    # too; edges are slow; dc1 is the nearest DC and its links are never
    # capped. So the answer's shape (decode on gateways, analyze and merge at
    # dc1) is the same for every seed, and only its numbers vary.
    for g in range(n_gw):
        gw, edge = f"gw{g + 1:03d}", f"edge{g // sizes['gateways_per_edge'] + 1:02d}"
        nodes.append(tp.Node(
            gw, L.GATEWAY, parent=edge, capacity_cpu=rng.uniform(4.0, 6.0),
            cpu_cost_rate=rng.uniform(0.8, 1.2), speed=rng.uniform(1.2, 1.4),
        ))
        tree.append(tp.Link(gw, edge, latency_ms=rng.uniform(3.0, 8.0),
                            traffic_cost_rate=rng.uniform(0.05, 0.2)))
    for e in range(n_edge):
        edge = f"edge{e + 1:02d}"
        nodes.append(tp.Node(
            edge, L.EDGE, capacity_cpu=rng.uniform(30.0, 40.0),
            cpu_cost_rate=rng.uniform(0.4, 0.6), speed=rng.uniform(0.6, 0.8),
        ))
        for dc in dcs:
            capped = dc != "dc1" and rng.random() < 0.5
            dc_links.append(tp.Link(
                edge, dc, latency_ms=rng.uniform(10.0, 20.0) if dc == "dc1" else rng.uniform(25.0, 60.0),
                traffic_cost_rate=rng.uniform(0.1, 0.3),
                bandwidth_mbps=rng.uniform(20.0, 60.0) if capped else None,
            ))
    for dc in dcs:
        nodes.append(tp.Node(dc, L.CLOUD, capacity_cpu=5000.0,
                             cpu_cost_rate=rng.uniform(0.2, 0.3), speed=rng.uniform(1.0, 1.1)))
    topology = tp.Topology(nodes, tree, dc_links)

    pipeline = tp.Pipeline(
        stages=(
            tp.Stage("decode", cpu_per_unit=0.1, reduction=0.5, base_ms=15.0,
                     deploy_cost=0.1, dispatch_cost=0.02, dispatch_penalty_ms=300.0),
            tp.Stage("analyze", cpu_per_unit=0.2, reduction=0.05, base_ms=40.0,
                     deploy_cost=0.2, dispatch_cost=0.03, dispatch_penalty_ms=500.0),
            tp.Stage("merge", cpu_per_unit=0.05, reduction=1.0, base_ms=20.0),
        ),
        aggregation_index=3,
    )
    slots = tuple(
        tp.Slot.explicit(rng.sample(cams, round(n_dev * rng.uniform(0.25, 0.30))))
        for _ in range(sizes["slots"])
    )
    scenario = tp.Scenario(slot_seconds=3600.0, slots=slots, source_rate_mbps=8.0, seed=0)
    budget = 1.5 * _all_at_dc_cost(tp, topology, pipeline, scenario, "dc1")
    return [tp.ScenarioBundle(topology, pipeline, scenario, budget)]


def _all_at_dc_cost(tp, topology, pipeline, scenario, dc: str) -> float:
    """Total cost of running every stage at one DC with the minimal reservation."""
    spec = tp.ServiceSpec(pipeline=pipeline, scenario=scenario, budget=0.0)
    placement = tp.Placement(layer_of=(tp.Layer.CLOUD,) * pipeline.pre_count,
                             agg_node=dc if pipeline.has_aggregation else None, sink_dc=dc)
    if pipeline.has_aggregation:
        placement = replace(placement, alloc=tp.min_alloc(topology, spec, placement))
    return tp.evaluate(topology, spec, placement).total_cost


GENERATORS = {"oracle_small": oracle_small, "walk_large": walk_large, "multi_stream": multi_stream}
