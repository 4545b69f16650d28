"""The compiled per-problem Instance: its memo, the sorted nearest-device
index, and a count-based guard against re-deriving placement-independent data."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import tierplace.cost_model as cost_model
from tierplace import (
    InvalidPlacement,
    Layer,
    Link,
    Node,
    Pipeline,
    Placement,
    Scenario,
    ServiceSpec,
    Slot,
    Stage,
    SolverConfig,
    Topology,
    TopologyError,
    derive_active_streams,
    evaluate,
    nearest_device,
    simulate,
    solve_anneal,
    summarize,
    synth_bundle,
)
from tierplace.cost_model import compile_instance
from tierplace.topology import nearest_device_index
from _instances import baseline_placement, random_instance, random_placement


@pytest.fixture
def cold_memo(monkeypatch):
    """Start from an empty memo and restore the previous entry afterwards."""
    monkeypatch.setattr(cost_model, "_memo", None)


def test_cold_and_warm_memo_give_equal_reports(cold_memo):
    for seed in range(10):
        topology, spec = random_instance(seed)
        rng = random.Random(seed)
        for _ in range(4):
            placement = random_placement(topology, spec, rng)
            cost_model._memo = None
            cold = evaluate(topology, spec, placement)
            assert evaluate(topology, spec, placement) == cold
            cost_model._memo = None
            cold_replay = summarize(simulate(topology, spec, placement))
            assert summarize(simulate(topology, spec, placement)) == cold_replay


def test_alternating_instances_get_their_own_reports(cold_memo):
    ta, sa = random_instance(1)
    tb, sb = random_instance(2)
    pa, pb = baseline_placement(ta, sa), baseline_placement(tb, sb)
    first_a = evaluate(ta, sa, pa)
    first_b = evaluate(tb, sb, pb)
    assert first_a != first_b
    assert evaluate(ta, sa, pa) == first_a
    assert evaluate(tb, sb, pb) == first_b


def test_memo_key_is_scenario_identity_not_budget(cold_memo, mini, mini_spec, p2):
    instance = compile_instance(mini.topology, mini_spec)
    assert compile_instance(mini.topology, replace(mini_spec, budget=0.5)) is instance
    swapped = replace(mini_spec, scenario=replace(mini.scenario, slots=(Slot.explicit(["cam2"]),)))
    assert compile_instance(mini.topology, swapped) is not instance
    assert evaluate(mini.topology, swapped, p2) != evaluate(mini.topology, mini_spec, p2)


def test_mutating_derived_streams_changes_nothing(cold_memo, mini, mini_spec, p1):
    before = evaluate(mini.topology, mini_spec, p1)
    streams = derive_active_streams(mini.topology, mini.scenario)
    streams[0].append("cam2")
    streams.append(["cam3"])
    assert evaluate(mini.topology, mini_spec, p1) == before
    assert derive_active_streams(mini.topology, mini.scenario) == [["cam1"], ["cam3"]]


@settings(max_examples=300)
@given(
    points=st.lists(
        st.none() | st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=0, max_size=12
    ),
    targets=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=6),
)
# A tie across the target: the nearer-first sweep meets cam07 on the right
# before cam00 on the left, at the same distance; cam00 must win.
@example(points=[(-1, 0), (1, 0)], targets=[(0, 0)])
def test_index_matches_brute_force_nearest_device(points, targets):
    # Ids are a permutation of the insertion order so ties do not follow it;
    # a located gateway sits on the grid too and must never be chosen.
    nodes = [
        Node(
            f"cam{(7 * i) % 13:02d}",
            Layer.DEVICE,
            location=None if p is None else (float(p[0]), float(p[1])),
        )
        for i, p in enumerate(points)
    ]
    nodes.append(Node("gw", Layer.GATEWAY, location=(0.0, 0.0)))
    topology = Topology(nodes)
    nearest = nearest_device_index(topology)
    for tx, ty in targets:
        target = (tx / 2, ty / 2)  # half steps put many targets midway between devices
        try:
            expected = nearest_device(topology, target)
        except TopologyError:
            with pytest.raises(TopologyError, match="no candidate device"):
                nearest(target)
            continue
        assert nearest(target) == expected


def test_anneal_derives_placement_independent_data_once(monkeypatch):
    bundle = synth_bundle(60, 30)
    spec = bundle.service_spec()
    counts = {"derive": 0, "route": 0}
    real_derive, real_route = cost_model.derive_active_streams, cost_model.route

    def counting_derive(*args):
        counts["derive"] += 1
        return real_derive(*args)

    def counting_route(*args):
        counts["route"] += 1
        return real_route(*args)

    monkeypatch.setattr(cost_model, "_memo", None)
    monkeypatch.setattr(cost_model, "derive_active_streams", counting_derive)
    monkeypatch.setattr(cost_model, "route", counting_route)
    solve_anneal(bundle.topology, spec, SolverConfig(kind="anneal", seed=0))

    active = {d for slot in real_derive(bundle.topology, bundle.scenario) for d in slot}
    assert counts["derive"] == 1
    assert 0 < counts["route"] <= len(active) * len(bundle.topology.clouds())


def test_route_errors_name_the_first_offending_device_on_every_call(cold_memo):
    # cam2 (edge2) is active before cam1 (edge1); only edge1 reaches dc2.
    nodes = [
        Node("cam1", Layer.DEVICE, parent="gw1"),
        Node("cam2", Layer.DEVICE, parent="gw2"),
        Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=1.0),
        Node("gw2", Layer.GATEWAY, parent="edge2", capacity_cpu=1.0),
        Node("edge1", Layer.EDGE, capacity_cpu=10.0),
        Node("edge2", Layer.EDGE, capacity_cpu=10.0),
        Node("dc1", Layer.CLOUD, capacity_cpu=100.0),
        Node("dc2", Layer.CLOUD, capacity_cpu=100.0),
    ]
    tree = [Link("cam1", "gw1"), Link("cam2", "gw2"), Link("gw1", "edge1"), Link("gw2", "edge2")]
    dc_links = [Link("edge1", "dc1"), Link("edge2", "dc1"), Link("edge1", "dc2")]
    topology = Topology(nodes, tree, dc_links)
    pipeline = Pipeline((Stage("merge", cpu_per_unit=0.1, reduction=1.0),), aggregation_index=1)
    scenario = Scenario(1.0, (Slot.explicit(["cam2"]), Slot.explicit(["cam1"])), 1.0)
    spec = ServiceSpec(pipeline, scenario, budget=10.0)
    cases = [
        (Placement((), agg_node="edge1", sink_dc="dc1", alloc=1), "edge1 is off the path of cam2"),
        (Placement((), agg_node="dc2", sink_dc="dc2", alloc=1), "edge2 is not linked to dc2"),
    ]
    for placement, reason in cases * 2:
        for replay in (evaluate, simulate):
            with pytest.raises(InvalidPlacement, match=reason):
                replay(topology, spec, placement)
    assert evaluate(topology, spec, Placement((), agg_node="dc1", sink_dc="dc1", alloc=1)).feasible
