from __future__ import annotations

import random
from dataclasses import replace

import pytest

from tierplace import (
    AggregationTooSmall,
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
    Topology,
    Violation,
    evaluate,
    min_alloc,
    simulate,
    summarize,
)
from tierplace.cost_model import _total
from _instances import (
    random_instance,
    random_placement,
    reports_close,
    scale_costs,
    split_dc_bundle,
)


# Expected values below were frozen from an independent hand recomputation
# of the billing and latency rules on the canonical instance.

def test_p1_gateway_predeployed(mini_spec, mini, p1):
    report = evaluate(mini.topology, mini_spec, p1)
    assert report.network_cost == pytest.approx(0.0216, rel=1e-9)
    assert report.server_cost == pytest.approx(1.85, rel=1e-9)
    assert report.deploy_cost == pytest.approx(0.1, rel=1e-9)
    assert report.dispatch_cost == 0.0
    assert report.total_cost == pytest.approx(1.9716, rel=1e-9)
    assert report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)
    assert report.max_latency_ms == pytest.approx(92.0, rel=1e-9)
    assert report.feasible
    assert report.peak_cpu["gw1"] == pytest.approx(1.6, rel=1e-9)
    assert report.peak_cpu["dc1"] == pytest.approx(0.008, rel=1e-9)


def test_p2_all_cloud(mini_spec, mini, p2):
    report = evaluate(mini.topology, mini_spec, p2)
    assert report.network_cost == pytest.approx(2.16, rel=1e-9)
    assert report.server_cost == pytest.approx(0.65, rel=1e-9)
    assert report.deploy_cost == 0.0
    assert report.dispatch_cost == 0.0
    assert report.total_cost == pytest.approx(2.81, rel=1e-9)
    assert report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)
    assert report.feasible


def test_p3_gateway_dispatched(mini_spec, mini, p3):
    report = evaluate(mini.topology, mini_spec, p3)
    assert report.deploy_cost == 0.0
    assert report.dispatch_cost == pytest.approx(0.04, rel=1e-9)
    assert report.total_cost == pytest.approx(1.9116, rel=1e-9)
    assert report.mean_latency_ms == pytest.approx(592.0, rel=1e-9)
    assert report.feasible


def test_total_is_exact_component_sum(mini_spec, mini, p1, p2, p3):
    for placement in (p1, p2, p3):
        r = evaluate(mini.topology, mini_spec, placement)
        assert r.total_cost == r.server_cost + r.network_cost + r.deploy_cost + r.dispatch_cost
        assert r.feasible == (len(r.violations) == 0)


def test_evaluate_is_pure(mini_spec, mini, p1):
    assert evaluate(mini.topology, mini_spec, p1) == evaluate(mini.topology, mini_spec, p1)


def test_min_alloc_mini_floor(mini_spec, mini, p1):
    assert min_alloc(mini.topology, mini_spec, replace(p1, alloc=0)) == 1


def _single_node_instance(rate_mbps, agg_cpu_per_unit, agg_capacity=1000.0):
    topology = Topology(
        nodes=[
            Node("cam1", Layer.DEVICE, parent="gw1", location=(0.0, 0.0)),
            Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=4.0),
            Node("edge1", Layer.EDGE, capacity_cpu=8.0),
            Node("dc1", Layer.CLOUD, capacity_cpu=agg_capacity, cpu_cost_rate=0.25),
        ],
        tree_links=[Link("cam1", "gw1"), Link("gw1", "edge1")],
        dc_links=[Link("edge1", "dc1")],
    )
    pipeline = Pipeline(
        stages=(Stage(name="agg", cpu_per_unit=agg_cpu_per_unit, reduction=1.0),),
        aggregation_index=1,
    )
    scenario = Scenario(
        slot_seconds=3600.0, slots=(Slot.explicit(["cam1"]),), source_rate_mbps=rate_mbps
    )
    return topology, ServiceSpec(pipeline=pipeline, scenario=scenario, budget=100.0)


def test_min_alloc_ceiling():
    topology, spec = _single_node_instance(25.0, 0.1)
    placement = Placement(layer_of=(), agg_node="dc1", sink_dc="dc1")
    assert min_alloc(topology, spec, placement) == 3


def test_min_alloc_zero_demand_floors_to_one():
    topology, spec = _single_node_instance(25.0, 0.0)
    placement = Placement(layer_of=(), agg_node="dc1", sink_dc="dc1")
    assert min_alloc(topology, spec, placement) == 1


def test_min_alloc_rejects_oversized_demand():
    topology, spec = _single_node_instance(25.0, 0.5, agg_capacity=2.0)
    placement = Placement(layer_of=(), agg_node="dc1", sink_dc="dc1")
    with pytest.raises(AggregationTooSmall, match="aggregation node too small"):
        min_alloc(topology, spec, placement)


def test_min_alloc_needs_a_merged_stage(mini, mini_spec):
    spec = replace(mini_spec, pipeline=replace(mini_spec.pipeline, aggregation_index=3))
    placement = Placement(layer_of=(Layer.GATEWAY, Layer.CLOUD), sink_dc="dc1")
    with pytest.raises(InvalidPlacement, match="^invalid placement: no merged stage to size$"):
        min_alloc(mini.topology, spec, placement)


def test_min_alloc_makes_evaluate_alloc_clean():
    topology, spec = _single_node_instance(25.0, 0.1)
    placement = Placement(layer_of=(), agg_node="dc1", sink_dc="dc1")
    alloc = min_alloc(topology, spec, placement)
    good = evaluate(topology, spec, replace(placement, alloc=alloc))
    assert not [v for v in good.violations if v.kind == "alloc"]
    tight = evaluate(topology, spec, replace(placement, alloc=alloc - 1))
    assert [v for v in tight.violations if v.kind == "alloc"]


def _edge_aggregation_instance():
    """Two cameras behind gw1; merged stages on edge1 (speed 4), sink dc1 (speed 10)."""
    topology = Topology(
        nodes=[
            Node("cam1", Layer.DEVICE, parent="gw1", location=(0.0, 0.0)),
            Node("cam2", Layer.DEVICE, parent="gw1", location=(1.0, 0.0)),
            Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=4.0),
            Node("edge1", Layer.EDGE, capacity_cpu=100.0, speed=4.0),
            Node("dc1", Layer.CLOUD, capacity_cpu=100.0, speed=10.0),
        ],
        tree_links=[Link("cam1", "gw1", latency_ms=1.0), Link("cam2", "gw1", latency_ms=1.0),
                    Link("gw1", "edge1", latency_ms=2.0)],
        dc_links=[Link("edge1", "dc1", latency_ms=10.0)],
    )
    pipeline = Pipeline(
        stages=(
            Stage(name="pre", cpu_per_unit=0.0, reduction=0.5, base_ms=8.0),
            Stage(name="merge", cpu_per_unit=0.125, reduction=0.25, base_ms=20.0),
            Stage(name="post", cpu_per_unit=0.25, reduction=1.0, base_ms=12.0),
        ),
        aggregation_index=2,
    )
    scenario = Scenario(
        slot_seconds=3600.0,
        slots=(Slot.explicit(["cam1", "cam2"]), Slot.explicit(["cam1"])),
        source_rate_mbps=40.0,
    )
    placement = Placement(layer_of=(Layer.GATEWAY,), agg_node="edge1", sink_dc="dc1", alloc=8)
    return topology, ServiceSpec(pipeline=pipeline, scenario=scenario, budget=100.0), placement


def test_merged_stages_run_at_the_edge_aggregation_hosts_speed():
    topology, spec, placement = _edge_aggregation_instance()
    # links 1 + 2 + 10, "pre" 8 / 1 on gw1, then "merge" 20 / 4 and "post" 12 / 4 on edge1;
    # at the sink's speed the merged stages would take 2 + 1.2 ms.
    for report in (evaluate(topology, spec, placement),
                   summarize(simulate(topology, spec, placement))):
        assert report.mean_latency_ms == report.max_latency_ms == 13.0 + 8.0 + 5.0 + 3.0


def test_merged_demand_uses_each_merged_stages_input_rate():
    topology, spec, placement = _edge_aggregation_instance()
    # The busy slot merges 2 streams of 40 * 0.5 Mbps: "merge" draws 0.125 * 40 and "post"
    # 0.25 * (40 * 0.25), 7.5 CPU; from output rates it would be 1.25 + 2.5.
    assert min_alloc(topology, spec, placement) == 8
    tight = replace(placement, alloc=7)
    for report in (evaluate(topology, spec, tight), summarize(simulate(topology, spec, tight))):
        assert report.peak_cpu == {"edge1": 7.5}
        assert report.violations == (Violation("alloc", "edge1", 0.5),)


def test_each_slots_merged_demand_adds_each_merged_stages_input_rate():
    """Bit for bit, per record: each slot's streams into the aggregation host are added one by
    one, then each merged stage draws its CPU on its input rate; an idle slot draws none."""
    topology, spec, placement = _edge_aggregation_instance()
    slots = (Slot.explicit(["cam1", "cam2"]), Slot.explicit([]), Slot.explicit(["cam1"]))
    spec = replace(spec, scenario=replace(spec.scenario, slots=slots))
    merged = spec.pipeline.stages[spec.pipeline.pre_count:]
    rate = 40.0 * 0.5  # one stream after "pre"
    records = simulate(topology, spec, placement).records
    for record in records:
        if not record.active:
            assert "edge1" not in record.node_cpu
            continue
        demand, rate_in = 0.0, _total((rate,) * len(record.active))
        for stage in merged:
            demand += stage.cpu_per_unit * rate_in
            rate_in *= stage.reduction
        assert record.node_cpu["edge1"] == demand
    assert [record.node_cpu.get("edge1") for record in records] == [7.5, None, 3.75]


@pytest.mark.parametrize("alpha", [0.5, 3.0, 10.0])
def test_cost_scaling_law(mini, mini_spec, p1, alpha):
    base = evaluate(mini.topology, mini_spec, p1)
    topo2, pipe2 = scale_costs(mini.topology, mini_spec.pipeline, alpha)
    scaled = evaluate(topo2, replace(mini_spec, pipeline=pipe2), p1)
    for field in ("server_cost", "network_cost", "deploy_cost", "dispatch_cost", "total_cost"):
        assert getattr(scaled, field) == pytest.approx(getattr(base, field) * alpha, rel=1e-9)
    assert scaled.mean_latency_ms == base.mean_latency_ms
    assert scaled.max_latency_ms == base.max_latency_ms


def _insert_identity(spec: ServiceSpec, placement: Placement, index: int, layer: Layer):
    identity = Stage(name="noop", cpu_per_unit=0.0, reduction=1.0, base_ms=0.0)
    stages = list(spec.pipeline.stages)
    stages.insert(index, identity)
    pipeline = Pipeline(
        stages=tuple(stages), aggregation_index=spec.pipeline.aggregation_index + 1
    )
    layers = list(placement.layer_of)
    layers.insert(index, layer)
    return replace(spec, pipeline=pipeline), replace(placement, layer_of=tuple(layers))


def test_identity_stage_leaves_report_unchanged(mini, mini_spec, p1, p2):
    base1 = evaluate(mini.topology, mini_spec, p1)
    spec_a, placement_a = _insert_identity(mini_spec, p1, 0, Layer.DEVICE)
    assert evaluate(mini.topology, spec_a, placement_a) == base1
    spec_b, placement_b = _insert_identity(mini_spec, p1, 1, Layer.GATEWAY)
    assert evaluate(mini.topology, spec_b, placement_b) == base1
    base2 = evaluate(mini.topology, mini_spec, p2)
    spec_c, placement_c = _insert_identity(mini_spec, p2, 0, Layer.EDGE)
    assert evaluate(mini.topology, spec_c, placement_c) == base2


def _legal_raises(topology, spec, placement):
    pre = spec.pipeline.pre_count
    agg_layer = (
        topology.node(placement.agg_node).layer if placement.agg_node else Layer.CLOUD
    )
    for k in range(pre):
        ceiling = placement.layer_of[k + 1] if k + 1 < pre else agg_layer
        raised = int(placement.layer_of[k]) + 1
        if raised <= int(ceiling):
            layers = list(placement.layer_of)
            layers[k] = Layer(raised)
            yield replace(placement, layer_of=tuple(layers))


def test_single_layer_raise_never_cuts_network_cost():
    checked = 0
    for seed in range(12):
        topology, spec = random_instance(seed)
        rng = random.Random(1000 + seed)
        placement = replace(random_placement(topology, spec, rng), predeploy=frozenset())
        base = evaluate(topology, spec, placement).network_cost
        for raised in _legal_raises(topology, spec, placement):
            checked += 1
            lifted = evaluate(topology, spec, raised).network_cost
            assert lifted >= base - 1e-12
    assert checked > 0


def test_flow_conservation_rates(mini, mini_spec, p1):
    # One stream per slot at 8 Mbps: below the gateway stage the link carries
    # the raw rate, above it the reduced rate.
    from tierplace import simulate

    ts = simulate(mini.topology, mini_spec, p1)
    slot = ts.records[0]
    gb = slot.link_traffic_gb
    assert gb["cam1->gw1"] == pytest.approx(8.0 * 3600 / 8000, rel=1e-9)
    assert gb["gw1->edge1"] == pytest.approx(0.08 * 3600 / 8000, rel=1e-9)
    assert gb["edge1->dc1"] == pytest.approx(0.08 * 3600 / 8000, rel=1e-9)


def test_invalid_placements_are_rejected(mini, mini_spec):
    """Each way a placement is refused, with its exact message, by both scorers.

    Every row breaks one rule; the last link row also breaks the tier rule and
    shows the link is checked first."""
    t, pipe = mini.topology, mini.pipeline
    no_merged = replace(pipe, aggregation_index=3)
    two_pre = replace(pipe, stages=pipe.stages[:1] + pipe.stages, aggregation_index=3)
    split = split_dc_bundle().topology
    pricey = Topology([replace(n, cpu_cost_rate=4.0) if n.id == "dc1" else n for n in t.node_list],
                      t.tree_link_list, t.dc_link_list)
    G, E, C, P = Layer.GATEWAY, Layer.EDGE, Layer.CLOUD, Placement
    dc1 = dict(agg_node="dc1", sink_dc="dc1", alloc=1)
    edge1 = dict(agg_node="edge1", alloc=1)
    alloc_reason = "alloc must be a nonnegative integer no larger than the largest float"
    cases = [
        (replace(pipe, stages=()), t, P((), **dc1), "malformed pipeline"),
        (replace(pipe, aggregation_index=0), t, P((), **dc1), "malformed pipeline"),
        (replace(pipe, aggregation_index=4), t, P((G, C, C), **dc1), "malformed pipeline"),
        (pipe, t, P((), **dc1), "expected 1 stage layers, got 0"),
        (pipe, t, P((1,), **dc1), "layer_of entries must be layers"),
        (two_pre, t, P((E, G), **dc1), "stage layers must be monotone"),
        (pipe, t, P((G,), sink_dc="dc1", alloc=1), "aggregation host required"),
        (pipe, t, P((G,), agg_node="dc9", sink_dc="dc9", alloc=1), "unknown node: dc9"),
        (pipe, t, P((G,), agg_node="gw1", sink_dc="dc1", alloc=1),
         "aggregation host must sit on the Edge or Cloud tier"),
        (pipe, t, P((G,), agg_node="dc1", sink_dc="dc2", alloc=1),
         "sink must equal a cloud aggregation host"),
        (pipe, t, P((G,), **edge1), "edge aggregation requires a sink DC"),
        (pipe, t, P((G,), sink_dc="dc9", **edge1), "invalid sink DC: 'dc9'"),
        (pipe, t, P((G,), sink_dc="edge1", **edge1), "invalid sink DC: 'edge1'"),
        (pipe, t, P((G,), sink_dc="", **edge1), "invalid sink DC: ''"),
        (pipe, split, P((G,), sink_dc="dc2", **edge1), "edge1 is not linked to dc2"),
        (pipe, split, P((C,), sink_dc="dc2", **edge1), "edge1 is not linked to dc2"),
        (pipe, t, P((C,), sink_dc="dc1", **edge1),
         "stage layers must not exceed the aggregation tier"),
        (no_merged, t, P((G, C), agg_node="dc1", sink_dc="dc1"),
         "no merged stage, aggregation host must be absent"),
        (no_merged, t, P((G, C), sink_dc="dc1", alloc=1), "no merged stage, alloc must be 0"),
        (no_merged, t, P((G, C)), "invalid sink DC: ''"),
        (no_merged, t, P((G, C), sink_dc="dc9"), "invalid sink DC: 'dc9'"),
        (no_merged, t, P((G, C), sink_dc="edge1"), "invalid sink DC: 'edge1'"),
        (pipe, t, P((G,), predeploy=frozenset({"gw9"}), **dc1), "invalid predeploy gateway: gw9"),
        (pipe, t, P((G,), predeploy=frozenset({"edge1"}), **dc1),
         "invalid predeploy gateway: edge1"),
        (pipe, t, P((C,), predeploy=frozenset({"gw1"}), **dc1),
         "predeploy set requires a gateway-tier stage"),
        (pipe, t, P((G,), agg_node="dc1", sink_dc="dc1", alloc=-1), alloc_reason),
        (pipe, t, P((G,), agg_node="dc1", sink_dc="dc1", alloc=1.5), alloc_reason),
        (pipe, t, P((G,), agg_node="dc1", sink_dc="dc1", alloc=10**400), alloc_reason),
        (pipe, pricey, P((C,), agg_node="dc1", sink_dc="dc1", alloc=3 * 10**307),
         "alloc times the CPU price of dc1 exceeds half the largest float"),
    ]
    for pipeline, topology, placement, reason in cases:
        spec = replace(mini_spec, pipeline=pipeline)
        for score in (evaluate, simulate):
            with pytest.raises(InvalidPlacement) as caught:
                score(topology, spec, placement)
            assert str(caught.value) == f"invalid placement: {reason}", placement
    # An empty sink_dc with a cloud host means the host itself.
    assert evaluate(t, mini_spec, P((G,), agg_node="dc1", sink_dc="", alloc=1)) == evaluate(
        t, mini_spec, P((G,), **dc1)
    )


def test_alloc_no_float_can_hold_is_rejected(mini, mini_spec, p1):
    """alloc * cpu_cost_rate would overflow, so both scorers refuse such a placement."""
    for score in (evaluate, simulate):
        with pytest.raises(InvalidPlacement, match="alloc"):
            score(mini.topology, mini_spec, replace(p1, alloc=10**400))


def test_non_monotone_layers_are_rejected(mini, mini_spec):
    two_stage = Pipeline(
        stages=(
            Stage(name="a", cpu_per_unit=0.1, reduction=0.5),
            Stage(name="b", cpu_per_unit=0.1, reduction=0.5),
            Stage(name="agg", cpu_per_unit=0.1, reduction=1.0),
        ),
        aggregation_index=3,
    )
    spec = replace(mini_spec, pipeline=two_stage)
    with pytest.raises(InvalidPlacement, match="monotone"):
        evaluate(
            mini.topology,
            spec,
            Placement(
                layer_of=(Layer.EDGE, Layer.GATEWAY), agg_node="dc1", sink_dc="dc1", alloc=1
            ),
        )


def test_capacity_violations_reported(mini, mini_spec, p1):
    heavy = replace(mini_spec, scenario=replace(mini_spec.scenario, source_rate_mbps=100.0))
    report = evaluate(mini.topology, heavy, p1)
    assert not report.feasible
    kinds = {(v.kind, v.ident) for v in report.violations}
    assert ("cpu_capacity", "gw1") in kinds
    overload = next(v for v in report.violations if v.ident == "gw1")
    assert overload.magnitude == pytest.approx(100 * 0.2 - 2.0, rel=1e-9)


def test_random_reports_are_internally_consistent():
    rng = random.Random(42)
    for seed in range(10):
        topology, spec = random_instance(seed)
        placement = random_placement(topology, spec, rng)
        report = evaluate(topology, spec, placement)
        assert report.total_cost == (
            report.server_cost + report.network_cost + report.deploy_cost + report.dispatch_cost
        )
        assert report.feasible == (len(report.violations) == 0)
        again = evaluate(topology, spec, placement)
        assert reports_close(report, again)
