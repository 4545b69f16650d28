from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tierplace import (
    Layer,
    Link,
    Node,
    Pipeline,
    Placement,
    Scenario,
    ServiceSpec,
    Slot,
    SlotRecord,
    Stage,
    Topology,
    candidate_termini,
    InvalidPlacement,
    derive_active_streams,
    evaluate,
    mini_bundle,
    route,
    simulate,
    summarize,
    validate_bundle,
)
from tierplace import cost_model
from tierplace.bundle import bundle_from_json, bundle_to_json
from tierplace.cost_model import _total, compile_instance, resolve_placement
from _instances import (
    _huge_link_prices,
    _huge_stage_latency,
    _huge_stage_load,
    _long_period,
    _number_paths,
    random_instance,
    random_placement,
    reports_close,
)


def test_summary_equals_evaluate_on_mini(mini, mini_spec, p1, p2, p3):
    for placement in (p1, p2, p3):
        summary = summarize(simulate(mini.topology, mini_spec, placement))
        assert summary == evaluate(mini.topology, mini_spec, placement)


def test_dispatch_caching_on_repeat_visits(mini, mini_spec, p3):
    scenario = replace(
        mini_spec.scenario, slots=(Slot.explicit(["cam1"]), Slot.explicit(["cam1"]))
    )
    spec = replace(mini_spec, scenario=scenario)
    report = simulate(mini.topology, spec, p3)
    assert [r.stream_latency_ms["cam1"] for r in report.records] == [592.0, 92.0]
    assert report.summary.mean_latency_ms == pytest.approx(342.0, rel=1e-9)
    assert report.records[0].dispatches == (("gw1", "analyze"),)
    assert report.records[1].dispatches == ()
    assert summarize(report) == evaluate(mini.topology, spec, p3)


def test_empty_slot_accrues_nothing(mini, mini_spec, p1):
    scenario = replace(
        mini_spec.scenario, slots=(Slot.explicit([]), Slot.explicit(["cam1"]))
    )
    spec = replace(mini_spec, scenario=scenario)
    report = simulate(mini.topology, spec, p1)
    idle = report.records[0]
    assert idle.traffic_gb == 0.0
    assert idle.server_cost == 0.0
    assert idle.network_cost == 0.0
    assert idle.stream_latency_ms == {}
    assert summarize(report) == evaluate(mini.topology, spec, p1)


def test_all_idle_scenario_keeps_reservation_floor(mini, mini_spec, p2):
    scenario = replace(mini_spec.scenario, slots=(Slot.explicit([]), Slot.explicit([])))
    spec = replace(mini_spec, scenario=scenario)
    summary = summarize(simulate(mini.topology, spec, p2))
    assert summary.server_cost == pytest.approx(0.25, rel=1e-9)  # alloc 1 on dc1
    assert summary.network_cost == 0.0
    assert summary.dispatch_cost == 0.0
    assert summary.total_cost == pytest.approx(0.25, rel=1e-9)
    assert summary.mean_latency_ms == 0.0


def test_single_slot_summary_is_slot_plus_period_costs(mini, mini_spec, p1):
    scenario = replace(mini_spec.scenario, slots=(Slot.explicit(["cam1"]),))
    spec = replace(mini_spec, scenario=scenario)
    report = simulate(mini.topology, spec, p1)
    slot = report.records[0]
    summary = summarize(report)
    plan = resolve_placement(mini.topology, spec.pipeline, p1)
    assert summary is report.summary
    assert summary.network_cost == slot.network_cost
    assert summary.dispatch_cost == slot.dispatch_cost
    assert summary.server_cost == slot.server_cost + plan.reservation
    assert summary.deploy_cost == plan.deploy_cost


def test_cumulative_fields_are_exact_sums(mini, mini_spec, p3):
    """Each total is its slots' values added left to right, as `cost_model._total` adds
    them; builtin `sum()` compensates from CPython 3.12 and can differ in the last bit.
    The latency statistics are taken over every stream's latency, in slot then device order.
    The server cost adds the reservation to the usage total, and the total cost adds server,
    network, deploy and dispatch cost, left to right."""
    cases = [(mini.topology, mini_spec, p3)]
    for seed in range(10):
        topology, spec = random_instance(seed)
        cases.append((topology, spec, random_placement(topology, spec, random.Random(seed))))
    for topology, spec, placement in cases:
        report = simulate(topology, spec, placement)
        summary, total = report.summary, cost_model._total
        reservation = resolve_placement(topology, spec.pipeline, placement).reservation
        assert summary.network_cost == total([r.network_cost for r in report.records])
        usage = total([r.server_cost for r in report.records])
        assert summary.server_cost == usage + reservation
        assert summary.dispatch_cost == total([r.dispatch_cost for r in report.records])
        assert summary.total_cost == (summary.server_cost + summary.network_cost
                                      + summary.deploy_cost + summary.dispatch_cost)
        latencies = [ms for r in report.records for ms in r.stream_latency_ms.values()]
        assert summary.mean_latency_ms == total(latencies) / len(latencies)
        assert summary.max_latency_ms == max(latencies)


def test_slot_record_totals_add_left_to_right_on_every_interpreter():
    """Ten 0.1s added to 0.0 one by one give 0.9999999999999999; builtin `sum()`, which
    compensates from CPython 3.12, would give 1.0 there and 0.9999999999999999 before."""
    record = SlotRecord(
        index=0,
        active=tuple(f"cam{i}" for i in range(10)),
        link_traffic_gb={f"cam{i}->gw1": 0.1 for i in range(10)},
        node_cpu={},
        dispatches=(),
        network_cost=0.0,
        server_cost=0.0,
        dispatch_cost=0.0,
        stream_latency_ms={f"cam{i}": 0.1 for i in range(10)},
    )
    assert record.traffic_gb == 0.9999999999999999
    assert record.mean_latency_ms == 0.9999999999999999 / 10


def test_each_gateway_stage_pair_dispatches_once():
    for seed in (2, 9):
        topology, spec = random_instance(seed, max_slots=4)
        rng = random.Random(seed)
        placement = random_placement(topology, spec, rng)
        report = simulate(topology, spec, placement)
        events = [e for record in report.records for e in record.dispatches]
        assert len(events) == len(set(events))


def test_slot_permutation_preserves_dispatched_set(mini, mini_spec, p3):
    scenario = mini_spec.scenario
    flipped = replace(scenario, slots=tuple(reversed(scenario.slots)))
    a = simulate(mini.topology, mini_spec, p3)
    b = simulate(mini.topology, replace(mini_spec, scenario=flipped), p3)
    pairs_a = {e for record in a.records for e in record.dispatches}
    pairs_b = {e for record in b.records for e in record.dispatches}
    assert pairs_a == pairs_b


def test_agreement_on_random_pairs():
    rng = random.Random(123)
    for seed in range(20):
        topology, spec = random_instance(seed)
        placement = random_placement(topology, spec, rng)
        summary = summarize(simulate(topology, spec, placement))
        direct = evaluate(topology, spec, placement)
        assert reports_close(summary, direct)


def test_replays_share_no_records(mini, mini_spec, p1, p2, p3):
    """Each replay builds its records and their dicts fresh: clearing one replay's dicts
    changes neither another replay's records nor any summary, its own included."""
    rng = random.Random(17)
    cases = [(mini.topology, mini_spec, placement) for placement in (p1, p2, p3)]
    for seed in range(10):
        topology, spec = random_instance(seed)
        cases.append((topology, spec, random_placement(topology, spec, rng)))
    fields = ("link_traffic_gb", "node_cpu", "stream_latency_ms")
    cleared = 0
    for topology, spec, placement in cases:
        first, second = (simulate(topology, spec, placement) for _ in range(2))
        assert len(first.records) == len(second.records) > 0
        for a, b in zip(first.records, second.records):
            assert a is not b
            assert all(getattr(a, field) is not getattr(b, field) for field in fields)
        for record in first.records:
            for field in fields:
                cleared += bool(getattr(record, field))
                getattr(record, field).clear()
        fresh = simulate(topology, spec, placement)
        assert second.records == fresh.records
        assert second.summary == fresh.summary == first.summary
    assert cleared >= 100


def test_replay_uses_neither_the_closed_form_nor_its_memos(monkeypatch):
    """On a cold instance the replay gives the same report with the evaluator and its
    shared terms made to raise, and leaves the evaluator's memos empty."""

    def refuse(*args):
        raise AssertionError("the replay called the closed-form evaluator")

    rng = random.Random(5)
    dispatched = violated = 0
    for seed in range(12):
        topology, spec = random_instance(seed)
        placement = random_placement(topology, spec, rng)
        expected = simulate(topology, spec, placement)
        cold_spec = replace(spec, scenario=replace(spec.scenario))  # compiles a new Instance
        with monkeypatch.context() as patch:
            patch.setattr(cost_model, "_shared_terms", refuse)
            patch.setattr(cost_model, "evaluate", refuse)
            report = simulate(topology, cold_spec, placement)
        instance = compile_instance(topology, cold_spec)
        assert instance.terms == {} and instance.scored == {}
        assert report == expected
        dispatched += any(record.dispatches for record in report.records)
        violated += bool(report.violations)
    assert dispatched and violated


def _crowded_instance(seed: int) -> tuple[Topology, ServiceSpec]:
    """Many streams per slot on tight CPU capacities and capped links.

    Every gateway has three cameras. The busiest slot activates two cameras
    of every gateway; other slots crowd one gateway (all three cameras) or
    one edge (all its cameras), so no gateway, and no edge of a multi-edge
    instance, peaks in the busiest slot. The crowded slots come first, so
    each gateway serves several streams in its first slot. Odd seeds hang
    all gateways under one edge, which can then host the merged stage.
    """
    rng = random.Random(seed)
    rate = rng.uniform(4.0, 10.0)
    n_edge, gateways_per_edge = (1, 3) if seed % 2 else (3, 2)
    nodes: list[Node] = []
    tree: list[Link] = []
    dc_links: list[Link] = []
    cams_of: dict[str, list[str]] = {}
    for e in range(1, n_edge + 1):
        edge = f"edge{e}"
        nodes.append(Node(edge, Layer.EDGE, capacity_cpu=rate * rng.uniform(0.3, 2.0),
                          cpu_cost_rate=rng.uniform(0.2, 1.0), speed=rng.uniform(0.5, 1.5)))
        for dc in ("dc1", "dc2"):
            dc_links.append(Link(edge, dc, latency_ms=rng.uniform(10, 50),
                                 traffic_cost_rate=rng.uniform(0.1, 0.3),
                                 bandwidth_mbps=rate * rng.uniform(2.0, 10.0)))
        for g in range(1, gateways_per_edge + 1):
            gw = f"gw{e}{g}"
            nodes.append(Node(gw, Layer.GATEWAY, parent=edge,
                              capacity_cpu=rate * rng.uniform(0.1, 1.0),
                              cpu_cost_rate=rng.uniform(0.5, 2.0), speed=rng.uniform(0.8, 1.5)))
            tree.append(Link(gw, edge, latency_ms=rng.uniform(3, 8),
                             traffic_cost_rate=rng.uniform(0.05, 0.2),
                             bandwidth_mbps=rate * rng.uniform(1.0, 4.0)))
            cams_of[gw] = [f"cam{e}{g}{c}" for c in range(1, 4)]
            for cam in cams_of[gw]:
                nodes.append(Node(cam, Layer.DEVICE, parent=gw))
                tree.append(Link(cam, gw, latency_ms=rng.uniform(1, 3)))
    for dc in ("dc1", "dc2"):
        nodes.append(Node(dc, Layer.CLOUD, capacity_cpu=1000.0,
                          cpu_cost_rate=rng.uniform(0.1, 0.5)))

    n_pre = rng.randint(1, 2)
    stages = [
        Stage(name=f"s{k}", cpu_per_unit=rng.uniform(0.05, 0.3), reduction=rng.uniform(0.2, 1.0),
              base_ms=rng.uniform(10, 60), deploy_cost=rng.uniform(0.02, 0.3),
              dispatch_cost=rng.uniform(0.005, 0.05), dispatch_penalty_ms=rng.uniform(100, 800))
        for k in range(n_pre)
    ]
    if seed % 2 or rng.random() < 0.7:
        stages.append(Stage(name="merge", cpu_per_unit=rng.uniform(0.05, 0.2), reduction=1.0,
                            base_ms=rng.uniform(10, 30)))
    pipeline = Pipeline(stages=tuple(stages), aggregation_index=n_pre + 1)

    cams = [cam for group in cams_of.values() for cam in group]
    crowded = list(cams_of.values())
    if n_edge > 1:
        crowded += [cams_of[f"gw{e}1"] + cams_of[f"gw{e}2"] for e in range(1, n_edge + 1)]
    crowded.append([cam for group in cams_of.values() for cam in group[:2]])
    rng.shuffle(crowded)
    sparse = [rng.sample(cams, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
    slots = tuple(Slot.explicit(devices) for devices in crowded + sparse)
    scenario = Scenario(slot_seconds=3600.0, slots=slots, source_rate_mbps=rate)
    return Topology(nodes, tree, dc_links), ServiceSpec(pipeline, scenario, budget=100.0)


def _peak_slots_avoid_the_busiest(topology: Topology, spec: ServiceSpec) -> bool:
    streams = derive_active_streams(topology, spec.scenario)
    busiest = max(range(len(streams)), key=lambda s: len(streams[s]))
    edges = topology.layer(Layer.EDGE)
    for node in topology.layer(Layer.GATEWAY) + (() if len(edges) == 1 else edges):
        through = [
            sum(node.id in (gateway := topology.nodes[d].parent, topology.nodes[gateway].parent)
                for d in active)
            for active in streams
        ]
        if through[busiest] >= max(through):
            return False
    return True


def test_closed_form_agrees_with_replay_on_crowded_slots():
    rng = random.Random(31)
    pairs = violated = edge_hosted = dispatched = 0
    kinds: set[str] = set()
    for seed in range(24):
        topology, spec = _crowded_instance(seed)
        assert _peak_slots_avoid_the_busiest(topology, spec)
        instance = compile_instance(topology, spec)
        visited = sorted(instance.first_touch)
        assert all(len(served) >= 2 for served in instance.first_touch.values())
        for agg, sink in candidate_termini(topology, spec) * 2:
            max_layer = int(topology.node(agg).layer) if agg else int(Layer.CLOUD)
            pre = spec.pipeline.pre_count
            vector = tuple(sorted(Layer(rng.randint(0, max_layer)) for _ in range(pre)))
            predeploy = frozenset(g for g in visited if rng.random() < 0.3)
            if Layer.GATEWAY not in vector:
                predeploy = frozenset()
            alloc = instance.min_reservation + rng.choice((-1, 0, 0, 1)) if agg else 0
            placement = Placement(vector, agg, sink, predeploy, alloc)
            direct = evaluate(topology, spec, placement)
            replayed = summarize(simulate(topology, spec, placement))
            assert reports_close(direct, replayed), (seed, placement)
            pairs += 1
            violated += not direct.feasible
            kinds.update(v.kind for v in direct.violations)
            edge_hosted += agg is not None and topology.node(agg).layer == Layer.EDGE
            dispatched += direct.dispatch_cost > 0
    assert pairs >= 100
    assert violated >= 0.6 * pairs
    assert kinds == {"alloc", "bandwidth", "cpu_capacity"}
    assert edge_hosted > 0 and dispatched > 0


def test_summary_peaks_and_cpu_violations_are_read_off_the_records():
    """On crowded slots the summary's peak CPU of each node is its largest CPU over the slot
    records, each `cpu_capacity` violation is that peak minus the node's capacity, one for
    every node whose peak is over it, and the violations are sorted by (kind, id)."""
    replays = over = 0
    for seed in range(24):
        topology, spec = _crowded_instance(seed)
        alloc = compile_instance(topology, spec).min_reservation
        for agg, sink in candidate_termini(topology, spec):
            top = topology.node(agg).layer if agg else Layer.CLOUD
            for layer in list(Layer)[:top + 1]:
                placement = Placement((layer,) * spec.pipeline.pre_count, agg, sink,
                                      alloc=alloc if agg else 0)
                report = simulate(topology, spec, placement)
                peaks: dict[str, float] = {}
                for record in report.records:
                    for node_id, used in record.node_cpu.items():
                        peaks[node_id] = max(peaks.get(node_id, 0.0), used)
                assert report.summary.peak_cpu == peaks
                excess = {node_id: peak - topology.node(node_id).capacity_cpu
                          for node_id, peak in peaks.items()}
                cpu = {v.ident: v.magnitude for v in report.violations if v.kind == "cpu_capacity"}
                assert cpu == {node_id: e for node_id, e in excess.items() if e > 0.0}
                keys = [(v.kind, v.ident) for v in report.violations]
                assert keys == sorted(keys)
                replays += 1
                over += len(cpu)
    assert replays >= 250 and over >= 1000


def test_bandwidth_violations_are_read_off_capped_links_only():
    """On crowded slots each `bandwidth` violation names a capped link, and each capped link
    whose busiest slot's load, added up stream by stream along `route`, is over its bandwidth
    has exactly one, of that load minus the bandwidth."""
    replays = over = 0
    for seed in range(24):
        topology, spec = _crowded_instance(seed)
        instance = compile_instance(topology, spec)
        links = {link.key: link for link in topology.tree_link_list + topology.dc_link_list}
        pre, stage_count = spec.pipeline.pre_count, len(spec.pipeline.stages)
        for agg, sink in candidate_termini(topology, spec):
            top = topology.node(agg).layer if agg else Layer.CLOUD
            for layer in list(Layer)[:top + 1]:
                placement = Placement((layer,) * pre, agg, sink,
                                      alloc=instance.min_reservation if agg else 0)
                report = simulate(topology, spec, placement)
                # A stream crosses route link i at its rate into the first stage hosted above i.
                rates = [instance.rates[pre * (layer <= i) + (stage_count - pre) * (top <= i)]
                         for i in range(3)]
                most: dict[tuple[int, str], int] = {}  # (route index, key) -> streams in a slot
                for active in instance.streams:
                    through = Counter((i, link.key) for d in active
                                      for i, link in enumerate(route(topology, d, sink).links))
                    for link, n in through.items():
                        most[link] = max(n, most.get(link, 0))
                expected = {}
                for (i, key), n in most.items():
                    load, bandwidth = _total((rates[i],) * n), links[key].bandwidth_mbps
                    if bandwidth is not None and load > bandwidth:
                        expected[key] = load - bandwidth
                seen = [v for v in report.violations if v.kind == "bandwidth"]
                assert all(links[v.ident].bandwidth_mbps is not None for v in seen)
                assert {v.ident: v.magnitude for v in seen} == expected
                assert len(seen) == len(expected)
                replays += 1
                over += len(seen)
    assert replays >= 250 and over >= 400


def test_each_record_dispatches_exactly_the_gateways_new_to_it():
    """A record dispatches, once per gateway-tier stage and in gateway id order, the gateways
    of its active devices that are neither pre-installed nor served in an earlier slot, and
    exactly their streams pay the penalty. With every visited gateway pre-installed, no
    record dispatches."""
    rng = random.Random(17)
    dispatched = preinstalled = repeated = 0
    for seed in range(20):
        topology, spec = random_instance(seed)
        for _ in range(4):
            placement = random_placement(topology, spec, rng)
            stages = spec.pipeline.stages
            gateway_stages = [k for k, layer in enumerate(placement.layer_of)
                              if layer == Layer.GATEWAY]
            penalty = _total([stages[k].dispatch_penalty_ms for k in gateway_stages])
            report = simulate(topology, spec, placement)
            gateway_of = {d: topology.nodes[d].parent for r in report.records for d in r.active}
            visited = frozenset(gateway_of.values())
            everywhere = visited if gateway_stages else frozenset()
            quiet = simulate(topology, spec, replace(placement, predeploy=everywhere))
            assert all(record.dispatches == () for record in quiet.records)
            base = {d: ms for record in quiet.records for d, ms in record.stream_latency_ms.items()}
            served: set[str] = set()
            for record in report.records:
                here = {gateway_of[d] for d in record.active}
                new = sorted(here - placement.predeploy - served) if gateway_stages else []
                assert record.dispatches == tuple((g, stages[k].name) for g in new
                                                  for k in gateway_stages)
                for d in record.active:
                    expected = base[d] + penalty if gateway_of[d] in new else base[d]
                    assert record.stream_latency_ms[d] == expected
                if gateway_stages:
                    dispatched += len(new)
                    preinstalled += len(here & placement.predeploy)
                    repeated += len(here & served - placement.predeploy)
                served |= here
    assert dispatched >= 30 and preinstalled >= 40 and repeated >= 15


def test_peaks_round_like_the_replay_at_an_exact_boundary():
    """Twelve 0.05-CPU streams on a 0.6-CPU gateway and twelve 0.1 Mb/s
    streams on a 1.2 Mb/s uplink: 12 * 0.05 and 12 * 0.1 round above the
    capacities, the replay's repeated additions land on them exactly."""
    cams = [f"cam{c}" for c in range(12)]
    nodes = [
        Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=0.6, cpu_cost_rate=1.0),
        Node("edge1", Layer.EDGE, capacity_cpu=10.0),
        Node("dc1", Layer.CLOUD, capacity_cpu=10.0),
    ] + [Node(cam, Layer.DEVICE, parent="gw1") for cam in cams]
    tree = [Link(cam, "gw1") for cam in cams] + [Link("gw1", "edge1", bandwidth_mbps=1.2)]
    topology = Topology(nodes, tree, [Link("edge1", "dc1")])
    pipeline = Pipeline(stages=(Stage(name="detect", cpu_per_unit=0.05, reduction=0.1),),
                        aggregation_index=2)
    slots = (Slot.explicit(cams[:5]), Slot.explicit(cams))
    spec = ServiceSpec(pipeline, Scenario(slot_seconds=3600.0, slots=slots, source_rate_mbps=1.0),
                       budget=100.0)
    placement = Placement((Layer.GATEWAY,), None, "dc1", frozenset({"gw1"}))
    direct = evaluate(topology, spec, placement)
    replayed = summarize(simulate(topology, spec, placement))
    assert direct.peak_cpu["gw1"] == replayed.peak_cpu["gw1"] == 0.6
    assert direct.feasible and replayed.feasible
    assert reports_close(direct, replayed)


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def _just_below_bounds(edit):
    """The mini bundle with `edit`, its huge numbers scaled down by nearly the largest
    factor (to 2**-20 of it) at which `validate` accepts it."""
    edited = bundle_to_json(mini_bundle())
    edit(edited)
    huge = [(path, value) for path, value in _float_fields(edited) if value > 1e300]

    def scaled(factor):
        data = json.loads(json.dumps(edited))
        for path, value in huge:
            _set(data, path, value * factor)
        return bundle_from_json(data)

    low = 1.0  # halve to the first factor accepted, then bisect up towards twice it
    while validate_bundle(scaled(low)) and low > 0.0:
        low /= 2
    high = 2 * low
    for _ in range(20):
        middle = (low + high) / 2
        low, high = (middle, high) if validate_bundle(scaled(middle)) == [] else (low, middle)
    return scaled(low)


def _float_fields(data):
    """(path, value) of every float in a bundle's JSON: no integer field is a float."""
    for path in _number_paths(data):
        value = data
        for key in path:
            value = value[key]
        if type(value) is float:
            yield path, value


LAYERS = list(Layer)
LARGEST_ALLOC = int(sys.float_info.max)


@st.composite
def _accepted_cases(draw):
    """A bundle on the mini topology that `validate` accepts, and a placement that
    `resolve_placement` accepts. Each float is drawn below 100, except up to four,
    drawn anywhere up to the largest float; alloc is small or up to 2**1024."""
    data = bundle_to_json(mini_bundle())
    cams = ["cam1", "cam2", "cam3"]
    data["scenario"]["slots"] = [
        {"devices": draw(st.lists(st.sampled_from(cams), min_size=1, max_size=3, unique=True))}
        for _ in range(draw(st.integers(1, 4)))
    ]
    aggregation_index = draw(st.integers(1, 3))
    data["pipeline"]["aggregation_index"] = aggregation_index
    for link in data["topology"]["tree_links"] + data["topology"]["dc_links"]:
        link["bandwidth_mbps"] = draw(st.none() | st.just(1.0))  # a cap is drawn below
    paths = [path for path, _ in _float_fields(data)]
    huge = draw(st.sets(st.sampled_from(paths), max_size=4))
    for path in paths:
        _set(data, path, draw(st.floats(0.0, sys.float_info.max if path in huge else 100.0)))
    bundle = bundle_from_json(data)
    assume(validate_bundle(bundle) == [])
    agg, sink, alloc = None, draw(st.sampled_from(["dc1", "dc2"])), 0
    if aggregation_index < 3:  # a merged stage
        agg = draw(st.sampled_from(["dc1", "dc2", "edge1"]))
        sink = sink if agg == "edge1" else draw(st.sampled_from([None, agg]))
        alloc = draw(st.integers(0, 3) | st.integers(0, 2**1024))
    top = Layer.EDGE if agg == "edge1" else Layer.CLOUD
    layers = draw(st.lists(st.sampled_from(LAYERS[:top + 1]), min_size=aggregation_index - 1,
                           max_size=aggregation_index - 1))
    predeploy = draw(st.sets(st.sampled_from(["gw1", "gw2"]))) if Layer.GATEWAY in layers else ()
    placement = Placement(tuple(sorted(layers)), agg, sink, frozenset(predeploy), alloc)
    try:
        resolve_placement(bundle.topology, bundle.pipeline, placement)
    except InvalidPlacement:  # an alloc or its cost too large
        assume(False)
    return bundle, placement


def _report_numbers(report):
    return [report.server_cost, report.network_cost, report.deploy_cost, report.dispatch_cost,
            report.total_cost, report.mean_latency_ms, report.max_latency_ms,
            *report.peak_cpu.values(), *(v.magnitude for v in report.violations)]


def _huge_link_prices_and_a_pricey_dc(data):
    _huge_link_prices(data)
    for node in data["topology"]["nodes"]:
        if node["id"] == "dc1":
            node["cpu_cost_rate"] = 4.0


def _largest_alloc(bundle, placement):
    """Nearly the largest alloc that resolve_placement accepts (to 2**-20 below it)."""
    low, high = 0, LARGEST_ALLOC
    while high - low > high >> 20:
        middle = (low + high) // 2
        try:
            resolve_placement(bundle.topology, bundle.pipeline, replace(placement, alloc=middle))
            low = middle
        except InvalidPlacement:
            high = middle
    return low


def _seeds():
    """Each overflow repro of the mini bundle just below its bound, all in the cloud with
    nearly the largest alloc accepted, and with a gateway stage; and huge link prices with
    a DC priced at 4."""
    cloud = Placement((Layer.CLOUD,), "dc1", "dc1")
    gateway = Placement((Layer.GATEWAY,), "dc1", "dc1", frozenset({"gw1"}), alloc=1)
    for edit in (_huge_link_prices, _huge_stage_latency, _huge_stage_load,
                 _huge_link_prices_and_a_pricey_dc, _long_period):
        bundle = _just_below_bounds(edit)
        yield from ((bundle, replace(cloud, alloc=_largest_alloc(bundle, cloud))),
                    (bundle, gateway))


def _with_seeds(test):
    for case in _seeds():
        test = example(case=case)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(case=_accepted_cases())
@_with_seeds
def test_accepted_inputs_give_finite_reports_that_agree(case):
    """Whatever `validate` and `resolve_placement` accept, every number of the closed
    form's report and of the replay, slot records included, is finite, and the two agree.
    Seeded with the overflow repros of the CLI tests, scaled just below their bounds."""
    bundle, placement = case
    spec = bundle.service_spec()
    direct = evaluate(bundle.topology, spec, placement)
    replay = simulate(bundle.topology, spec, placement)
    numbers = _report_numbers(direct) + _report_numbers(summarize(replay))
    for record in replay.records:
        numbers += [record.network_cost, record.server_cost, record.dispatch_cost,
                    record.traffic_gb, record.mean_latency_ms, *record.link_traffic_gb.values(),
                    *record.node_cpu.values(), *record.stream_latency_ms.values()]
    assert all(map(math.isfinite, numbers)), (direct, summarize(replay))
    assert reports_close(direct, summarize(replay))

