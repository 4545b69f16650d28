"""The compiled per-problem Instance: its memo, report memo and table of shared
report terms, the sorted nearest-device index, and a count-based guard against
re-deriving placement-independent data."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import tierplace.cost_model as cost_model
import tierplace.solver as solver_module
from tierplace import (
    InvalidPlacement,
    Layer,
    Link,
    Node,
    Pipeline,
    Placement,
    Scenario,
    SearchSpaceTooLarge,
    ServiceSpec,
    Slot,
    Stage,
    SolverConfig,
    Topology,
    TopologyError,
    UnknownDevice,
    candidate_termini,
    derive_active_streams,
    evaluate,
    mini_bundle,
    save_bundle,
    simulate,
    solve,
    solve_anneal,
    solve_exhaustive,
    summarize,
    synth_bundle,
    validate_bundle,
)
from tierplace.bundle import bundle_from_json, bundle_to_json, dumps, solution_to_json
from tierplace.cli import main
from tierplace.cost_model import compile_instance, first_touch_slots, resolve_placement
from tierplace.topology import nearest_device_index, route
from _instances import (
    baseline_placement,
    brute_force_nearest_device,
    first_touch_by_parent,
    random_instance,
    random_placement,
    three_dc_instance,
)


@pytest.fixture
def cold_memo(monkeypatch):
    """Start from an empty memo and restore the previous one afterwards."""
    monkeypatch.setattr(cost_model, "_memo", weakref.WeakKeyDictionary())


def test_cold_and_warm_memo_give_equal_reports(cold_memo):
    for seed in range(10):
        topology, spec = random_instance(seed)
        rng = random.Random(seed)
        for _ in range(4):
            placement = random_placement(topology, spec, rng)
            cost_model._memo.clear()
            cold = evaluate(topology, spec, placement)
            assert evaluate(topology, spec, placement) == cold
            cost_model._memo.clear()
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


def _count_derivations_and_terms(monkeypatch) -> tuple[list, list]:
    """Patch in counters: the topology of each stream derivation, each `_shared_terms` call."""
    derived, shared = [], []
    real_derive, real_shared = cost_model.derive_active_streams, cost_model._shared_terms

    def counting_derive(topology, scenario):
        derived.append(topology)
        return real_derive(topology, scenario)

    def counting_shared(*args):
        shared.append(args)
        return real_shared(*args)

    monkeypatch.setattr(cost_model, "derive_active_streams", counting_derive)
    monkeypatch.setattr(cost_model, "_shared_terms", counting_shared)
    return derived, shared


def test_compiling_another_problem_keeps_the_first_warm(cold_memo, monkeypatch):
    ta, sa = random_instance(3)
    tb, sb = random_instance(4)
    cost_model._memo.clear()
    derived, shared = _count_derivations_and_terms(monkeypatch)
    first = solution_to_json(solve(ta, sa, SolverConfig(kind="greedy")))
    assert derived == [ta] and shared
    compile_instance(tb, sb)
    del derived[:], shared[:]
    assert solution_to_json(solve(ta, sa, SolverConfig(kind="greedy"))) == first
    assert derived == shared == []
    assert len(cost_model._memo) == 2


def test_validating_bundles_before_solving_them_derives_each_once(cold_memo, monkeypatch):
    files = [bundle_to_json(synth_bundle(6, 4, seed=seed)) for seed in range(16)]
    derived, _ = _count_derivations_and_terms(monkeypatch)
    bundles = [bundle_from_json(data) for data in files]
    assert all(validate_bundle(bundle) == [] for bundle in bundles)
    for bundle in bundles:
        solve(bundle.topology, bundle.service_spec(), SolverConfig(kind="greedy"))
    assert derived == [bundle.topology for bundle in bundles]


def test_an_instance_is_freed_with_its_topology_without_the_cyclic_gc(cold_memo):
    bundle = synth_bundle(20, 8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        solve(bundle.topology, bundle.service_spec(), SolverConfig(kind="greedy"))
        instance = weakref.ref(compile_instance(bundle.topology, bundle.service_spec()))
        assert instance() is not None and len(cost_model._memo) == 1
        del bundle
        assert instance() is None and len(cost_model._memo) == 0
    finally:
        if enabled:
            gc.enable()


def test_mutating_derived_streams_changes_nothing(cold_memo, mini, mini_spec, p1):
    before = evaluate(mini.topology, mini_spec, p1)
    streams = derive_active_streams(mini.topology, mini.scenario)
    streams[0].append("cam2")
    streams.append(["cam3"])
    assert evaluate(mini.topology, mini_spec, p1) == before
    assert derive_active_streams(mini.topology, mini.scenario) == [["cam1"], ["cam3"]]


def test_report_memo_still_rejects_an_int_layer_twin(cold_memo, mini, mini_spec, p1):
    assert evaluate(mini.topology, mini_spec, p1).feasible
    twin = replace(p1, layer_of=tuple(map(int, p1.layer_of)))
    assert twin == p1 and hash(twin) == hash(p1)  # a memo keyed by Placement would hit
    for _ in range(2):
        with pytest.raises(InvalidPlacement, match="layer_of entries must be layers"):
            evaluate(mini.topology, mini_spec, twin)
    # A set predeploy makes the placement unhashable; it is still scored.
    as_set = replace(p1, predeploy=set(p1.predeploy))
    assert evaluate(mini.topology, mini_spec, as_set) == evaluate(mini.topology, mini_spec, p1)


def test_shared_reports_are_read_only(cold_memo, mini, mini_spec, p1):
    report = evaluate(mini.topology, mini_spec, p1)
    expected = dict(report.peak_cpu)
    with pytest.raises(TypeError):
        report.peak_cpu["gw1"] = 0.0
    with pytest.raises(TypeError):
        del report.peak_cpu["gw1"]
    again = evaluate(mini.topology, mini_spec, p1)
    assert again == report and again.peak_cpu == expected
    cost_model._memo.clear()
    assert evaluate(mini.topology, mini_spec, p1) == report


def test_report_memo_is_capped_and_changes_no_answer(cold_memo, monkeypatch):
    topology, spec = random_instance(3)
    instance = compile_instance(topology, spec)
    monkeypatch.setattr(cost_model, "REPORT_MEMO_CAP", 10)
    capped = solve_exhaustive(topology, spec)
    assert capped.states_examined > 10
    assert len(instance.scored) == len(instance.terms) == 10  # of 46 states and 32 terms
    again = solve_exhaustive(topology, spec)  # a full memo: hits and misses mixed
    assert len(instance.scored) == len(instance.terms) == 10
    cost_model._memo.clear()
    monkeypatch.setattr(cost_model, "REPORT_MEMO_CAP", 0)
    uncached = solve_exhaustive(topology, spec)
    assert compile_instance(topology, spec).scored == compile_instance(topology, spec).terms == {}
    for solution in (capped, again):
        assert replace(solution, elapsed_ms=0.0) == replace(uncached, elapsed_ms=0.0)


def test_scored_states_change_no_answer(cold_memo, monkeypatch):
    """Each solver writes the same solution file, states_examined included, on a
    cold instance, on one the other two solvers warmed, and with no table at
    all; a cold solve evaluates each distinct state at most once."""
    configs = {
        "exhaustive": SolverConfig(kind="exhaustive"),
        "greedy": SolverConfig(kind="greedy"),
        "anneal": SolverConfig(
            kind="anneal", seed=5, time_budget_ms=1e9, cooling=0.8, iters_per_temp=10
        ),
    }
    real_evaluate = solver_module.evaluate
    evaluated = []

    def recording_evaluate(topology, spec, placement):
        evaluated.append(placement)
        return real_evaluate(topology, spec, placement)

    monkeypatch.setattr(solver_module, "evaluate", recording_evaluate)

    def solution_file(topology, spec, kind):
        return dumps(solution_to_json(solve(topology, spec, configs[kind])))

    for seed in range(20):
        topology, generated = random_instance(seed)
        for factor in (0.2, 0.67, 2.0):
            spec = replace(generated, budget=generated.budget * factor)
            with monkeypatch.context() as uncached:
                uncached.setattr(cost_model, "REPORT_MEMO_CAP", 0)
                cost_model._memo.clear()
                expected = {kind: solution_file(topology, spec, kind) for kind in configs}
            for kind in configs:
                cost_model._memo.clear()
                evaluated.clear()
                assert solution_file(topology, spec, kind) == expected[kind], (seed, factor, kind)
                assert len(evaluated) == len(set(evaluated)), (seed, factor, kind)
                cost_model._memo.clear()
                for other in configs:
                    if other != kind:
                        solution_file(topology, spec, other)
                assert solution_file(topology, spec, kind) == expected[kind], (seed, factor, kind)


def test_sweep_scores_each_distinct_placement_once(cold_memo, monkeypatch, tmp_path):
    bundle_path = tmp_path / "mini.json"
    save_bundle(mini_bundle(), bundle_path)
    real_resolve, real_evaluate = cost_model.resolve_placement, solver_module.evaluate
    scored, evaluated = [], []

    def recording_resolve(*args):
        scored.append(real_resolve(*args))
        return scored[-1]

    def counting_evaluate(*args):
        evaluated.append(real_evaluate(*args))
        return evaluated[-1]

    monkeypatch.setattr(cost_model, "resolve_placement", recording_resolve)
    monkeypatch.setattr(solver_module, "evaluate", counting_evaluate)
    budgets = ["0.1", "1.95", "2.5"]
    assert main(["sweep", str(bundle_path), "--solver", "exhaustive", "--budgets", *budgets]) == 0
    assert len(scored) == len(set(scored)) > 0
    assert len(evaluated) == len(scored)


def _sibling_placements(topology, spec):
    """Every terminus and monotone layer vector with a gateway-tier stage, under each
    predeploy subset of up to three visited gateways and one unvisited gateway, at alloc 0
    (no merged stage) or min - 1, min and min + 1."""
    instance = compile_instance(topology, spec)
    unvisited = [g.id for g in topology.layer(Layer.GATEWAY) if g.id not in instance.first_touch]
    gateways = sorted(instance.first_touch)[:3] + unvisited[:1]
    subsets = [frozenset(c) for n in range(len(gateways) + 1) for c in combinations(gateways, n)]
    least = instance.min_reservation
    for agg, sink in candidate_termini(topology, spec):
        top = topology.node(agg).layer if agg else Layer.CLOUD
        for vector in product(Layer, repeat=spec.pipeline.pre_count):
            if list(vector) != sorted(vector) or vector[-1] > top or Layer.GATEWAY not in vector:
                continue
            for predeploy, alloc in product(subsets, sorted({least - 1, least, least + 1})):
                yield Placement(vector, agg, sink, predeploy, alloc if agg else 0)


def _kind_ident(violation):
    return violation.kind, violation.ident


def test_sibling_states_share_terms_and_match_cold_reports(cold_memo, monkeypatch):
    """States that differ only in predeploy set and alloc share one `Instance.terms`
    entry and its peak_cpu mapping, and each report equals a cold one computed with no
    table: fields, peak_cpu item order and violation order. An edge aggregation host and
    a DC one with the same sink and stage layers get different reports."""
    edge_vs_dc = 0
    for seed in range(8):
        topology, spec = random_instance(seed)
        placements = list(_sibling_placements(topology, spec))
        with monkeypatch.context() as uncached:
            uncached.setattr(cost_model, "REPORT_MEMO_CAP", 0)
            cost_model._memo.clear()
            cold = [evaluate(topology, spec, p) for p in placements]
            assert compile_instance(topology, spec).terms == {}
        cost_model._memo.clear()
        warm = [evaluate(topology, spec, p) for p in placements]
        shared = {}
        for placement, w, c in zip(placements, warm, cold):
            assert w == c, (seed, placement)
            assert list(w.peak_cpu.items()) == list(c.peak_cpu.items())
            assert w.violations == c.violations == tuple(sorted(c.violations, key=_kind_ident))
            key = (placement.agg_node, placement.sink_dc, placement.layer_of)
            assert shared.setdefault(key, w.peak_cpu) is w.peak_cpu
        assert len(compile_instance(topology, spec).terms) == len(shared)
        reports = dict(zip(placements, warm))
        for placement, report in reports.items():
            if placement.agg_node and placement.agg_node.startswith("edge"):
                at_dc = replace(placement, agg_node=placement.sink_dc)
                assert reports[at_dc] != report, (seed, placement)
                edge_vs_dc += 1
    assert edge_vs_dc > 0


def test_off_route_aggregation_host_raises_after_a_valid_sibling(cold_memo, monkeypatch):
    # random_instance(11): every active stream runs through edge2; edge1 links to dc1 too.
    # Every stream has a route, so rejecting an off-path host walks none with `route`.
    monkeypatch.setattr(cost_model, "route", lambda *args: pytest.fail("route walked"))
    topology, spec = random_instance(11)
    assert ("edge2", "dc1") in candidate_termini(topology, spec)
    vector = (Layer.GATEWAY,) * spec.pipeline.pre_count
    alloc = compile_instance(topology, spec).min_reservation
    valid = Placement(vector, "edge2", "dc1", alloc=alloc)
    evaluate(topology, spec, valid)
    for predeploy in (frozenset(), frozenset({"gw02"}), frozenset()):
        with pytest.raises(InvalidPlacement, match="edge1 is off the path"):
            evaluate(topology, spec, Placement(vector, "edge1", "dc1", predeploy, alloc))
        evaluate(topology, spec, replace(valid, predeploy=predeploy))
    terms = compile_instance(topology, spec).terms
    assert ("dc1", "edge2", (1, 1, 2)) in terms and all(key[1] != "edge1" for key in terms)


def test_cold_solves_compute_shared_terms_once_per_key(cold_memo, monkeypatch):
    """A cold anneal and a cold exhaustive solve compute the terms of each distinct
    (sink, aggregation host, stage positions) once, for the keys of the valid states
    they scored."""
    real_shared_terms, computed = cost_model._shared_terms, []

    def counting_shared_terms(instance, plan):
        terms = real_shared_terms(instance, plan)
        computed.append((plan.sink, plan.agg_id, plan.positions))
        return terms

    monkeypatch.setattr(cost_model, "_shared_terms", counting_shared_terms)
    anneal = SolverConfig(
        kind="anneal", seed=5, time_budget_ms=1e9, cooling=0.8, iters_per_temp=10
    )
    for seed in range(6):
        topology, spec = random_instance(seed)
        for config in (anneal, SolverConfig(kind="exhaustive")):
            cost_model._memo.clear()
            computed.clear()
            solve(topology, spec, config)
            valid = filter(None, compile_instance(topology, spec).scored.values())
            plans = (resolve_placement(topology, spec.pipeline, p) for p, _, _ in valid)
            assert len(computed) == len(set(computed)) > 0, (seed, config.kind)
            assert set(computed) == {(p.sink, p.agg_id, p.positions) for p in plans}


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
            expected = brute_force_nearest_device(topology, target)
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

    monkeypatch.setattr(cost_model, "_memo", weakref.WeakKeyDictionary())
    monkeypatch.setattr(cost_model, "derive_active_streams", counting_derive)
    monkeypatch.setattr(cost_model, "route", counting_route)
    solve_anneal(bundle.topology, spec, SolverConfig(kind="anneal", seed=0))

    active = {d for slot in real_derive(bundle.topology, bundle.scenario) for d in slot}
    instance = compile_instance(bundle.topology, spec)
    assert counts["derive"] == 1 and set(instance.activations) == active
    # Every route exists, so the sink tables are built without a single `route` call.
    assert instance._rows and counts["route"] == 0
    for table in instance._rows.values():
        assert list(table) == list(instance.activations) and None not in table.values()


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
        # cam2 is off edge1's path and has no route to dc2: the missing route is named
        (Placement((), agg_node="edge1", sink_dc="dc2", alloc=1), "edge2 is not linked to dc2"),
    ]
    for placement, reason in cases * 2:
        for replay in (evaluate, simulate):
            with pytest.raises(InvalidPlacement, match=reason):
                replay(topology, spec, placement)
    assert evaluate(topology, spec, Placement((), agg_node="dc1", sink_dc="dc1", alloc=1)).feasible


def _route_row(topology, device_id, dc, count):
    """A device's row for sink `dc` built from its `route`, in the row layout of
    `Instance.paths`; None where `route` raises."""
    try:
        path = route(topology, device_id, dc)
    except TopologyError:
        return None
    links, nodes = path.links, [topology.node(node_id) for node_id in path.nodes]
    return (count, *path.nodes, *(link.key for link in links),
            *(link.traffic_cost_rate for link in links), *(link.bandwidth_mbps for link in links),
            0 + links[0].latency_ms + links[1].latency_ms + links[2].latency_ms,
            *(node.cpu_cost_rate for node in nodes), *(node.speed for node in nodes))


def _sink_tables(topology, spec):
    """Each DC's table of device rows, None rows included: `paths` builds a sink's table
    before its check raises on a device with no route."""
    instance, pre = compile_instance(topology, spec), spec.pipeline.pre_count
    for dc in topology.layer(Layer.CLOUD):
        agg = dc.id if spec.pipeline.has_aggregation else None
        placement = Placement((Layer.CLOUD,) * pre, agg, dc.id, alloc=int(agg is not None))
        try:
            instance.paths(resolve_placement(topology, spec.pipeline, placement))
        except InvalidPlacement:
            pass
    return instance, instance._rows


def _assert_rows_match_route(topology, spec):
    instance, tables = _sink_tables(topology, spec)
    assert sorted(tables) == sorted(dc.id for dc in topology.layer(Layer.CLOUD))
    for dc, table in tables.items():
        assert list(table) == list(instance.activations)
        assert table == {device_id: _route_row(topology, device_id, dc, count)
                         for device_id, count in instance.activations.items()}


def test_sink_tables_are_built_once_without_calling_route(cold_memo, monkeypatch):
    """A cold exhaustive solve, a replay of its answer and a sweep build each sink's table
    once, and, with every route present, never call `route`: a row is its sink-independent
    part plus the edge's hop to the sink, and equals the row built from `route`."""
    real_route, routed = cost_model.route, Counter()

    def counting_route(topology, device_id, dc_id):
        routed[device_id, dc_id] += 1
        return real_route(topology, device_id, dc_id)

    monkeypatch.setattr(cost_model, "route", counting_route)
    for seed in range(4):
        topology, spec = random_instance(seed)
        cost_model._memo.clear()
        routed.clear()
        solution = solve(topology, spec, SolverConfig(kind="exhaustive"))
        simulate(topology, spec, solution.placement)
        for factor in (0.1, 0.5, 2.0):
            solve(topology, replace(spec, budget=factor * spec.budget), SolverConfig(kind="greedy"))
        instance = compile_instance(topology, spec)
        tables = dict(instance._rows)
        dcs = [dc.id for dc in topology.layer(Layer.CLOUD)]
        assert len(dcs) == 2 and sorted(tables) == dcs
        base = baseline_placement(topology, spec)
        for dc in dcs:
            at_dc = replace(base, agg_node=dc if base.agg_node else None, sink_dc=dc)
            table = instance.paths(resolve_placement(topology, spec.pipeline, at_dc))
            assert table is tables[dc] and list(table) == list(instance.activations)
            for device_id, row in table.items():
                assert row == _route_row(topology, device_id, dc, instance.activations[device_id])
        assert routed == Counter(), seed


def test_rows_built_below_the_edge_equal_rows_built_from_route(cold_memo, monkeypatch):
    """Every sink's rows, None included, equal the rows built from `route`: on random
    instances, on a 3-DC instance with an edge not linked to one DC, and on unvalidated
    topologies where `route` raises for some devices below the edge."""
    for seed in range(20):
        _assert_rows_match_route(*random_instance(seed))

    base, spec = three_dc_instance(1)
    cams = [n.id for n in base.layer(Layer.DEVICE)]
    scenario = replace(spec.scenario, slots=spec.scenario.slots + (Slot.explicit(cams),))
    spec = replace(spec, scenario=scenario)
    unlinked = Topology(base.node_list, base.tree_link_list,
                        [l for l in base.dc_link_list if (l.src, l.dst) != ("edge2", "dc3")])
    _assert_rows_match_route(unlinked, spec)
    _, tables = _sink_tables(unlinked, spec)
    assert {d for d, row in tables["dc3"].items() if row is None} == {
        cam for cam in cams if cam.startswith("cam2")}

    def variant(parents=(), dropped=(), dc_links=()):
        nodes = [replace(n, parent=parents[n.id]) if n.id in parents else n
                 for n in base.node_list]
        tree = [l for l in base.tree_link_list if l.src not in dropped]
        return Topology(nodes, tree, base.dc_link_list + tuple(dc_links))

    def cams_of(gateway):
        return {f"cam{gateway[2:]}{c}" for c in range(1, 5)}

    under_gateway = variant({"gw12": "gw11"}, dc_links=[Link("gw11", "dc1")])
    broken = [
        (variant({"cam111": "edge1"}), {"cam111"}),  # a device under an edge
        (variant({"cam111": "cam112", "cam112": "edge1"}), {"cam111", "cam112"}),  # and a device
        (variant({"gw13": None}), cams_of("gw13")),  # a gateway without parent
        (variant({"gw13": "edge9"}), cams_of("gw13")),  # a gateway with an unknown parent
        (under_gateway, cams_of("gw12")),  # a gateway under a gateway under an edge
        (variant(dropped={"cam112", "gw21"}), {"cam112"} | cams_of("gw21")),  # missing uplinks
        (variant(dc_links=[Link("edge1", "dc2", latency_ms=99.0)]), set()),  # the last one wins
    ]
    for topology, unrouted in broken:
        _assert_rows_match_route(topology, spec)
        _, tables = _sink_tables(topology, spec)
        for table in tables.values():
            assert {d for d, row in table.items() if row is None} == unrouted

    # derive_active_streams rejects a gateway in an explicit slot, so only a patched
    # derivation hands one to the Instance. gw12 sits under gw11, which sits under an
    # edge, so only its own layer tells that it has no route.
    with pytest.raises(UnknownDevice, match="unknown device: gw12"):
        derive_active_streams(base, replace(scenario, slots=(Slot.explicit(["gw12"]),)))
    real_derive = cost_model.derive_active_streams
    monkeypatch.setattr(cost_model, "derive_active_streams",
                        lambda topology, scenario: [["gw12"]] + real_derive(topology, scenario))
    cost_model._memo.clear()
    _assert_rows_match_route(under_gateway, spec)
    _, tables = _sink_tables(under_gateway, spec)
    for table in tables.values():
        assert {d for d, row in table.items() if row is None} == {"gw12"} | cams_of("gw12")


def test_missing_route_to_a_dc_host_raises_on_every_call(cold_memo):
    """A DC-aggregated placement whose sink some device cannot reach is rejected on
    every call, naming the first such device in scenario order, before and after a
    valid solve on the other DC has filled that sink's table."""
    nodes = [Node(dc, Layer.CLOUD, capacity_cpu=100.0) for dc in ("dc1", "dc2")]
    tree = []
    for i in (1, 2, 3):
        nodes += [
            Node(f"cam{i}", Layer.DEVICE, parent=f"gw{i}"),
            Node(f"gw{i}", Layer.GATEWAY, parent=f"edge{i}", capacity_cpu=1.0),
            Node(f"edge{i}", Layer.EDGE, capacity_cpu=10.0),
        ]
        tree += [Link(f"cam{i}", f"gw{i}"), Link(f"gw{i}", f"edge{i}")]
    # Only edge1 reaches dc2. cam3 (edge3) is active before cam2 (edge2).
    dc_links = [Link("edge1", "dc2")] + [Link(f"edge{i}", "dc1") for i in (1, 2, 3)]
    topology = Topology(nodes, tree, dc_links)
    pipeline = Pipeline((Stage("merge", cpu_per_unit=0.1, reduction=1.0),), aggregation_index=1)
    slots = (Slot.explicit(["cam1"]), Slot.explicit(["cam3"]), Slot.explicit(["cam2", "cam3"]))
    spec = ServiceSpec(pipeline, Scenario(1.0, slots, 1.0), budget=10.0)
    at_dc2 = Placement((), agg_node="dc2", sink_dc="dc2", alloc=1)
    for solved in (False, True):
        if solved:
            solution = solve(topology, spec, SolverConfig(kind="exhaustive"))
            assert solution.placement.sink_dc == "dc1" and not solution.best_effort
        for _ in range(2):
            for replay in (evaluate, simulate):
                with pytest.raises(InvalidPlacement, match="edge3 is not linked to dc2"):
                    replay(topology, spec, at_dc2)
    assert all(key[0] == "dc1" for key in compile_instance(topology, spec).terms)


def _brute_peak_streams(topology, streams):
    """Node id -> most streams through it in one slot, walking parent pointers per stream."""
    peak = {}
    for active in streams:
        through = Counter()
        for device_id in active:
            through[device_id] += 1
            gateway = topology.nodes.get(topology.nodes[device_id].parent)
            if gateway is not None:
                through[gateway.id] += 1
                edge = topology.nodes.get(gateway.parent)
                if edge is not None:
                    through[edge.id] += 1
        for node_id, count in through.items():
            peak[node_id] = max(peak.get(node_id, 0), count)
    for dc in topology.layer(Layer.CLOUD):
        peak[dc.id] = max(map(len, streams), default=0)
    return peak


def test_one_pass_peaks_and_first_touch_match_brute_force(cold_memo):
    """Instance.peak_streams and Instance.first_touch equal references built from parent pointers:
    first_touch in dict order (the order of first touch) and in each gateway's device order."""
    cases = [random_instance(seed) for seed in range(20)]
    cases += [three_dc_instance(seed) for seed in (1, 2)]
    for topology, spec in cases:
        instance = compile_instance(topology, spec)
        streams = derive_active_streams(topology, spec.scenario)
        assert instance.peak_streams == _brute_peak_streams(topology, streams)
        first = first_touch_by_parent(topology, streams)
        expected = [(gateway, tuple(d for d in streams[slot]
                                    if topology.nodes[d].parent == gateway))
                    for gateway, slot in first.items()]
        assert list(instance.first_touch.items()) == expected
    # The three-DC cases crowd their slots and touch some gateways first in later slots.
    assert max(first.values()) >= 4 and max(map(len, instance.first_touch.values())) >= 3


def test_devices_with_no_route_below_the_edge_touch_no_gateway_or_edge(cold_memo, mini):
    """An Instance walks the tree once, in `_to_edge`: first_touch and edge_weights count
    only devices with a route below their edge. Without cam3's uplink, gw2 is touched by
    no stream, every solver finds no candidate placement and evaluate names the gap."""
    topo = mini.topology
    tree = [link for link in topo.tree_link_list if link.src != "cam3"]
    bundle = replace(mini, topology=Topology(topo.node_list, tree, topo.dc_link_list))
    topology, spec = bundle.topology, bundle.service_spec()
    assert validate_bundle(bundle) == [("missing uplink", "cam3")]
    instance = compile_instance(topology, spec)
    assert instance.first_touch == {"gw1": ("cam1",)}
    assert first_touch_slots(instance._to_edge, instance.streams) == {"gw1": ("cam1",)}
    assert instance.edge_weights == {"edge1": 1}
    assert "gw2" not in instance.peak_streams and instance.peak_streams["edge1"] == 1
    for kind in ("greedy", "anneal", "exhaustive"):
        with pytest.raises(InvalidPlacement, match="^invalid placement: no candidate placements$"):
            solve(topology, spec, SolverConfig(kind=kind))
    with pytest.raises(SearchSpaceTooLarge, match=r"^search space too large \(18 states\)$"):
        solve(topology, spec, SolverConfig(max_states=1))
    placement = Placement((Layer.GATEWAY,), "dc1", "dc1", alloc=1)
    with pytest.raises(InvalidPlacement, match="no route: missing uplink below edge1$"):
        evaluate(topology, spec, placement)


def test_aggregation_host_is_checked_on_every_call(cold_memo, monkeypatch):
    """A warm greedy sweep over three budgets checks every (sink, edge host) pair and
    gives the answers of cold solves; an off-path edge host raises the same message on
    every call."""
    topology, spec = three_dc_instance(1, active_edges=1)
    specs = [replace(spec, budget=factor * spec.budget) for factor in (0.005, 0.5, 1.0)]
    cold = []
    for budgeted in specs:
        cost_model._memo.clear()
        cold.append(solve(topology, budgeted, SolverConfig(kind="greedy")))
    cost_model._memo.clear()  # its budget was set by evaluating a placement
    instance = compile_instance(topology, spec)
    real_paths, checked = cost_model.Instance.paths, set()

    def recording_paths(self, plan):
        checked.add((plan.sink, plan.agg_id if plan.agg_id != plan.sink else None))
        return real_paths(self, plan)

    monkeypatch.setattr(cost_model.Instance, "paths", recording_paths)
    warm = [solve(topology, budgeted, SolverConfig(kind="greedy")) for budgeted in specs]
    assert list(map(solution_to_json, warm)) == list(map(solution_to_json, cold))
    dcs = ("dc1", "dc2", "dc3")
    assert checked == {(dc, host) for dc in dcs for host in (None, "edge1")}

    alloc = instance.min_reservation
    off_path = Placement((Layer.GATEWAY, Layer.EDGE), "edge2", "dc1", alloc=alloc)
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidPlacement, match="edge2 is off the path of cam") as raised:
            evaluate(topology, spec, off_path)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert ("dc1", "edge2") in checked
    assert not any(key[:2] == ("dc1", "edge2") for key in instance.terms)
