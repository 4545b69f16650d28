from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from tierplace import (
    BundleError,
    CostReport,
    InvalidPlacement,
    Layer,
    Link,
    Node,
    Pipeline,
    Placement,
    Scenario,
    Slot,
    SolverConfig,
    Stage,
    Topology,
    evaluate,
    load_bundle,
    load_placement,
    mini_bundle,
    save_bundle,
    simulate,
    solve,
    synth_bundle,
    validate_bundle,
)
from tierplace.bundle import (
    bundle_from_json,
    bundle_to_json,
    dumps,
    placement_from_json,
    placement_to_json,
    solution_to_json,
)
from _instances import _number_paths, split_dc_bundle, unlocated_bundle


def test_round_trip_preserves_semantics(tmp_path, mini):
    path = tmp_path / "mini.json"
    save_bundle(mini, path)
    loaded = load_bundle(path)
    assert bundle_to_json(loaded) == bundle_to_json(mini)
    assert loaded.topology.node_list == mini.topology.node_list
    assert loaded.pipeline == mini.pipeline
    assert loaded.scenario == mini.scenario
    assert loaded.budget == mini.budget


def test_reserialization_is_byte_stable(tmp_path, mini):
    first = dumps(bundle_to_json(mini))
    second = dumps(bundle_to_json(bundle_from_json(bundle_to_json(mini))))
    assert first == second


def test_repo_ships_the_canonical_bundle():
    from pathlib import Path

    repo_file = Path(__file__).resolve().parent.parent / "bundles" / "mini.json"
    assert repo_file.exists()
    assert bundle_to_json(load_bundle(repo_file)) == bundle_to_json(mini_bundle())


def test_validate_bundle_flags_problems(mini):
    broken_topology = Topology(
        [replace(n, parent=None) if n.id == "gw1" else n for n in mini.topology.node_list],
        mini.topology.tree_link_list,
        mini.topology.dc_link_list,
    )
    bundle = replace(mini, topology=broken_topology)
    kinds = {kind for kind, _ in validate_bundle(bundle)}
    assert "missing parent" in kinds

    bad_budget = replace(mini, budget=-1.0)
    assert ("invalid budget", "-1.0") in validate_bundle(bad_budget)

    bad_index = replace(mini, pipeline=replace(mini.pipeline, aggregation_index=9))
    assert any(kind == "invalid aggregation index" for kind, _ in validate_bundle(bad_index))

    bad_seed = replace(mini, scenario=replace(mini.scenario, seed=-1))
    assert ("invalid scenario value", "seed") in validate_bundle(bad_seed)


def test_validate_bundle_checks_slot_devices(mini):
    from tierplace import Slot

    bundle = replace(
        mini, scenario=replace(mini.scenario, slots=(Slot.explicit(["nope"]),))
    )
    assert ("unknown device", "nope") in validate_bundle(bundle)


def test_validate_bundle_needs_a_resolvable_scenario_and_a_common_dc():
    assert validate_bundle(split_dc_bundle()) == [("no common DC", "dc_links")]
    linked = split_dc_bundle(Link("edge2", "dc1", latency_ms=15.0))
    assert validate_bundle(linked) == []
    assert validate_bundle(unlocated_bundle()) == [
        ("unresolvable slot", "no candidate device")
    ]
    # Only a bundle that passes every other check is compiled.
    assert validate_bundle(replace(split_dc_bundle(), budget=-1.0)) == [
        ("invalid budget", "-1.0")
    ]


def test_malformed_files_raise_bundle_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle(path)
    path.write_text('{"topology": {}}', encoding="utf-8")
    with pytest.raises(BundleError, match="malformed bundle"):
        load_bundle(path)
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(BundleError, match="bundle must be a JSON object"):
        load_bundle(path)


def test_slot_must_have_exactly_one_kind():
    with pytest.raises(BundleError, match="exactly one"):
        bundle_from_json(
            {
                "topology": {"nodes": []},
                "pipeline": {"stages": [], "aggregation_index": 1},
                "scenario": {
                    "slot_seconds": 1.0,
                    "slots": [{"devices": ["a"], "target": [0, 0]}],
                    "source_rate_mbps": 1.0,
                },
                "budget": 1.0,
            }
        )


def test_slot_devices_load_sorted_and_distinct():
    base = bundle_to_json(mini_bundle())
    data = _replaced(base, ("scenario", "slots", 0, "devices"), ["cam3", "cam1", "cam3"])
    assert bundle_from_json(data).scenario.slots[0] == Slot.explicit(["cam1", "cam3"])


def test_placement_round_trip(p1):
    data = placement_to_json(p1)
    assert data["layer_of"] == ["Gateway"]
    assert data["predeploy"] == ["gw1", "gw2"]
    assert placement_from_json(data) == p1


def test_load_placement_accepts_solution_files(tmp_path, p1):
    import json

    bare = tmp_path / "placement.json"
    bare.write_text(json.dumps(placement_to_json(p1)), encoding="utf-8")
    assert load_placement(bare) == p1
    wrapped = tmp_path / "solution.json"
    wrapped.write_text(
        json.dumps({"placement": placement_to_json(p1), "report": {}}), encoding="utf-8"
    )
    assert load_placement(wrapped) == p1


def test_synth_bundle_validates_and_scales():
    tiny = synth_bundle(devices=1, slots=1, seed=1)
    assert validate_bundle(tiny) == []
    assert len(tiny.topology.layer(Layer.DEVICE)) == 1
    wide = synth_bundle(devices=8, slots=10, seed=1)
    assert validate_bundle(wide) == []
    assert len(wide.topology.layer(Layer.GATEWAY)) == 4
    assert len(wide.topology.layer(Layer.EDGE)) == 2
    assert len(wide.topology.layer(Layer.CLOUD)) == 2
    assert len(wide.scenario.slots) == 10


def test_synth_bundle_rejects_bad_counts():
    with pytest.raises(BundleError):
        synth_bundle(devices=0, slots=1)
    with pytest.raises(BundleError):
        synth_bundle(devices=1, slots=0)


def test_node_json_keeps_optional_fields():
    node = Node("x", Layer.EDGE, capacity_cpu=1.0)
    from tierplace.bundle import _dump, _load

    assert _load(Node, _dump(node)) == node


def _every_field_bundle():
    """The mini bundle plus a target slot and a capped link, so that every
    numeric field kind (locations, bandwidth, targets) occurs at least once."""
    mini = mini_bundle()
    t = mini.topology
    capped = [replace(t.dc_link_list[0], bandwidth_mbps=100.0), *t.dc_link_list[1:]]
    slots = mini.scenario.slots + (Slot.at(5.0, 0.0),)
    return replace(
        mini,
        topology=Topology(t.node_list, t.tree_link_list, capped),
        scenario=replace(mini.scenario, slots=slots),
    )


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_numbers_are_rejected_in_every_field(bad):
    base = bundle_to_json(_every_field_bundle())
    assert validate_bundle(bundle_from_json(base)) == []
    paths = list(_number_paths(base))
    assert len(paths) > 40
    for path in paths:
        data = json.loads(json.dumps(base))
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = bad
        # Through the text form, so JSON's NaN/Infinity literals are exercised too.
        data = json.loads(json.dumps(data))
        try:
            bundle = bundle_from_json(data)
        except BundleError:
            continue
        assert validate_bundle(bundle), f"{bad} accepted at {path}"


@pytest.mark.parametrize("bad", [True, "3"])
def test_non_numbers_are_rejected_in_every_field(bad):
    base = bundle_to_json(_every_field_bundle())
    paths = list(_number_paths(base))
    assert len(paths) > 40
    for path in paths:
        data = json.loads(json.dumps(base))
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = bad
        with pytest.raises(BundleError):
            bundle_from_json(data)


def test_validate_bundle_checks_solver_defaults(mini):
    assert validate_bundle(replace(mini, solver={"kind": "anneal", "time_budget_ms": 500,
                                                 "seed": 0, "max_states": 1})) == []
    cases = [
        (["x"], ("invalid solver defaults", "solver")),
        ({"kind": "fastest"}, ("invalid solver value", "kind")),
        ({"time_budget_ms": math.nan}, ("invalid solver value", "time_budget_ms")),
        ({"time_budget_ms": -1.0}, ("invalid solver value", "time_budget_ms")),
        ({"seed": "abc"}, ("invalid solver value", "seed")),
        ({"seed": -1}, ("invalid solver value", "seed")),
        ({"max_states": 0}, ("invalid solver value", "max_states")),
        ({"max_states": 2.5}, ("invalid solver value", "max_states")),
        ({"time_budget_ms": 10**400}, ("invalid solver value", "time_budget_ms")),
    ]
    for defaults, violation in cases:
        assert validate_bundle(replace(mini, solver=defaults)) == [violation]


def test_validate_bundle_rejects_unknown_solver_keys(mini):
    defaults = {"kind": "anneal", "unknown": 1, "iters_per_temp": "x", "cooling": 0.1}
    assert validate_bundle(replace(mini, solver=defaults)) == [
        ("invalid solver value", "cooling"),
        ("invalid solver value", "iters_per_temp"),
        ("invalid solver value", "unknown"),
    ]
    defaults = {"max_states": 0, "time_budget": 500}
    assert validate_bundle(replace(mini, solver=defaults)) == [
        ("invalid solver value", "max_states"),
        ("invalid solver value", "time_budget"),
    ]


@pytest.mark.parametrize(
    "make, digest",
    [
        (mini_bundle, "ef30b9f81497887ce575a498ef44d128ef3cc816053d15fe80ce25091befce94"),
        (
            lambda: synth_bundle(8, 10, seed=1),
            "fd55e9de9fbfaddb3f387dc0f35a2fe40bfce64138a3d88d5fa378eb5af02ae0",
        ),
        (
            lambda: synth_bundle(200, 50),
            "34f7e6950c415c100717c7b52d98b678768d014b71c48c1f9f14f69a1378baa7",
        ),
        (  # odd sizes: a gateway with one camera, an edge with one gateway
            lambda: synth_bundle(5, 4, seed=2),
            "7ac1cf0f9b2e81aee7851dd014909d5605ad83b14b72e18dd61ba7e4ca19d76e",
        ),
    ],
)
def test_bundle_files_are_byte_pinned(make, digest):
    text = dumps(bundle_to_json(make()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert dumps(bundle_to_json(bundle_from_json(json.loads(text)))) == text


def _every_path(value, path=()):
    """Key paths of value itself and of every object, array and scalar inside it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _every_path(child, path + (key,))


def _replaced(data, path, value):
    """A deep copy of data with the item at path replaced by value."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return data


@pytest.mark.parametrize("bad", [None, True, 5, "x", [], {}])
def test_any_json_value_anywhere_loads_or_is_a_bundle_error(bad):
    base = bundle_to_json(_every_field_bundle())
    paths = list(_every_path(base))
    assert len(paths) > 100
    for path in paths:
        try:
            bundle = bundle_from_json(_replaced(base, path, bad))
        except BundleError:
            continue
        assert isinstance(validate_bundle(bundle), list), path


def test_non_object_records_and_parents_are_caught():
    base = bundle_to_json(mini_bundle())
    for path in [("topology", "nodes", 0), ("topology", "tree_links", 0),
                 ("topology", "dc_links", 0), ("pipeline", "stages", 0),
                 ("scenario", "slots", 0), ("pipeline",), ("scenario",)]:
        for bad in (5, "x", None, True, []):
            with pytest.raises(BundleError, match="must be a JSON object"):
                bundle_from_json(_replaced(base, path, bad))
    for path in [("topology", "nodes"), ("pipeline", "stages"), ("scenario", "slots")]:
        with pytest.raises(BundleError, match="must be a JSON array"):
            bundle_from_json(_replaced(base, path, "abc"))
    for bad in ([], {}, 5):
        with pytest.raises(BundleError, match="parent must be a string"):
            bundle_from_json(_replaced(base, ("topology", "nodes", 3, "parent"), bad))


@pytest.mark.parametrize(
    "path", [("topology", "nodes", 0, "location"), ("scenario", "slots", -1, "target")]
)
@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [1.0], [], {}, "xy", 0, False])
def test_coordinates_are_exactly_two_numbers(path, bad):
    base = bundle_to_json(_every_field_bundle())
    with pytest.raises(BundleError, match="two numbers"):
        bundle_from_json(_replaced(base, path, bad))


def test_null_location_means_none():
    base = bundle_to_json(_every_field_bundle())
    bundle = bundle_from_json(_replaced(base, ("topology", "nodes", 0, "location"), None))
    assert bundle.topology.nodes["cam1"].location is None
    del base["topology"]["nodes"][0]["location"]
    assert bundle_from_json(base).topology.nodes["cam1"].location is None


@pytest.mark.parametrize("bad", [None, True, 5, "x", [], {}, pytest.param(10**400, id="10**400")])
def test_any_json_value_in_a_placement_file_loads_or_is_rejected(tmp_path, mini, bad):
    spec = mini.service_spec()
    solution = solve(mini.topology, spec, SolverConfig(kind="greedy"))
    path = tmp_path / "placement.json"
    for base in (solution_to_json(solution), placement_to_json(solution.placement)):
        for at in _every_path(base):
            path.write_text(json.dumps(_replaced(base, at, bad)), encoding="utf-8")
            try:
                placement = load_placement(path)
            except BundleError:
                continue
            assert isinstance(placement, Placement), at
            for score in (evaluate, simulate):
                try:
                    score(mini.topology, spec, placement)
                except InvalidPlacement:
                    pass


def _value_at(data, path):
    for key in path:
        data = data[key]
    return data


@pytest.mark.parametrize("bad", [None, 2, 2.5, True, ["dc1"], {}])
def test_non_strings_are_rejected_in_every_text_field(p1, bad):
    """Ids, names, layer labels and the items of devices and predeploy: str() used to
    read null as "None", 2 as "2" and ["dc1"] as "['dc1']". A null parent, agg_node or
    sink_dc still reads as absent."""
    for base, load, dump in ((bundle_to_json(_every_field_bundle()), bundle_from_json,
                              bundle_to_json),
                             (placement_to_json(p1), placement_from_json, placement_to_json)):
        paths = [path for path in _every_path(base) if type(_value_at(base, path)) is str]
        assert len(paths) >= 5
        for path in paths:
            data = _replaced(base, path, bad)
            if bad is None and path[-1] in ("parent", "agg_node", "sink_dc"):
                del _value_at(data, path[:-1])[path[-1]]
                assert dump(load(_replaced(base, path, None))) == dump(load(data)), path
            else:
                with pytest.raises(BundleError):
                    load(data)


def test_list_fields_must_be_json_arrays(p1):
    """An object would read as its keys and a string as its characters."""
    base = bundle_to_json(mini_bundle())
    paths = [("topology", "nodes"), ("topology", "tree_links"), ("topology", "dc_links"),
             ("pipeline", "stages"), ("scenario", "slots"), ("scenario", "slots", 0, "devices")]
    for bad in ({"gw1": 1}, "gw1"):
        for path in paths:
            with pytest.raises(BundleError, match=f"{path[-1]} must be a JSON array"):
                bundle_from_json(_replaced(base, path, bad))
        for field in ("layer_of", "predeploy"):
            with pytest.raises(BundleError, match=f"{field} must be a JSON array"):
                placement_from_json(_replaced(placement_to_json(p1), (field,), bad))


def test_a_target_slot_dumps_and_loads_back():
    from tierplace.bundle import _dump, _load

    slot = Slot.at(1, 2)
    assert _dump(slot) == {"devices": None, "target": [1.0, 2.0]}
    assert _load(Slot, json.loads(dumps(_dump(slot)))) == slot


def test_every_codec_names_a_field_and_every_record_round_trips():
    from tierplace.bundle import _CODECS, _FIELDS, _dump, _load

    # _CODECS is keyed by field name alone: a renamed field would fall back to a number.
    assert set(_CODECS) <= {name for table in _FIELDS.values() for name, *_ in table}
    stage = Stage("s", cpu_per_unit=0.1, reduction=0.5, base_ms=1.0, deploy_cost=2.0,
                  dispatch_cost=3.0, dispatch_penalty_ms=4.0)
    records = [
        Node("gw1", Layer.GATEWAY, parent="edge1", capacity_cpu=2.0, cpu_cost_rate=1.5,
             speed=0.5, location=(1.0, 2.0)),
        Link("gw1", "edge1", latency_ms=5.0, traffic_cost_rate=0.1, bandwidth_mbps=100.0),
        stage,
        Pipeline(stages=(stage,), aggregation_index=2),
        Scenario(slot_seconds=60.0, slots=(Slot.explicit(["cam1"]), Slot.at(1.0, 2.0)),
                 source_rate_mbps=8.0, seed=7),
        Slot(devices=("cam1", "cam2"), target=(1.0, 2.0)),
        Placement((Layer.GATEWAY,), agg_node="edge1", sink_dc="dc1",
                  predeploy=frozenset({"gw1", "gw2"}), alloc=2),
    ]
    assert {type(record) for record in records} == set(_FIELDS) - {CostReport}
    for record in records:
        assert all(getattr(record, f.name) != f.default for f in fields(record)), record
        text = dumps(_dump(record))
        loaded = _load(type(record), json.loads(text))
        assert loaded == record and dumps(_dump(loaded)) == text  # 2.0 == 2, "2.0" != "2"
