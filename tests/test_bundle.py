from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tierplace import (
    BundleError,
    Layer,
    Node,
    Slot,
    Topology,
    load_bundle,
    load_placement,
    mini_bundle,
    save_bundle,
    synth_bundle,
    validate_bundle,
)
from tierplace.bundle import (
    bundle_from_json,
    bundle_to_json,
    dumps,
    placement_from_json,
    placement_to_json,
)


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


def test_validate_bundle_checks_slot_devices(mini):
    from tierplace import Slot

    bundle = replace(
        mini, scenario=replace(mini.scenario, slots=(Slot.explicit(["nope"]),))
    )
    assert ("unknown device", "nope") in validate_bundle(bundle)


def test_malformed_files_raise_bundle_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle(path)
    path.write_text('{"topology": {}}', encoding="utf-8")
    with pytest.raises(BundleError, match="malformed bundle"):
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
    assert len(tiny.topology.devices()) == 1
    wide = synth_bundle(devices=8, slots=10, seed=1)
    assert validate_bundle(wide) == []
    assert len(wide.topology.gateways()) == 4
    assert len(wide.topology.edges()) == 2
    assert len(wide.topology.clouds()) == 2
    assert len(wide.scenario.slots) == 10


def test_synth_bundle_rejects_bad_counts():
    with pytest.raises(BundleError):
        synth_bundle(devices=0, slots=1)
    with pytest.raises(BundleError):
        synth_bundle(devices=1, slots=0)


def test_node_json_keeps_optional_fields():
    node = Node("x", Layer.EDGE, capacity_cpu=1.0)
    from tierplace.bundle import _node_from_json, _node_to_json

    assert _node_from_json(_node_to_json(node)) == node


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
