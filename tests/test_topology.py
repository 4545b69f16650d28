from __future__ import annotations

import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from tierplace import (
    Layer,
    Link,
    Node,
    Topology,
    TopologyError,
    nearest_device,
    route,
    validate_bundle,
    validate_topology,
)
from tierplace.bundle import bundle_to_json
from _instances import colliding_link_keys_bundle


def test_mini_topology_validates_clean(mini):
    assert validate_topology(mini.topology) == []


def test_device_parented_to_edge_is_flagged():
    t = Topology(
        nodes=[
            Node("cam1", Layer.DEVICE, parent="edge1", location=(0.0, 0.0)),
            Node("edge1", Layer.EDGE),
            Node("dc1", Layer.CLOUD),
        ],
        tree_links=[Link("cam1", "edge1")],
        dc_links=[Link("edge1", "dc1")],
    )
    kinds = [kind for kind, _ in validate_topology(t)]
    assert "parent-layer mismatch" in kinds


def test_edge_without_dc_is_flagged():
    t = Topology(nodes=[Node("edge1", Layer.EDGE)])
    assert ("edge without DC", "edge1") in validate_topology(t)


def test_duplicate_ids_and_unknown_endpoints_flagged():
    t = Topology(
        nodes=[Node("dc1", Layer.CLOUD), Node("dc1", Layer.CLOUD)],
        tree_links=[Link("ghost", "dc1"), Link("ghost", "dc1")],
    )
    kinds = [kind for kind, _ in validate_topology(t)]
    assert "duplicate id" in kinds
    assert "unknown endpoint" in kinds
    assert ("duplicate link", "ghost->dc1") in validate_topology(t)


def test_links_are_told_apart_by_key():
    # Link("a", "b->c") and Link("a->b", "c") differ as (src, dst) pairs, but every route
    # row, load and violation names a link by its key, and both keys are "a->b->c".
    colliding = colliding_link_keys_bundle().topology
    assert validate_topology(colliding) == [("duplicate link", "a->b->c")]
    assert validate_bundle(colliding_link_keys_bundle("x")) == []


def test_link_key_is_built_once_and_is_no_field(mini):
    link = mini.topology.dc_link("edge1", "dc1")
    assert link.key is link.key and link.key == "edge1->dc1"
    assert replace(link, dst="dc2").key == "edge1->dc2"
    assert "key" not in {field.name for field in fields(Link)}
    links = bundle_to_json(mini)["topology"]
    assert {"src": "edge1", "dst": "dc1", "latency_ms": 15.0, "traffic_cost_rate": 0.2,
            "bandwidth_mbps": None} in links["dc_links"]
    assert not any("key" in entry for entry in links["tree_links"] + links["dc_links"])


def test_missing_parent_and_bad_values_flagged(mini):
    t = Topology(
        nodes=[
            Node("gw1", Layer.GATEWAY),
            Node("edge1", Layer.EDGE, capacity_cpu=-1.0),
            Node("dc1", Layer.CLOUD, speed=0.0),
        ],
        dc_links=[Link("edge1", "dc1", latency_ms=-1.0), Link("gw1", "dc1")],
    )
    violations = validate_topology(t)
    kinds = {kind for kind, _ in violations}
    assert {"missing parent", "invalid capacity", "invalid speed"} <= kinds
    assert ("invalid link value", "edge1->dc1") in violations
    assert ("invalid dc link", "gw1->dc1") in violations
    # A link with several bad values is reported once.
    t = mini.topology
    tree = [Link("cam1", "gw1", latency_ms=math.nan, bandwidth_mbps=-1.0),
            Link("cam2", "gw1", bandwidth_mbps=0.0), *t.tree_link_list[2:]]
    violations = validate_topology(Topology(t.node_list, tree, t.dc_link_list))
    assert violations == [("invalid link value", "cam1->gw1"), ("invalid link value", "cam2->gw1")]


def test_route_to_each_dc(mini):
    r = route(mini.topology, "cam1", "dc1")
    assert r.nodes == ("cam1", "gw1", "edge1", "dc1")
    assert [link.latency_ms for link in r.links] == [2, 5, 15]
    r2 = route(mini.topology, "cam1", "dc2")
    assert r2.nodes == ("cam1", "gw1", "edge1", "dc2")
    assert [link.latency_ms for link in r2.links] == [2, 5, 40]


def test_route_rejects_wrong_layers(mini):
    with pytest.raises(TopologyError, match="invalid endpoint"):
        route(mini.topology, "cam1", "cam2")
    with pytest.raises(TopologyError, match="invalid endpoint"):
        route(mini.topology, "gw1", "dc1")


def test_route_rejects_unlinked_dc(mini):
    t = mini.topology
    trimmed = Topology(
        t.node_list,
        t.tree_link_list,
        [l for l in t.dc_link_list if l.dst != "dc2"],
    )
    with pytest.raises(TopologyError, match="no route"):
        route(trimmed, "cam1", "dc2")


def test_route_layer_sequence_is_strictly_increasing(mini):
    for cam in ("cam1", "cam2", "cam3"):
        for dc in ("dc1", "dc2"):
            r = route(mini.topology, cam, dc)
            layers = [mini.topology.node(n).layer for n in r.nodes]
            assert layers == [Layer.DEVICE, Layer.GATEWAY, Layer.EDGE, Layer.CLOUD]
            assert [(l.src, l.dst) for l in r.links] == list(zip(r.nodes, r.nodes[1:]))


@pytest.mark.parametrize(
    "target,expected",
    [((4.0, 0.0), "cam1"), ((15.0, 0.0), "cam2"), ((0.0, 0.0), "cam1")],
)
def test_nearest_device_examples(mini, target, expected):
    assert nearest_device(mini.topology, target) == expected


def test_nearest_device_requires_locations():
    t = Topology(nodes=[Node("dc1", Layer.CLOUD)])
    with pytest.raises(TopologyError, match="no candidate device"):
        nearest_device(t, (0.0, 0.0))


def test_nearest_device_ignores_insertion_order(mini):
    rng = random.Random(5)
    base = list(mini.topology.node_list)
    for _ in range(10):
        rng.shuffle(base)
        shuffled = Topology(base, mini.topology.tree_link_list, mini.topology.dc_link_list)
        assert nearest_device(shuffled, (15.0, 0.0)) == "cam2"


@given(
    coords=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    target=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    shift=st.tuples(st.integers(-500, 500), st.integers(-500, 500)),
)
def test_nearest_device_translation_invariant(coords, target, shift):
    def build(offset):
        ox, oy = offset
        nodes = [
            Node(
                f"cam{i}",
                Layer.DEVICE,
                parent=None,
                location=(float(x + ox), float(y + oy)),
            )
            for i, (x, y) in enumerate(coords)
        ]
        return Topology(nodes)

    plain = nearest_device(build((0, 0)), (float(target[0]), float(target[1])))
    moved = nearest_device(
        build(shift), (float(target[0] + shift[0]), float(target[1] + shift[1]))
    )
    assert plain == moved


def test_node_lookup_errors(mini):
    with pytest.raises(TopologyError, match="unknown node"):
        mini.topology.node("nope")
