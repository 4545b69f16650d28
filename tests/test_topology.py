from __future__ import annotations

import math
import random
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from tierplace import (
    Layer,
    Link,
    Node,
    Pipeline,
    Scenario,
    Slot,
    Topology,
    TopologyError,
    evaluate,
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


def test_validation_reports_every_kind_in_check_order(mini):
    """The exact `validate_bundle` list for a topology breaking every rule at once: each
    check in turn, nodes and links in construction order, edges without a DC in id order."""
    t = mini.topology
    nodes = [*t.node_list, t.node("dc2"),
             Node("gw9", Layer.GATEWAY), Node("cam8", Layer.DEVICE, parent="ghost"),
             Node("cam9", Layer.DEVICE, parent="edge1"), Node("dc9", Layer.CLOUD, parent="edge1"),
             Node("gw8", Layer.GATEWAY, parent="edge1", capacity_cpu=-1.0,
                  cpu_cost_rate=math.nan, speed=0.0, location=(math.inf, 0.0)),
             Node("edge9", Layer.EDGE), Node("edge3", Layer.EDGE)]
    tree = [*t.tree_link_list, Link("cam1", "gw1"), Link("ghost", "gw1"),
            Link("cam9", "gw1", latency_ms=-1.0)]
    dc = [*t.dc_link_list, Link("gw1", "dc1")]
    broken = replace(mini, topology=Topology(nodes, tree, dc))
    assert validate_bundle(broken) == [
        ("duplicate id", "dc2"),
        ("missing parent", "gw9"),
        ("unknown parent", "cam8"),
        ("parent-layer mismatch", "cam9"),
        ("unexpected parent", "dc9"),
        ("invalid capacity", "gw8"),
        ("invalid cost rate", "gw8"),
        ("invalid speed", "gw8"),
        ("invalid location", "gw8"),
        ("duplicate link", "cam1->gw1"),
        ("unknown endpoint", "ghost->gw1"),
        ("invalid link value", "cam9->gw1"),
        ("link-parent mismatch", "cam9->gw1"),
        ("missing uplink", "gw8"),
        ("invalid dc link", "gw1->dc1"),
        ("edge without DC", "edge3"),
        ("edge without DC", "edge9"),
    ]

    analyze, detect = mini.pipeline.stages
    slots = (Slot.explicit(["cam1"]), Slot.at(math.nan, 0.0), Slot.explicit(["gw1", "ghost"]))
    broken = replace(
        mini, pipeline=Pipeline((analyze, replace(detect, reduction=0.0)), aggregation_index=4),
        scenario=Scenario(slot_seconds=0.0, slots=slots, source_rate_mbps=math.inf, seed=-1),
        budget=-1.0, solver={"kind": "fast", "seed": -1, "time_budget_ms": "1", "zeta": 0,
                             "alpha": 1})
    assert validate_bundle(broken) == [
        ("invalid aggregation index", "4"),
        ("invalid stage value", "detect"),
        ("invalid scenario value", "slot_seconds"),
        ("invalid scenario value", "source_rate_mbps"),
        ("invalid scenario value", "seed"),
        ("invalid scenario value", "target"),
        ("unknown device", "ghost"),
        ("unknown device", "gw1"),
        ("invalid budget", "-1.0"),
        ("invalid solver value", "kind"),
        ("invalid solver value", "time_budget_ms"),
        ("invalid solver value", "seed"),
        ("invalid solver value", "alpha"),
        ("invalid solver value", "zeta"),
    ]


def test_layer_lists_each_tier_in_id_order():
    nodes = [Node("dc2", Layer.CLOUD), Node("gw2", Layer.GATEWAY, parent="e1"),
             Node("cam2", Layer.DEVICE, parent="gw1"), Node("dc1", Layer.CLOUD),
             Node("gw1", Layer.GATEWAY, parent="e1"), Node("cam10", Layer.DEVICE, parent="gw2")]
    t = Topology(nodes)  # no edge tier
    for layer in Layer:
        expected = tuple(sorted((n for n in nodes if n.layer == layer), key=lambda n: n.id))
        assert t.layer(layer) == expected and type(t.layer(layer)) is tuple
        assert t.layer(layer) is t.layer(layer)
    assert [n.id for n in t.layer(Layer.DEVICE)] == ["cam10", "cam2"]
    assert t.layer(Layer.EDGE) == ()


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


def test_a_compiled_topology_cannot_be_changed(mini, mini_spec, p3):
    """Every way of changing a topology that `cost_model` has compiled raises, and leaves
    `evaluate` answering as a topology built afresh from the same lists does."""
    topology = mini.topology
    before = evaluate(topology, mini_spec, p3)
    pricey = replace(topology.nodes["gw1"], cpu_cost_rate=1e6)
    uplink, dc_link = topology.uplink("gw1"), topology.dc_link("edge1", "dc1")
    tables = {"nodes": ("gw1", pricey), "_uplink": ("gw1", replace(uplink, latency_ms=1e6)),
              "_dc": (("edge1", "dc1"), replace(dc_link, latency_ms=1e6)),
              "_layers": (Layer.GATEWAY, ())}
    for name, (key, value) in tables.items():
        table = getattr(topology, name)
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(TypeError):
            del table[key]
        for method, args in (("update", ({key: value},)), ("pop", (key,)), ("clear", ()),
                             ("setdefault", (key, value)), ("popitem", ())):
            with pytest.raises(AttributeError):
                getattr(table, method)(*args)
    for name in ("node_list", "tree_link_list", "dc_link_list", *tables, "node", "added"):
        with pytest.raises(AttributeError, match="cannot be changed"):
            setattr(topology, name, {})
        with pytest.raises(AttributeError, match="cannot be changed"):
            delattr(topology, name)
    with pytest.raises(AttributeError, match="cannot be changed"):
        topology.node_list += (pricey,)
    rebuilt = Topology(topology.node_list, topology.tree_link_list, topology.dc_link_list)
    assert evaluate(topology, mini_spec, p3) == before == evaluate(rebuilt, mini_spec, p3)
    assert weakref.ref(topology)() is topology  # `cost_model` keys its memo by weak reference
