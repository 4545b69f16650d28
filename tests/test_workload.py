from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tierplace import (
    Layer,
    Node,
    Pipeline,
    Scenario,
    Slot,
    Stage,
    Topology,
    TopologyError,
    UnknownDevice,
    derive_active_streams,
    flow_profile,
    gen_random_walk,
)


def _pipeline(*reductions):
    stages = tuple(
        Stage(name=f"s{i}", cpu_per_unit=0.0, reduction=r) for i, r in enumerate(reductions)
    )
    return Pipeline(stages=stages, aggregation_index=len(stages) + 1)


def test_flow_profile_mini(mini):
    assert flow_profile(mini.pipeline, 8.0) == [8.0, 0.08, 0.08]


def test_flow_profile_identity_and_products():
    assert flow_profile(_pipeline(1.0), 5.0) == [5.0, 5.0]
    assert flow_profile(_pipeline(0.5, 0.5), 4.0) == [4.0, 2.0, 1.0]


@given(
    reductions=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5),
    rate=st.floats(0.1, 100.0),
    alpha=st.floats(0.1, 10.0),
)
def test_flow_profile_is_multiplicative(reductions, rate, alpha):
    base = flow_profile(_pipeline(*reductions), rate)
    scaled = flow_profile(_pipeline(*reductions), rate * alpha)
    for a, b in zip(base, scaled):
        assert b == pytest.approx(a * alpha, rel=1e-12)


def test_appending_identity_stage_extends_profile():
    base = flow_profile(_pipeline(0.5, 0.25), 8.0)
    extended = flow_profile(_pipeline(0.5, 0.25, 1.0), 8.0)
    assert extended[:-1] == base
    assert extended[-1] == base[-1]


def test_derive_active_streams_coordinates(mini):
    scenario = replace(
        mini.scenario, slots=(Slot.at(4.0, 0.0), Slot.at(15.0, 0.0))
    )
    assert derive_active_streams(mini.topology, scenario) == [["cam1"], ["cam2"]]


def test_derive_active_streams_explicit_passthrough(mini):
    scenario = replace(
        mini.scenario, slots=(Slot.explicit(["cam1"]), Slot.explicit(["cam3"]))
    )
    assert derive_active_streams(mini.topology, scenario) == [["cam1"], ["cam3"]]


def test_derive_active_streams_unknown_device(mini):
    scenario = replace(mini.scenario, slots=(Slot.explicit(["camX"]),))
    with pytest.raises(UnknownDevice, match="unknown device"):
        derive_active_streams(mini.topology, scenario)
    gateway_slot = replace(mini.scenario, slots=(Slot.explicit(["gw1"]),))
    with pytest.raises(UnknownDevice):
        derive_active_streams(mini.topology, gateway_slot)


def test_derive_active_streams_names_the_first_unknown_id_in_slot_order(mini):
    slots = (Slot.explicit(["cam1"]), Slot(devices=("cam2", "zzz", "cam1", "gw1", "aaa")))
    with pytest.raises(UnknownDevice, match="^unknown device: zzz$"):
        derive_active_streams(mini.topology, replace(mini.scenario, slots=slots))
    slots = (Slot(devices=("cam3", "cam1", "cam3")), Slot(devices=()), Slot.at(15.0, 0.0))
    streams = derive_active_streams(mini.topology, replace(mini.scenario, slots=slots))
    assert streams == [["cam1", "cam3"], [], ["cam2"]]


def test_derive_active_streams_ignores_node_order(mini):
    scenario = replace(mini.scenario, slots=(Slot.at(15.0, 0.0),))
    reversed_topology = Topology(
        tuple(reversed(mini.topology.node_list)),
        mini.topology.tree_link_list,
        mini.topology.dc_link_list,
    )
    assert derive_active_streams(mini.topology, scenario) == derive_active_streams(
        reversed_topology, scenario
    )


def test_random_walk_zero_step_stays_at_start(mini):
    scenario = gen_random_walk(mini.topology, num_slots=5, step=0.0, seed=99)
    assert len(scenario.slots) == 5
    for slot in scenario.slots:
        assert slot.target == (0.0, 0.0)


def test_random_walk_is_seed_deterministic(mini):
    a = gen_random_walk(mini.topology, num_slots=8, step=7.5, seed=7)
    b = gen_random_walk(mini.topology, num_slots=8, step=7.5, seed=7)
    assert a == b
    c = gen_random_walk(mini.topology, num_slots=8, step=7.5, seed=8)
    assert a != c


def test_random_walk_slot_count(mini):
    scenario = gen_random_walk(mini.topology, num_slots=3, step=4.0, seed=0)
    assert len(scenario.slots) == 3
    assert scenario.seed == 0


def test_random_walk_requires_devices():
    empty = Topology(nodes=[Node("dc1", Layer.CLOUD)])
    with pytest.raises(TopologyError, match="no candidate device"):
        gen_random_walk(empty, num_slots=1, step=1.0, seed=0)


def test_period_is_slot_count_times_seconds(mini):
    assert mini.scenario.period_seconds == 7200.0
    shorter = Scenario(
        slot_seconds=60.0, slots=(Slot.explicit(["cam1"]),), source_rate_mbps=1.0
    )
    assert shorter.period_seconds == 60.0
