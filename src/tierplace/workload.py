"""Processing pipeline, data-rate propagation, and time-slotted scenarios."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .topology import Layer, Topology, TopologyError, nearest_device_index
# nearest_device is not called here but stays importable for perfbench/tracer.py.
from .topology import nearest_device  # noqa: F401

__all__ = [
    "Pipeline",
    "Scenario",
    "ServiceSpec",
    "Slot",
    "Stage",
    "UnknownDevice",
    "derive_active_streams",
    "flow_profile",
    "gen_random_walk",
]


class UnknownDevice(ValueError):
    """A scenario referenced a device id that does not exist."""


@dataclass(frozen=True)
class Stage:
    """One pipeline step.

    cpu_per_unit is CPU demand per Mbps of input; reduction is the ratio of
    output rate to input rate; base_ms is divided by the hosting node's
    speed. The deploy/dispatch fields only matter when the stage is placed
    on gateways.
    """

    name: str
    cpu_per_unit: float
    reduction: float
    base_ms: float = 0.0
    deploy_cost: float = 0.0
    dispatch_cost: float = 0.0
    dispatch_penalty_ms: float = 0.0


@dataclass(frozen=True)
class Pipeline:
    """Ordered stages plus the 1-based index where per-stream work ends.

    Stages before aggregation_index run once per active stream; stages at or
    after it run once on the merged flow. aggregation_index == K + 1 means
    no merged stage at all.
    """

    stages: tuple[Stage, ...]
    aggregation_index: int

    @property
    def pre_count(self) -> int:
        return self.aggregation_index - 1

    @property
    def has_aggregation(self) -> bool:
        return self.aggregation_index <= len(self.stages)


@dataclass(frozen=True)
class Slot:
    """One scheduling slot: either an explicit device set or a tracked target."""

    devices: tuple[str, ...] | None = None
    target: tuple[float, float] | None = None

    @classmethod
    def explicit(cls, ids) -> "Slot":
        return cls(devices=tuple(sorted(set(ids))))

    @classmethod
    def at(cls, x: float, y: float) -> "Slot":
        return cls(target=(float(x), float(y)))


@dataclass(frozen=True)
class Scenario:
    """Frozen, like a `Topology`: `cost_model` memoizes derived data keyed by its identity."""

    slot_seconds: float
    slots: tuple[Slot, ...]
    source_rate_mbps: float
    seed: int = 0

    @property
    def period_seconds(self) -> float:
        """The charging period equals the scenario horizon."""
        return self.slot_seconds * len(self.slots)


@dataclass(frozen=True)
class ServiceSpec:
    """A pipeline, the scenario that drives it, and the hard price budget.

    The optimization objective is fixed: minimize mean end-to-end latency,
    then total cost, with the budget as a hard constraint.
    """

    pipeline: Pipeline
    scenario: Scenario
    budget: float


def flow_profile(pipeline: Pipeline, source_rate: float) -> list[float]:
    """Per-stage input rates plus the final output rate (K + 1 values)."""
    rates = [source_rate]
    for stage in pipeline.stages:
        rates.append(rates[-1] * stage.reduction)
    return rates


def derive_active_streams(topology: Topology, scenario: Scenario) -> list[list[str]]:
    """Resolve each slot to the sorted list of active device ids.

    Coordinate slots pick the single nearest located device (as `nearest_device` would, through
    an index built on the first such slot). Explicit slots pass one subset check against a set
    of the device ids built once; only a failing slot is walked, to name its first unknown id.
    """
    out: list[list[str]] = []
    nearest = known = None
    for slot in scenario.slots:
        if slot.target is not None:
            nearest = nearest or nearest_device_index(topology)
            out.append([nearest(slot.target)])
            continue
        devices = slot.devices or ()
        known = known or {node.id for node in topology.layer(Layer.DEVICE)}
        if not known.issuperset(devices):
            raise UnknownDevice(f"unknown device: {next(d for d in devices if d not in known)}")
        out.append(sorted(set(devices)))
    return out


def gen_random_walk(
    topology: Topology,
    num_slots: int,
    step: float,
    seed: int,
) -> Scenario:
    """Random-walk target scenario starting at the first device's location.

    Uses Python's random.Random (Mersenne Twister) seeded with `seed`; each
    slot moves by a uniform angle in [0, 2*pi) and a uniform length in
    [0, step], so identical seeds reproduce identical scenarios.
    """
    located = [d for d in topology.layer(Layer.DEVICE) if d.location is not None]
    if not located:
        raise TopologyError("no candidate device")
    rng = random.Random(seed)
    x, y = located[0].location
    slots: list[Slot] = []
    for _ in range(num_slots):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = rng.uniform(0.0, step)
        x += length * math.cos(angle)
        y += length * math.sin(angle)
        slots.append(Slot.at(x, y))
    return Scenario(
        slot_seconds=3600.0,
        slots=tuple(slots),
        source_rate_mbps=8.0,
        seed=seed,
    )
