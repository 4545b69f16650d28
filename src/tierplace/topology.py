"""Four-tier topology: devices behind gateways, gateways behind network
edges, edges linked to cloud data centers.

Containment below the edge tier is a forest (one gateway per device, one
edge per gateway); the only routing freedom is which data center an edge
talks to. All types are immutable and all queries are pure, so a topology
can be shared freely across threads. A `Topology` cannot be changed once built,
which `cost_model` relies on: it memoizes derived data keyed by a topology's
identity, and frees it when the topology is freed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType

__all__ = [
    "Layer",
    "Link",
    "Node",
    "Route",
    "Topology",
    "TopologyError",
    "nearest_device",
    "nearest_device_index",
    "route",
    "validate_topology",
]


class TopologyError(ValueError):
    """A malformed query against an otherwise usable topology."""


class Layer(IntEnum):
    """Hosting tiers, ordered from the data source toward the data center."""

    DEVICE = 0
    GATEWAY = 1
    EDGE = 2
    CLOUD = 3

    @property
    def label(self) -> str:
        return self.name.title()

    @classmethod
    def from_label(cls, label: str) -> "Layer":
        try:
            return cls[str(label).upper()]
        except KeyError:
            raise ValueError(f"unknown layer: {label!r}") from None


@dataclass(frozen=True)
class Node:
    """One host. Devices and gateways carry a parent pointer toward the cloud.

    A device that cannot compute is modeled with capacity_cpu = 0, not with
    a separate flag. cpu_cost_rate is the price of one CPU unit for one
    charging period; speed scales stage processing latency.
    """

    id: str
    layer: Layer
    parent: str | None = None
    capacity_cpu: float = 0.0
    cpu_cost_rate: float = 0.0
    speed: float = 1.0
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class Link:
    """A directed link. Its `key`, "src->dst", is built on construction, not a dataclass field."""

    src: str
    dst: str
    latency_ms: float = 0.0
    traffic_cost_rate: float = 0.0  # cost per decimal GB (8000 Mb)
    bandwidth_mbps: float | None = None  # None means unbounded

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", f"{self.src}->{self.dst}")


@dataclass(frozen=True)
class Route:
    """A device-to-DC path: node ids in tier order plus the links between them."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]


class Topology:
    """Node/link graph over the four tiers.

    Raw construction lists are kept alongside the lookup tables so that
    validate_topology can report duplicates instead of silently collapsing
    them. `layer` answers every tier query. An instance cannot be changed.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        tree_links: Iterable[Link] = (),
        dc_links: Iterable[Link] = (),
    ) -> None:
        self.node_list: tuple[Node, ...] = tuple(nodes)
        self.tree_link_list: tuple[Link, ...] = tuple(tree_links)
        self.dc_link_list: tuple[Link, ...] = tuple(dc_links)
        self.nodes: Mapping[str, Node] = MappingProxyType({n.id: n for n in self.node_list})
        self._uplink: Mapping[str, Link] = MappingProxyType({l.src: l for l in self.tree_link_list})
        self._dc: Mapping[tuple[str, str], Link] = MappingProxyType({
            (l.src, l.dst): l for l in self.dc_link_list})
        ordered = sorted(self.nodes.values(), key=lambda n: n.id)
        self._layers: Mapping[Layer, tuple[Node, ...]] = MappingProxyType(
            {layer: tuple(n for n in ordered if n.layer == layer) for layer in Layer})

    def __setattr__(self, name: str, value: object) -> None:
        if hasattr(self, "_layers"):  # bound last in __init__
            raise AttributeError(f"a Topology cannot be changed: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a Topology cannot be changed: cannot delete {name!r}")

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node: {node_id}") from None

    def layer(self, layer: Layer) -> tuple[Node, ...]:
        """The tier's nodes in id order, () when it has none; built once, not copied."""
        return self._layers[layer]

    def uplink(self, node_id: str) -> Link | None:
        return self._uplink.get(node_id)

    def dc_link(self, edge_id: str, dc_id: str) -> Link | None:
        return self._dc.get((edge_id, dc_id))


def validate_topology(topology: Topology) -> list[tuple[str, str]]:
    """Check every structural invariant; return (kind, offender) pairs.

    An empty list means the topology is well formed. Violations are data,
    not exceptions, so callers can report all of them at once.
    """
    violations: list[tuple[str, str]] = []
    seen: set[str] = set()
    for node in topology.node_list:
        if node.id in seen:
            violations.append(("duplicate id", node.id))
        seen.add(node.id)

    parent_layer = {Layer.DEVICE: Layer.GATEWAY, Layer.GATEWAY: Layer.EDGE}
    for node in topology.node_list:
        if node.layer in parent_layer:
            if node.parent is None:
                violations.append(("missing parent", node.id))
            elif node.parent not in topology.nodes:
                violations.append(("unknown parent", node.id))
            elif topology.nodes[node.parent].layer != parent_layer[node.layer]:
                violations.append(("parent-layer mismatch", node.id))
        elif node.parent is not None:
            violations.append(("unexpected parent", node.id))
        # Chained bounds against math.inf reject NaN and +-inf as well.
        if not 0 <= node.capacity_cpu < math.inf:
            violations.append(("invalid capacity", node.id))
        if not 0 <= node.cpu_cost_rate < math.inf:
            violations.append(("invalid cost rate", node.id))
        if not 0 < node.speed < math.inf:
            violations.append(("invalid speed", node.id))
        if node.location is not None and not all(map(math.isfinite, node.location)):
            violations.append(("invalid location", node.id))

    seen_links: set[str] = set()  # by key: ("a", "b->c") and ("a->b", "c") share one
    for link in topology.tree_link_list + topology.dc_link_list:
        if link.key in seen_links:
            violations.append(("duplicate link", link.key))
        seen_links.add(link.key)
        if link.src not in topology.nodes or link.dst not in topology.nodes:
            violations.append(("unknown endpoint", link.key))
            continue
        if not (0 <= link.latency_ms < math.inf and 0 <= link.traffic_cost_rate < math.inf
                and (link.bandwidth_mbps is None or 0 < link.bandwidth_mbps < math.inf)):
            violations.append(("invalid link value", link.key))

    for link in topology.tree_link_list:
        child = topology.nodes.get(link.src)
        if child is not None and child.parent != link.dst:
            violations.append(("link-parent mismatch", link.key))
    for node in topology.node_list:
        if node.layer in parent_layer and node.parent in topology.nodes:
            if topology.uplink(node.id) is None:
                violations.append(("missing uplink", node.id))

    for link in topology.dc_link_list:
        src = topology.nodes.get(link.src)
        dst = topology.nodes.get(link.dst)
        if src is None or dst is None:
            continue
        if src.layer != Layer.EDGE or dst.layer != Layer.CLOUD:
            violations.append(("invalid dc link", link.key))
    linked = {link.src for link in topology.dc_link_list}
    for edge in topology.layer(Layer.EDGE):
        if edge.id not in linked:
            violations.append(("edge without DC", edge.id))

    return violations


def route(topology: Topology, device_id: str, dc_id: str) -> Route:
    """Return the unique Device->Gateway->Edge->Cloud path.

    Raises TopologyError("invalid endpoint") when either endpoint sits on
    the wrong tier, and TopologyError("no route") when the device's edge is
    not linked to the requested data center.
    """
    device = topology.node(device_id)
    dc = topology.node(dc_id)
    if device.layer != Layer.DEVICE or dc.layer != Layer.CLOUD:
        raise TopologyError(
            f"invalid endpoint: expected Device -> Cloud, got "
            f"{device.layer.label} -> {dc.layer.label}"
        )
    gateway = topology.nodes.get(device.parent)
    if gateway is None or gateway.layer != Layer.GATEWAY:
        raise TopologyError(f"no route: {device_id} has no gateway")
    edge = topology.nodes.get(gateway.parent)
    if edge is None or edge.layer != Layer.EDGE:
        raise TopologyError(f"no route: {gateway.id} has no edge")
    up_device = topology.uplink(device_id)
    up_gateway = topology.uplink(gateway.id)
    dc_hop = topology.dc_link(edge.id, dc_id)
    if up_device is None or up_gateway is None:
        raise TopologyError(f"no route: missing uplink below {edge.id}")
    if dc_hop is None:
        raise TopologyError(f"no route: {edge.id} is not linked to {dc_id}")
    return Route(
        nodes=(device_id, gateway.id, edge.id, dc_id),
        links=(up_device, up_gateway, dc_hop),
    )


def nearest_device(topology: Topology, target: tuple[float, float]) -> str:
    """One `nearest_device_index` query; build the index once to ask for many targets."""
    return nearest_device_index(topology)(target)


def nearest_device_index(topology: Topology) -> Callable[[tuple[float, float]], str]:
    """Build target -> the located device closest (Euclidean) to it, ties to the smaller id.

    Located devices are sorted by (x, id) once; each query bisects on the target's x and
    sweeps outward, nearer side first, until the next device's squared x distance plus the
    squared gap from the target's y to the devices' y band (a lower bound for every device
    left, float rounding being monotone) is strictly above the best, so ties go to the smaller id.
    """
    located = sorted(
        (n.location[0], n.id, n.location[1])
        for n in topology.layer(Layer.DEVICE)
        if n.location is not None
    )
    xs, _, ys = zip(*located) if located else ((), (), (0.0,))  # no device: every query raises
    low, high = min(ys), max(ys)

    def nearest(target: tuple[float, float]) -> str:
        tx, ty = target
        gap = low - ty if ty < low else ty - high if ty > high else 0.0
        best: tuple[float, str] | None = None
        right = bisect_left(xs, tx)
        left = right - 1
        while left >= 0 or right < len(xs):
            if left < 0 or (right < len(xs) and xs[right] - tx <= tx - xs[left]):
                x, node_id, y = located[right]
                right += 1
            else:
                x, node_id, y = located[left]
                left -= 1
            dx = x - tx
            if best is not None and dx * dx + gap * gap > best[0]:
                break  # every device left on either side is at least this far
            dy = y - ty
            key = (dx * dx + dy * dy, node_id)
            if best is None or key < best:
                best = key
        if best is None:
            raise TopologyError("no candidate device")
        return best[1]

    return nearest
