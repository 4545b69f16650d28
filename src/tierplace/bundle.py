"""Problem-instance bundles: JSON round-trip, validation, and generators.

A bundle is one complete problem: topology + pipeline + scenario + budget,
optionally with solver defaults. Files are UTF-8 JSON with sorted keys so
that identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from .cost_model import (
    GB_PER_MBPS_SECOND, CostReport, Placement, _total, compile_instance, evaluate, min_alloc)
from .solver import SETTING_RANGES, SOLVER_KINDS, Solution
from .topology import Layer, Link, Node, Topology, TopologyError, validate_topology
from .workload import (
    Pipeline,
    Scenario,
    ServiceSpec,
    Slot,
    Stage,
    gen_random_walk,
)

__all__ = [
    "BundleError",
    "ScenarioBundle",
    "bundle_from_json",
    "bundle_to_json",
    "dumps",
    "load_bundle",
    "load_placement",
    "mini_bundle",
    "placement_from_json",
    "placement_to_json",
    "report_to_json",
    "save_bundle",
    "solution_to_json",
    "synth_bundle",
    "validate_bundle",
]


class BundleError(ValueError):
    """The bundle file cannot be parsed into a problem instance."""


@dataclass(frozen=True)
class ScenarioBundle:
    topology: Topology
    pipeline: Pipeline
    scenario: Scenario
    budget: float
    solver: dict | None = None  # optional solver defaults (kind, seed, ...)

    def service_spec(self) -> ServiceSpec:
        return ServiceSpec(
            pipeline=self.pipeline, scenario=self.scenario, budget=self.budget
        )


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _only(kind: str):
    """The loader of a field whose own JSON type `_load` keeps as is, so any value it gets is
    wrong: int() would truncate 2.7 and accept true or "3", str() would read null as "None"."""
    def reject(value, field: str):
        raise BundleError(f"{field} must be {kind}, not {value!r}")
    return reject


def _number(value, field: str) -> float:
    """A JSON number as a float: float() would also accept true or "3"."""
    if type(value) not in (int, float):
        raise BundleError(f"{field} must be a number, not {value!r}")
    return float(value)


def _point(value, field: str) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise BundleError(f"{field} must be two numbers or null, not {value!r}")
    return _number(value[0], field), _number(value[1], field)


def _texts(value, field: str) -> tuple[str, ...]:
    if not all(type(item) is str for item in _list(value, field)):
        raise BundleError(f"{field} must hold only strings, not {value!r}")
    return tuple(value)


def _list(value, field: str) -> list:
    """A JSON array as is: iterating an object would read its keys, a string its characters."""
    if type(value) is not list:
        raise BundleError(f"{field} must be a JSON array, not {value!r}")
    return value


def _same(value):
    return value


def _dump(record) -> dict:
    return {name: dump(getattr(record, name)) for name, _, _, _, dump in _FIELDS[type(record)]}


def _unknown(data: dict, keys: frozenset, record: str) -> BundleError:
    """The error for keys outside `keys`: a misspelled one would silently take the default."""
    ident = data.get("id", data.get("name"))
    named = record if ident is None else f"{record} {ident!r}"
    return BundleError(f"{named} has unknown keys {sorted(map(str, data.keys() - keys))}")


def _load(cls, data: dict):
    """One record from its JSON object. A missing key, or the default itself
    (null for an optional field), takes the field's default; an unknown key is an error."""
    if type(data) is not dict:
        raise BundleError(f"{cls.__name__.lower()} must be a JSON object, not {data!r}")
    if not _KEYS[cls].issuperset(data):
        raise _unknown(data, _KEYS[cls], cls.__name__.lower())
    args = []
    for name, default, kept, load, _ in _FIELDS[cls]:
        value = data[name] if default is MISSING else data.get(name, default)
        args.append(value if value is default or type(value) is kept else load(value, name))
    return cls(*args)  # positional: a keyword call from a dict costs more


def _records(cls, items, field: str) -> list:
    """A JSON array's records: column by column in `save_bundle`'s form (objects with exactly
    the class's keys, values of their kept types or a null default, layer labels, float pairs),
    else record by record through `_load`, which words the first error."""
    codecs, items, columns = _FIELDS[cls], _list(items, field), []
    if set(map(type, items)) == {dict} and set(map(len, items)) == {len(codecs)}:
        try:
            transposed = zip(*map(_GETTERS[cls], items))
        except KeyError:  # another key in place of one of the class's
            transposed = ()
        for (name, default, kept, _, _), column in zip(codecs, transposed):
            types = set(map(type, column))
            points = [point for point in column if point is not None] if name == "location" else ()
            if types <= {kept, type(default)}:
                columns.append(column)
            elif name == "layer" and types == {str} and _LAYERS.keys() >= set(column):
                columns.append(list(map(_LAYERS.__getitem__, column)))
            elif (types <= {list, type(None)} and set(map(len, points)) == {2}
                  and set(map(type, chain.from_iterable(points))) == {float}):
                columns.append([point and tuple(point) for point in column])
    loaded = map(cls, *columns) if len(columns) == len(codecs) else map(_load, repeat(cls), items)
    return list(loaded)


def _slot_to_json(slot: Slot) -> dict:
    if slot.target is not None:
        return {"target": list(slot.target)}
    return {"devices": list(slot.devices or ())}


def _slot_from_json(data: dict) -> Slot:
    slot = _load(Slot, data)
    if (slot.target is None) == (slot.devices is None):
        raise BundleError("slot must carry exactly one of 'devices' or 'target'")
    return slot if slot.devices is None else Slot.explicit(slot.devices)


def _array(load_item, dump_item=_same):
    """The codec of a list field: a JSON array loaded item by item into a tuple.
    An absent list (a target slot's devices) dumps as null."""
    return (None, lambda value, field: tuple(map(load_item, _list(value, field))),
            lambda items: None if items is None else [dump_item(item) for item in items])


# Per record field: the JSON type whose values are kept as they are, the
# loader of any other value, and the dumper. A field not listed is a number.
_TEXT = (str, _only("a string"), _same)
_INTEGER = (int, _only("an integer"), _same)
_POINT = (None, _point, lambda point: None if point is None else list(point))
_CODECS = {
    "id": _TEXT,
    "src": _TEXT,
    "dst": _TEXT,
    "name": _TEXT,
    "parent": _TEXT,
    "agg_node": _TEXT,
    "sink_dc": _TEXT,
    "layer": (None, lambda value, field: Layer.from_label(value), lambda layer: layer.label),
    "location": _POINT,
    "target": _POINT,
    "aggregation_index": _INTEGER,
    "seed": _INTEGER,
    "alloc": _INTEGER,
    "stages": _array(lambda stage: _load(Stage, stage), _dump),
    "slots": _array(_slot_from_json, _slot_to_json),
    "devices": (None, _texts, lambda devices: None if devices is None else list(devices)),
    "layer_of": _array(Layer.from_label, lambda layer: layer.label),
    "predeploy": (None, lambda value, field: frozenset(_texts(value, field)), sorted),
    "peak_cpu": (None, None, dict),  # report fields are only dumped
    "violations": (None, None, lambda violations: [
        {"kind": v.kind, "id": v.ident, "magnitude": v.magnitude} for v in violations]),
}
# Record class -> [(field name, default, kept type, load, dump)] in field order.
_FIELDS = {
    cls: [(f.name, f.default, *_CODECS.get(f.name, (float, _number, _same))) for f in fields(cls)]
    for cls in (Node, Link, Stage, Pipeline, Scenario, Slot, Placement, CostReport)
}
_KEYS = {cls: frozenset(name for name, *_ in codecs) for cls, codecs in _FIELDS.items()}
_GETTERS = {cls: itemgetter(*[name for name, *_ in _FIELDS[cls]]) for cls in (Node, Link)}
_LAYERS = {layer.label: layer for layer in Layer}
_BUNDLE_KEYS = frozenset({"topology", "pipeline", "scenario", "budget", "solver"})
_TOPOLOGY_KEYS = frozenset({"nodes", "tree_links", "dc_links"})


def bundle_to_json(bundle: ScenarioBundle) -> dict:
    out = {
        "topology": {
            "nodes": [_dump(n) for n in bundle.topology.node_list],
            "tree_links": [_dump(l) for l in bundle.topology.tree_link_list],
            "dc_links": [_dump(l) for l in bundle.topology.dc_link_list],
        },
        "pipeline": _dump(bundle.pipeline),
        "scenario": _dump(bundle.scenario),
        "budget": bundle.budget,
    }
    if bundle.solver is not None:
        out["solver"] = bundle.solver
    return out


def bundle_from_json(data: dict) -> ScenarioBundle:
    try:
        topo = data["topology"]
        for record, keys in ((data, _BUNDLE_KEYS), (topo, _TOPOLOGY_KEYS)):
            if type(record) is dict and not keys.issuperset(record):
                raise _unknown(record, keys, "bundle" if record is data else "topology")
        return ScenarioBundle(
            topology=Topology(_records(Node, topo["nodes"], "nodes"),
                              _records(Link, topo.get("tree_links", []), "tree_links"),
                              _records(Link, topo.get("dc_links", []), "dc_links")),
            pipeline=_load(Pipeline, data["pipeline"]),
            scenario=_load(Scenario, data["scenario"]),
            budget=_number(data["budget"], "budget"),
            solver=data.get("solver"),
        )
    except BundleError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise BundleError(f"malformed bundle: {exc}") from exc


def validate_bundle(bundle: ScenarioBundle) -> list[tuple[str, str]]:
    """Topology invariants plus pipeline/scenario/budget/solver sanity, all collected;
    when those all pass, whether the scenario resolves and some DC serves every stream.

    Every number must be finite: NaN and +-inf are reported like any other
    out-of-range value (the chained bounds below are false for them). So must
    the products the reports are built from, and a bound on every report field.
    """
    violations = list(validate_topology(bundle.topology))

    pipeline = bundle.pipeline
    if not pipeline.stages:
        violations.append(("empty pipeline", "pipeline"))
    if not 1 <= pipeline.aggregation_index <= len(pipeline.stages) + 1:
        violations.append(("invalid aggregation index", str(pipeline.aggregation_index)))
    for stage in pipeline.stages:
        amounts = (stage.cpu_per_unit, stage.base_ms, stage.deploy_cost,
                   stage.dispatch_cost, stage.dispatch_penalty_ms)
        if not (0 < stage.reduction < math.inf and all(0 <= v < math.inf for v in amounts)):
            violations.append(("invalid stage value", stage.name))

    scenario = bundle.scenario
    if not scenario.slots:
        violations.append(("invalid scenario value", "slots"))
    if not 0 < scenario.slot_seconds < math.inf:
        violations.append(("invalid scenario value", "slot_seconds"))
    if not 0 < scenario.source_rate_mbps < math.inf:
        violations.append(("invalid scenario value", "source_rate_mbps"))
    if scenario.seed < 0:
        violations.append(("invalid scenario value", "seed"))
    devices = {node.id for node in bundle.topology.layer(Layer.DEVICE)}
    for slot in scenario.slots:
        if slot.target is not None and not all(map(math.isfinite, slot.target)):
            violations.append(("invalid scenario value", "target"))
        if not devices.issuperset(slot.devices or ()):
            violations += [("unknown device", d) for d in slot.devices if d not in devices]

    if not 0 <= bundle.budget < math.inf:
        violations.append(("invalid budget", str(bundle.budget)))

    defaults = bundle.solver
    if defaults is not None and not isinstance(defaults, dict):
        violations.append(("invalid solver defaults", "solver"))
    elif defaults:
        if "kind" in defaults and defaults["kind"] not in SOLVER_KINDS:
            violations.append(("invalid solver value", "kind"))
        for field, (types, low, high) in SETTING_RANGES.items():
            value = defaults.get(field, low)
            if type(value) not in types or not low <= value <= high:
                violations.append(("invalid solver value", field))
        # Keys no solver setting reads would otherwise be dropped without a word.
        for key in sorted(set(defaults) - set(SETTING_RANGES) - {"kind"}):
            violations.append(("invalid solver value", key))
    if violations:
        return violations
    # With every check above passed the instance compiles, memoized for the command.
    try:
        instance = compile_instance(bundle.topology, bundle.service_spec())
    except TopologyError as exc:  # a target slot with no located device
        return [("unresolvable slot", str(exc))]
    if not instance.serving_dcs:  # a sink DC must be linked from every edge a stream uses
        violations.append(("no common DC", "dc_links"))
    # Finite inputs can still overflow once multiplied out, into inf or NaN costs.
    rates, loads = instance.rates, instance.loads
    volumes = [rate * scenario.slot_seconds for rate in rates]
    for ident, values in (("stream rate", [*rates, *volumes]), ("stage load", loads),
                          ("peak demand", [instance.peak_demand]),
                          ("period", [scenario.period_seconds])):
        if not all(map(math.isfinite, values)):
            violations.append(("value overflow", ident))
    if violations:  # the bounds below are built from those values
        return violations
    # Upper bounds on every report field of any placement, from the largest price, latency
    # and load: each stream crosses 3 links, any gateway may be predeployed, loads peak in
    # one slot, and the cost bound leaves half the float range to a larger alloc. The
    # traffic bound, on a slot's GB over all its links, leaves half for rounding.
    nodes, stages = bundle.topology.node_list, pipeline.stages
    links = bundle.topology.tree_link_list + bundle.topology.dc_link_list
    cpu_price = max([node.cpu_cost_rate for node in nodes])  # some DC passed the check above
    link_price = max([link.traffic_cost_rate for link in links], default=0.0)
    per_stream = (3 * link_price * max(volumes) * GB_PER_MBPS_SECOND
                  + _total(loads) * cpu_price * scenario.slot_seconds / scenario.period_seconds)
    gateways = len(bundle.topology.layer(Layer.GATEWAY))  # ids are unique here
    cost = (instance.total_streams * per_stream + (instance.peak_demand + 1) * cpu_price
            + gateways * _total([stage.deploy_cost + stage.dispatch_cost for stage in stages]))
    latency = (3 * max([link.latency_ms for link in links], default=0.0)
               + _total([stage.base_ms for stage in stages]) / min([node.speed for node in nodes])
               + _total([stage.dispatch_penalty_ms for stage in stages]))
    peak_load = instance.busiest * (max(rates) + _total(loads)) + instance.peak_demand
    traffic = instance.busiest * 3 * max(volumes) * GB_PER_MBPS_SECOND
    for ident, values in (("peak load", [peak_load]), ("cost", [2 * cost]),
                          ("latency", [latency, instance.total_streams * latency]),
                          ("traffic", [2 * traffic])):
        if not all(map(math.isfinite, values)):
            violations.append(("value overflow", ident))
    return violations


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too long an int, too deep
        raise BundleError(f"not valid JSON: {path}: {exc}") from exc


def load_bundle(path: str | Path) -> ScenarioBundle:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise BundleError(f"bundle must be a JSON object: {path}")
    return bundle_from_json(data)


def save_bundle(bundle: ScenarioBundle, path: str | Path) -> None:
    Path(path).write_text(dumps(bundle_to_json(bundle)), encoding="utf-8")


def placement_to_json(placement: Placement) -> dict:
    return _dump(placement)


def placement_from_json(data: dict) -> Placement:
    try:
        return _load(Placement, data)
    except (KeyError, ValueError) as exc:
        raise BundleError(f"malformed placement: {exc}") from exc


def load_placement(path: str | Path) -> Placement:
    """Read a placement file; solution files (with a 'placement' key) also work."""
    data = _read_json(path)
    if isinstance(data, dict) and "placement" in data:
        data = data["placement"]
    return placement_from_json(data)


def report_to_json(report: CostReport) -> dict:
    return _dump(report)


def solution_to_json(solution: Solution) -> dict:
    """Solution file payload. Wall-clock time is deliberately left out so a
    seeded run rewrites byte-identical files; it is reported on the console."""
    return {
        "solver_kind": solution.solver_kind,
        "states_examined": solution.states_examined,
        "best_effort": solution.best_effort,
        "placement": placement_to_json(solution.placement),
        "report": report_to_json(solution.report),
    }


def _line_topology(devices: int, digits: int) -> Topology:
    """Cameras 10 apart on a line, fan-in 2 gateways and edges, two DCs; each
    id is numbered from 1 with at least `digits` digits (cam1 or cam001)."""
    gateways = (devices + 1) // 2
    edges = (gateways + 1) // 2

    nodes: list[Node] = []
    tree_links: list[Link] = []
    for i in range(devices):
        cam = f"cam{i + 1:0{digits}d}"
        gw = f"gw{i // 2 + 1:0{digits}d}"
        nodes.append(
            Node(cam, Layer.DEVICE, parent=gw, capacity_cpu=0.0, location=(10.0 * i, 0.0))
        )
        tree_links.append(Link(cam, gw, latency_ms=2.0, traffic_cost_rate=0.0))
    for j in range(gateways):
        gw = f"gw{j + 1:0{digits}d}"
        edge = f"edge{j // 2 + 1:0{digits}d}"
        nodes.append(
            Node(gw, Layer.GATEWAY, parent=edge, capacity_cpu=2.0, cpu_cost_rate=1.0, speed=1.0)
        )
        tree_links.append(Link(gw, edge, latency_ms=5.0, traffic_cost_rate=0.1))
    dc_links: list[Link] = []
    for e in range(edges):
        edge = f"edge{e + 1:0{digits}d}"
        nodes.append(Node(edge, Layer.EDGE, capacity_cpu=8.0, cpu_cost_rate=0.5, speed=0.5))
        dc_links.append(Link(edge, "dc1", latency_ms=15.0, traffic_cost_rate=0.2))
        dc_links.append(Link(edge, "dc2", latency_ms=40.0, traffic_cost_rate=0.2))
    nodes.append(Node("dc1", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0))
    nodes.append(Node("dc2", Layer.CLOUD, capacity_cpu=1000.0, cpu_cost_rate=0.25, speed=1.0))
    return Topology(nodes, tree_links, dc_links)


def mini_bundle() -> ScenarioBundle:
    """The canonical hand-sized instance shipped with the repo.

    Its topology is the 3-camera instance of the line builder that
    `synth_bundle` also uses: two gateways under one edge with two DCs. The
    pipeline is a heavy per-stream analyze step (100x data reduction)
    followed by a merged detect step.
    """
    return ScenarioBundle(
        topology=_line_topology(3, digits=1),
        pipeline=Pipeline(
            stages=(
                Stage(
                    name="analyze",
                    cpu_per_unit=0.2,
                    reduction=0.01,
                    base_ms=50.0,
                    deploy_cost=0.05,
                    dispatch_cost=0.02,
                    dispatch_penalty_ms=500.0,
                ),
                Stage(name="detect", cpu_per_unit=0.1, reduction=1.0, base_ms=20.0),
            ),
            aggregation_index=2,
        ),
        scenario=Scenario(
            slot_seconds=3600.0,
            slots=(Slot.explicit(["cam1"]), Slot.explicit(["cam3"])),
            source_rate_mbps=8.0,
            seed=0,
        ),
        budget=5.0,
    )


def synth_bundle(
    devices: int,
    slots: int,
    step: float = 10.0,
    seed: int = 0,
    budget: float | None = None,
) -> ScenarioBundle:
    """Synthetic instance: the line topology of `devices` cameras, the
    canonical pipeline, and a random-walk scenario.

    When budget is None it is set to twice the cost of the everything-in-
    the-cloud placement, which keeps the instance solvable by construction.
    """
    if devices < 1 or slots < 1:
        raise BundleError("devices and slots must both be at least 1")
    mini = mini_bundle()
    topology = _line_topology(devices, digits=3)
    scenario = gen_random_walk(topology, num_slots=slots, step=step, seed=seed)

    if budget is None:
        spec = ServiceSpec(pipeline=mini.pipeline, scenario=scenario, budget=0.0)
        layers = (Layer.CLOUD,) * mini.pipeline.pre_count
        baseline = Placement(layer_of=layers, agg_node="dc1", sink_dc="dc1")
        baseline = replace(baseline, alloc=min_alloc(topology, spec, baseline))
        budget = 2.0 * evaluate(topology, spec, baseline).total_cost

    return ScenarioBundle(
        topology=topology,
        pipeline=mini.pipeline,
        scenario=scenario,
        budget=budget,
    )
