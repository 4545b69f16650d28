"""tierplace: placement optimization and simulation for tiered IoT pipelines.

Given a device/gateway/edge/cloud topology, a data-reducing pipeline, and a
time-slotted mobility scenario, find function placements that minimize mean
end-to-end latency under a hard price budget, and validate them by
deterministic slot-by-slot simulation.
"""

from .bundle import (
    BundleError,
    ScenarioBundle,
    load_bundle,
    load_placement,
    mini_bundle,
    save_bundle,
    synth_bundle,
    validate_bundle,
)
from .cost_model import (
    AggregationTooSmall,
    CostReport,
    InvalidPlacement,
    Placement,
    Violation,
    evaluate,
    min_alloc,
)
from .simulator import SlotRecord, TimeSeriesReport, simulate, summarize
from .solver import (
    SearchSpaceTooLarge,
    Solution,
    SolverConfig,
    candidate_termini,
    choose_dc,
    choose_predeploy,
    solve,
    solve_anneal,
    solve_exhaustive,
    solve_greedy,
)
from .topology import (
    Layer,
    Link,
    Node,
    Route,
    Topology,
    TopologyError,
    nearest_device,
    route,
    validate_topology,
)
from .workload import (
    Pipeline,
    Scenario,
    ServiceSpec,
    Slot,
    Stage,
    UnknownDevice,
    derive_active_streams,
    flow_profile,
    gen_random_walk,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationTooSmall",
    "BundleError",
    "CostReport",
    "InvalidPlacement",
    "Layer",
    "Link",
    "Node",
    "Pipeline",
    "Placement",
    "Route",
    "Scenario",
    "ScenarioBundle",
    "SearchSpaceTooLarge",
    "ServiceSpec",
    "Slot",
    "SlotRecord",
    "Solution",
    "SolverConfig",
    "Stage",
    "TimeSeriesReport",
    "Topology",
    "TopologyError",
    "UnknownDevice",
    "Violation",
    "candidate_termini",
    "choose_dc",
    "choose_predeploy",
    "derive_active_streams",
    "evaluate",
    "flow_profile",
    "gen_random_walk",
    "load_bundle",
    "load_placement",
    "mini_bundle",
    "min_alloc",
    "nearest_device",
    "route",
    "save_bundle",
    "simulate",
    "solve",
    "solve_anneal",
    "solve_exhaustive",
    "solve_greedy",
    "summarize",
    "synth_bundle",
    "validate_bundle",
    "validate_topology",
]
