from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

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
    SolverConfig,
    Topology,
    candidate_termini,
    choose_dc,
    choose_predeploy,
    derive_active_streams,
    evaluate,
    min_alloc,
    solve,
    solve_anneal,
    solve_exhaustive,
    solve_greedy,
)
from tierplace.cost_model import compile_instance
from _instances import first_touch_by_parent, random_instance, reports_close, three_dc_instance


def _objective(solution):
    return (solution.report.mean_latency_ms, solution.report.total_cost)


def _objective_key(state):
    """The solvers' total order on a scored (placement, report, violation): latency, cost,
    then encoding."""
    placement, report, _ = state
    return report.mean_latency_ms, report.total_cost, placement.encode()


def _magnitude_sum(report):
    """The report's violation magnitudes, added to 0.0 left to right."""
    total = 0.0
    for violation in report.violations:
        total += violation.magnitude
    return total


def _with_deploy_cost(spec, deploy_cost):
    stages = list(spec.pipeline.stages)
    stages[0] = replace(stages[0], deploy_cost=deploy_cost)
    return replace(spec, pipeline=replace(spec.pipeline, stages=tuple(stages)))


def test_exhaustive_mini_returns_p1(mini, mini_spec, p1):
    solution = solve_exhaustive(mini.topology, mini_spec)
    assert not solution.best_effort
    assert solution.placement == p1
    assert solution.report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)
    assert solution.report.total_cost == pytest.approx(1.9716, rel=1e-9)
    assert solution.states_examined == 26


def test_exhaustive_mini_expensive_deploy_prefers_cloud(mini, mini_spec, p1, p2):
    # With deploy at 2.0 per gateway the pre-installed variant costs 5.8716
    # and busts the budget; the all-cloud placement keeps the 92 ms optimum.
    spec = _with_deploy_cost(mini_spec, 2.0)
    assert evaluate(mini.topology, spec, p1).total_cost == pytest.approx(5.8716, rel=1e-9)
    solution = solve_exhaustive(mini.topology, spec)
    assert solution.placement == p2
    assert _objective(solution) == (pytest.approx(92.0), pytest.approx(2.81))


def test_exhaustive_mini_tiny_budget_is_infeasible(mini, mini_spec):
    solution = solve_exhaustive(mini.topology, replace(mini_spec, budget=0.1))
    assert solution.best_effort


def test_exhaustive_state_count_matches_hand_enumeration(mini, mini_spec):
    # Single-DC variant: termini are dc1 and (edge1, dc1). Layer vectors per
    # terminus: Device/Gateway/Edge/Cloud (DC) and Device/Gateway/Edge
    # (edge). The Gateway vector fans out over 2^2 predeploy subsets:
    # (3 + 4) + (2 + 4) = 13 states.
    t = mini.topology
    single = Topology(
        [n for n in t.node_list if n.id != "dc2"],
        t.tree_link_list,
        [l for l in t.dc_link_list if l.dst != "dc2"],
    )
    solution = solve_exhaustive(single, mini_spec)
    assert solution.states_examined == 13
    assert solution.report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)


def test_exhaustive_respects_max_states(mini, mini_spec):
    with pytest.raises(SearchSpaceTooLarge, match="search space too large"):
        solve_exhaustive(mini.topology, mini_spec, SolverConfig(max_states=5))


def test_solve_rejects_an_unknown_solver_kind(mini, mini_spec):
    with pytest.raises(ValueError, match="^unknown solver kind: 'bogus'$"):
        solve(mini.topology, mini_spec, SolverConfig(kind="bogus"))


def test_greedy_needs_a_cloud_dc(mini, mini_spec):
    topology = Topology([n for n in mini.topology.node_list if n.layer != Layer.CLOUD],
                        mini.topology.tree_link_list)
    with pytest.raises(InvalidPlacement, match="^invalid placement: topology has no cloud DC$"):
        solve_greedy(topology, mini_spec)


def _brute_force_best(topology, spec):
    """Independent enumeration (product + monotone filter + bitmask subsets)
    of every legal placement; used to cross-check the oracle's own loop."""
    from itertools import product

    from tierplace import InvalidPlacement, Placement, derive_active_streams, min_alloc

    streams = derive_active_streams(topology, spec.scenario)
    clouds = [n.id for n in topology.clouds()]
    edges_used = {
        topology.parent_of(topology.parent_of(d).id).id
        for active in streams
        for d in active
    }
    termini = []
    if spec.pipeline.has_aggregation:
        termini += [(dc, dc) for dc in clouds]
        for edge in topology.edges():
            if edges_used <= {edge.id}:
                termini += [(edge.id, dc) for dc in clouds if topology.dc_link(edge.id, dc)]
    else:
        termini += [(None, dc) for dc in clouds]
    visited = sorted({topology.parent_of(d).id for active in streams for d in active})

    pre = spec.pipeline.pre_count
    best = None
    for agg, sink in termini:
        cap = int(topology.node(agg).layer) if agg else int(Layer.CLOUD)
        if agg is None:
            alloc = 0
        else:
            alloc = min_alloc(
                topology, spec,
                Placement(layer_of=(Layer.DEVICE,) * pre, agg_node=agg, sink_dc=sink)
            )
        for combo in product(range(4), repeat=pre):
            if any(combo[i] > combo[i + 1] for i in range(pre - 1)):
                continue
            if pre and combo[-1] > cap:
                continue
            vector = tuple(Layer(v) for v in combo)
            masks = range(2 ** len(visited)) if Layer.GATEWAY in vector else (0,)
            for mask in masks:
                predeploy = frozenset(
                    g for i, g in enumerate(visited) if mask >> i & 1
                )
                placement = Placement(
                    layer_of=vector, agg_node=agg, sink_dc=sink, predeploy=predeploy, alloc=alloc
                )
                try:
                    report = evaluate(topology, spec, placement)
                except InvalidPlacement:
                    continue
                if not report.feasible or report.total_cost > spec.budget:
                    continue
                key = (report.mean_latency_ms, report.total_cost, placement.encode())
                if best is None or key < best[0]:
                    best = (key, placement, report)
    return best


def test_exhaustive_matches_independent_brute_force(mini, mini_spec):
    cases = [(mini.topology, mini_spec)]
    for seed in (2, 8, 21):
        cases.append(random_instance(seed, max_gateways=4, max_slots=3))
    for topology, spec in cases:
        expected = _brute_force_best(topology, spec)
        solution = solve_exhaustive(topology, spec)
        assert expected is not None and not solution.best_effort
        assert solution.placement == expected[1]
        assert solution.report == expected[2]


def test_greedy_matches_oracle_on_mini(mini, mini_spec, p1):
    solution = solve_greedy(mini.topology, mini_spec)
    assert not solution.best_effort
    assert solution.placement == p1


def test_greedy_expensive_deploy_matches_oracle(mini, mini_spec):
    spec = _with_deploy_cost(mini_spec, 2.0)
    exact = solve_exhaustive(mini.topology, spec)
    greedy = solve_greedy(mini.topology, spec)
    assert greedy.placement.predeploy == frozenset()
    assert _objective(greedy) == _objective(exact)


def test_greedy_never_beats_oracle():
    for seed in range(15):
        topology, spec = random_instance(seed)
        exact = solve_exhaustive(topology, spec)
        greedy = solve_greedy(topology, spec)
        assert not exact.best_effort
        assert not greedy.best_effort
        assert _objective(greedy) >= _objective(exact)


def test_greedy_infeasible_budget(mini, mini_spec):
    solution = solve_greedy(mini.topology, replace(mini_spec, budget=0.01))
    assert solution.best_effort


def test_anneal_finds_mini_optimum(mini, mini_spec):
    cfg = SolverConfig(kind="anneal", seed=42, time_budget_ms=500.0)
    solution = solve_anneal(mini.topology, mini_spec, cfg)
    assert not solution.best_effort
    assert solution.report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)
    assert solution.report.total_cost == pytest.approx(1.9716, rel=1e-9)


def test_anneal_is_deterministic(mini, mini_spec):
    cfg = SolverConfig(kind="anneal", seed=7, time_budget_ms=10_000.0)
    a = solve_anneal(mini.topology, mini_spec, cfg)
    b = solve_anneal(mini.topology, mini_spec, cfg)
    assert a.placement == b.placement
    assert a.report == b.report
    assert a.states_examined == b.states_examined


def test_anneal_with_no_time_left_returns_its_warm_start(mini, mini_spec):
    # The deadline has passed once greedy returns: the probes stop too, so only
    # the warm start's own state is scored.
    for topology, spec in [(mini.topology, mini_spec), random_instance(4)]:
        warm = solve_greedy(topology, spec)
        cfg = SolverConfig(kind="anneal", seed=1, time_budget_ms=0.0)
        solution = solve_anneal(topology, spec, cfg)
        assert solution.states_examined == 1
        assert solution.placement == warm.placement
        assert solution.report == warm.report


def test_anneal_with_no_time_left_scores_no_new_state_after_the_first(monkeypatch):
    # On a cold instance the warm start evaluates its first state and then only
    # looks states up, so the solve stops at once with a valid answer.
    evaluated = []
    real_evaluate = solver_module.evaluate

    def counting_evaluate(topology, spec, placement):
        evaluated.append(placement)
        return real_evaluate(topology, spec, placement)

    monkeypatch.setattr(solver_module, "evaluate", counting_evaluate)
    for seed in range(6):
        topology, spec = random_instance(seed)
        evaluated.clear()
        cfg = SolverConfig(kind="anneal", seed=seed, time_budget_ms=0.0)
        solution = solve_anneal(topology, spec, cfg)
        assert solution.states_examined <= 2
        assert len(evaluated) <= 2
        assert real_evaluate(topology, spec, solution.placement) == solution.report


def test_anneal_stops_mid_temperature_at_its_deadline(monkeypatch):
    # The clock passes the deadline on the walk's third move, after the 16 probe moves:
    # the first temperature step stops there, 47 moves short, and the answer is the best
    # feasible in-budget state the anneal tracker was offered.
    proposed, trackers = [], []
    real_proposer, real_best = solver_module._proposer, solver_module._Best

    def counting_proposer(*args):
        propose = real_proposer(*args)

        def counted(state):
            proposed.append(state)
            return propose(state)
        return counted

    class Tracker(real_best):
        def __init__(self, *args):
            super().__init__(*args)
            trackers.append(self)

    clock = SimpleNamespace(monotonic=lambda: 1e9 if len(proposed) >= 16 + 3 else 0.0)
    monkeypatch.setattr(solver_module, "time", clock)
    monkeypatch.setattr(solver_module, "_proposer", counting_proposer)
    monkeypatch.setattr(solver_module, "_Best", Tracker)
    topology, spec = random_instance(3)
    solution = solve_anneal(topology, spec, SolverConfig(kind="anneal", seed=3))
    assert len(proposed) == 16 + 3
    tracker = trackers[0]  # anneal's own; the greedy warm start builds the second
    offered = [tracker.instance.scored[state] for state, energy in tracker.energies.items()
               if energy is not None]
    within = [(r.mean_latency_ms, r.total_cost, p.encode()) for p, r, _ in offered
              if r.feasible and r.total_cost <= spec.budget]
    assert not solution.best_effort
    assert solution.placement.encode() == min(within)[2]
    assert (solution.placement, solution.report) == tracker.best[1:]


def _reference_proposer(rng, termini, tops, visited):
    """Anneal's move as first written, with `randrange` and `choice`."""

    def propose(state):
        vector, terminus, predeploy = state
        for _ in range(8):
            move = rng.randrange(3)
            if move == 0 and vector:
                k = rng.randrange(len(vector))
                level = vector[k] + rng.choice((-1, 1))
                high = vector[k + 1] if k + 1 < len(vector) else tops[terminus]
                if not (vector[k - 1] if k else 0) <= level <= high:
                    continue
                new_vector, new_terminus = vector[:k] + (Layer(level),) + vector[k + 1:], terminus
            elif move == 1 and len(termini) > 1:
                new_terminus = rng.choice(termini)
                if new_terminus == terminus:
                    continue
                new_vector = tuple(min(layer, tops[new_terminus]) for layer in vector)
            elif move == 2 and visited and Layer.GATEWAY in vector:
                return vector, terminus, predeploy ^ {rng.choice(visited)}
            else:
                continue
            empty = Layer.GATEWAY not in new_vector
            return new_vector, new_terminus, frozenset() if empty else predeploy
        return None

    return propose


def _single_dc(topology):
    nodes = [n for n in topology.node_list if n.id != "dc2"]
    return Topology(nodes, topology.tree_link_list,
                    [l for l in topology.dc_link_list if l.dst != "dc2"])


def test_proposer_moves_and_draws_like_randrange_and_choice():
    """In lockstep with the reference, anneal's proposer returns the same state or None
    at every step of a seeded walk that revisits states, and leaves its Random in the
    same state: the successor table and the inline draws change no seeded walk."""
    cases = [random_instance(seed) for seed in range(10)]
    cases += [three_dc_instance(seed, active_edges=1) for seed in range(2)]
    topology, spec = random_instance(4)  # two per-stream stages and a merged one
    stages = spec.pipeline.stages
    merge_only = Pipeline(stages[-1:], aggregation_index=1)
    no_merge = Pipeline(stages[:-1], aggregation_index=len(stages))
    cases += [(topology, replace(spec, pipeline=merge_only)),
              (topology, replace(spec, pipeline=no_merge)),
              (_single_dc(topology), spec),
              (_single_dc(topology), replace(spec, pipeline=no_merge))]
    seen = {"none": 0, "predeploy": 0, "one terminus": 0, "no stage": 0}
    for topology, spec in cases:
        termini = candidate_termini(topology, spec)
        tops = {terminus: solver_module._top(topology, terminus[0]) for terminus in termini}
        visited = sorted(compile_instance(topology, spec).first_touch)
        pre = spec.pipeline.pre_count
        seen["one terminus"] += len(termini) == 1
        seen["no stage"] += pre == 0
        for seed in (1, 7):
            ours, theirs, walk = random.Random(seed), random.Random(seed), random.Random(-seed)
            propose = solver_module._proposer(ours.getrandbits, termini, tops, visited, pre)
            reference = _reference_proposer(theirs, termini, tops, visited)
            state = ((tops[termini[0]],) * pre, termini[0], frozenset())
            for step in range(300):
                expected = reference(state)
                assert propose(state) == expected, (spec.pipeline, seed, step)
                if expected is None:
                    seen["none"] += 1
                elif walk.random() < 0.5:
                    state = expected
                    seen["predeploy"] += bool(state[2])
            assert ours.getstate() == theirs.getstate()
    assert all(seen.values()), seen


def test_cold_anneal_scores_each_distinct_state_once(monkeypatch):
    real_score, real_evaluate = solver_module._Best.score, solver_module.evaluate
    states, valid, evaluated = set(), set(), []

    def recording_score(self, vector, terminus, predeploy=frozenset()):
        scored = real_score(self, vector, terminus, predeploy)
        state = (vector, terminus, predeploy)
        states.add(state)
        if scored is not None:
            valid.add(state)
        return scored

    def counting_evaluate(topology, spec, placement):
        evaluated.append(placement)
        return real_evaluate(topology, spec, placement)

    monkeypatch.setattr(solver_module._Best, "score", recording_score)
    monkeypatch.setattr(solver_module, "evaluate", counting_evaluate)
    for seed in range(6):
        topology, spec = random_instance(seed)
        for collected in (states, valid, evaluated):
            collected.clear()
        cfg = SolverConfig(kind="anneal", seed=seed, time_budget_ms=600000.0)
        solution = solve_anneal(topology, spec, cfg)
        assert solution.states_examined > 10 * len(valid)  # the walk revisits states
        assert len(evaluated) <= len(states)
        assert len({placement.encode() for placement in evaluated}) == len(evaluated)
        # Each valid state's magnitude sum is stored once, with its report.
        stored = [entry for entry in compile_instance(topology, spec).scored.values() if entry]
        assert len(stored) == len(valid)
        for placement, report, magnitudes in stored:
            assert magnitudes == _magnitude_sum(report), placement


def test_warm_anneal_sums_no_violation_magnitudes():
    """A re-solve reads each state's magnitude sum from the instance's table: no
    magnitude is added again, though the walk is new to the solve's own tracker."""
    added = []

    class Counted(float):
        def __radd__(self, other):
            added.append(self)
            return float(other) + float(self)

    topology, generated = random_instance(4)
    spec = replace(generated, budget=generated.budget * 0.2)
    cfg = SolverConfig(kind="anneal", seed=3, time_budget_ms=600000.0)
    cold = solve_anneal(topology, spec, cfg)
    table = compile_instance(topology, spec).scored
    wrapped = 0
    for state, entry in table.items():
        if entry is not None and entry[1].violations:
            violations = tuple(replace(v, magnitude=Counted(v.magnitude))
                               for v in entry[1].violations)
            table[state] = (entry[0], replace(entry[1], violations=violations), *entry[2:])
            wrapped += 1
    assert wrapped > 10
    warm = solve_anneal(topology, spec, cfg)
    assert added == []
    assert (warm.placement, warm.report, warm.states_examined) == (
        cold.placement, cold.report, cold.states_examined)


def test_anneal_solutions_respect_constraints():
    for seed in (3, 11, 27):
        topology, spec = random_instance(seed, max_gateways=10)
        cfg = SolverConfig(kind="anneal", seed=seed, time_budget_ms=800.0)
        solution = solve_anneal(topology, spec, cfg)
        assert not solution.best_effort
        recheck = evaluate(topology, spec, solution.placement)
        assert reports_close(recheck, solution.report)
        assert recheck.feasible
        assert recheck.total_cost <= spec.budget


def test_anneal_never_beats_oracle():
    for seed in (0, 6, 14):
        topology, spec = random_instance(seed)
        exact = solve_exhaustive(topology, spec)
        anneal = solve_anneal(
            topology, spec, SolverConfig(kind="anneal", seed=99, time_budget_ms=600.0)
        )
        assert not anneal.best_effort
        assert _objective(anneal) >= _objective(exact)


def test_solutions_reevaluate_exactly():
    for seed in range(8):
        topology, spec = random_instance(seed)
        for solver in (solve_exhaustive, solve_greedy):
            solution = solver(topology, spec)
            again = evaluate(topology, spec, solution.placement)
            assert again == solution.report


def test_budget_monotonicity():
    for seed in range(6):
        topology, spec = random_instance(seed)
        budgets = [spec.budget * f for f in (0.8, 1.0, 1.5)]
        latencies = []
        for budget in budgets:
            solution = solve_exhaustive(topology, replace(spec, budget=budget))
            if not solution.best_effort:
                latencies.append(solution.report.mean_latency_ms)
        assert latencies == sorted(latencies, reverse=True)


def test_choose_dc_mini(mini, mini_spec):
    assert choose_dc(mini.topology, mini_spec) == "dc1"


def _two_edge_topology(lat1, lat2):
    # Three cameras behind edgeA (weight 3), one behind edgeB (weight 1).
    nodes = [
        Node("camA1", Layer.DEVICE, parent="gwA", location=(0.0, 0.0)),
        Node("camA2", Layer.DEVICE, parent="gwA", location=(1.0, 0.0)),
        Node("camA3", Layer.DEVICE, parent="gwA", location=(2.0, 0.0)),
        Node("camB1", Layer.DEVICE, parent="gwB", location=(50.0, 0.0)),
        Node("gwA", Layer.GATEWAY, parent="edgeA", capacity_cpu=4.0),
        Node("gwB", Layer.GATEWAY, parent="edgeB", capacity_cpu=4.0),
        Node("edgeA", Layer.EDGE, capacity_cpu=8.0),
        Node("edgeB", Layer.EDGE, capacity_cpu=8.0),
        Node("dc1", Layer.CLOUD, capacity_cpu=100.0, cpu_cost_rate=0.2),
        Node("dc2", Layer.CLOUD, capacity_cpu=100.0, cpu_cost_rate=0.2),
    ]
    tree = [
        Link("camA1", "gwA"),
        Link("camA2", "gwA"),
        Link("camA3", "gwA"),
        Link("camB1", "gwB"),
        Link("gwA", "edgeA"),
        Link("gwB", "edgeB"),
    ]
    dc = [
        Link("edgeA", "dc1", latency_ms=lat1[0]),
        Link("edgeB", "dc1", latency_ms=lat1[1]),
        Link("edgeA", "dc2", latency_ms=lat2[0]),
        Link("edgeB", "dc2", latency_ms=lat2[1]),
    ]
    return Topology(nodes, tree, dc)


def test_choose_dc_weighted_edges(mini):
    topology = _two_edge_topology(lat1=(10.0, 50.0), lat2=(30.0, 5.0))
    slots = [
        Slot.explicit(["camA1", "camB1"]),
        Slot.explicit(["camA2"]),
        Slot.explicit(["camA3"]),
    ]
    scenario = Scenario(slot_seconds=3600.0, slots=tuple(slots), source_rate_mbps=4.0)
    spec = ServiceSpec(pipeline=mini.pipeline, scenario=scenario, budget=1000.0)
    # dc1: 3*10 + 1*50 = 80; dc2: 3*30 + 1*5 = 95.
    assert compile_instance(topology, spec).serving_dcs == {"dc1": 80.0, "dc2": 95.0}
    assert choose_dc(topology, spec) == "dc1"
    # A DC that a used edge does not reach cannot be the sink.
    links = [l for l in topology.dc_link_list if l.key != "edgeB->dc1"]
    one = Topology(topology.node_list, topology.tree_link_list, links)
    assert compile_instance(one, spec).serving_dcs == {"dc2": 95.0}
    assert choose_dc(one, spec) == "dc2"
    # With no DC linked from every used edge, the first DC by id, although dc2's one link
    # (edgeB, weight 1, 5 ms) is cheaper than dc1's (edgeA, weight 3, 10 ms).
    links = [l for l in links if l.key != "edgeA->dc2"]
    split = Topology(topology.node_list, topology.tree_link_list, links)
    assert compile_instance(split, spec).serving_dcs == {}
    assert choose_dc(split, spec) == "dc1"


def test_choose_dc_tie_breaks_by_id(mini):
    topology = _two_edge_topology(lat1=(10.0, 10.0), lat2=(10.0, 10.0))
    scenario = Scenario(
        slot_seconds=3600.0, slots=(Slot.explicit(["camA1"]),), source_rate_mbps=4.0
    )
    spec = ServiceSpec(pipeline=mini.pipeline, scenario=scenario, budget=1000.0)
    assert choose_dc(topology, spec) == "dc1"


def test_choose_predeploy_ample_budget(mini, mini_spec, p3):
    chosen = choose_predeploy(mini.topology, mini_spec, p3, remaining_budget=10.0)
    assert chosen == frozenset({"gw1", "gw2"})


def test_choose_predeploy_zero_benefit(mini, mini_spec, p2, p3):
    stages = list(mini_spec.pipeline.stages)
    stages[0] = replace(stages[0], dispatch_penalty_ms=0.0, deploy_cost=0.5, dispatch_cost=0.01)
    spec = replace(mini_spec, pipeline=replace(mini_spec.pipeline, stages=tuple(stages)))
    assert choose_predeploy(mini.topology, spec, p3, remaining_budget=10.0) == frozenset()
    # A vector with no gateway-tier stage has nothing to pre-install.
    assert choose_predeploy(mini.topology, mini_spec, p2, remaining_budget=10.0) == frozenset()


def test_choose_predeploy_free_deploy_takes_all(mini, mini_spec, p3):
    stages = list(mini_spec.pipeline.stages)
    stages[0] = replace(stages[0], deploy_cost=0.0)
    spec = replace(mini_spec, pipeline=replace(mini_spec.pipeline, stages=tuple(stages)))
    assert choose_predeploy(mini.topology, spec, p3, remaining_budget=0.0) == frozenset(
        {"gw1", "gw2"}
    )


def test_choose_predeploy_respects_budget(mini, mini_spec, p3):
    # Each gateway nets 0.05 - 0.02 = 0.03; only one fits in 0.04.
    chosen = choose_predeploy(mini.topology, mini_spec, p3, remaining_budget=0.04)
    assert chosen == frozenset({"gw1"})


def test_no_aggregation_pipeline_end_to_end(mini, mini_spec):
    # K = 1, aggregation index 2: no merged stage, the placement names only
    # a sink DC and the reservation stays 0.
    pipeline = replace(mini_spec.pipeline, stages=(mini_spec.pipeline.stages[0],))
    spec = replace(mini_spec, pipeline=pipeline)
    exact = solve_exhaustive(mini.topology, spec)
    assert exact.placement.agg_node is None
    assert exact.placement.sink_dc == "dc1"
    assert exact.placement.alloc == 0
    assert exact.report.mean_latency_ms == pytest.approx(72.0, rel=1e-9)
    greedy = solve_greedy(mini.topology, spec)
    assert _objective(greedy) == _objective(exact)
    anneal = solve_anneal(
        mini.topology, spec, SolverConfig(kind="anneal", seed=5, time_budget_ms=400.0)
    )
    assert _objective(anneal) == _objective(exact)
    from tierplace import simulate, summarize

    assert summarize(simulate(mini.topology, spec, exact.placement)) == exact.report


def test_exhaustive_and_greedy_are_deterministic(mini, mini_spec):
    a, b = solve_exhaustive(mini.topology, mini_spec), solve_exhaustive(mini.topology, mini_spec)
    assert (a.placement, a.report, a.states_examined) == (b.placement, b.report, b.states_examined)
    c, d = solve_greedy(mini.topology, mini_spec), solve_greedy(mini.topology, mini_spec)
    assert (c.placement, c.report) == (d.placement, d.report)


def _predeploy_instances(seeds):
    """random_instance as generated, and again with three crowded explicit
    slots, in which gateways serve different numbers of first-slot streams."""
    for seed in seeds:
        topology, spec = random_instance(seed)
        yield topology, spec
        rng = random.Random(seed)
        cams = [node.id for node in topology.devices()]
        slots = tuple(Slot.explicit(rng.sample(cams, rng.randint(1, len(cams)))) for _ in range(3))
        yield topology, replace(spec, scenario=replace(spec.scenario, slots=slots))


def test_choose_predeploy_is_the_per_vector_optimum():
    # Within one terminus and layer vector, no predeploy subset within budget
    # beats the chosen set on (mean latency, total cost).
    cases = partial = 0
    for topology, base_spec in _predeploy_instances(range(30)):
        for factor in (0.3, 0.7, 1.0, 3.0):
            spec = replace(base_spec, budget=base_spec.budget * factor)
            visited = sorted(
                first_touch_by_parent(topology, derive_active_streams(topology, spec.scenario))
            )
            for agg, sink in candidate_termini(topology, spec):
                top = int(topology.node(agg).layer) if agg else int(Layer.CLOUD)
                for combo in itertools.combinations_with_replacement(
                    range(top + 1), spec.pipeline.pre_count
                ):
                    vector = tuple(Layer(v) for v in combo)
                    if Layer.GATEWAY not in vector:
                        continue
                    base = Placement(layer_of=vector, agg_node=agg, sink_dc=sink)
                    if agg is not None:
                        base = replace(base, alloc=min_alloc(topology, spec, base))
                    base_cost = evaluate(topology, spec, base).total_cost
                    if base_cost > spec.budget:
                        continue
                    chosen = choose_predeploy(topology, spec, base, spec.budget - base_cost)
                    report = evaluate(topology, spec, replace(base, predeploy=chosen))
                    assert report.total_cost <= spec.budget
                    best = min(
                        (r.mean_latency_ms, r.total_cost)
                        for r in (
                            evaluate(topology, spec, replace(base, predeploy=frozenset(s)))
                            for size in range(len(visited) + 1)
                            for s in itertools.combinations(visited, size)
                        )
                        if r.total_cost <= spec.budget
                    )
                    # Gateways with equal stream counts tie up to the order
                    # of the latency sum, so ties may differ in the last bits.
                    assert (report.mean_latency_ms, report.total_cost) == pytest.approx(
                        best, rel=1e-12
                    )
                    cases += 1
                    partial += 0 < len(chosen) < len(visited)
    assert cases > 900 and partial > 30  # partial: the budget cuts the prefix short


def test_states_examined_counts_returned_evaluations(monkeypatch):
    real_score, real_energy = solver_module._Best.score, solver_module._Best.energy
    returned, walked = [], []

    def counting_score(self, *args):
        scored = real_score(self, *args)
        if scored is not None:
            returned.append(scored)
        return scored

    def counting_energy(self, state):
        value = real_energy(self, state)
        if math.isfinite(value):
            walked.append(state)
        return value

    monkeypatch.setattr(solver_module._Best, "score", counting_score)
    monkeypatch.setattr(solver_module._Best, "energy", counting_energy)
    for seed in range(6):
        topology, spec = random_instance(seed)
        returned.clear()
        assert solve_greedy(topology, spec).states_examined == len(returned)

        walked.clear()
        cfg = SolverConfig(
            kind="anneal", seed=seed, time_budget_ms=600000.0, cooling=0.8, iters_per_temp=10
        )
        solution = solve_anneal(topology, spec, cfg)
        # Every valid state of the walk counts, revisits included; the greedy
        # warm start's states, scored through `score`, do not.
        assert solution.states_examined == len(walked)


def test_greedy_step_keeps_the_tied_trial_of_least_encoding(monkeypatch):
    """With every price and latency zero and room on every node, all trials of a greedy
    step tie on (mean latency, total cost). Each step keeps the one of least encoding,
    as `min(trials, key=_objective_key)` would: the lowest vector, from which the next
    steps only lower stages that already sit on the device tier."""
    real_score, vectors = solver_module._Best.score, set()

    def recording_score(self, vector, *args):
        vectors.add(vector)
        return real_score(self, vector, *args)

    monkeypatch.setattr(solver_module._Best, "score", recording_score)
    for seed in range(6):
        topology, spec = random_instance(seed, max_pre_stages=3)
        nodes = [replace(n, capacity_cpu=1e6, cpu_cost_rate=0.0) for n in topology.node_list]
        links = [[replace(l, latency_ms=0.0, traffic_cost_rate=0.0, bandwidth_mbps=None)
                  for l in group] for group in (topology.tree_link_list, topology.dc_link_list)]
        stages = tuple(replace(s, base_ms=0.0, deploy_cost=0.0, dispatch_cost=0.0,
                               dispatch_penalty_ms=0.0) for s in spec.pipeline.stages)
        free = Topology(nodes, *links)
        spec = replace(spec, pipeline=replace(spec.pipeline, stages=stages), budget=1.0)
        vectors.clear()
        solution = solve_greedy(free, spec)
        pre = spec.pipeline.pre_count
        assert solution.report.total_cost == solution.report.mean_latency_ms == 0.0
        assert solution.placement.layer_of == (Layer.DEVICE,) * pre, seed
        assert vectors == {(layer,) * pre for layer in Layer}, seed


def test_each_greedy_step_keeps_the_least_in_budget_trial(monkeypatch):
    """Replays greedy's scans from the states it completes (a base state, then its
    predeploy set's state when it has one). A scan starts at the terminus's top vector
    and, when that fits, runs one step per stage from the merged end; a step's trials
    put stage k on each tier up to its own, clamping earlier stages. Each step's trials
    must follow from the trial the reference kept at the step before: the least
    (mean latency, total cost, encoding) of those in budget. A scan's last step feeds
    no later one, so only the answer, checked by the tests around this one, shows it."""
    real_score = solver_module._Best.score
    completed = []  # [terminus, vector, outcome], one per completed state

    def recording_score(self, vector, terminus, *predeploy):
        outcome = real_score(self, vector, terminus, *predeploy)
        if predeploy:
            completed[-1][2] = outcome
        else:
            completed.append([terminus, vector, outcome])
        return outcome

    monkeypatch.setattr(solver_module._Best, "score", recording_score)
    choices = 0  # steps that fed a later step and had in-budget trials of unequal keys
    for seed in range(40):
        topology, generated = random_instance(seed, max_pre_stages=3)
        pre = generated.pipeline.pre_count
        for factor in (0.2, 0.67, 2.0):
            spec = replace(generated, budget=generated.budget * factor)

            def fits(outcome):
                return outcome is not None and outcome[1].feasible and (
                    outcome[1].total_cost <= spec.budget)

            completed.clear()
            solve_greedy(topology, spec)
            states = iter(completed)
            for terminus, vector, outcome in states:
                assert vector == (solver_module._top(topology, terminus[0]),) * pre
                if not fits(outcome):
                    continue
                for k in range(pre - 1, -1, -1):
                    levels = map(Layer, range(vector[k] + 1))
                    expected = [tuple(min(layer, level) for layer in vector[:k]) + (level,)
                                + vector[k + 1:] for level in levels]
                    trials = list(itertools.islice(states, len(expected)))
                    assert [(t, v) for t, v, _ in trials] == [(terminus, v) for v in expected]
                    kept = sorted((o for _, _, o in trials if fits(o)), key=_objective_key)
                    if kept:
                        vector = kept[0][0].layer_of
                        tied = _objective_key(kept[0])[:2] == _objective_key(kept[-1])[:2]
                        choices += k > 0 and not tied
    assert choices > 50, choices


def test_greedy_answers_with_the_best_state_it_scored(monkeypatch):
    real_score = solver_module._Best.score
    scored = []

    def recording_score(self, *args):
        state = real_score(self, *args)
        if state is not None:
            scored.append(state)
        return state

    monkeypatch.setattr(solver_module._Best, "score", recording_score)
    outcomes = set()
    for seed in range(60):
        topology, generated = random_instance(seed)
        for factor in (0.03, 0.2, 0.47, 0.67, 2.0):
            spec = replace(generated, budget=generated.budget * factor)
            scored.clear()
            solution = solve_greedy(topology, spec)
            answer = (solution.placement, solution.report)
            for placement, report, violation in scored:
                excess = max(0.0, report.total_cost - spec.budget)
                assert violation == excess + _magnitude_sum(report), placement
            fits = [s for s in scored if s[1].feasible and s[1].total_cost <= spec.budget]
            if fits:
                assert answer == min(fits, key=_objective_key)[:2]
            else:
                def least_violating(state):
                    return state[2], state[0].encode()

                assert answer == min(scored, key=least_violating)[:2]
            assert solution.best_effort == (not fits)
            outcomes.add(solution.best_effort)
    assert outcomes == {False, True}
