"""Acceptance suite: the exit criteria for the package, one test per
criterion, each printing a PASS/FAIL line (run with -s to see them all)."""

from __future__ import annotations

import csv
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import tierplace
from tierplace import (
    Layer,
    SolverConfig,
    evaluate,
    mini_bundle,
    save_bundle,
    simulate,
    solve_anneal,
    solve_exhaustive,
    solve_greedy,
    summarize,
    synth_bundle,
)
from tierplace.cli import main
from tierplace.workload import derive_active_streams
from _instances import (
    first_touch_by_parent,
    random_instance,
    random_placement,
    reports_close,
    scale_costs,
)


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    hits = 0
    total = 30
    for seed in range(total):
        topology, spec = random_instance(seed)
        exact = solve_exhaustive(topology, spec)
        assert not exact.best_effort
        instance_ok = True
        for solution in (
            solve_greedy(topology, spec),
            solve_anneal(topology, spec,
                         SolverConfig(kind="anneal", seed=1234, time_budget_ms=1000.0)),
        ):
            assert not solution.best_effort
            recheck = evaluate(topology, spec, solution.placement)
            assert recheck.feasible, "heuristic returned a capacity violation"
            assert recheck.total_cost <= spec.budget, "heuristic busted the budget"
            if recheck.mean_latency_ms > exact.report.mean_latency_ms * 1.10:
                instance_ok = False
        hits += instance_ok
    elapsed = time.monotonic() - started
    _check(
        1,
        "oracle equivalence",
        hits >= 27 and elapsed < 60.0,
        f"{hits}/{total} within 10%, {elapsed:.1f}s",
    )


def test_criterion_2_mini_ground_truth():
    bundle = mini_bundle()
    solution = solve_exhaustive(bundle.topology, bundle.service_spec())
    ok = (
        not solution.best_effort
        and solution.placement.layer_of == (Layer.GATEWAY,)
        and solution.placement.agg_node == "dc1"
        and solution.placement.predeploy == frozenset({"gw1", "gw2"})
        and solution.placement.alloc == 1
        and solution.report.total_cost == pytest.approx(1.9716, rel=1e-9)
        and solution.report.mean_latency_ms == pytest.approx(92.0, rel=1e-9)
    )
    _check(2, "canonical ground truth", ok,
           f"objective ({solution.report.mean_latency_ms}, {solution.report.total_cost})")


def test_criterion_3_model_simulator_agreement():
    rng = random.Random(2024)
    pairs = 0
    ok = True
    for seed in range(25):
        topology, spec = random_instance(seed)
        for _ in range(4):
            placement = random_placement(topology, spec, rng)
            direct = evaluate(topology, spec, placement)
            replayed = summarize(simulate(topology, spec, placement))
            if not reports_close(direct, replayed, rel=1e-9):
                ok = False
            pairs += 1
    _check(3, "model/simulator agreement", ok and pairs == 100, f"{pairs} pairs")


def test_criterion_4_cost_scaling_law():
    bundle = mini_bundle()
    spec = bundle.service_spec()
    rng = random.Random(9)
    cases = [(bundle.topology, spec, random_placement(bundle.topology, spec, rng))]
    for seed in (5, 17):
        topology, rspec = random_instance(seed)
        cases.append((topology, rspec, random_placement(topology, rspec, rng)))
    ok = True
    for topology, case_spec, placement in cases:
        base = evaluate(topology, case_spec, placement)
        for alpha in (0.5, 3.0, 10.0):
            topo2, pipe2 = scale_costs(topology, case_spec.pipeline, alpha)
            scaled = evaluate(topo2, replace(case_spec, pipeline=pipe2), placement)
            for field in (
                "server_cost",
                "network_cost",
                "deploy_cost",
                "dispatch_cost",
                "total_cost",
            ):
                got = getattr(scaled, field)
                want = getattr(base, field) * alpha
                if got != pytest.approx(want, rel=1e-9):
                    ok = False
            if (
                scaled.mean_latency_ms != base.mean_latency_ms
                or scaled.max_latency_ms != base.max_latency_ms
            ):
                ok = False
    _check(4, "cost scaling law", ok)


def test_criterion_5_network_cost_monotonicity():
    rng = random.Random(55)
    raises_checked = 0
    ok = True
    for seed in range(20):
        topology, spec = random_instance(seed)
        placement = replace(random_placement(topology, spec, rng), predeploy=frozenset())
        base = evaluate(topology, spec, placement).network_cost
        pre = spec.pipeline.pre_count
        agg_layer = (
            topology.node(placement.agg_node).layer if placement.agg_node else Layer.CLOUD
        )
        for k in range(pre):
            if spec.pipeline.stages[k].reduction > 1.0:
                continue
            ceiling = placement.layer_of[k + 1] if k + 1 < pre else agg_layer
            lifted_level = int(placement.layer_of[k]) + 1
            if lifted_level > int(ceiling):
                continue
            layers = list(placement.layer_of)
            layers[k] = Layer(lifted_level)
            raised = replace(placement, layer_of=tuple(layers))
            if evaluate(topology, spec, raised).network_cost < base - 1e-12:
                ok = False
            raises_checked += 1
    _check(5, "network-cost monotonicity", ok and raises_checked > 0, f"{raises_checked} raises")


def _limit_case_spec(spec, *, penalty, deploy, dispatch):
    stages = list(spec.pipeline.stages)
    for k in range(spec.pipeline.pre_count):
        stages[k] = replace(
            stages[k],
            dispatch_penalty_ms=penalty,
            deploy_cost=deploy,
            dispatch_cost=dispatch,
        )
    return replace(spec, pipeline=replace(spec.pipeline, stages=tuple(stages)))


def test_criterion_6_predeploy_limit_cases():
    specs = [(mini_bundle().topology, mini_bundle().service_spec())]
    for seed in (1, 4, 13):
        specs.append(random_instance(seed))
    ok = True
    gateway_optima = 0
    for topology, spec in specs:
        no_benefit = _limit_case_spec(spec, penalty=0.0, deploy=0.05, dispatch=0.0)
        solution = solve_exhaustive(topology, no_benefit)
        if not solution.best_effort and solution.placement.predeploy != frozenset():
            ok = False

        free_deploy = _limit_case_spec(spec, penalty=500.0, deploy=0.0, dispatch=0.02)
        solution = solve_exhaustive(topology, free_deploy)
        if not solution.best_effort and Layer.GATEWAY in solution.placement.layer_of:
            gateway_optima += 1
            visited = frozenset(
                first_touch_by_parent(topology, derive_active_streams(topology, spec.scenario))
            )
            if solution.placement.predeploy != visited:
                ok = False
    _check(6, "predeploy limit cases", ok and gateway_optima >= 1,
           f"{gateway_optima} gateway optima")


def test_criterion_7_determinism(tmp_path):
    bundle_path = tmp_path / "mini.json"
    save_bundle(mini_bundle(), bundle_path)

    gen_a, gen_b = tmp_path / "gen_a.json", tmp_path / "gen_b.json"
    gen_args = ["gen", "--devices", "8", "--slots", "10", "--seed", "1"]
    assert main(gen_args + ["--out", str(gen_a)]) == 0
    assert main(gen_args + ["--out", str(gen_b)]) == 0
    gen_ok = gen_a.read_bytes() == gen_b.read_bytes()

    # Time budget far above the schedule length so wall-clock truncation
    # cannot cut the run short; completed schedules are bit-reproducible.
    solve_args = [
        "solve",
        str(bundle_path),
        "--solver",
        "anneal",
        "--seed",
        "42",
        "--time-budget-ms",
        "10000",
    ]
    # Each run is a fresh interpreter under its own string-hash seed, so the
    # iteration order of sets and frozensets of ids differs between runs.
    src = str(Path(tierplace.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1", "2"):
        out = tmp_path / f"hash_{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        command = [sys.executable, "-m", "tierplace.cli", *solve_args, "--out", str(out)]
        assert subprocess.run(command, env=env, capture_output=True, timeout=120).returncode == 0
        outputs.append(out.read_bytes())
    anneal_ok = len(set(outputs)) == 1

    _check(7, "seeded determinism", gen_ok and anneal_ok)


def test_criterion_8_anneal_time_budget():
    bundle = synth_bundle(devices=200, slots=50, step=15.0, seed=8)
    assert len(bundle.topology.layer(Layer.GATEWAY)) == 100
    assert len(bundle.scenario.slots) == 50
    cfg = SolverConfig(kind="anneal", seed=3, time_budget_ms=1000.0)
    started = time.monotonic()
    solution = solve_anneal(bundle.topology, bundle.service_spec(), cfg)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    ok = elapsed_ms <= cfg.time_budget_ms + 100.0 and elapsed_ms < 10_000.0
    _check(8, "anneal time budget", ok and solution is not None, f"{elapsed_ms:.0f} ms")


def test_criterion_9_budget_sweep_sanity(tmp_path):
    bundle_path = tmp_path / "mini.json"
    save_bundle(mini_bundle(), bundle_path)
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            str(bundle_path),
            "--budgets",
            "0.1",
            "1.95",
            "2.5",
            "5.0",
            "--csv",
            str(csv_path),
        ]
    )
    rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
    latencies = [
        float(row["mean_latency_ms"]) for row in rows if row["feasible"] == "true"
    ]
    ok = code == 0 and latencies == sorted(latencies, reverse=True) and len(latencies) >= 2
    _check(9, "budget sweep sanity", ok, f"latencies {latencies}")
