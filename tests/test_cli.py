from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

from tierplace import mini_bundle, save_bundle
from tierplace.bundle import bundle_to_json, dumps, placement_to_json
from tierplace.cli import main


@pytest.fixture
def mini_path(tmp_path):
    path = tmp_path / "mini.json"
    save_bundle(mini_bundle(), path)
    return str(path)


def test_validate_ok(mini_path, capsys):
    assert main(["validate", mini_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_flags_broken_bundle(tmp_path, capsys):
    bundle = mini_bundle()
    from tierplace import Topology

    broken = replace(
        bundle,
        topology=Topology(
            [n for n in bundle.topology.node_list if n.id != "gw1"],
            bundle.topology.tree_link_list,
            bundle.topology.dc_link_list,
        ),
    )
    path = tmp_path / "broken.json"
    save_bundle(broken, path)
    assert main(["validate", str(path)]) == 3
    assert "violation" in capsys.readouterr().out


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 3


def test_solve_exact_writes_p1(mini_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", mini_path, "--solver", "exact", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["placement"]["layer_of"] == ["Gateway"]
    assert data["placement"]["agg_node"] == "dc1"
    assert data["placement"]["predeploy"] == ["gw1", "gw2"]
    assert data["placement"]["alloc"] == 1
    assert data["report"]["mean_latency_ms"] == pytest.approx(92.0)
    assert data["report"]["total_cost"] == pytest.approx(1.9716)
    assert not data["best_effort"]


def test_solve_budget_override_infeasible(mini_path):
    assert main(["solve", mini_path, "--budget", "0.1"]) == 2


def test_solve_max_states_limit(mini_path):
    assert main(["solve", mini_path, "--solver", "exact", "--max-states", "5"]) == 4


def test_solve_unreadable_bundle(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json"), "--solver", "exact"]) == 3


def test_simulate_matches_solver_report(mini_path, tmp_path):
    solution_path = tmp_path / "solution.json"
    main(["solve", mini_path, "--solver", "exact", "--out", str(solution_path)])
    csv_path = tmp_path / "slots.csv"
    assert main(["simulate", mini_path, str(solution_path), "--csv", str(csv_path)]) == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert [row["slot"] for row in rows] == ["0", "1"]
    assert [row["active_devices"] for row in rows] == ["cam1", "cam3"]
    assert float(rows[0]["mean_latency_ms"]) == pytest.approx(92.0)
    total_network = sum(float(row["network_cost"]) for row in rows)
    assert total_network == pytest.approx(0.0216, rel=1e-9)


def test_simulate_overload_exits_2(tmp_path, p1):
    bundle = mini_bundle()
    overloaded = replace(
        bundle, scenario=replace(bundle.scenario, source_rate_mbps=100.0)
    )
    bundle_path = tmp_path / "hot.json"
    save_bundle(overloaded, bundle_path)
    placement_path = tmp_path / "p1.json"
    placement_path.write_text(dumps(placement_to_json(p1)), encoding="utf-8")
    assert main(["simulate", str(bundle_path), str(placement_path)]) == 2


def test_simulate_unknown_node_exits_3(mini_path, tmp_path, p1):
    placement_path = tmp_path / "bad.json"
    data = placement_to_json(p1)
    data["agg_node"] = "dc9"
    data["sink_dc"] = "dc9"
    placement_path.write_text(dumps(data), encoding="utf-8")
    assert main(["simulate", mini_path, str(placement_path)]) == 3


def test_sweep_rows_and_exit(mini_path, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = main(
        ["sweep", mini_path, "--budgets", "0.1", "2.0", "5.0", "--csv", str(csv_path)]
    )
    assert code == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert [row["budget"] for row in rows] == ["0.1", "2.0", "5.0"]
    assert [row["feasible"] for row in rows] == ["false", "true", "true"]
    feasible_latencies = [
        float(row["mean_latency_ms"]) for row in rows if row["feasible"] == "true"
    ]
    assert feasible_latencies == sorted(feasible_latencies, reverse=True)
    assert feasible_latencies == [pytest.approx(92.0), pytest.approx(92.0)]


def test_sweep_single_budget(mini_path, tmp_path):
    csv_path = tmp_path / "one.csv"
    assert main(["sweep", mini_path, "--budgets", "5.0", "--csv", str(csv_path)]) == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 1


def test_sweep_all_infeasible_exits_2(mini_path, tmp_path):
    csv_path = tmp_path / "none.csv"
    assert main(["sweep", mini_path, "--budgets", "0.01", "--csv", str(csv_path)]) == 2


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--devices", "8", "--slots", "10", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_output_validates(tmp_path):
    out = tmp_path / "one.json"
    assert main(["gen", "--devices", "1", "--slots", "2", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_gen_rejects_zero_devices(tmp_path):
    out = tmp_path / "zero.json"
    assert main(["gen", "--devices", "0", "--slots", "2", "--out", str(out)]) == 3


def test_bad_arguments_exit_3():
    assert main(["solve"]) == 3
    assert main(["nonsense"]) == 3


def test_bundle_solver_defaults_are_used(tmp_path, capsys):
    bundle = replace(mini_bundle(), solver={"kind": "greedy"})
    path = tmp_path / "defaults.json"
    save_bundle(bundle, path)
    assert main(["solve", str(path)]) == 0
    assert "solver: greedy" in capsys.readouterr().out


def test_seeded_anneal_solve_is_byte_identical(mini_path, tmp_path):
    # Budget far above the schedule length: reproducibility is guaranteed
    # whenever the cooling schedule completes inside the time budget.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = [
        "solve",
        mini_path,
        "--solver",
        "anneal",
        "--seed",
        "42",
        "--time-budget-ms",
        "10000",
    ]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_non_finite_budget_arguments_exit_3(mini_path, tmp_path):
    for value in ("nan", "inf", "-inf"):
        assert main(["solve", mini_path, "--solver", "greedy", "--budget", value]) == 3
        assert main(["sweep", mini_path, "--solver", "greedy", "--budgets", "1.0", value]) == 3
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--devices", "2", "--slots", "2", "--budget", value, "--out", out]) == 3


def test_infinite_source_rate_exits_3(tmp_path, capsys):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    data["scenario"]["source_rate_mbps"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path), "--solver", "greedy"]) == 3
    assert "source_rate_mbps" in capsys.readouterr().err
