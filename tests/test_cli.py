from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

import tierplace.cost_model as cost_model
from tierplace import mini_bundle, save_bundle
from tierplace.bundle import bundle_to_json, dumps, placement_to_json
from tierplace.cli import main
from _instances import split_dc_bundle, unlocated_bundle


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


@pytest.mark.parametrize(
    "make, violation",
    [
        (split_dc_bundle, "no common DC: dc_links"),
        (unlocated_bundle, "unresolvable slot: no candidate device"),
    ],
)
def test_bundles_no_solver_can_place_exit_3(tmp_path, capsys, make, violation):
    path = str(tmp_path / "bundle.json")
    save_bundle(make(), path)
    assert main(["validate", path]) == 3
    assert f"violation: {violation}" in capsys.readouterr().out
    for kind in ("exact", "greedy", "anneal"):
        assert main(["solve", path, "--solver", kind]) == 3
        assert violation in capsys.readouterr().err
    assert main(["sweep", path, "--solver", "greedy", "--budgets", "5.0"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--solver", "anneal"],
        ["sweep", "--solver", "greedy", "--budgets", "0.1", "5.0"],
    ],
)
def test_a_command_derives_the_streams_once(mini_path, monkeypatch, argv):
    calls = []
    real_derive = cost_model.derive_active_streams

    def counting_derive(*args):
        calls.append(args)
        return real_derive(*args)

    monkeypatch.setattr(cost_model, "_memo", None)
    monkeypatch.setattr(cost_model, "derive_active_streams", counting_derive)
    assert main([argv[0], mini_path, *argv[1:]]) == 0
    assert len(calls) == 1


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


def test_non_finite_time_budget_exits_3(mini_path):
    for value in ("nan", "inf"):
        assert main(["solve", mini_path, "--solver", "anneal", "--time-budget-ms", value]) == 3


def test_non_finite_sweep_time_budget_exits_3(mini_path):
    args = ["sweep", mini_path, "--solver", "anneal", "--budgets", "5.0"]
    for value in ("nan", "-inf"):
        assert main(args + ["--time-budget-ms", value]) == 3


def test_out_of_range_solver_flags_exit_3(mini_path, tmp_path):
    for flags in (["--time-budget-ms", "-1"], ["--max-states", "0"], ["--seed", "-1"]):
        assert main(["solve", mini_path, "--solver", "anneal"] + flags) == 3
        assert main(["sweep", mini_path, "--solver", "anneal", "--budgets", "5.0"] + flags) == 3
    assert main(["solve", mini_path, "--solver", "greedy", "--budget", "-1"]) == 3
    assert main(["sweep", mini_path, "--solver", "greedy", "--budgets", "5.0", "-1"]) == 3
    out = tmp_path / "gen.json"
    for flags in (["--seed", "-1"], ["--budget", "-1"]):
        assert main(["gen", "--devices", "4", "--slots", "3", "--out", str(out)] + flags) == 3
    assert not out.exists()


def test_non_finite_gen_step_exits_3(tmp_path):
    out = tmp_path / "gen.json"
    for value in ("nan", "inf"):
        assert main(["gen", "--devices", "4", "--slots", "3", "--step", value, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "defaults, field",
    [
        (["x"], "solver"),
        ({"kind": "fastest"}, "kind"),
        ({"kind": "anneal", "time_budget_ms": float("nan")}, "time_budget_ms"),
        ({"seed": "abc"}, "seed"),
        ({"max_states": 0}, "max_states"),
        ({"kind": "anneal", "time_budget_ms": 10**400}, "time_budget_ms"),
    ],
)
def test_invalid_solver_defaults_exit_3(tmp_path, capsys, defaults, field):
    path = tmp_path / "defaults.json"
    save_bundle(replace(mini_bundle(), solver=defaults), path)
    assert main(["validate", str(path)]) == 3
    assert field in capsys.readouterr().out
    assert main(["solve", str(path)]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("pipeline", "aggregation_index", 2.7),
        ("pipeline", "aggregation_index", True),
        ("scenario", "seed", 1.5),
        ("scenario", "seed", "3"),
    ],
)
def test_non_integer_bundle_field_exits_3(tmp_path, capsys, section, field, value):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    data[section][field] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert field in capsys.readouterr().err


def test_non_integer_alloc_exits_3(mini_path, tmp_path, capsys, p1):
    placement_path = tmp_path / "p1.json"
    for value in (1.5, False, "1", 10**400):
        data = placement_to_json(p1)
        data["alloc"] = value
        placement_path.write_text(dumps(data), encoding="utf-8")
        assert main(["simulate", mini_path, str(placement_path)]) == 3
        assert "alloc" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("budget",), True),
        (("scenario", "slot_seconds"), "3600"),
        (("topology", "nodes", 3, "capacity_cpu"), "2"),
    ],
)
def test_non_number_bundle_field_exits_3(tmp_path, capsys, path, value):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("validate", "solve"):
        assert main([command, str(bundle_path)]) == 3
        assert path[-1] in capsys.readouterr().err


def test_unknown_solver_defaults_exit_3(tmp_path, capsys):
    path = tmp_path / "defaults.json"
    defaults = {"kind": "anneal", "cooling": 0.1, "iters_per_temp": "x", "unknown": 1}
    save_bundle(replace(mini_bundle(), solver=defaults), path)
    assert main(["validate", str(path)]) == 3
    out = capsys.readouterr().out
    assert all(key in out for key in ("cooling", "iters_per_temp", "unknown"))
    assert main(["solve", str(path)]) == 3
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("topology", "nodes", 0), "x", "node must be a JSON object"),
        (("topology", "nodes"), "abc", "nodes must be a JSON array"),
        (("scenario", "slots", 1), None, "slot must be a JSON object"),
        (("pipeline", "stages", 0), [], "stage must be a JSON object"),
        (("topology", "nodes", 3, "parent"), [], "unknown parent"),
        (("topology", "nodes", 0, "location"), [1, 2, 3], "location"),
    ],
)
def test_malformed_records_exit_3(tmp_path, capsys, path, value, message):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("validate", "solve"):
        assert main([command, str(bundle_path)]) == 3
        assert message in "".join(capsys.readouterr())


def test_non_utf8_files_exit_3(mini_path, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"topology": "\xff"}')
    assert main(["validate", str(path)]) == 3
    assert main(["solve", str(path)]) == 3
    assert main(["simulate", mini_path, str(path)]) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 3


def test_integers_too_long_to_convert_exit_3(mini_path, tmp_path, capsys, p1):
    # json.loads refuses an integer of more than 4300 digits with a bare ValueError.
    huge = "9" * 5001
    bundle_path, placement_path = tmp_path / "bundle.json", tmp_path / "placement.json"
    data = bundle_to_json(mini_bundle())
    data["budget"] = "HUGE"
    bundle_path.write_text(dumps(data).replace('"HUGE"', huge), encoding="utf-8")
    placement = placement_to_json(p1)
    placement["alloc"] = "HUGE"
    placement_path.write_text(dumps(placement).replace('"HUGE"', huge), encoding="utf-8")
    assert main(["validate", str(bundle_path)]) == 3
    assert main(["solve", str(bundle_path)]) == 3
    assert main(["simulate", mini_path, str(placement_path)]) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 3
