from __future__ import annotations

import csv
import json
import shlex
import shutil
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import tierplace.cost_model as cost_model
from tierplace import Slot, mini_bundle, save_bundle, synth_bundle
from tierplace.bundle import bundle_to_json, dumps, placement_to_json
from tierplace.cli import main
from _instances import (
    _crowded_free_slot,
    _huge_link_prices,
    _huge_stage_latency,
    _huge_stage_load,
    _long_period,
    split_dc_bundle,
    unlocated_bundle,
)


@pytest.fixture
def mini_path(tmp_path):
    path = tmp_path / "mini.json"
    save_bundle(mini_bundle(), path)
    return str(path)


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch):
    """Every `tierplace ...` line of README's "Command line" block, in order, exits 0
    from a directory that holds a copy of bundles/mini.json."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("tierplace ")]
    assert len(commands) >= 7
    (tmp_path / "bundles").mkdir()
    shutil.copy(root / "bundles" / "mini.json", tmp_path / "bundles" / "mini.json")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command


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


def test_validate_non_object_bundle_exits_3(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert "bundle must be a JSON object" in capsys.readouterr().err


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

    monkeypatch.setattr(cost_model, "_memo", weakref.WeakKeyDictionary())
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


def test_solve_prints_whether_the_answer_is_within_budget(mini_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    solve = ["solve", mini_path, "--solver", "exact", "--out", str(out)]
    assert main(solve) == 0
    total = json.loads(out.read_text(encoding="utf-8"))["report"]["total_cost"]
    capsys.readouterr()
    # The bound is inclusive: an answer that costs the budget exactly is within it.
    assert main([*solve, "--budget", repr(total)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["report"]["total_cost"] == total
    assert f"budget: {total:.6g}  within: True  excess: 0\n" in capsys.readouterr().out
    assert main([*solve, "--budget", "0.1"]) == 2
    total = json.loads(out.read_text(encoding="utf-8"))["report"]["total_cost"]
    assert f"budget: 0.1  within: False  excess: {total - 0.1:.6g}\n" in capsys.readouterr().out


def test_solve_max_states_limit(mini_path):
    assert main(["solve", mini_path, "--solver", "exact", "--max-states", "5"]) == 4


def test_solve_unreadable_bundle(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json"), "--solver", "exact"]) == 3


def test_simulate_matches_solver_report(mini_path, tmp_path):
    solution_path = tmp_path / "solution.json"
    main(["solve", mini_path, "--solver", "exact", "--out", str(solution_path)])
    csv_path = tmp_path / "slots.csv"
    assert main(["simulate", mini_path, str(solution_path), "--csv", str(csv_path)]) == 0
    rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
    assert [row["slot"] for row in rows] == ["0", "1"]
    assert [row["active_devices"] for row in rows] == ["cam1", "cam3"]
    assert float(rows[0]["mean_latency_ms"]) == pytest.approx(92.0)
    total_network = sum(float(row["network_cost"]) for row in rows)
    assert total_network == pytest.approx(0.0216, rel=1e-9)


def test_simulate_replays_an_empty_slot_at_zero_latency(tmp_path):
    mini = mini_bundle()
    slots = mini.scenario.slots + (Slot.explicit([]),)
    bundle_path = tmp_path / "bundle.json"
    save_bundle(replace(mini, scenario=replace(mini.scenario, slots=slots)), bundle_path)
    assert '"devices": []' in bundle_path.read_text(encoding="utf-8")
    assert main(["validate", str(bundle_path)]) == 0
    solution_path, csv_path = tmp_path / "solution.json", tmp_path / "slots.csv"
    for solver in ("exact", "greedy", "anneal"):
        assert main(["solve", str(bundle_path), "--solver", solver, "--out", str(solution_path)]) == 0
        assert main(["simulate", str(bundle_path), str(solution_path), "--csv", str(csv_path)]) == 0
        rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
        assert [row["active_devices"] for row in rows] == ["cam1", "cam3", ""]
        assert float(rows[2]["mean_latency_ms"]) == 0.0


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
    rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
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
    rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
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


@pytest.mark.parametrize(
    "rate, detect_cpu, violations",
    [
        (1e306, None, ["stream rate"]),  # rate x slot_seconds overflows: NaN costs
        (1e10, 1e308, ["stage load", "peak demand"]),  # NaN reservation: a raw ValueError
    ],
)
def test_finite_values_that_overflow_exit_3(tmp_path, capsys, p1, rate, detect_cpu, violations):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    data["scenario"]["source_rate_mbps"] = rate
    for stage in data["pipeline"]["stages"]:
        if detect_cpu is not None and stage["name"] == "detect":
            stage["cpu_per_unit"] = detect_cpu
    path, placement_path = tmp_path / "big.json", tmp_path / "p1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    placement_path.write_text(dumps(placement_to_json(p1)), encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"violation: value overflow: {ident}" for ident in violations
    ]
    for argv in (["solve", "--solver", "exhaustive"], ["simulate", str(placement_path)]):
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert "value overflow" in capsys.readouterr().err


def test_alloc_whose_cost_overflows_exits_3(tmp_path, capsys):
    """A bundle that validates, with a placement whose reservation costs more than the
    largest float: simulate used to print an infinite total and exit 0."""
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    for node in data["topology"]["nodes"]:
        if node["id"] == "dc1":
            node["cpu_cost_rate"] = 4
    placement = {"layer_of": ["Cloud"], "agg_node": "dc1", "sink_dc": "dc1", "alloc": 10**308}
    path, placement_path = tmp_path / "pricey.json", tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    placement_path.write_text(json.dumps(placement), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path), str(placement_path)]) == 3
    captured = capsys.readouterr()
    assert "inf" not in captured.out
    assert "invalid placement: alloc times the CPU price of dc1 exceeds half" in captured.err


@pytest.mark.parametrize(
    "edit, ident",
    [(_huge_link_prices, "cost"), (_huge_stage_latency, "latency"), (_huge_stage_load, "peak load")],
)
def test_report_fields_that_overflow_exit_3(tmp_path, capsys, p1, edit, ident):
    """Finite prices, latencies or loads whose report fields overflow fail validation,
    where they used to reach a report as Infinity (the latency one with exit 0)."""
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    edit(data)
    path, placement_path = tmp_path / "big.json", tmp_path / "p1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    placement_path.write_text(dumps(placement_to_json(p1)), encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().out.splitlines() == [f"violation: value overflow: {ident}"]
    for argv in (["solve", "--solver", "exhaustive"], ["simulate", str(placement_path)],
                 ["sweep", "--solver", "greedy", "--budgets", "5.0"]):
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert "value overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make, edit, ident",
    [(mini_bundle, _long_period, "period"),
     (lambda: synth_bundle(3000, 1), _crowded_free_slot, "traffic")],
    ids=["period", "traffic"],
)
def test_period_and_slot_traffic_that_overflow_exit_3(tmp_path, capsys, make, edit, ident):
    """An infinite charging period or slot traffic fails validation. The first used to
    bill no usage cost; the second, 3,000 streams on links that each carry finite GB,
    used to write a slot's traffic_gb as inf."""
    data = bundle_to_json(make())
    edit(data)
    placement = {"layer_of": ["Cloud"], "agg_node": "dc1", "sink_dc": "dc1", "alloc": 1}
    path, placement_path = tmp_path / "big.json", tmp_path / "cloud.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    placement_path.write_text(json.dumps(placement), encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().out.splitlines() == [f"violation: value overflow: {ident}"]
    for argv in (["solve", "--solver", "greedy"], ["simulate", str(placement_path)]):
        assert main([argv[0], str(path), *argv[1:]]) == 3
        assert "value overflow" in capsys.readouterr().err


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
    for value in ("nan", "inf", "-inf"):
        args = ["gen", "--devices", "4", "--slots", "3", f"--step={value}", "--out", str(out)]
        assert main(args) == 3
    assert not out.exists()


def test_gen_step_is_passed_to_the_generator(tmp_path):
    out, expected = tmp_path / "gen.json", tmp_path / "expected.json"
    assert main(["gen", "--devices", "4", "--slots", "3", "--step", "2.5", "--out", str(out)]) == 0
    save_bundle(synth_bundle(devices=4, slots=3, step=2.5), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_integer_options_take_any_size(mini_path):
    # An int too large for a float is still finite: the range check must not convert it.
    assert main(["solve", mini_path, "--solver", "anneal", "--seed", "9" * 401]) == 0


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
        (("topology", "nodes", 3, "parent"), [], "parent must be a string"),
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


@pytest.mark.parametrize(
    "path, key, new_key, message",
    [
        (("topology", "nodes", 6), "cpu_cost_rate", "cpu_cost", "node 'dc1' has unknown keys"),
        (("pipeline", "stages", 0), "base_ms", "base", "stage 'analyze' has unknown keys"),
        ((), "budget", "budgets", "bundle has unknown keys ['budgets']"),
        (("topology",), "dc_links", "dc_link", "topology has unknown keys ['dc_link']"),
    ],
)
def test_misspelled_bundle_keys_exit_3(tmp_path, capsys, p1, path, key, new_key, message):
    data = json.loads(dumps(bundle_to_json(mini_bundle())))
    owner = data
    for step in path:
        owner = owner[step]
    owner[new_key] = owner.pop(key)
    bundle_path, placement_path = tmp_path / "bundle.json", tmp_path / "p1.json"
    bundle_path.write_text(json.dumps(data), encoding="utf-8")
    placement_path.write_text(dumps(placement_to_json(p1)), encoding="utf-8")
    for argv in (["validate"], ["solve", "--solver", "exact"], ["simulate"]):
        extra = [str(placement_path)] if argv[0] == "simulate" else []
        assert main([argv[0], str(bundle_path), *extra, *argv[1:]]) == 3
        assert message in capsys.readouterr().err


def test_misspelled_placement_key_exits_3(mini_path, tmp_path, capsys, p1):
    data = placement_to_json(p1)
    data["predeploy_gw"] = data.pop("predeploy")
    path = tmp_path / "p1.json"
    for payload in (data, {"placement": data}):  # a bare placement and a solution file
        path.write_text(dumps(payload), encoding="utf-8")
        assert main(["simulate", mini_path, str(path)]) == 3
        assert "placement has unknown keys ['predeploy_gw']" in capsys.readouterr().err


def test_non_utf8_files_exit_3(mini_path, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"topology": "\xff"}')
    assert main(["validate", str(path)]) == 3
    assert main(["solve", str(path)]) == 3
    assert main(["simulate", mini_path, str(path)]) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 3


def test_deeply_nested_json_exits_3(mini_path, tmp_path, capsys):
    # The decoder runs out of stack on it with a RecursionError, not a ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert main(["validate", str(path)]) == 3
    assert main(["simulate", mini_path, str(path)]) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 2


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
