import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA_DIR, REPO_ROOT, SCENARIO_DIR
from rtorch import cli
from rtorch.probability import MIN_FIT_SAMPLES
from rtorch.scenario import ScenarioError, parse_scenario

CAMERA_RUNTIMES = DATA_DIR / "camera_runtimes.csv"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_clean_run_exits_zero(tmp_path, capsys):
    code, out, err = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "table1_9units.json"),
         "--duration-us", "2000000", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0
    assert "0 hard deadline misses" in out
    for name in ("trace.csv", "runtimes.csv", "report.json", "histogram.csv", "decisions.jsonl"):
        assert (tmp_path / "run" / name).exists()
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert len(report["per_task"]) == 9
    assert (tmp_path / "run" / "decisions.jsonl").read_text() == ""


def test_simulate_overload_exits_two(tmp_path, capsys):
    code, out, _ = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "table1_10units.json"),
         "--duration-us", "2000000", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 2
    assert "hard deadline miss" in out


def test_simulate_soft_misses_do_not_fail_the_run(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "table1_10units.json").read_text())
    for task in scenario["tasks"]:
        task["criticality"] = "soft"
    path = tmp_path / "soft.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_cli(
        ["simulate", "--scenario", str(path), "--duration-us", "2000000",
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0
    assert "0 hard deadline misses" in out
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert sum(s["miss_count"] for s in report["per_task"].values()) > 0


def test_simulate_rejects_missing_scenario(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "not found" in err


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(
        ["simulate", "--scenario", str(path), "--out", str(tmp_path)], capsys,
    )
    assert code == 1
    assert "invalid JSON" in err


def test_simulate_seed_changes_outputs(tmp_path, capsys):
    outs = {}
    for seed in ("1", "1b", "2"):
        out_dir = tmp_path / f"run{seed}"
        code, _, _ = run_cli(
            ["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"),
             "--duration-us", "1000000", "--seed", seed.rstrip("b"),
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        outs[seed] = (out_dir / "runtimes.csv").read_bytes()
    assert outs["1"] == outs["1b"]
    assert outs["1"] != outs["2"]


def test_simulate_orchestrator_toggle(tmp_path, capsys):
    managed = tmp_path / "managed"
    code, _, _ = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "conveyor.json"),
         "--duration-us", "5000000", "--out", str(managed)],
        capsys,
    )
    assert code in (0, 2)  # early probabilistic misses may precede the move
    decisions = [json.loads(l) for l in (managed / "decisions.jsonl").read_text().splitlines()]
    assert len(decisions) == 4
    assert any(d["decision"] and d["decision"]["moved"] for d in decisions)

    bare = tmp_path / "bare"
    code, _, _ = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "conveyor.json"),
         "--duration-us", "5000000", "--no-orchestrator", "--out", str(bare)],
        capsys,
    )
    assert code in (0, 2)
    assert (bare / "decisions.jsonl").read_text() == ""
    trace = (bare / "trace.csv").read_text()
    assert "migrate" not in trace


def test_analyze_reports_fit_and_breach(capsys):
    code, out, _ = run_cli(
        ["analyze", str(CAMERA_RUNTIMES),
         "--period-us", "125000", "--threshold", "0.05"],
        capsys,
    )
    assert code == 0
    assert "task cam_x:" in out
    assert "task cam_y:" in out
    assert "BREACH" in out
    assert "miss_prob=0.08" in out


def test_analyze_threshold_controls_breach_marker(capsys):
    code, out, _ = run_cli(
        ["analyze", str(CAMERA_RUNTIMES),
         "--period-us", "125000", "--threshold", "0.5"],
        capsys,
    )
    assert code == 0
    assert "BREACH" not in out


def test_analyze_task_period_override_changes_group(capsys):
    code, out, _ = run_cli(
        ["analyze", str(CAMERA_RUNTIMES),
         "--period-us", "125000", "--task-period", "cam_y=250000"],
        capsys,
    )
    assert code == 0
    # halving cam_y's rate lowers the joint mean utilization below 0.75
    joint_mu = float(out.split("joint_mu=")[1].split()[0])
    assert joint_mu < 0.75


def test_analyze_prints_the_tasks_before_a_thin_one_then_exits_one(tmp_path, capsys):
    rows = {tid: [1000 + 7 * i % 41 + k for i in range(40 + k)] for k, tid in enumerate(["a", "b"])}
    rows.update(thin=list(range(500, 505)), late=list(range(2000, 2040)))
    path = tmp_path / "thin.csv"
    path.write_text("task,runtime_us\n" + "".join(f"{tid},{r}\n" for tid, rs in rows.items() for r in rs))
    alone = tmp_path / "alone.csv"
    alone.write_text("".join(path.read_text().splitlines(keepends=True)[:1 + 40 + 41]))
    argv = ["--period-us", "10000"]
    code, out_alone, _ = run_cli(["analyze", str(alone), *argv], capsys)
    assert code == 0 and out_alone.startswith("task a: ")
    code, out, err = run_cli(["analyze", str(path), *argv], capsys)
    assert code == 1
    # the lines of a and b exactly as they print alone; no group line, nothing of the later task
    assert out == "".join(out_alone.splitlines(keepends=True)[:2])
    assert err == "error: task 'thin' has 5 samples; need at least 30\n"


def test_analyze_rejects_thin_samples(tmp_path, capsys):
    path = tmp_path / "thin.csv"
    rows = "".join(f"ok,{1000 + i}\n" for i in range(40)) + "".join(
        f"thin,{500 + i}\n" for i in range(29)
    )
    path.write_text("task,runtime_us\n" + rows)
    code, _, err = run_cli(
        ["analyze", str(path), "--period-us", "10000"], capsys,
    )
    assert code == 1
    assert "task 'thin' has 29 samples" in err


def test_analyze_rejects_bad_override(capsys):
    code, _, err = run_cli(
        ["analyze", str(CAMERA_RUNTIMES),
         "--period-us", "125000", "--task-period", "ghost=1000"],
        capsys,
    )
    assert code == 1
    assert "--task-period 'ghost=1000'" in err
    assert "unknown task" in err


def test_analyze_rejects_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze", str(tmp_path / "none.csv"), "--period-us", "1000"], capsys,
    )
    assert code == 1
    assert str(tmp_path / "none.csv") in err


def test_plan_prints_allocation_json(capsys):
    code, out, _ = run_cli(
        ["plan", "--scenario", str(SCENARIO_DIR / "conveyor.json")], capsys,
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["assignments"] == {"bg_worker": "cpu1", "cam_a": "cpu0", "cam_b": "cpu0"}
    assert plan["per_resource"]["cpu0"]["miss_prob"] == pytest.approx(0.0786, abs=1e-4)
    assert plan["per_resource"]["cpu0"]["buffer"] == pytest.approx(0.0)


def test_plan_monte_carlo_never_regresses_conveyor(capsys):
    code, out, _ = run_cli(
        ["plan", "--scenario", str(SCENARIO_DIR / "conveyor.json"),
         "--strategy", "monte_carlo", "--mc-samples", "150", "--seed", "3"],
        capsys,
    )
    assert code == 0
    plan = json.loads(out)
    # no static arrangement avoids a breach here; search keeps the incumbent
    assert plan["assignments"] == {"bg_worker": "cpu1", "cam_a": "cpu0", "cam_b": "cpu0"}


def test_plan_oversubscribed_exits_three(tmp_path, capsys):
    scenario = {
        "tasks": [
            {
                "id": f"t{i}",
                "period_us": 100_000,
                "budget_us": 60_000,
                "exec_model": {"mu_us": 50_000, "sigma_us": 100,
                               "cutoff_lo_us": 49_000, "wcet_us": 60_000},
            }
            for i in range(3)
        ],
        "resources": [{"id": "cpu0", "policy": "EDF", "u_max": 1.0}],
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(["plan", "--scenario", str(path)], capsys)
    assert code == 3
    assert "exceeds capacity" in err


def test_plan_unplaceable_task_exits_three(tmp_path, capsys):
    scenario = {
        "tasks": [
            {
                "id": "wide",
                "period_us": 100_000,
                "budget_us": 90_000,
                "exec_model": {"mu_us": 80_000, "sigma_us": 100,
                               "cutoff_lo_us": 79_000, "wcet_us": 90_000},
            }
        ],
        "resources": [{"id": "cpu0", "policy": "EDF", "u_max": 0.5}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(["plan", "--scenario", str(path)], capsys)
    assert code == 3
    assert "admits on no resource" in err


def _three_sixty_percent_tasks(tmp_path):
    """Three constant 0.6-utilization tasks on two EDF CPUs: each admits alone and the
    total fits the capacity, but first fit cannot place the third."""
    model = {"mu_us": 60_000, "sigma_us": 0, "cutoff_lo_us": 60_000, "wcet_us": 60_000}
    scenario = {
        "tasks": [{"id": f"t{i}", "period_us": 100_000, "budget_us": 60_000, "exec_model": model}
                  for i in range(3)],
        "resources": [{"id": "cpu0", "policy": "EDF"}, {"id": "cpu1", "policy": "EDF"}],
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(scenario))
    return path


def test_plan_naive_exits_three_when_first_fit_gets_stuck(tmp_path, capsys):
    code, out, err = run_cli(["plan", "--scenario", str(_three_sixty_percent_tasks(tmp_path)),
                              "--strategy", "naive"], capsys)
    assert code == 3
    assert out == ""
    assert err == "infeasible: task 't2' admits on no resource\n"


def test_plan_monte_carlo_starts_from_all_on_first_cpu_when_first_fit_gets_stuck(tmp_path, capsys):
    code, out, _ = run_cli(["plan", "--scenario", str(_three_sixty_percent_tasks(tmp_path)),
                            "--strategy", "monte_carlo", "--mc-samples", "50", "--seed", "1"], capsys)
    assert code == 0
    plan = json.loads(out)
    # every split still breaches one CPU and occupies more, so no sample beats the fallback
    assert plan["assignments"] == {"t0": "cpu0", "t1": "cpu0", "t2": "cpu0"}
    assert plan["per_resource"]["cpu1"] == {"buffer": 1.0, "miss_prob": 0.0}


def test_analyze_rejects_a_400_digit_runtime(tmp_path, capsys):
    path = tmp_path / "runtimes.csv"
    path.write_text(CAMERA_RUNTIMES.read_text() + f"cam_x,{10**399}\n")
    code, out, err = run_cli(["analyze", str(path), "--period-us", "125000"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: line ") and "2**53" in err


def test_analyze_rejects_a_header_only_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("task,runtime_us\n")
    code, out, err = run_cli(["analyze", str(path), "--period-us", "125000"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: no samples\n"


def test_usage_errors_exit_one_not_two(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["simulate"]) == 1
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, plain, _ = run_cli(ANALYZE, capsys)
    assert code == 0
    code, overridden, _ = run_cli(ANALYZE + ["--task-period", "cam_y=250000"], capsys)
    assert code == 0 and overridden != plain
    # the append action's default list is not shared: the next call sees no leftover override
    assert run_cli(ANALYZE, capsys) == (0, plain, "")
    assert cli.build_parser().parse_args(ANALYZE).task_period == []
    code, out, err = run_cli(["analyze", "--period-us", "x"], capsys)
    assert (code, out) == (1, "") and "invalid int value: 'x'" in err
    assert run_cli(ANALYZE, capsys) == (0, plain, "")


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("strategy", ["naive", "monte_carlo"])
def test_plan_rejects_nonpositive_mc_samples(samples, strategy, capsys):
    code, out, err = run_cli(
        ["plan", "--scenario", str(SCENARIO_DIR / "conveyor.json"), "--strategy", strategy,
         "--mc-samples", samples],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "--mc-samples" in err and "positive integer" in err


ANALYZE = ["analyze", str(CAMERA_RUNTIMES), "--period-us", "125000"]


@pytest.mark.parametrize("argv, option", [
    pytest.param(["analyze", str(CAMERA_RUNTIMES), "--period-us", "0"], "--period-us", id="period-0"),
    pytest.param(["analyze", str(CAMERA_RUNTIMES), "--period-us", "-5"], "--period-us", id="period-neg"),
    pytest.param(ANALYZE + ["--task-period", "cam_y=0"], "--task-period", id="task-period-0"),
    # past 2**53 a period no longer converts to a finite float
    pytest.param(["analyze", str(CAMERA_RUNTIMES), "--period-us", str(10**399)], "--period-us",
                 id="period-400-digits"),
    pytest.param(ANALYZE + ["--task-period", f"cam_y={10**399}"], "--task-period", id="task-period-400-digits"),
    # past 4,300 digits int() itself refuses the value
    pytest.param(ANALYZE + ["--task-period", f"cam_x={'9' * 5001}"], "--task-period", id="task-period-5001-digits"),
    pytest.param(ANALYZE + ["--u-max", "0"], "--u-max", id="u-max-0"),
    pytest.param(ANALYZE + ["--u-max", "-1"], "--u-max", id="u-max-neg"),
    pytest.param(ANALYZE + ["--u-max", "inf"], "--u-max", id="u-max-inf"),
    pytest.param(ANALYZE + ["--u-max", "nan"], "--u-max", id="u-max-nan"),
    pytest.param(ANALYZE + ["--threshold", "-0.1"], "--threshold", id="threshold-neg"),
    pytest.param(ANALYZE + ["--threshold", "1.5"], "--threshold", id="threshold-above-1"),
    pytest.param(ANALYZE + ["--threshold", "nan"], "--threshold", id="threshold-nan"),
    pytest.param(["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"), "--bin-width-us", "0"],
                 "--bin-width-us", id="bin-width-0"),
    pytest.param(["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"), "--seed", "-1"],
                 "--seed", id="simulate-seed-neg"),
    # past 2**53, as a scenario's sim.duration_us, a run could not finish
    pytest.param(["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"),
                  "--duration-us", str(10**20)], "--duration-us", id="duration-past-2-53"),
    pytest.param(["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"), "--duration-us", "0"],
                 "--duration-us", id="duration-0"),
    pytest.param(["plan", "--scenario", str(SCENARIO_DIR / "conveyor.json"), "--strategy", "monte_carlo",
                  "--seed", "-1"], "--seed", id="plan-seed-neg"),
])
def test_out_of_range_options_exit_one_with_one_line(argv, option, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(argv + (["--out", str(out_dir)] if argv[0] == "simulate" else []), capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert option in err
    assert not out_dir.exists()  # rejected before anything ran


@pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["existing-file", "under-a-file"])
def test_unusable_out_exits_one_with_one_line(out, tmp_path, capsys):
    (tmp_path / "taken").write_text("kept\n")
    argv = ["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"), "--out", str(tmp_path / out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: --out {tmp_path / out}: ")
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_rejected_run_removes_only_the_out_directories_it_made(tmp_path, capsys):
    (tmp_path / "kept").mkdir()
    argv = ["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"), "--duration-us", "10",
            "--out", str(tmp_path / "kept" / "x" / "run")]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert err == "error: duration too short: 10 us is less than the longest period, 100000 us\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_a_task_that_completes_no_job_fails_the_run_and_writes_nothing(tmp_path, capsys):
    # on one RM CPU, a's every job overruns its period, so b never gets the CPU
    def constant(us):
        return {"mu_us": us, "sigma_us": 0, "cutoff_lo_us": us, "wcet_us": us}
    scenario = {
        "tasks": [{"id": "a", "period_us": 1_000, "budget_us": 900, "exec_model": constant(1_100)},
                  {"id": "b", "period_us": 10_000, "budget_us": 90, "exec_model": constant(90)}],
        "resources": [{"id": "cpu0", "policy": "RM"}],
        "initial_plan": {"a": "cpu0", "b": "cpu0"},
        "sim": {"duration_us": 100_000},
    }
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: task 'b' completed no jobs\n"
    assert not (tmp_path / "run").exists()


def test_output_keys_are_the_pinned_field_names(tmp_path, capsys):
    scenario = str(SCENARIO_DIR / "conveyor.json")
    code, _, _ = run_cli(["simulate", "--scenario", scenario, "--duration-us", "2000000",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"bin_width_us", "group_avg_us", "histogram", "per_task", "sd_mx_us", "skw"}
    assert [set(stats) for stats in report["per_task"].values()] == \
        [{"count", "max_us", "mean_us", "min_us", "miss_count", "stddev_us"}] * 3
    records = [json.loads(line) for line in (tmp_path / "decisions.jsonl").read_text().splitlines()]
    assert [set(record) for record in records] == [{"decision", "per_resource", "time_us"}]
    assert set(records[0]["decision"]) == {"evicted_best_effort", "moved", "trigger"}

    code, stdout, _ = run_cli(["plan", "--scenario", scenario], capsys)
    assert code == 0
    plan = json.loads(stdout)
    assert set(plan) == {"assignments", "per_resource"}
    assert [set(load) for load in plan["per_resource"].values()] == [{"buffer", "miss_prob"}] * 2


def _noisy_conveyor():
    """conveyor.json with jitter, interference and a mixture mode, so every section is present."""
    data = json.loads((SCENARIO_DIR / "conveyor.json").read_text())
    data["sim"]["noise"] = {"base_overhead_us": 40, "latency_jitter": {"mu_us": 0, "sigma_us": 30},
                            "interference": {"rate_per_s": 40.0, "magnitude_us": 100}}
    data["tasks"][2]["exec_model"]["mixture"] = [{"weight": 0.2, "offset_us": 1000}]
    data["tasks"][1]["deadline_us"] = 100000
    return data


def _set(path, value):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return mutate


@pytest.mark.parametrize("mutate, field", [
    pytest.param(_set(["sim"], "x"), "sim", id="sim-string"),
    pytest.param(_set(["sim", "noise"], "x"), "sim.noise", id="noise-string"),
    pytest.param(_set(["orchestrator"], ["x"]), "orchestrator", id="orchestrator-list"),
    pytest.param(_set(["orchestrator", "thresholds"], "x"), "orchestrator.thresholds", id="thresholds-string"),
    pytest.param(_set(["tasks", 0, "exec_model"], "x"), "tasks[0].exec_model", id="exec-model-string"),
    pytest.param(_set(["sim", "noise", "latency_jitter"], [0, 30]), "sim.noise.latency_jitter",
                 id="jitter-list"),
    pytest.param(_set(["sim", "noise", "interference"], 5), "sim.noise.interference", id="interference-number"),
    pytest.param(_set(["tasks", 0, "period_us"], 125000.5), "tasks[0].period_us", id="period-float"),
    pytest.param(_set(["tasks", 0, "period_us"], "125000"), "tasks[0].period_us", id="period-string"),
    pytest.param(_set(["tasks", 0, "budget_us"], True), "tasks[0].budget_us", id="budget-bool"),
    pytest.param(_set(["tasks", 1, "deadline_us"], 100000.0), "tasks[1].deadline_us", id="deadline-float"),
    pytest.param(_set(["tasks", 0, "exec_model", "mu_us"], 56250.5), "tasks[0].exec_model.mu_us",
                 id="mu-float"),
    pytest.param(_set(["tasks", 0, "exec_model", "sigma_us"], True), "tasks[0].exec_model.sigma_us",
                 id="sigma-bool"),
    pytest.param(_set(["tasks", 0, "exec_model", "cutoff_lo_us"], 31250.0),
                 "tasks[0].exec_model.cutoff_lo_us", id="cutoff-float"),
    # accepted, this model's demands run backwards: a job would complete before it started
    pytest.param(_set(["tasks", 0, "exec_model"], {"mu_us": -100, "sigma_us": 0, "cutoff_lo_us": -200,
                                                    "wcet_us": -50}),
                 "tasks[0].exec_model.cutoff_lo_us", id="cutoff-negative"),
    pytest.param(_set(["tasks", 0, "exec_model", "wcet_us"], 81250.25), "tasks[0].exec_model.wcet_us",
                 id="wcet-float"),
    pytest.param(_set(["tasks", 2, "exec_model", "mixture", 0, "offset_us"], 1000.5),
                 "tasks[2].exec_model.mixture[0].offset_us", id="mixture-offset-float"),
    pytest.param(_set(["sim", "noise", "interference", "magnitude_us"], 100.5),
                 "sim.noise.interference.magnitude_us", id="magnitude-float"),
    pytest.param(_set(["sim", "noise", "base_overhead_us"], False), "sim.noise.base_overhead_us",
                 id="overhead-bool"),
    pytest.param(_set(["sim", "seed"], -1), "sim.seed", id="seed-negative"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "mu_us"], math.inf),
                 "sim.noise.latency_jitter.mu_us", id="jitter-mu-inf"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "sigma_us"], math.inf),
                 "sim.noise.latency_jitter.sigma_us", id="jitter-sigma-inf"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "sigma_us"], math.nan),
                 "sim.noise.latency_jitter.sigma_us", id="jitter-sigma-nan"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "mu_us"], -math.inf),
                 "sim.noise.latency_jitter.mu_us", id="jitter-mu-neg-inf"),
    # past 2**53 a duration's float conversions overflow: admission's mu / period, the jitter draw
    pytest.param(_set(["tasks", 0, "period_us"], 10**401), "tasks[0].period_us", id="period-400-digits"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "sigma_us"], 1e308),
                 "sim.noise.latency_jitter.sigma_us", id="jitter-sigma-1e308"),
    pytest.param(_set(["sim", "noise", "interference", "rate_per_s"], math.inf),
                 "sim.noise.interference.rate_per_s", id="interference-rate-inf"),
    pytest.param(_set(["sim", "noise", "interference", "rate_per_s"], math.nan),
                 "sim.noise.interference.rate_per_s", id="interference-rate-nan"),
    pytest.param(_set(["sim", "noise", "interference"], {"rate_per_s": 1e9, "magnitude_us": 1}),
                 "sim.noise.interference.rate_per_s", id="interference-rate-huge"),
    pytest.param(_set(["tasks", 0, "id"], "cam,a"), "tasks[0].id", id="task-id-comma"),
    pytest.param(_set(["tasks", 0, "id"], ""), "tasks[0].id", id="task-id-empty"),
    pytest.param(_set(["tasks", 1, "id"], "cam a"), "tasks[1].id", id="task-id-space"),
    pytest.param(_set(["tasks", 0, "id"], "cam\x07"), "tasks[0].id", id="task-id-control"),
    pytest.param(_set(["resources", 1, "id"], "cpu\t1"), "resources[1].id", id="resource-id-tab"),
    pytest.param(_set(["resources", 0, "id"], "cpu,0"), "resources[0].id", id="resource-id-comma"),
    pytest.param(_set(["tasks", 0, "id"], '"cam'), "tasks[0].id", id="task-id-quote"),
    pytest.param(_set(["resources", 0, "id"], 'cpu"0'), "resources[0].id", id="resource-id-quote"),
    # values of a JSON type the field does not take, none of them converted
    pytest.param(_set(["resources", 0, "u_max"], True), "resources[0].u_max", id="u-max-bool"),
    pytest.param(_set(["resources", 0, "u_max"], "0.5"), "resources[0].u_max", id="u-max-string"),
    pytest.param(_set(["resources", 0, "u_max"], 10**400), "resources[0].u_max", id="u-max-past-float"),
    pytest.param(_set(["orchestrator", "enabled"], "false"), "orchestrator.enabled", id="enabled-string"),
    pytest.param(_set(["orchestrator", "thresholds", "hard"], True), "orchestrator.thresholds.hard",
                 id="threshold-bool"),
    pytest.param(_set(["tasks", 2, "exec_model", "mixture", 0, "weight"], "0.2"),
                 "tasks[2].exec_model.mixture[0].weight", id="mixture-weight-string"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "mu_us"], "5"), "sim.noise.latency_jitter.mu_us",
                 id="jitter-mu-string"),
    pytest.param(_set(["sim", "noise", "interference", "rate_per_s"], True),
                 "sim.noise.interference.rate_per_s", id="interference-rate-bool"),
    pytest.param(_set(["tasks", 2, "exec_model", "mixture"], {}), "tasks[2].exec_model.mixture",
                 id="mixture-object"),
    pytest.param(_set(["tasks", 0, "id"], []), "tasks[0].id", id="task-id-list"),
    pytest.param(_set(["tasks", 0, "id"], None), "tasks[0].id", id="task-id-null"),
    pytest.param(_set(["tasks", 0, "id"], 7), "tasks[0].id", id="task-id-number"),
    pytest.param(_set(["initial_plan", "cam_a"], ["cpu0"]), "initial_plan.cam_a", id="plan-resource-list"),
    # the remaining shape and range rules
    pytest.param(_set(["tasks"], {}), "tasks", id="tasks-object"),
    pytest.param(_set(["resources"], []), "resources", id="resources-empty"),
    pytest.param(_set(["initial_plan"], ["cpu0"]), "initial_plan", id="plan-list"),
    pytest.param(_set(["initial_plan", "ghost"], "cpu0"), "initial_plan", id="plan-unknown-task"),
    pytest.param(_set(["orchestrator", "monitor_period_us"], 0), "orchestrator.monitor_period_us",
                 id="monitor-period-0"),
    pytest.param(_set(["orchestrator", "fit_window"], 1), "orchestrator.fit_window", id="fit-window-1"),
    pytest.param(_set(["orchestrator", "fit_window"], 29), "orchestrator.fit_window", id="fit-window-29"),
    pytest.param(_set(["orchestrator", "mc_samples"], 0), "orchestrator.mc_samples", id="mc-samples-0"),
    pytest.param(_set(["sim", "noise", "latency_jitter", "sigma_us"], -1), "sim.noise.latency_jitter.sigma_us",
                 id="jitter-sigma-neg"),
    pytest.param(_set(["sim", "noise", "interference"], {"rate_per_s": 40.0}), "sim.noise.interference",
                 id="interference-no-magnitude"),
])
def test_malformed_scenario_exits_one_with_one_line(mutate, field, tmp_path, capsys):
    data = _noisy_conveyor()
    mutate(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "run"
    for argv in (["simulate", "--scenario", str(path), "--out", str(out_dir)], ["plan", "--scenario", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert f"error: {field}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("document", [[], "scenario", None], ids=["array", "string", "null"])
def test_non_object_top_level_exits_one_with_one_line(document, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    for argv in (["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")],
                 ["plan", "--scenario", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", "error: top level: expected a JSON object\n")


def test_noisy_conveyor_base_is_accepted(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_noisy_conveyor()))
    code, _, _ = run_cli(["plan", "--scenario", str(path)], capsys)
    assert code == 0


def test_analyze_accepts_a_ceiling_above_one(capsys):
    code, out, _ = run_cli(ANALYZE + ["--u-max", "2"], capsys)
    assert code == 0
    assert "u_max=2 " in out


@pytest.mark.parametrize("value, level", [
    ("debug", logging.DEBUG), ("Info", logging.INFO), ("warning", logging.WARNING),
    # logging attributes that are no level, and nonsense, fall back to warnings
    ("basic_format", logging.WARNING), ("root", logging.WARNING), ("nonsense", logging.WARNING),
])
def test_log_env_variable_sets_only_real_levels(value, level, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: calls.append(kwargs))
    monkeypatch.setenv("RTORCH_LOG", value)
    code, _, _ = run_cli(["plan", "--scenario", str(SCENARIO_DIR / "table1_4units.json")], capsys)
    assert code == 0
    assert calls == [{"level": level}]


def test_a_log_value_that_is_no_level_runs_without_a_traceback(tmp_path):
    # in a fresh process, where basicConfig does configure the root logger
    env = dict(os.environ, RTORCH_LOG="basic_format",
               PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "rtorch.cli", "plan", "--scenario",
                           str(SCENARIO_DIR / "table1_4units.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout)["assignments"]


def test_log_env_variable_is_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RTORCH_LOG", "info")
    code, _, _ = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"),
         "--duration-us", "1000000", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0


# Values of the wrong type, sign or size for any field; huge integers are left out of
# duration_us and mc_samples, which set how much work a run asks for.
_JUNK = [None, "x", "", True, -1, 0, 1.5, math.nan, math.inf, -math.inf, [], {}]
_HUGE = 10**30


@st.composite
def _scenarios(draw):
    """Small scenarios, mostly valid: at most three tasks and three CPUs, at most 20 ms
    simulated, interference under its rate bound; then up to two fields replaced by junk."""
    n_cpus = draw(st.integers(1, 3))
    resources = [{"id": f"cpu{j}", "policy": draw(st.sampled_from(["EDF", "RM"])),
                  "u_max": draw(st.sampled_from([0.5, 0.69, 1.0])),
                  "criticality": draw(st.sampled_from(["hard", "soft"]))} for j in range(n_cpus)]
    tasks = []
    for i in range(draw(st.integers(1, 3))):
        period = draw(st.sampled_from([1_000, 2_500, 10_000]))
        deadline = draw(st.integers(period // 2, period))
        mu = draw(st.integers(1, period))
        model = {"mu_us": mu, "sigma_us": draw(st.integers(0, mu)),
                 "cutoff_lo_us": draw(st.integers(0, mu)), "wcet_us": draw(st.integers(mu, 2 * period))}
        if draw(st.booleans()):
            model["mixture"] = [{"weight": draw(st.sampled_from([0.1, 0.3, 0.5])),
                                 "offset_us": draw(st.integers(-mu, mu))}]
        tasks.append({"id": f"t{i}", "period_us": period, "deadline_us": deadline,
                      "budget_us": draw(st.integers(1, deadline)), "exec_model": model,
                      "criticality": draw(st.sampled_from(["hard", "soft", "best_effort"]))})
    jitter = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "mu_us": st.floats(-100, 100), "sigma_us": st.sampled_from([0.0, 20.0, 2.0**53, 1e300])})))
    interference = None
    if draw(st.booleans()):
        magnitude = draw(st.sampled_from([1, 10, 300, 2_000]))
        interference = {"rate_per_s": draw(st.floats(1.0, 1e6)) / magnitude, "magnitude_us": magnitude}
    data = {
        "tasks": tasks,
        "resources": resources,
        "sim": {"duration_us": draw(st.integers(10_000, 20_000)), "seed": draw(st.integers(0, 2**64)),
                "noise": {"base_overhead_us": draw(st.sampled_from([0, 50])),
                          "latency_jitter": jitter, "interference": interference}},
    }
    if draw(st.booleans()):
        data["orchestrator"] = {"enabled": True, "monitor_period_us": draw(st.sampled_from([1_000, 4_000])),
                                "strategy": draw(st.sampled_from(["naive", "monte_carlo"])),
                                "mc_samples": draw(st.integers(1, 20)),
                                "fit_window": draw(st.integers(MIN_FIT_SAMPLES, 64)),
                                "thresholds": {"hard": draw(st.sampled_from([0.0, 0.05, 1.0]))}}
    if draw(st.booleans()):
        data["initial_plan"] = {t["id"]: draw(st.sampled_from(resources))["id"] for t in tasks}
    fields = [("sim", "seed"), ("sim", "noise", "base_overhead_us"), ("resources", 0, "u_max"),
              ("resources", 0, "policy"), ("tasks", 0, "id"), ("tasks", 0, "period_us"),
              ("tasks", 0, "budget_us"), ("tasks", 0, "exec_model", "mu_us"),
              ("tasks", 0, "exec_model", "sigma_us"), ("tasks", 0, "exec_model", "wcet_us"),
              ("tasks", 0, "criticality"), ("sim", "noise", "latency_jitter"), ("initial_plan",),
              ("sim", "duration_us"), ("orchestrator",)]
    for path in draw(st.lists(st.sampled_from(fields), max_size=2)):
        junk = _JUNK if path in {("sim", "duration_us"), ("orchestrator",)} else _JUNK + [_HUGE]
        _set(list(path), draw(st.sampled_from(junk)))(data)
    return data


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_scenarios())
def test_every_parsed_scenario_simulates_and_every_rejected_one_exits_one(capsys, data):
    try:
        parse_scenario(data)
        accepted = True
    except ScenarioError:
        accepted = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "run")], capsys)
    if accepted:
        assert code in (0, 1, 2)
    else:
        assert code == 1
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), err


# The JSON types each field takes; ``None`` only where null means an absent section.
_NUMBER = (int, float)
_FIELD_TYPES = {
    ("sim", "seed"): (int,), ("sim", "duration_us"): (int,), ("sim", "noise", "base_overhead_us"): (int,),
    ("sim", "noise", "latency_jitter"): (dict, type(None)),
    ("sim", "noise", "latency_jitter", "mu_us"): _NUMBER,
    ("sim", "noise", "latency_jitter", "sigma_us"): _NUMBER,
    ("sim", "noise", "interference", "rate_per_s"): _NUMBER,
    ("sim", "noise", "interference", "magnitude_us"): (int,),
    ("resources", 0, "id"): (str,), ("resources", 0, "u_max"): _NUMBER, ("resources", 0, "policy"): (str,),
    ("tasks", 0, "id"): (str,), ("tasks", 0, "period_us"): (int,), ("tasks", 0, "budget_us"): (int,),
    ("tasks", 0, "criticality"): (str,), ("tasks", 0, "exec_model"): (dict,),
    ("tasks", 0, "exec_model", "mu_us"): (int,), ("tasks", 0, "exec_model", "sigma_us"): (int,),
    ("tasks", 0, "exec_model", "wcet_us"): (int,), ("tasks", 0, "exec_model", "mixture"): (list,),
    ("tasks", 0, "exec_model", "mixture", 0, "weight"): _NUMBER,
    ("tasks", 0, "exec_model", "mixture", 0, "offset_us"): (int,),
    ("orchestrator",): (dict, type(None)), ("orchestrator", "enabled"): (bool,),
    ("orchestrator", "strategy"): (str,), ("orchestrator", "thresholds"): (dict,),
    ("orchestrator", "thresholds", "hard"): _NUMBER, ("orchestrator", "mc_samples"): (int,),
    ("initial_plan",): (dict, type(None)),
}


def _holds(data, path):
    """Whether the parent of ``path`` is in ``data``, so that setting ``path`` replaces a field."""
    for key in path[:-1]:
        try:
            data = data[key]
        except (KeyError, IndexError, TypeError):
            return False
    return isinstance(data, dict)


@settings(max_examples=100, deadline=None)
@given(_scenarios(), st.data())
def test_a_value_of_a_json_type_the_field_does_not_take_is_rejected(data, draws):
    path = draws.draw(st.sampled_from([p for p in _FIELD_TYPES if _holds(data, p)]))
    junk = draws.draw(st.sampled_from([j for j in _JUNK + [_HUGE] if type(j) not in _FIELD_TYPES[path]]))
    _set(list(path), junk)(data)
    with pytest.raises(ScenarioError):
        parse_scenario(data)
