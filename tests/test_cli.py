import json

import pytest

from conftest import DATA_DIR, SCENARIO_DIR
from rtorch import cli

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


def test_usage_errors_exit_one_not_two(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["simulate"]) == 1
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


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


def test_log_env_variable_is_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RTORCH_LOG", "info")
    code, _, _ = run_cli(
        ["simulate", "--scenario", str(SCENARIO_DIR / "table1_4units.json"),
         "--duration-us", "1000000", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0
