"""The benchmark's checkers accept rtorch's real outputs and reject corrupted ones.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from rtorch.cli import main  # noqa: E402


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def sim_outputs(tmp_path_factory):
    """Two simulated seconds of the conveyor scenario (two CPUs, a migration)."""
    out = tmp_path_factory.mktemp("conveyor")
    scenario_path = ROOT / "scenarios" / "conveyor.json"
    rc, _ = run_cli("simulate", "--scenario", scenario_path, "--duration-us", 3_000_000, "--out", out)
    scenario = json.loads(scenario_path.read_text())
    with open(out / "trace.csv") as fh:
        lines = fh.readlines()
    return {
        "rc": rc, "scenario": scenario, "trace": lines,
        "runtimes": checks.read_runtimes(out / "runtimes.csv"),
        "report": json.loads((out / "report.json").read_text()),
        "histogram": (out / "histogram.csv").read_text().splitlines(keepends=True),
    }


def test_real_simulate_outputs_pass(sim_outputs):
    scan = checks.scan_trace(sim_outputs["trace"])
    assert scan.problems == []
    assert sim_outputs["rc"] == checks.expected_simulate_exit(sim_outputs["scenario"], scan.misses)
    assert checks.check_report(sim_outputs["report"], sim_outputs["runtimes"], scan.misses) == []
    assert checks.check_histogram(sim_outputs["histogram"], sim_outputs["runtimes"], 10) == []
    assert checks.check_runtime_floor(sim_outputs["scenario"], sim_outputs["runtimes"]) == []


def test_report_check_rejects_shifted_mean(sim_outputs):
    report = json.loads(json.dumps(sim_outputs["report"]))
    task = next(iter(report["per_task"]))
    report["per_task"][task]["mean_us"] += 1.0
    scan = checks.scan_trace(sim_outputs["trace"])
    problems = checks.check_report(report, sim_outputs["runtimes"], scan.misses)
    assert any(f"{task}.mean_us" in p for p in problems)


def test_report_check_rejects_wrong_miss_count(sim_outputs):
    scan = checks.scan_trace(sim_outputs["trace"])
    scan.misses["cam_a"] += 1
    assert checks.check_report(sim_outputs["report"], sim_outputs["runtimes"], scan.misses)


def test_histogram_check_rejects_unnormalized_task(sim_outputs):
    lines = list(sim_outputs["histogram"])
    task, lo, hi, rel = lines[1].rstrip("\n").split(",")
    lines[1] = f"{task},{lo},{hi},{float(rel) + 0.01!r}\n"
    assert checks.check_histogram(lines, sim_outputs["runtimes"], 10)


def test_trace_check_rejects_overlapping_runs(sim_outputs):
    lines = list(sim_outputs["trace"])
    start = next(i for i, line in enumerate(lines) if ",start," in line)
    time_us, _, task, cpu = lines[start].rstrip("\n").split(",")
    other = "bg_worker" if task != "bg_worker" else "cam_a"
    # a second job starts on the same CPU while the first still runs
    lines.insert(start + 1, f"{time_us},start,{other},{cpu}\n")
    problems = checks.scan_trace(lines).problems
    assert any("while" in p for p in problems)


def test_trace_check_rejects_runtime_below_floor(sim_outputs):
    runtimes = {tid: list(s) for tid, s in sim_outputs["runtimes"].items()}
    runtimes["cam_a"][0] = 100
    assert checks.check_runtime_floor(sim_outputs["scenario"], runtimes)


def test_simulate_exit_expectation_follows_hard_misses(sim_outputs):
    from collections import Counter
    scenario = sim_outputs["scenario"]
    assert checks.expected_simulate_exit(scenario, Counter()) == checks.EXIT_OK
    assert checks.expected_simulate_exit(scenario, Counter(bg_worker=3)) == checks.EXIT_OK
    assert checks.expected_simulate_exit(scenario, Counter(cam_b=1)) == checks.EXIT_HARD_MISS


def _rm_scenario() -> dict:
    def task(tid):
        return {"id": tid, "period_us": 100_000, "budget_us": 45_000, "criticality": "hard",
                "exec_model": {"mu_us": 10_000, "sigma_us": 1_000, "cutoff_lo_us": 8_000, "wcet_us": 45_000}}
    return {
        "tasks": [task(f"t{i}") for i in range(4)],
        "resources": [{"id": "cpu0", "policy": "RM", "u_max": 1.0, "criticality": "hard"},
                      {"id": "cpu1", "policy": "RM", "u_max": 1.0, "criticality": "hard"}],
    }


def test_plan_check_rejects_cpu_over_its_bound():
    scenario = _rm_scenario()
    packed = {f"t{i}": "cpu0" for i in range(4)}  # 1.8 reserved on one RM CPU
    split = {"t0": "cpu0", "t1": "cpu0", "t2": "cpu1", "t3": "cpu1"}  # 0.9 > rm_bound(2) = 0.828
    assert checks.bound_breaks(scenario, packed) == ["cpu0"]
    assert checks.bound_breaks(scenario, split) == ["cpu0", "cpu1"]
    scenario["tasks"] = scenario["tasks"][:2]
    assert checks.bound_breaks(scenario, {"t0": "cpu0", "t1": "cpu1"}) == []


def test_plan_check_recomputes_per_resource_from_a_real_plan(tmp_path):
    scenario = inputs.placement_scenario(3, 30, 6)
    path = tmp_path / "system.json"
    inputs.write_json(path, scenario)
    rc, text = run_cli("plan", "--scenario", path, "--strategy", "naive")
    assert rc == checks.expected_plan_exit(scenario) == 0
    printed = checks.parse_plan(text)
    assert checks.check_plan(printed, scenario) == []
    assert checks.bound_breaks(scenario, printed["assignments"]) == []

    wrong = json.loads(text)
    rid = next(iter(wrong["per_resource"]))
    wrong["per_resource"][rid]["miss_prob"] *= 2.0
    wrong["per_resource"][rid]["buffer"] -= 0.01
    assert len(checks.check_plan(wrong, scenario)) == 2


def test_fault_system_monte_carlo_plan_breaks_a_bound_first_fit_kept(tmp_path):
    scenario = inputs.fault_scenario()
    path = tmp_path / "fault.json"
    inputs.write_json(path, scenario)
    _, naive = run_cli("plan", "--scenario", path, "--strategy", "naive")
    _, mc = run_cli("plan", "--scenario", path, "--strategy", "monte_carlo",
                    "--mc-samples", inputs.FAULT_MC_SAMPLES, "--seed", inputs.FAULT_MC_SEED)
    naive, mc = checks.parse_plan(naive), checks.parse_plan(mc)
    assert checks.bound_breaks(scenario, naive["assignments"]) == []
    assert checks.bound_breaks(scenario, mc["assignments"])
    assert checks.not_worse(checks.objective(scenario, mc["assignments"]),
                            checks.objective(scenario, naive["assignments"]))


def test_objective_order():
    assert checks.not_worse((0, 0.5, 3), (1, 0.0, 1))
    assert not checks.not_worse((0, 0.5, 3), (0, 0.4, 3))
    assert checks.not_worse((0, 0.4, 2), (0, 0.4 * (1 + 1e-12), 3))
    assert not checks.not_worse((0, 0.4, 4), (0, 0.4, 3))


def test_analyze_check_rejects_wrong_miss_probability(tmp_path):
    csv_path = tmp_path / "runtimes.csv"
    runtimes = {"a": [9_000 + (i * 37) % 2_000 for i in range(60)],
                "b": [19_000 + (i * 53) % 4_000 for i in range(45)]}
    with open(csv_path, "w") as fh:
        fh.write("task,runtime_us\n")
        fh.writelines(f"{tid},{r}\n" for tid, s in runtimes.items() for r in s)
    periods = {"a": 20_000, "b": 40_000}
    rc, text = run_cli("analyze", csv_path, "--period-us", 20_000, "--task-period", "b=40000",
                       "--u-max", 0.98, "--threshold", 0.01)
    assert rc == checks.expected_analyze_exit(runtimes) == 0
    assert checks.check_analyze(text, runtimes, periods, 0.98, 0.01) == []

    group = next(line for line in text.splitlines() if line.startswith("group:"))
    prob = group.split("miss_prob=")[1].split()[0]
    wrong = text.replace(f"miss_prob={prob}", f"miss_prob={float(prob) + 1e-3:.6f}")
    assert any("miss_prob" in p for p in checks.check_analyze(wrong, runtimes, periods, 0.98, 0.01))
    shifted = text.replace("task a: n=60 mu=", "task a: n=60 mu=1")
    assert checks.check_analyze(shifted, runtimes, periods, 0.98, 0.01)


def test_analyze_exit_expectation_needs_thirty_samples():
    assert checks.expected_analyze_exit({"a": [1] * 30}) == checks.EXIT_OK
    assert checks.expected_analyze_exit({"a": [1] * 30, "b": [1] * 29}) == checks.EXIT_INPUT
