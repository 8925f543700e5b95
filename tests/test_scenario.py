import json
import math
import re
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from rtorch.model import Criticality, Policy
from rtorch.orchestration import Strategy
from rtorch.probability import NormalParams
from rtorch.scenario import ScenarioError, load_scenario, parse_scenario
from rtorch.simulation import SimTrace, read_runtimes_csv, write_runtimes_csv

BASE = {
    "tasks": [
        {
            "id": "cam_a",
            "period_us": 125_000,
            "budget_us": 62_500,
            "criticality": "hard",
            "exec_model": {
                "mu_us": 56_250,
                "sigma_us": 6_250,
                "cutoff_lo_us": 37_500,
                "wcet_us": 75_000,
            },
        },
        {
            "id": "bg",
            "period_us": 50_000,
            "budget_us": 25_000,
            "criticality": "best_effort",
            "exec_model": {
                "mu_us": 24_000,
                "sigma_us": 500,
                "cutoff_lo_us": 20_000,
                "wcet_us": 26_000,
            },
        },
    ],
    "resources": [
        {"id": "cpu0", "policy": "EDF", "u_max": 1.0, "criticality": "hard"},
        {"id": "cpu1", "policy": "RM", "u_max": 0.9, "criticality": "best_effort"},
    ],
    "orchestrator": {
        "enabled": True,
        "monitor_period_us": 1_000_000,
        "strategy": "naive",
        "thresholds": {"hard": 0.05},
    },
    "sim": {
        "duration_us": 60_000_000,
        "seed": 7,
        "noise": {
            "base_overhead_us": 80,
            "latency_jitter": {"mu_us": 0, "sigma_us": 80},
            "interference": {"rate_per_s": 250.0, "magnitude_us": 250},
        },
    },
    "initial_plan": {"cam_a": "cpu0", "bg": "cpu1"},
}


def deep(base, **overrides):
    data = json.loads(json.dumps(base))
    data.update(overrides)
    return data


def test_full_scenario_parses():
    scenario = parse_scenario(BASE)
    assert [t.id for t in scenario.tasks] == ["cam_a", "bg"]
    assert scenario.tasks[0].criticality is Criticality.HARD
    assert scenario.tasks[0].deadline_us == 125_000
    assert scenario.resources[1].policy is Policy.RM
    assert scenario.orchestrator.enabled
    assert scenario.orchestrator.strategy is Strategy.NAIVE
    assert scenario.orchestrator.thresholds[Criticality.HARD] == 0.05
    assert scenario.orchestrator.thresholds[Criticality.SOFT] == 1e-2
    assert scenario.sim.seed == 7
    assert scenario.sim.noise.base_overhead_us == 80
    assert scenario.sim.noise.latency_jitter.sigma == 80.0
    assert scenario.sim.noise.interference.rate_per_s == 250.0
    assert scenario.initial_plan == {"cam_a": "cpu0", "bg": "cpu1"}


def test_omitted_sections_take_defaults():
    data = {"tasks": BASE["tasks"], "resources": BASE["resources"]}
    scenario = parse_scenario(data)
    assert not scenario.orchestrator.enabled
    assert scenario.sim.duration_us == 60_000_000
    assert scenario.sim.seed == 0
    assert scenario.sim.noise.base_overhead_us == 0
    assert scenario.sim.noise.interference is None
    assert scenario.initial_plan is None


def test_duplicate_task_id_rejected():
    data = deep(BASE, tasks=BASE["tasks"] + [BASE["tasks"][0]])
    with pytest.raises(ScenarioError, match="duplicate task id 'cam_a'"):
        parse_scenario(data)


def test_duplicate_resource_id_rejected():
    data = deep(BASE, resources=BASE["resources"] + [BASE["resources"][0]])
    with pytest.raises(ScenarioError, match="duplicate resource id"):
        parse_scenario(data)


def test_invalid_task_reports_field_and_violation():
    bad = json.loads(json.dumps(BASE))
    bad["tasks"][0]["budget_us"] = 200_000
    with pytest.raises(ScenarioError, match=r"tasks\[0\] \('cam_a'\).*budget"):
        parse_scenario(bad)


def test_missing_tasks_rejected():
    with pytest.raises(ScenarioError, match="missing required field 'tasks'"):
        parse_scenario({"resources": BASE["resources"]})


def test_u_max_out_of_range_rejected():
    bad = json.loads(json.dumps(BASE))
    bad["resources"][0]["u_max"] = 1.5
    with pytest.raises(ScenarioError, match="u_max"):
        parse_scenario(bad)


def test_incomplete_initial_plan_rejected():
    data = deep(BASE, initial_plan={"cam_a": "cpu0"})
    with pytest.raises(ScenarioError, match="unassigned tasks: bg"):
        parse_scenario(data)


def test_initial_plan_with_unknown_resource_rejected():
    data = deep(BASE, initial_plan={"cam_a": "gpu7", "bg": "cpu1"})
    with pytest.raises(ScenarioError, match="unknown resource 'gpu7'"):
        parse_scenario(data)


def test_unknown_strategy_rejected():
    data = deep(BASE, orchestrator={"strategy": "greedy"})
    with pytest.raises(ScenarioError, match="strategy"):
        parse_scenario(data)


def test_unknown_threshold_name_rejected():
    data = deep(BASE, orchestrator={"thresholds": {"kinda_hard": 0.5}})
    with pytest.raises(ScenarioError, match="kinda_hard"):
        parse_scenario(data)


def test_threshold_out_of_range_rejected():
    data = deep(BASE, orchestrator={"thresholds": {"hard": 1.5}})
    with pytest.raises(ScenarioError, match="probability"):
        parse_scenario(data)


def test_negative_interference_rejected():
    bad = json.loads(json.dumps(BASE))
    bad["sim"]["noise"]["interference"] = {"rate_per_s": -1.0, "magnitude_us": 250}
    with pytest.raises(ScenarioError, match="interference"):
        parse_scenario(bad)


def test_interference_rate_bounded_by_magnitude():
    data = json.loads(json.dumps(BASE))
    data["sim"]["noise"]["interference"] = {"rate_per_s": 4_000.0, "magnitude_us": 250}
    assert parse_scenario(data).sim.noise.interference.rate_per_s == 4_000.0  # blocked all of the time
    data["sim"]["noise"]["interference"]["rate_per_s"] = 4_000.5
    with pytest.raises(ScenarioError, match=r"interference\.rate_per_s: expected at most 1e6 / magnitude_us"):
        parse_scenario(data)
    # the bound caps the blocked fraction, not the event count: one event per
    # microsecond at magnitude 1 is accepted
    data["sim"]["noise"]["interference"] = {"rate_per_s": 1e6, "magnitude_us": 1}
    assert parse_scenario(data).sim.noise.interference.rate_per_s == 1e6
    data["sim"]["noise"]["interference"]["rate_per_s"] = math.nextafter(1e6, math.inf)
    with pytest.raises(ScenarioError, match=r"interference\.rate_per_s: expected at most 1e6 / magnitude_us"):
        parse_scenario(data)


def test_negative_seed_rejected():
    data = deep(BASE, sim={"duration_us": 1_000_000, "seed": -1})
    with pytest.raises(ScenarioError, match="sim.seed: expected non-negative integer, got -1"):
        parse_scenario(data)


def test_fractional_period_rejected_not_truncated():
    data = deep(BASE)
    data["tasks"][0]["period_us"] = 125_000.5
    with pytest.raises(ScenarioError, match=r"tasks\[0\]\.period_us: expected integer, got 125000\.5"):
        parse_scenario(data)


def test_every_integer_duration_is_bounded_by_2_53_in_magnitude():
    data = deep(BASE)
    task = data["tasks"][0]
    task.update(period_us=2**53, budget_us=2**52)
    task["exec_model"].update(mu_us=2**52, wcet_us=2**53)
    data["tasks"][1]["exec_model"]["mixture"] = [{"weight": 0.5, "offset_us": -(2**53)}]
    parsed = parse_scenario(data)
    assert (parsed.tasks[0].period_us, parsed.tasks[1].exec_model.mixture[0].offset_us) == (2**53, -(2**53))
    for field, value in [("tasks[0].period_us", 10**401), ("tasks[0].exec_model.wcet_us", 2**53 + 1),
                         ("tasks[1].exec_model.mixture[0].offset_us", -(2**53) - 1),
                         ("sim.noise.base_overhead_us", 2**53 + 1)]:
        bad = json.loads(json.dumps(data))
        target = bad
        *parents, last = re.findall(r"\w+", field)
        for key in parents:
            target = target[int(key) if key.isdigit() else key]
        target[last] = value
        with pytest.raises(ScenarioError, match=re.escape(f"{field}: expected integer of magnitude at most 2**53")):
            parse_scenario(bad)


def test_a_jitter_past_2_53_is_rejected():
    """A jitter sigma of 1e308 overflowed the demand draw to infinity; 2**53 is the largest accepted."""
    data = deep(BASE)
    jitter = data["sim"]["noise"]["latency_jitter"]
    jitter.update(mu_us=-(2.0**53), sigma_us=2.0**53)
    assert parse_scenario(data).sim.noise.latency_jitter == NormalParams(-(2.0**53), 2.0**53)
    for key, value in [("sigma_us", 1e308), ("sigma_us", math.nextafter(2.0**53, math.inf)), ("mu_us", -1e308)]:
        bad = json.loads(json.dumps(data))
        bad["sim"]["noise"]["latency_jitter"][key] = value
        with pytest.raises(ScenarioError, match=rf"sim\.noise\.latency_jitter\.{key}: expected"):
            parse_scenario(bad)


def test_a_runtime_past_2_53_is_rejected(tmp_path):
    path = tmp_path / "runtimes.csv"
    path.write_text(f"task,runtime_us\na,{2**53}\na,{-(2**53)}\n")
    assert read_runtimes_csv(path) == {"a": [2**53, -(2**53)]}
    path.write_text(f"task,runtime_us\na,5\na,{10**399}\n")
    with pytest.raises(ValueError, match="line 3: runtime_us of magnitude past 2\\*\\*53"):
        read_runtimes_csv(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "tasks": [,]\n}\n')
    with pytest.raises(ScenarioError, match="line 2 column 13"):
        load_scenario(path)


def test_missing_file_reported(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "absent.json")


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b'{"sim": {"seed": ' + b"9" * 5000 + b"}}"],
                         ids=["directory", "not-utf8", "integer-past-digit-limit"])
def test_unreadable_file_is_a_scenario_error(content, tmp_path):
    path = tmp_path / "scenario.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ScenarioError, match="^" + re.escape(f"{path}: ")):
        load_scenario(path)


def test_load_matches_parse(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE))
    assert load_scenario(path) == parse_scenario(BASE)


@given(
    st.integers(1, 10**9),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["naive", "monte_carlo"]),
)
def test_settings_round_trip_through_json(duration, seed, strategy):
    data = deep(
        BASE,
        sim={"duration_us": duration, "seed": seed},
        orchestrator={"strategy": strategy},
    )
    scenario = parse_scenario(json.loads(json.dumps(data)))
    assert scenario.sim.duration_us == duration
    assert scenario.sim.seed == seed
    assert scenario.orchestrator.strategy.value == strategy


@given(st.text(max_size=6))
def test_accepted_task_ids_survive_the_runtimes_csv(tid):
    assume(tid != "bg")  # a duplicate of the other task's id
    data = deep(BASE)
    data["tasks"][0]["id"] = tid
    data["initial_plan"] = {tid: "cpu0", "bg": "cpu1"}
    try:
        scenario = parse_scenario(data)
    except ScenarioError as exc:
        assert str(exc).startswith("tasks[0].id: ")
        assert not tid or any(c in ',"' or c.isspace() or unicodedata.category(c) == "Cc" for c in tid)
        return
    assert scenario.tasks[0].id == tid
    # what simulate writes, analyze reads back
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runtimes.csv"
        write_runtimes_csv(SimTrace(events=[], per_task_runtimes={tid: [7, 9], "bg": [1]}), path)
        assert read_runtimes_csv(path) == {tid: [7, 9], "bg": [1]}
