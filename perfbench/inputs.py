"""Input generation for the three workloads.

Everything here is derived from the workload seed with the standard library's
``random.Random`` (whose stream is stable across Python versions), so the same
seed always yields the same scenario files.  Nothing here imports rtorch.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

PAPER_SCENARIOS = (
    "table1_4units", "table1_5units", "table1_6units", "table1_7units",
    "table1_8units", "table1_9units", "table1_10units", "fig5_short", "conveyor",
)
PAPER_SIM_SEEDS = 2  # simulate runs per bundled scenario and round

FLEET_TASKS = 200
FLEET_CPUS = 32
FLEET_PERIODS_US = (5_000, 10_000, 15_000, 20_000)
FLEET_DURATION_US = 2_000_000
FLEET_MONITOR_US = 100_000
FLEET_FIT_WINDOW = 80  # the 20 ms tasks complete 100 jobs in 2 s, so every window fills
FLEET_MC_SAMPLES = 20
FLEET_HARD_THRESHOLD = 1e-3
FLEET_OVERLOADED_CPUS = ("cpu00", "cpu02", "cpu04", "cpu06")
FLEET_HOT_CPU = "cpu08"

# (tasks, CPUs) of the seeded cold-start systems
PLACEMENT_SIZES = ((6, 2), (30, 6), (100, 16), (240, 32))
PLACEMENT_PERIODS_US = (20_000, 25_000, 40_000, 50_000)
PLACEMENT_MC_SAMPLES = 1000
PLACEMENT_BIN_WIDTH_US = 100  # runtimes span milliseconds; 10 us bins would make the report dominate
# the Liu & Layland bound n(2^(1/n) - 1) never drops below ln 2 = 0.6931..., so
# an RM CPU whose ceiling sits under it cannot break its bound without a miss
# probability above 0.5 (see README, "placement")
PLACEMENT_RM_U_MAX = 0.69
PLACEMENT_LOAD = 0.45  # mean utilization over total ceiling

# the known Monte Carlo fault: fixed inputs, independent of the workload seed
FAULT_GENERATOR_SEED = 2020
FAULT_TASKS = 40
FAULT_CPUS = 8
FAULT_BUDGET_FACTOR = 1.8
FAULT_MC_SAMPLES = 1000
FAULT_MC_SEED = 1


def derive(seed: int, label: str) -> int:
    """31-bit seed for one labelled use of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _task(tid: str, period: int, mu: int, sigma: int, budget: int, crit: str) -> dict:
    return {
        "id": tid,
        "period_us": period,
        "budget_us": budget,
        "criticality": crit,
        "exec_model": {
            "mu_us": mu,
            "sigma_us": sigma,
            "cutoff_lo_us": mu - 2 * sigma,
            "wcet_us": mu + 4 * sigma,
        },
    }


def fleet_scenario(seed: int, strategy: str) -> dict:
    """About 200 periodic tasks on 32 EDF/RM CPUs, started from an overloaded plan.

    Four EDF CPUs start loaded to a mean utilization of at least 1.05, and one
    hard task whose miss probability alone exceeds the hard threshold sits on
    its own CPU, so every monitoring epoch finds a breach and calls the
    reallocator: the epoch and Monte Carlo counts do not depend on the seed.
    """
    rng = random.Random(derive(seed, "fleet"))
    periods = [p for p in FLEET_PERIODS_US for _ in range(FLEET_TASKS // len(FLEET_PERIODS_US))]
    rng.shuffle(periods)
    crits = ["hard"] * (FLEET_TASKS * 7 // 10)
    crits += ["best_effort"] * (FLEET_TASKS - len(crits))
    rng.shuffle(crits)

    tasks, utils = [], []
    for i, (period, crit) in enumerate(zip(periods, crits)):
        util = rng.uniform(0.03, 0.10)
        mu = round(util * period)
        sigma = max(1, round(0.08 * mu))
        tasks.append(_task(f"t{i:03d}", period, mu, sigma, round(1.25 * mu), crit))
        utils.append(mu / period)
    hot = next(i for i, t in enumerate(tasks) if t["period_us"] == 20_000 and t["criticality"] == "hard")
    tasks[hot] = _task(tasks[hot]["id"], 20_000, 16_000, 1_600, 19_000, "hard")
    utils[hot] = 0.8

    resources = [
        {
            "id": f"cpu{j:02d}",
            "policy": "EDF" if j % 2 == 0 else "RM",
            "u_max": 1.0,
            "criticality": "best_effort" if j >= 24 else "hard",
        }
        for j in range(FLEET_CPUS)
    ]
    plan = {tasks[hot]["id"]: FLEET_HOT_CPU}
    rest = [i for i in range(FLEET_TASKS) if i != hot]
    for rid in FLEET_OVERLOADED_CPUS:
        load = 0.0
        while load < 1.05:
            i = rest.pop(0)
            plan[tasks[i]["id"]] = rid
            load += utils[i]
    spread = [r["id"] for r in resources if r["id"] not in FLEET_OVERLOADED_CPUS + (FLEET_HOT_CPU,)]
    for n, i in enumerate(rest):
        plan[tasks[i]["id"]] = spread[n % len(spread)]

    return {
        "tasks": tasks,
        "resources": resources,
        "initial_plan": plan,
        "sim": {
            "duration_us": FLEET_DURATION_US,
            "seed": derive(seed, f"fleet-sim-{strategy}"),
            "noise": {
                "base_overhead_us": 40,
                "latency_jitter": {"mu_us": 0, "sigma_us": 30},
                "interference": {"rate_per_s": 40.0, "magnitude_us": 100},
            },
        },
        "orchestrator": {
            "enabled": True,
            "strategy": strategy,
            "monitor_period_us": FLEET_MONITOR_US,
            "fit_window": FLEET_FIT_WINDOW,
            "mc_samples": FLEET_MC_SAMPLES,
            "thresholds": {"hard": FLEET_HARD_THRESHOLD},
        },
    }


def placement_scenario(seed: int, n_tasks: int, n_cpus: int) -> dict:
    """Cold-start system without an ``initial_plan``; budgets equal the mean runtime.

    EDF CPUs have ceilings 1.0 or 0.9, RM CPUs 0.69, and tasks are hard or
    soft, so any plan that breaks a utilization bound also breaches a miss
    threshold and the search can never prefer it over first fit.
    """
    rng = random.Random(derive(seed, f"placement-{n_tasks}x{n_cpus}"))
    resources = []
    for j in range(n_cpus):
        if j % 2 == 0:
            policy, u_max = "EDF", (1.0 if j % 4 == 0 else 0.9)
        else:
            policy, u_max = "RM", PLACEMENT_RM_U_MAX
        resources.append({"id": f"cpu{j:02d}", "policy": policy, "u_max": u_max, "criticality": "hard"})
    mean_util = PLACEMENT_LOAD * sum(r["u_max"] for r in resources) / n_tasks
    tasks = []
    for i in range(n_tasks):
        period = PLACEMENT_PERIODS_US[i % len(PLACEMENT_PERIODS_US)]
        mu = round(rng.uniform(0.5, 1.5) * mean_util * period)
        sigma = max(1, round(0.1 * mu))
        crit = "hard" if rng.random() < 0.6 else "soft"
        tasks.append(_task(f"p{i:03d}", period, mu, sigma, mu, crit))
    rng.shuffle(tasks)
    return {
        "tasks": tasks,
        "resources": resources,
        "sim": {
            "duration_us": 32 * max(PLACEMENT_PERIODS_US),
            "seed": derive(seed, f"placement-sim-{n_tasks}x{n_cpus}"),
            "noise": {"base_overhead_us": 20, "latency_jitter": {"mu_us": 0, "sigma_us": 20}},
        },
    }


def fault_scenario() -> dict:
    """The system on which ``plan --strategy monte_carlo`` breaks a utilization bound.

    40 tasks on 8 CPUs alternating EDF and RM, budgets at 1.8x the mean
    runtime (near the WCET).  It does not depend on the workload seed.
    """
    rng = random.Random(FAULT_GENERATOR_SEED)
    resources = [
        {"id": f"cpu{j}", "policy": "EDF" if j % 2 == 0 else "RM", "u_max": 1.0, "criticality": "hard"}
        for j in range(FAULT_CPUS)
    ]
    tasks = []
    for i in range(FAULT_TASKS):
        period = PLACEMENT_PERIODS_US[i % len(PLACEMENT_PERIODS_US)]
        mu = round(rng.uniform(0.05, 0.11) * period)
        sigma = max(1, round(0.1 * mu))
        budget = round(FAULT_BUDGET_FACTOR * mu)
        task = _task(f"f{i:02d}", period, mu, sigma, budget, "hard")
        task["exec_model"]["wcet_us"] = max(budget + sigma, mu + 4 * sigma)
        tasks.append(task)
    return {
        "tasks": tasks,
        "resources": resources,
        "sim": {
            "duration_us": 32 * max(PLACEMENT_PERIODS_US),
            "seed": FAULT_GENERATOR_SEED,
            "noise": {"base_overhead_us": 20, "latency_jitter": {"mu_us": 0, "sigma_us": 20}},
        },
    }


def with_plan(scenario: dict, assignments: dict) -> dict:
    """The scenario with a printed plan as its ``initial_plan`` (placement systems
    have no ``orchestrator`` section, so monitoring stays off)."""
    return {**scenario, "initial_plan": dict(assignments)}
