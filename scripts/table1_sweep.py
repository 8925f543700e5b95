#!/usr/bin/env python3
"""Sweep the bundled unit-count scenarios and print one summary row per run.

Columns: unit count, AVG (group mean runtime, us), SKW (min/max deviation of
task means from the group average, us), SD_MX (stddev of the task straying
furthest) and the total deadline misses.  The load tips between 9 and 10
units; the miss column shows where.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from rtorch.reporting import build_report, render_table
from rtorch.scenario import load_scenario
from rtorch.simulation import run_sim

REPO_ROOT = Path(__file__).resolve().parent.parent


def sweep_row(path: Path, duration_us: int | None, seed: int | None) -> str:
    scenario = load_scenario(path)
    trace = run_sim(
        scenario.initial_plan or {},
        scenario.tasks,
        scenario.resources,
        noise=scenario.sim.noise,
        duration_us=duration_us or scenario.sim.duration_us,
        seed=scenario.sim.seed if seed is None else seed,
    )
    report = build_report(trace)
    misses = sum(trace.miss_counts().values())
    return f"{len(scenario.tasks)} & {render_table(report)} & {misses}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario-dir", type=Path, default=REPO_ROOT / "scenarios")
    parser.add_argument("--duration-us", type=int, default=None,
                        help="override every scenario's simulated duration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every scenario's seed")
    args = parser.parse_args()

    print("units & AVG & SKW & SD_MX & misses")
    for n in range(4, 11):
        path = args.scenario_dir / f"table1_{n}units.json"
        print(sweep_row(path, args.duration_us, args.seed))


if __name__ == "__main__":
    main()
