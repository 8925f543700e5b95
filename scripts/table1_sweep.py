#!/usr/bin/env python3
"""Sweep the bundled unit-count scenarios and print one summary row per run.

Columns: unit count, AVG (group mean runtime, us), SKW (min/max deviation of
task means from the group average, us), SD_MX (stddev of the task straying
furthest) and the total deadline misses.  The load tips between 9 and 10
units; the miss column shows where.  Tasks are placed as ``rtorch simulate``
places them: the scenario's ``initial_plan``, else first fit.  ``--duration-us``
must be within [1, 2**53], as a scenario's ``sim.duration_us``; it is checked
before any run.  A rejected option or scenario prints one line and exits 1.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from rtorch.cli import _bad_option, initial_assignments
from rtorch.model import MAX_US
from rtorch.orchestration import InfeasibleError
from rtorch.reporting import build_report, render_table
from rtorch.scenario import ScenarioError, load_scenario
from rtorch.simulation import run_sim

REPO_ROOT = Path(__file__).resolve().parent.parent


def sweep_row(path: Path, duration_us: int | None, seed: int | None) -> str:
    scenario = load_scenario(path)
    trace = run_sim(
        initial_assignments(scenario),
        scenario.tasks,
        scenario.resources,
        noise=scenario.sim.noise,
        duration_us=scenario.sim.duration_us if duration_us is None else duration_us,
        seed=scenario.sim.seed if seed is None else seed,
    )
    report = build_report(trace)
    misses = sum(trace.miss_counts().values())
    return f"{len(scenario.tasks)} & {render_table(report)} & {misses}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario-dir", type=Path, default=REPO_ROOT / "scenarios")
    parser.add_argument("--duration-us", type=int, default=None,
                        help="override every scenario's simulated duration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every scenario's seed")
    args = parser.parse_args()
    if args.duration_us is not None and not 1 <= args.duration_us <= MAX_US:
        return _bad_option("--duration-us", "integer in [1, 2**53]", args.duration_us)

    print("units & AVG & SKW & SD_MX & misses")
    for n in range(4, 11):
        path = args.scenario_dir / f"table1_{n}units.json"
        try:
            print(sweep_row(path, args.duration_us, args.seed))
        except (ScenarioError, InfeasibleError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
