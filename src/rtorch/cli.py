"""Command-line front end: simulate, analyze, plan.

Exit codes: 0 success, 1 input error, 2 hard-criticality deadline miss
(simulate), 3 infeasible plan (plan).  A simulate run in which some task
completes no job exits 1 too, and writes nothing.  Set RTORCH_LOG=debug|info|...
to raise log verbosity.  Runs are reproducible: the same scenario and seed produce
byte-identical output files.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from itertools import takewhile
from pathlib import Path

from .admission import admit
from .model import MAX_US, Criticality, utilization
from .orchestration import (
    InfeasibleError,
    OrchestratorHook,
    SystemView,
    build_plan,
    first_fit_plan,
    mc_reallocate,
    Strategy,
)
from .probability import (
    GOODNESS_POOR,
    MIN_FIT_SAMPLES,
    fit_tasks,
    joint_utilization,
    miss_probability,
)
from .reporting import build_report, export_histogram, write_report_json
from .scenario import Scenario, ScenarioError, load_scenario
from .simulation import read_runtimes_csv, run_sim, write_runtimes_csv, write_trace_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HARD_MISS = 2
EXIT_INFEASIBLE = 3

log = logging.getLogger("rtorch")
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; keep 2 reserved for hard misses."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rtorch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a scenario and write trace, runtimes, decisions and report")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--duration-us", type=int, default=None, help="override the simulated duration")
    sim.add_argument("--out", default="out", help="output directory (default: ./out)")
    sim.add_argument("--no-orchestrator", action="store_true", help="force the monitoring loop off")
    sim.add_argument("--bin-width-us", type=int, default=10, help="histogram bin width (default 10)")

    ana = sub.add_parser("analyze", help="fit runtime samples and estimate the group miss probability")
    ana.add_argument("runtimes", help="CSV with header task,runtime_us")
    ana.add_argument("--u-max", type=float, default=1.0, help="utilization ceiling of the measured CPU")
    ana.add_argument("--period-us", type=int, required=True, help="task period applied to all tasks")
    ana.add_argument("--task-period", action="append", default=[], metavar="TASK=US",
                     help="per-task period override (repeatable)")
    ana.add_argument("--threshold", type=float, default=1e-2, help="flag the group above this miss probability")

    pln = sub.add_parser("plan", help="compute an allocation plan and print it as JSON")
    pln.add_argument("--scenario", required=True, help="scenario JSON file")
    pln.add_argument("--strategy", choices=[s.value for s in Strategy], default=None,
                     help="override the scenario strategy")
    pln.add_argument("--mc-samples", type=int, default=None, help="override the Monte Carlo sample count")
    pln.add_argument("--seed", type=int, default=None, help="seed for the Monte Carlo search")
    return parser


def _bad_option(name: str, expected: str, value) -> int:
    print(f"error: {name}: expected {expected}, got {value}", file=sys.stderr)
    return EXIT_INPUT


def _initial_assignments(scenario: Scenario) -> dict[str, str]:
    """Explicit plan if the scenario carries one, else first-fit by declining utilization."""
    if scenario.initial_plan is not None:
        return dict(scenario.initial_plan)
    return first_fit_plan(scenario.tasks, scenario.resources, scenario.orchestrator.thresholds)


def cmd_simulate(args) -> int:
    if args.bin_width_us < 1:
        return _bad_option("--bin-width-us", "positive integer", args.bin_width_us)
    if args.seed is not None and args.seed < 0:
        return _bad_option("--seed", "non-negative integer", args.seed)
    if args.duration_us is not None and not 1 <= args.duration_us <= MAX_US:
        return _bad_option("--duration-us", "integer in [1, 2**53]", args.duration_us)
    try:
        scenario = load_scenario(args.scenario)
        assignments = _initial_assignments(scenario)
    except (ScenarioError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT

    seed = scenario.sim.seed if args.seed is None else args.seed
    duration = scenario.sim.duration_us if args.duration_us is None else args.duration_us
    hook = None
    if scenario.orchestrator.enabled and not args.no_orchestrator and len(scenario.resources) > 1:
        hook = OrchestratorHook(scenario.tasks, scenario.resources, scenario.orchestrator, base_seed=seed)

    try:
        trace = run_sim(
            assignments, scenario.tasks, scenario.resources,
            noise=scenario.sim.noise, duration_us=duration, seed=seed, hook=hook,
        )
        report = build_report(trace, bin_width_us=args.bin_width_us)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for d in made:  # a rejected run leaves no directory behind
            d.rmdir()
        return EXIT_INPUT

    write_trace_csv(trace, out / "trace.csv")
    write_runtimes_csv(trace, out / "runtimes.csv")
    write_report_json(report, out / "report.json")
    export_histogram(report, out / "histogram.csv")
    with open(out / "decisions.jsonl", "w") as fh:
        for record in (hook.records if hook is not None else []):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    log.info("wrote %s", out)

    hard_tasks = {t.id for t in scenario.tasks if t.criticality is Criticality.HARD}
    hard_misses = sum(report.per_task[tid].miss_count for tid in hard_tasks)
    if hard_misses:
        print(f"{hard_misses} hard deadline miss(es); outputs in {out}")
        return EXIT_HARD_MISS
    print(f"0 hard deadline misses; outputs in {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if not 1 <= args.period_us <= MAX_US:
        return _bad_option("--period-us", "integer in [1, 2**53]", args.period_us)
    if not (math.isfinite(args.u_max) and args.u_max > 0.0):
        return _bad_option("--u-max", "positive finite number", args.u_max)
    if not 0.0 <= args.threshold <= 1.0:
        return _bad_option("--threshold", "probability in [0, 1]", args.threshold)
    try:
        samples = read_runtimes_csv(args.runtimes)
    except (OSError, ValueError) as exc:
        print(f"error: {args.runtimes}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not samples:
        print(f"error: {args.runtimes}: no samples", file=sys.stderr)
        return EXIT_INPUT

    periods = {tid: args.period_us for tid in samples}
    for override in args.task_period:
        tid, _, value = override.partition("=")
        # a value longer than MAX_US is out of range, and int() refuses past 4,300 digits
        if (tid not in samples or not value.isdecimal() or len(value) > len(str(MAX_US))
                or not 1 <= int(value) <= MAX_US):
            print(f"error: --task-period {override!r}: unknown task or bad period", file=sys.stderr)
            return EXIT_INPUT
        periods[tid] = int(value)

    # a short task ends the run, after the lines of the tasks before it
    short = next((tid for tid, values in samples.items() if len(values) < MIN_FIT_SAMPLES), None)
    fitted = dict(takewhile(lambda item: item[0] != short, samples.items()))
    models = []
    for tid, (params, goodness) in fit_tasks(fitted, score=True).items():
        flag = "  WARNING: poor normal fit" if goodness > GOODNESS_POOR else ""
        print(f"task {tid}: n={len(samples[tid])} mu={params.mu:.1f}us sigma={params.sigma:.1f}us "
              f"goodness={goodness:.4f}{flag}")
        models.append((params, periods[tid]))
    if short is not None:
        print(f"error: task '{short}' has {len(samples[short])} samples; need at least {MIN_FIT_SAMPLES}",
              file=sys.stderr)
        return EXIT_INPUT

    joint = joint_utilization(models)
    prob = miss_probability(joint, args.u_max)
    marker = "  BREACH" if prob > args.threshold else ""
    print(f"group: joint_mu={joint.mu:.4f} joint_sigma={joint.sigma:.4f} u_max={args.u_max:g} "
          f"miss_prob={prob:.6f} buffer_at_mean={1.0 - joint.mu:.4f}{marker}")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.mc_samples is not None and args.mc_samples < 1:
        return _bad_option("--mc-samples", "positive integer", args.mc_samples)
    if args.seed is not None and args.seed < 0:
        return _bad_option("--seed", "non-negative integer", args.seed)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    tasks = {t.id: t for t in scenario.tasks}
    resources = {r.id: r for r in scenario.resources}
    thresholds = scenario.orchestrator.thresholds

    # a task that admits on no resource alone can never be placed
    stuck = []
    for task in scenario.tasks:
        if not any(
            admit(res, [], task, thresholds[task.criticality]).admitted
            for res in scenario.resources
        ):
            stuck.append(task.id)
    total_util = math.fsum(utilization(t) for t in scenario.tasks)
    capacity = math.fsum(r.u_max for r in scenario.resources)
    if stuck or total_util > capacity:
        for tid in stuck:
            print(f"infeasible: task '{tid}' admits on no resource", file=sys.stderr)
        if total_util > capacity:
            print(f"infeasible: total utilization {total_util:.4f} exceeds capacity {capacity:.4f}",
                  file=sys.stderr)
        return EXIT_INFEASIBLE

    strategy = Strategy(args.strategy) if args.strategy else scenario.orchestrator.strategy
    mc_samples = args.mc_samples if args.mc_samples is not None else scenario.orchestrator.mc_samples
    seed = args.seed if args.seed is not None else scenario.sim.seed

    try:
        incumbent = _initial_assignments(scenario)
    except InfeasibleError as exc:
        if strategy is Strategy.NAIVE:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        # give the random search a starting point even when first-fit gets stuck
        incumbent = {t.id: scenario.resources[0].id for t in scenario.tasks}

    if strategy is Strategy.MONTE_CARLO:
        view = SystemView(now_us=0, tasks=tasks, resources=resources, assignments=incumbent, fits={})
        incumbent = mc_reallocate(view, thresholds, mc_samples, seed).assignments
    print(json.dumps(asdict(build_plan(incumbent, tasks, resources)), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("RTORCH_LOG", "").upper()
    if level:  # any other value, such as a logging attribute that is no level, means warnings
        logging.basicConfig(level=getattr(logging, level) if level in _LOG_LEVELS else logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    handlers = {"simulate": cmd_simulate, "analyze": cmd_analyze, "plan": cmd_plan}
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
