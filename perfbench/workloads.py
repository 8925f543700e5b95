"""The three workloads: which CLI calls one round makes, and how each is checked.

An operation is one ``rtorch.cli.main`` call.  It fails on an unexpected exit
code or a failed output check.  Outputs are checked in full the first time an
operation's outputs are seen; a later round whose outputs hash the same reuses
that verdict (rtorch is byte-reproducible, so later rounds normally do).
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import inputs


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, Path):
            with open(part, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class Bench:
    """Runs operations, times them per round, and keeps the check verdicts."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.round = 0
        self.round_times: list[Counter] = []
        self.op_round: list[int] = []
        self.op_counts: list[Counter] = []
        self.op_sizes: list[Counter] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self._verdicts: dict[str, tuple] = {}
        self.calibration: dict[str, dict] = {}

    def start_round(self) -> None:
        self.round = len(self.round_times)
        self.round_times.append(Counter())

    def call(self, kind: str, argv: list[str]) -> tuple[int, str, str]:
        """Time one ``rtorch <kind> <argv>``; returns exit code, stdout and stderr."""
        op = len(self.op_round)
        self.op_round.append(self.round)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin_op(op, f"cli.{kind}") if self.tracer else None
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.main([kind, *argv])
        elapsed = time.perf_counter() - t0
        self.op_counts.append(self.tracer.end_op(span) if self.tracer else Counter())
        self.op_sizes.append(Counter())
        self.round_times[self.round][f"{kind}_s"] += elapsed
        self.attempted += 1
        return rc, out.getvalue(), err.getvalue()

    def verify(self, label: str, key: str, check):
        """Run ``check() -> (problems, known, info)`` unless ``key`` matches the last verdict."""
        verdict = self._verdicts.get(label)
        if verdict is None or verdict[0] != key:
            verdict = (key, *check())
            self._verdicts[label] = verdict
        _, problems, known, info = verdict
        if problems or known:
            self.failed += 1
        if problems and len(self.unexpected) < 20:
            self.unexpected.append(f"round {self.round} {label}: " + "; ".join(problems[:3]))
        if known and len(self.known) < 20:
            self.known.append(f"round {self.round} {label}: " + "; ".join(known))
        return info if not problems else None

    def skip(self, label: str, reason: str) -> None:
        """An operation that cannot run because the one it depends on failed."""
        self.attempted += 1
        self.failed += 1
        if len(self.unexpected) < 20:
            self.unexpected.append(f"round {self.round} {label}: not run, {reason}")


# ---------------------------------------------------------------- shared steps

def simulate(bench: Bench, label: str, scenario: dict, scenario_path: Path, out: Path,
             extra: list[str] = (), claim=None, bin_width: int = 10) -> dict | None:
    """One ``rtorch simulate`` call plus its output checks; returns the parsed runtimes etc."""
    shutil.rmtree(out, ignore_errors=True)
    argv = ["--scenario", str(scenario_path), "--out", str(out), "--bin-width-us", str(bin_width), *extra]
    rc, text, err = bench.call("simulate", argv)
    files = [out / name for name in ("trace.csv", "runtimes.csv", "report.json", "histogram.csv", "decisions.jsonl")]
    present = all(f.exists() for f in files)
    key = digest(rc, text, err, *(files if present else ()))

    def check():
        if not present:
            return [f"exit {rc}, outputs missing: {err.strip()[-200:]}"], [], None
        with open(files[0]) as fh:
            scan = checks.scan_trace(fh)
        runtimes = checks.read_runtimes(files[1])
        problems = list(scan.problems)
        expected = checks.expected_simulate_exit(scenario, scan.misses)
        if rc != expected:
            problems.append(f"exit {rc}, expected {expected}")
        if any(scan.completes[t] != len(s) for t, s in runtimes.items()):
            problems.append("complete rows differ from runtimes.csv counts")
        problems += checks.check_runtime_floor(scenario, runtimes)
        problems += checks.check_report(json.loads(files[2].read_text()), runtimes, scan.misses)
        with open(files[3]) as fh:
            problems += checks.check_histogram(fh, runtimes, bin_width)
        if claim is not None:
            problems += claim(scan)
        return problems, [], {"rows": scan.rows, "runtimes": runtimes, "scan": scan, "key": key}

    info = bench.verify(label, key, check)
    if info is not None:
        bench.round_times[bench.round]["trace_rows"] += info["rows"]
        bench.op_sizes[-1].update(trace_bytes=files[0].stat().st_size, report_bytes=files[2].stat().st_size)
    return info


def analyze(bench: Bench, label: str, csv_path: Path, runtimes: dict, periods: dict[str, int],
            u_max: float, threshold: float, input_key: str) -> None:
    common = min(periods.values())
    argv = [str(csv_path), "--period-us", str(common), "--u-max", repr(u_max), "--threshold", repr(threshold)]
    for tid in runtimes:
        if periods[tid] != common:
            argv += ["--task-period", f"{tid}={periods[tid]}"]
    rc, text, err = bench.call("analyze", argv)

    def check():
        expected = checks.expected_analyze_exit(runtimes)
        if rc != expected:
            return [f"exit {rc}, expected {expected}: {err.strip()[-200:]}"], [], None
        if rc != checks.EXIT_OK:
            return [], [], None
        return checks.check_analyze(text, runtimes, periods, u_max, threshold), [], None

    bench.verify(label, digest(rc, text, err, input_key), check)


def plan(bench: Bench, label: str, scenario: dict, scenario_path: Path, strategy: str,
         extra: list[str] = (), incumbent: dict | None = None) -> dict | None:
    """One ``rtorch plan`` call.  A Monte Carlo plan is also held against ``incumbent``
    (the naive plan, from which the search starts): never worse under the README's
    objective, and never over a utilization bound the incumbent kept."""
    rc, text, err = bench.call("plan", ["--scenario", str(scenario_path), "--strategy", strategy, *extra])

    def check():
        expected = checks.expected_plan_exit(scenario)
        if rc != expected:
            return [f"exit {rc}, expected {expected}: {err.strip()[-200:]}"], [], None
        if rc != checks.EXIT_OK:
            return [], [], None
        printed = checks.parse_plan(text)
        if printed is None:
            return ["plan printed no plan JSON"], [], None
        problems = checks.check_plan(printed, scenario)
        known = []
        if not problems and incumbent is not None:
            mine = checks.objective(scenario, printed["assignments"])
            theirs = checks.objective(scenario, incumbent["assignments"])
            if not checks.not_worse(mine, theirs):
                problems.append(f"objective {mine} worse than the incumbent's {theirs}")
            broken = checks.bound_breaks(scenario, printed["assignments"])
            if broken and not checks.bound_breaks(scenario, incumbent["assignments"]):
                known.append(f"known fault: monte_carlo plan puts {', '.join(broken)} over the "
                             "utilization bound that first fit kept")
        return problems, known, printed

    return bench.verify(label, digest(rc, text, err), check)


def periods_of(scenario: dict) -> dict[str, int]:
    return {t["id"]: t["period_us"] for t in scenario["tasks"]}


# ---------------------------------------------------------------- workloads

class Workload:
    """``generate()`` writes the inputs (timed as set-up); ``run_round`` makes one round."""

    def __init__(self, root: Path, run_dir: Path, seed: int):
        self.root, self.run_dir, self.seed = root, run_dir, seed


class Paper(Workload):
    """The nine bundled scenarios, each simulated under PAPER_SIM_SEEDS derived seeds."""

    def generate(self) -> None:
        self.scenarios = {}
        for name in inputs.PAPER_SCENARIOS:
            path = self.root / "scenarios" / f"{name}.json"
            self.scenarios[name] = (path, json.loads(path.read_text()))
        self.sim_seeds = {name: [inputs.derive(self.seed, f"paper-{name}-{k}") for k in range(inputs.PAPER_SIM_SEEDS)]
                          for name in inputs.PAPER_SCENARIOS}
        self.plan_seeds = {name: inputs.derive(self.seed, f"paper-{name}-plan") for name in inputs.PAPER_SCENARIOS}

    def run_round(self, bench: Bench) -> None:
        for name, (path, scenario) in self.scenarios.items():
            claim = _table1_claim(name)
            u_max = math.fsum(r.get("u_max", 1.0) for r in scenario["resources"])
            threshold = checks.thresholds(scenario)["hard"]
            for k, sim_seed in enumerate(self.sim_seeds[name]):
                label = f"{name}-{k}"
                out = self.run_dir / label
                info = simulate(bench, f"simulate {label}", scenario, path, out,
                                ["--seed", str(sim_seed)], claim)
                if info is None:
                    bench.skip(f"analyze {label}", "simulate failed")
                    continue
                analyze(bench, f"analyze {label}", out / "runtimes.csv", info["runtimes"],
                        periods_of(scenario), u_max, threshold, info["key"])
            naive = plan(bench, f"plan naive {name}", scenario, path, "naive")
            plan(bench, f"plan monte_carlo {name}", scenario, path, "monte_carlo",
                 ["--seed", str(self.plan_seeds[name])], incumbent=naive)


def _table1_claim(name: str):
    """Units <= 9 never miss; 10 units always miss (README, bundled scenarios)."""
    if not name.startswith("table1_"):
        return None
    units = int(name[len("table1_"):-len("units")])

    def claim(scan) -> list[str]:
        total = sum(scan.misses.values())
        if (total > 0) != (units >= 10):
            return [f"{units} units: {total} deadline misses"]
        return []
    return claim


class Fleet(Workload):
    """The synthetic shop floor, simulated under naive and Monte Carlo orchestration."""

    STRATEGIES = ("naive", "monte_carlo")

    def generate(self) -> None:
        self.scenarios = {}
        for strategy in self.STRATEGIES:
            scenario = inputs.fleet_scenario(self.seed, strategy)
            path = self.run_dir / f"fleet_{strategy}.json"
            inputs.write_json(path, scenario)
            self.scenarios[strategy] = (path, scenario)

    def run_round(self, bench: Bench) -> None:
        incumbent = None
        for strategy, (path, scenario) in self.scenarios.items():
            out = self.run_dir / f"out_{strategy}"
            info = simulate(bench, f"simulate {strategy}", scenario, path, out)
            if info is None:
                bench.skip(f"analyze {strategy}", "simulate failed")
            else:
                u_max = math.fsum(r["u_max"] for r in scenario["resources"])
                analyze(bench, f"analyze {strategy}", out / "runtimes.csv", info["runtimes"],
                        periods_of(scenario), u_max, checks.thresholds(scenario)["hard"], info["key"])
            printed = plan(bench, f"plan {strategy}", scenario, path, strategy, incumbent=incumbent)
            incumbent = printed if strategy == "naive" else incumbent


class Placement(Workload):
    """Cold-start plans, each simulated briefly and its most loaded CPU analyzed."""

    def generate(self) -> None:
        self.systems = []
        for n_tasks, n_cpus in inputs.PLACEMENT_SIZES:
            name = f"{n_tasks}x{n_cpus}"
            scenario = inputs.placement_scenario(self.seed, n_tasks, n_cpus)
            mc = ["--mc-samples", str(inputs.PLACEMENT_MC_SAMPLES),
                  "--seed", str(inputs.derive(self.seed, f"placement-plan-{name}"))]
            self.systems.append((name, scenario, mc))
        mc = ["--mc-samples", str(inputs.FAULT_MC_SAMPLES), "--seed", str(inputs.FAULT_MC_SEED)]
        self.systems.append(("fault", inputs.fault_scenario(), mc))
        self.paths = {}
        for name, scenario, _ in self.systems:
            self.paths[name] = self.run_dir / f"{name}.json"
            inputs.write_json(self.paths[name], scenario)

    def run_round(self, bench: Bench) -> None:
        for name, scenario, mc in self.systems:
            naive = plan(bench, f"plan naive {name}", scenario, self.paths[name], "naive")
            printed = {
                "naive": naive,
                "monte_carlo": plan(bench, f"plan monte_carlo {name}", scenario, self.paths[name],
                                    "monte_carlo", mc, incumbent=naive),
            }
            for strategy, plan_json in printed.items():
                label = f"{strategy} {name}"
                if plan_json is None:
                    bench.skip(f"simulate {label}", "no plan printed")
                    bench.skip(f"analyze {label}", "no plan printed")
                    continue
                self._simulate_and_analyze(bench, label, scenario, plan_json)

    def _simulate_and_analyze(self, bench: Bench, label: str, scenario: dict, plan_json: dict) -> None:
        stem = label.replace(" ", "_")
        path = self.run_dir / f"{stem}_sim.json"
        sim_scenario = inputs.with_plan(scenario, plan_json["assignments"])
        inputs.write_json(path, sim_scenario)
        out = self.run_dir / f"out_{stem}"
        info = simulate(bench, f"simulate {label}", sim_scenario, path, out,
                        bin_width=inputs.PLACEMENT_BIN_WIDTH_US)
        if info is None:
            bench.skip(f"analyze {label}", "simulate failed")
            return
        # the CPU the plan predicts is most at risk, analyzed from its own runtimes
        per_resource = plan_json["per_resource"]
        cpu = max(sorted(per_resource), key=lambda rid: (per_resource[rid]["miss_prob"], -per_resource[rid]["buffer"]))
        hosted = [tid for tid, rid in plan_json["assignments"].items() if rid == cpu]
        runtimes = {tid: info["runtimes"][tid] for tid in hosted if tid in info["runtimes"]}
        csv_path = self.run_dir / f"{stem}_{cpu}.csv"
        with open(csv_path, "w") as fh:
            fh.write("task,runtime_us\n")
            fh.writelines(f"{tid},{r}\n" for tid, samples in runtimes.items() for r in samples)
        u_max = next(r["u_max"] for r in scenario["resources"] if r["id"] == cpu)
        thr = checks.thresholds(scenario)
        crits = {t["id"]: t.get("criticality", "hard") for t in scenario["tasks"]}
        threshold = min(thr[crits[tid]] for tid in hosted)
        analyze(bench, f"analyze {label}", csv_path, runtimes, periods_of(scenario), u_max, threshold,
                info["key"])
        scan = info["scan"]
        jobs = sum(scan.releases[tid] for tid in hosted)
        fitted = checks.analyze_prediction(runtimes, periods_of(scenario), u_max)["miss_prob"] if runtimes else None
        bench.calibration[label] = {
            "cpu": cpu, "predicted_miss_prob": per_resource[cpu]["miss_prob"],
            "fitted_miss_prob": fitted, "observed_miss_rate": sum(scan.misses[t] for t in hosted) / max(jobs, 1),
        }


WORKLOADS = {"paper": Paper, "fleet": Fleet, "placement": Placement}


def ensure_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
