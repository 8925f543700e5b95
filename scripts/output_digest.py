#!/usr/bin/env python3
"""Print one ``sha256  label`` line for every output of a fixed set of rtorch commands.

The set: ``simulate`` with ``--duration-us 2000000`` on the nine bundled
scenarios and on both benchmark fleet systems (``perfbench/inputs.py``,
seed 1), ``analyze`` on each of those runs' ``runtimes.csv``, ``plan``
under ``naive`` and ``monte_carlo --seed 3`` on those scenarios, the four
benchmark placement systems (seed 1) and the benchmark fault system, and
last ``simulate`` over the scenario's own duration on ``FULL_RUNS``.  Each
command contributes its stdout, stderr and exit code, and ``simulate`` each
file it writes.  The temporary directory is masked, so two checkouts that
produce the same outputs print the same lines.  The commands run in-process
against the ``src/`` of the checkout that holds this script:

    python3 scripts/output_digest.py > change.txt
    (in a checkout of the parent, with this file copied in) ... > parent.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from rtorch import cli  # noqa: E402

SIM_DURATION_US = "2000000"
MC_SEED = "3"
# long runs, where long chains of jobs meet misses and interference
FULL_RUNS = ("table1_10units", "fig5_short")
RUN_FILES = ("trace.csv", "runtimes.csv", "report.json", "histogram.csv", "decisions.jsonl")


def _line(data: bytes, label: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {label}"


def _run(label: str, argv: list[str], tmp: Path) -> list[str]:
    """Run one command in-process; digest its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [
        _line(text.replace(str(tmp), "<tmp>").encode(), f"{label} {stream}")
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()), ("exit", str(code)))
    ]


def _write(path: Path, scenario: dict) -> Path:
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True))
    return path


def digest_lines(tmp: Path) -> list[str]:
    simulated = {name: REPO_ROOT / "scenarios" / f"{name}.json" for name in inputs.PAPER_SCENARIOS}
    for strategy in ("naive", "monte_carlo"):
        simulated[f"fleet_{strategy}"] = _write(tmp / f"fleet_{strategy}.json",
                                                inputs.fleet_scenario(1, strategy))
    planned = dict(simulated)
    for n_tasks, n_cpus in inputs.PLACEMENT_SIZES:
        name = f"placement_{n_tasks}x{n_cpus}"
        planned[name] = _write(tmp / f"{name}.json", inputs.placement_scenario(1, n_tasks, n_cpus))
    planned["fault"] = _write(tmp / "fault.json", inputs.fault_scenario())

    def simulate(label: str, path: Path, run: Path, *options: str) -> list[str]:
        lines = _run(label, ["simulate", "--scenario", str(path), "--out", str(run), *options], tmp)
        return lines + [_line((run / f).read_bytes(), f"{label} {f}") for f in RUN_FILES]

    lines = []
    for name, path in simulated.items():
        run = tmp / "runs" / name
        lines += simulate(f"simulate {name}", path, run, "--duration-us", SIM_DURATION_US)
        periods = {t["id"]: t["period_us"] for t in json.loads(path.read_text())["tasks"]}
        argv = ["analyze", str(run / "runtimes.csv"), "--period-us", str(min(periods.values()))]
        argv += [f"--task-period={tid}={period}" for tid, period in periods.items()]
        lines += _run(f"analyze {name}", argv, tmp)
    for name, path in planned.items():
        lines += _run(f"plan {name} naive", ["plan", "--scenario", str(path), "--strategy", "naive"], tmp)
        lines += _run(f"plan {name} monte_carlo", ["plan", "--scenario", str(path), "--strategy",
                                                   "monte_carlo", "--seed", MC_SEED], tmp)
    for name in FULL_RUNS:
        lines += simulate(f"simulate {name} full", simulated[name], tmp / "runs" / f"{name}_full")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(Path(tmp)):
            print(line)


if __name__ == "__main__":
    main()
