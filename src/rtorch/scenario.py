"""Scenario files: the JSON schema every command consumes.

Top-level keys: ``tasks``, ``resources``, ``orchestrator``, ``sim`` and an
optional ``initial_plan`` (task id -> resource id).  Durations are integers
with a ``_us`` suffix in the key name.  Example:

    {
      "tasks": [{"id": "cam_a", "period_us": 125000, "budget_us": 62500,
                 "criticality": "hard",
                 "exec_model": {"mu_us": 56250, "sigma_us": 6250,
                                 "cutoff_lo_us": 37500, "wcet_us": 75000}}],
      "resources": [{"id": "cpu0", "policy": "EDF", "u_max": 1.0,
                      "criticality": "hard"}],
      "orchestrator": {"enabled": true, "monitor_period_us": 1000000,
                        "strategy": "naive",
                        "thresholds": {"hard": 0.05}},
      "sim": {"duration_us": 60000000, "seed": 7,
               "noise": {"base_overhead_us": 80,
                          "latency_jitter": {"mu_us": 0, "sigma_us": 80},
                          "interference": null}},
      "initial_plan": {"cam_a": "cpu0"}
    }

Malformed input raises ScenarioError naming the offending field (or the JSON
parse position).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .model import Criticality, ResourceState, TaskSpec, validate_task
from .orchestration import DEFAULT_THRESHOLDS, OrchestratorConfig, Strategy
from .probability import NormalParams
from .simulation import Interference, NoiseModel


class ScenarioError(Exception):
    """Scenario file rejected; message carries the field path or parse position."""


@dataclass(frozen=True)
class SimSettings:
    duration_us: int = 60_000_000
    seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)


@dataclass(frozen=True)
class Scenario:
    tasks: tuple[TaskSpec, ...]
    resources: tuple[ResourceState, ...]
    orchestrator: OrchestratorConfig
    sim: SimSettings
    initial_plan: Mapping[str, str] | None = None


def _require(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return data[key]


def _parse_noise(data: Mapping[str, Any] | None, where: str) -> NoiseModel:
    if data is None:
        return NoiseModel()
    base = data.get("base_overhead_us", 0)
    if not isinstance(base, int) or base < 0:
        raise ScenarioError(f"{where}.base_overhead_us: expected non-negative integer")
    jitter = data.get("latency_jitter")
    if jitter is None:
        jitter_params = NormalParams(0.0, 0.0)
    else:
        try:
            jitter_params = NormalParams(float(jitter["mu_us"]), float(jitter["sigma_us"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}.latency_jitter: needs numeric mu_us and sigma_us") from exc
        if jitter_params.sigma < 0:
            raise ScenarioError(f"{where}.latency_jitter.sigma_us: must be >= 0")
    ifr = data.get("interference")
    interference = None
    if ifr is not None:
        try:
            interference = Interference(float(ifr["rate_per_s"]), int(ifr["magnitude_us"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}.interference: needs rate_per_s and magnitude_us") from exc
        if interference.rate_per_s <= 0 or interference.magnitude_us <= 0:
            raise ScenarioError(f"{where}.interference: rate and magnitude must be positive")
    return NoiseModel(base_overhead_us=base, latency_jitter=jitter_params, interference=interference)


def _parse_orchestrator(data: Mapping[str, Any] | None) -> OrchestratorConfig:
    if data is None:
        return OrchestratorConfig(enabled=False)
    where = "orchestrator"
    thresholds = dict(DEFAULT_THRESHOLDS)
    for name, value in data.get("thresholds", {}).items():
        try:
            crit = Criticality(name)
        except ValueError:
            raise ScenarioError(f"{where}.thresholds: unknown criticality '{name}'") from None
        if not isinstance(value, (int, float)) or not 0 <= value <= 1:
            raise ScenarioError(f"{where}.thresholds.{name}: expected probability in [0, 1]")
        thresholds[crit] = float(value)
    strategy_name = data.get("strategy", "naive")
    try:
        strategy = Strategy(strategy_name)
    except ValueError:
        raise ScenarioError(f"{where}.strategy: expected naive|monte_carlo, got {strategy_name!r}") from None
    monitor = data.get("monitor_period_us", 1_000_000)
    if not isinstance(monitor, int) or monitor <= 0:
        raise ScenarioError(f"{where}.monitor_period_us: expected positive integer")
    fit_window = data.get("fit_window", 1024)
    if not isinstance(fit_window, int) or fit_window < 2:
        raise ScenarioError(f"{where}.fit_window: expected integer >= 2")
    mc_samples = data.get("mc_samples", 1000)
    if not isinstance(mc_samples, int) or mc_samples < 1:
        raise ScenarioError(f"{where}.mc_samples: expected positive integer")
    return OrchestratorConfig(
        monitor_period_us=monitor,
        thresholds=thresholds,
        fit_window=fit_window,
        strategy=strategy,
        mc_samples=mc_samples,
        enabled=bool(data.get("enabled", True)),
    )


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError("top level: expected a JSON object")

    raw_tasks = _require(data, "tasks", "top level")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ScenarioError("tasks: expected a non-empty array")
    tasks = []
    seen_tasks = set()
    for i, raw in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        try:
            task = TaskSpec.from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        if task.id in seen_tasks:
            raise ScenarioError(f"{where}.id: duplicate task id '{task.id}'")
        seen_tasks.add(task.id)
        violations = validate_task(task)
        if violations:
            raise ScenarioError(f"{where} ('{task.id}'): " + "; ".join(violations))
        tasks.append(task)

    raw_resources = _require(data, "resources", "top level")
    if not isinstance(raw_resources, list) or not raw_resources:
        raise ScenarioError("resources: expected a non-empty array")
    resources = []
    seen_resources = set()
    for i, raw in enumerate(raw_resources):
        where = f"resources[{i}]"
        try:
            res = ResourceState.from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        if res.id in seen_resources:
            raise ScenarioError(f"{where}.id: duplicate resource id '{res.id}'")
        seen_resources.add(res.id)
        if not 0.0 < res.u_max <= 1.0:
            raise ScenarioError(f"{where}.u_max: must be in (0, 1], got {res.u_max}")
        resources.append(res)

    raw_sim = data.get("sim", {})
    duration = raw_sim.get("duration_us", 60_000_000)
    if not isinstance(duration, int) or duration <= 0:
        raise ScenarioError("sim.duration_us: expected positive integer")
    seed = raw_sim.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError("sim.seed: expected integer")
    sim = SimSettings(
        duration_us=duration,
        seed=seed,
        noise=_parse_noise(raw_sim.get("noise"), "sim.noise"),
    )

    plan = data.get("initial_plan")
    if plan is not None:
        if not isinstance(plan, Mapping):
            raise ScenarioError("initial_plan: expected an object mapping task id to resource id")
        for tid, rid in plan.items():
            if tid not in seen_tasks:
                raise ScenarioError(f"initial_plan: unknown task '{tid}'")
            if rid not in seen_resources:
                raise ScenarioError(f"initial_plan.{tid}: unknown resource '{rid}'")
        missing = sorted(seen_tasks - set(plan))
        if missing:
            raise ScenarioError(f"initial_plan: unassigned tasks: {', '.join(missing)}")
        plan = dict(plan)

    return Scenario(
        tasks=tuple(tasks),
        resources=tuple(resources),
        orchestrator=_parse_orchestrator(data.get("orchestrator")),
        sim=sim,
        initial_plan=plan,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(data)
