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

Malformed input raises ScenarioError naming the field path (or the JSON parse
position).  One rule per JSON type; no value is converted to another type:

- object: sections, tasks, resources and mixture modes.  ``null`` means absent
  only for ``orchestrator``, ``noise``, ``latency_jitter``, ``interference``,
  ``initial_plan`` and ``deadline_us``, and is rejected anywhere else.
- integer: every ``_us`` field but the jitter's, ``seed``, ``fit_window`` and
  ``mc_samples``; ``125000.5``, ``"125000"`` and ``true`` are rejected.
- number (integer or float, finite): ``u_max``, thresholds, mixture
  ``weight``, the jitter's ``mu_us`` and ``sigma_us``, ``rate_per_s``.
- boolean: ``enabled``.  string: ids, ``policy``, ``criticality``, ``strategy``.
- array: ``tasks`` and ``resources`` (both non-empty), ``mixture``.

Ids must be non-empty and hold no comma, double quote, whitespace or control
character, so they survive a CSV row.  Ranges: ``u_max`` in (0, 1], thresholds
in [0, 1], ``fit_window`` at least ``MIN_FIT_SAMPLES`` (30), jitter ``sigma_us``
>= 0, interference rate and magnitude positive with ``rate_per_s * magnitude_us``
at most 1e6, and ``model.validate_task``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .model import (Criticality, ResourceState, TaskSpec, read_array, read_bool, read_enum, read_int,
                    read_number, read_object, validate_task)
from .orchestration import DEFAULT_THRESHOLDS, OrchestratorConfig, Strategy
from .probability import MIN_FIT_SAMPLES, NormalParams
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


def _parse_noise(data: Any, where: str) -> NoiseModel:
    if data is None:
        return NoiseModel()
    read_object(data, where)
    jitter = data.get("latency_jitter")
    jitter_params = NormalParams(0.0, 0.0)
    if jitter is not None:
        at = f"{where}.latency_jitter"
        read_object(jitter, at)
        jitter_params = NormalParams(read_number(jitter, "mu_us", at),
                                     read_number(jitter, "sigma_us", at, ok=lambda v: 0.0 <= v < math.inf,
                                                 what="non-negative finite number"))
    ifr = data.get("interference")
    interference = None
    if ifr is not None:
        at = f"{where}.interference"
        read_object(ifr, at)
        rate = read_number(ifr, "rate_per_s", at, ok=lambda v: 0.0 < v < math.inf,
                           what="positive finite number")
        magnitude = read_int(ifr, "magnitude_us", at, low=1)
        # each event blocks its CPU for magnitude_us, so past this rate a CPU would
        # be expected to be blocked more than all of the time
        if rate * magnitude > 1e6:
            raise ValueError(f"{at}.rate_per_s: expected at most 1e6 / magnitude_us "
                             f"= {1e6 / magnitude:g}, got {rate!r}")
        interference = Interference(rate, magnitude)
    return NoiseModel(base_overhead_us=read_int(data, "base_overhead_us", where, 0, low=0),
                      latency_jitter=jitter_params, interference=interference)


def _parse_orchestrator(data: Any) -> OrchestratorConfig:
    if data is None:
        return OrchestratorConfig(enabled=False)
    where = "orchestrator"
    read_object(data, where)
    at = f"{where}.thresholds"
    raw = read_object(data.get("thresholds", {}), at)
    unknown = sorted(raw.keys() - {crit.value for crit in Criticality})
    if unknown:
        raise ValueError(f"{at}: unknown criticality '{unknown[0]}'")
    return OrchestratorConfig(
        monitor_period_us=read_int(data, "monitor_period_us", where, 1_000_000, low=1),
        thresholds={crit: read_number(raw, crit.value, at, limit, lambda p: 0.0 <= p <= 1.0,
                                      "probability in [0, 1]")
                    for crit, limit in DEFAULT_THRESHOLDS.items()},
        fit_window=read_int(data, "fit_window", where, 1024, low=MIN_FIT_SAMPLES),
        strategy=read_enum(Strategy, data, "strategy", where, "naive"),
        mc_samples=read_int(data, "mc_samples", where, 1000, low=1),
        enabled=read_bool(data, "enabled", where, True),
    )


def _unique_ids(items, where: str, kind: str) -> set[str]:
    seen: set[str] = set()
    for i, item in enumerate(items):
        if item.id in seen:
            raise ValueError(f"{where}[{i}].id: duplicate {kind} id '{item.id}'")
        seen.add(item.id)
    return seen


def _parse(data: Any) -> Scenario:
    if type(data) is not dict:
        raise ValueError("top level: expected a JSON object")
    tasks = []
    for i, raw in enumerate(read_array(data, "tasks", "", nonempty=True)):
        task = TaskSpec.from_dict(raw, f"tasks[{i}]")
        violations = validate_task(task)
        if violations:
            raise ValueError(f"tasks[{i}] ('{task.id}'): " + "; ".join(violations))
        tasks.append(task)
    task_ids = _unique_ids(tasks, "tasks", "task")
    resources = [ResourceState.from_dict(raw, f"resources[{i}]")
                 for i, raw in enumerate(read_array(data, "resources", "", nonempty=True))]
    resource_ids = _unique_ids(resources, "resources", "resource")

    raw_sim = read_object(data.get("sim", {}), "sim")
    sim = SimSettings(
        duration_us=read_int(raw_sim, "duration_us", "sim", 60_000_000, low=1),
        seed=read_int(raw_sim, "seed", "sim", 0, low=0),
        noise=_parse_noise(raw_sim.get("noise"), "sim.noise"),
    )

    plan = data.get("initial_plan")
    if plan is not None:
        read_object(plan, "initial_plan")
        for tid, rid in plan.items():
            if tid not in task_ids:
                raise ValueError(f"initial_plan: unknown task '{tid}'")
            if type(rid) is not str or rid not in resource_ids:
                raise ValueError(f"initial_plan.{tid}: unknown resource {rid!r}")
        missing = sorted(task_ids - set(plan))
        if missing:
            raise ValueError(f"initial_plan: unassigned tasks: {', '.join(missing)}")
        plan = dict(plan)

    return Scenario(
        tasks=tuple(tasks),
        resources=tuple(resources),
        orchestrator=_parse_orchestrator(data.get("orchestrator")),
        sim=sim,
        initial_plan=plan,
    )


def parse_scenario(data: Any) -> Scenario:
    """Read a loaded JSON document strictly; any ValueError becomes ScenarioError."""
    try:
        return _parse(data)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, an integer past Python's digit limit
        raise ScenarioError(f"{path}: {exc}") from None
    return parse_scenario(data)
