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
parse position).  Sections must be JSON objects.  Integer fields, which are
all ``_us`` durations except the latency jitter's ``mu_us`` and ``sigma_us``,
must be JSON integers: ``125000.5`` or ``true`` is rejected, not truncated.
The float fields (the jitter's ``mu_us`` and ``sigma_us``, the interference
``rate_per_s``) must be finite, and ``rate_per_s * magnitude_us`` at most 1e6.  Task and resource ids must be non-empty and
hold no comma, whitespace or control character, so every id can be written
to a CSV row and read back.
"""
from __future__ import annotations

import json
import math
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


_TASK_INTEGERS = ("period_us", "budget_us", "deadline_us")
_EXEC_INTEGERS = ("mu_us", "sigma_us", "cutoff_lo_us", "wcet_us")


def _require(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return data[key]


def _is_int(value: Any) -> bool:
    """A JSON integer: not a float, which ``int()`` would truncate, and not a bool."""
    return type(value) is int


def _object(value: Any, where: str) -> Mapping[str, Any]:
    # dict first: JSON objects load as dicts, and the Mapping ABC check alone is slow
    if not isinstance(value, (dict, Mapping)):
        raise ScenarioError(f"{where}: expected a JSON object")
    return value


def _integers(data: Mapping[str, Any], keys: tuple[str, ...], where: str) -> None:
    """Reject any of ``keys`` that is present (and not null) but not an integer."""
    for key in keys:
        value = data.get(key)
        if value is not None and not _is_int(value):
            raise ScenarioError(f"{where}.{key}: expected integer, got {value!r}")


def _finite(value: float, where: str) -> None:
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")


def _check_id(value: str, where: str) -> None:
    """An id goes unquoted into CSV rows, so it must be one non-empty field."""
    # control characters are Unicode category Cc: U+0000-U+001F and U+007F-U+009F
    if not value or any(c == "," or c.isspace() or c < " " or "\x7f" <= c <= "\x9f" for c in value):
        raise ScenarioError(f"{where}.id: expected a non-empty id without commas, whitespace or "
                            f"control characters, got {value!r}")


def _check_task(raw: Any, where: str) -> None:
    """Shape checks that ``TaskSpec.from_dict``'s lenient conversions would let through."""
    _integers(_object(raw, where), _TASK_INTEGERS, where)
    if "exec_model" in raw:
        where = f"{where}.exec_model"
        model = _object(raw["exec_model"], where)
        _integers(model, _EXEC_INTEGERS, where)
        mixture = model.get("mixture", ())
        if isinstance(mixture, list):
            for j, mode in enumerate(mixture):
                _integers(_object(mode, f"{where}.mixture[{j}]"), ("offset_us",), f"{where}.mixture[{j}]")


def _parse_noise(data: Any, where: str) -> NoiseModel:
    if data is None:
        return NoiseModel()
    _object(data, where)
    base = data.get("base_overhead_us", 0)
    if not _is_int(base) or base < 0:
        raise ScenarioError(f"{where}.base_overhead_us: expected non-negative integer")
    jitter = data.get("latency_jitter")
    if jitter is None:
        jitter_params = NormalParams(0.0, 0.0)
    else:
        _object(jitter, f"{where}.latency_jitter")
        try:
            jitter_params = NormalParams(float(jitter["mu_us"]), float(jitter["sigma_us"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}.latency_jitter: needs numeric mu_us and sigma_us") from exc
        _finite(jitter_params.mu, f"{where}.latency_jitter.mu_us")
        _finite(jitter_params.sigma, f"{where}.latency_jitter.sigma_us")
        if jitter_params.sigma < 0:
            raise ScenarioError(f"{where}.latency_jitter.sigma_us: must be >= 0")
    ifr = data.get("interference")
    interference = None
    if ifr is not None:
        _integers(_object(ifr, f"{where}.interference"), ("magnitude_us",), f"{where}.interference")
        try:
            interference = Interference(float(ifr["rate_per_s"]), int(ifr["magnitude_us"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}.interference: needs rate_per_s and magnitude_us") from exc
        _finite(interference.rate_per_s, f"{where}.interference.rate_per_s")
        if interference.rate_per_s <= 0 or interference.magnitude_us <= 0:
            raise ScenarioError(f"{where}.interference: rate and magnitude must be positive")
        # each event blocks its CPU for magnitude_us, so past this rate a CPU would
        # be expected to be blocked more than all of the time
        if interference.rate_per_s * interference.magnitude_us > 1e6:
            raise ScenarioError(f"{where}.interference.rate_per_s: expected at most 1e6 / magnitude_us "
                                f"= {1e6 / interference.magnitude_us:g}, got {interference.rate_per_s!r}")
    return NoiseModel(base_overhead_us=base, latency_jitter=jitter_params, interference=interference)


def _parse_orchestrator(data: Any) -> OrchestratorConfig:
    if data is None:
        return OrchestratorConfig(enabled=False)
    where = "orchestrator"
    _object(data, where)
    thresholds = dict(DEFAULT_THRESHOLDS)
    for name, value in _object(data.get("thresholds", {}), f"{where}.thresholds").items():
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
    if not _is_int(monitor) or monitor <= 0:
        raise ScenarioError(f"{where}.monitor_period_us: expected positive integer")
    fit_window = data.get("fit_window", 1024)
    if not _is_int(fit_window) or fit_window < 2:
        raise ScenarioError(f"{where}.fit_window: expected integer >= 2")
    mc_samples = data.get("mc_samples", 1000)
    if not _is_int(mc_samples) or mc_samples < 1:
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
        _check_task(raw, where)
        try:
            task = TaskSpec.from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        _check_id(task.id, where)
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
        _object(raw, where)
        try:
            res = ResourceState.from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        _check_id(res.id, where)
        if res.id in seen_resources:
            raise ScenarioError(f"{where}.id: duplicate resource id '{res.id}'")
        seen_resources.add(res.id)
        if not 0.0 < res.u_max <= 1.0:
            raise ScenarioError(f"{where}.u_max: must be in (0, 1], got {res.u_max}")
        resources.append(res)

    raw_sim = _object(data.get("sim", {}), "sim")
    duration = raw_sim.get("duration_us", 60_000_000)
    if not _is_int(duration) or duration <= 0:
        raise ScenarioError("sim.duration_us: expected positive integer")
    seed = raw_sim.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ScenarioError(f"sim.seed: expected non-negative integer, got {seed!r}")
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
