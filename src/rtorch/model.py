"""Domain types: periodic tasks, CPU resources and allocation plans.

All durations are integer microseconds.  ``from_dict`` is strict about JSON
types: each field goes through one reader below, which raises ValueError
naming the field path.  Semantic violations (a budget above the deadline, say)
never raise on construction; ``validate_task`` reports them as data so callers
(scenario loading, tests) decide how to react.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping


class Criticality(Enum):
    HARD = "hard"
    SOFT = "soft"
    BEST_EFFORT = "best_effort"

    @property
    def rank(self) -> int:
        """0 is most critical; larger means less critical."""
        return _CRIT_RANK[self]


_CRIT_RANK = {Criticality.HARD: 0, Criticality.SOFT: 1, Criticality.BEST_EFFORT: 2}


class Policy(Enum):
    EDF = "EDF"
    RM = "RM"


@dataclass(frozen=True)
class MixtureMode:
    """Secondary execution mode: ``weight`` of jobs run at ``mu + offset_us``."""

    weight: float
    offset_us: int

    @classmethod
    def from_dict(cls, data: Any, where: str = "mixture") -> "MixtureMode":
        data = read_object(data, where)
        return cls(weight=read_number(data, "weight", where), offset_us=read_int(data, "offset_us", where))


@dataclass(frozen=True)
class ExecModel:
    """Stochastic execution-time model: a (mixture of) normal(s) with hard bounds.

    Sampled runtimes are clamped to ``[cutoff_lo_us, wcet_us]``; the cut-off
    models the minimum feasible computation time, the ceiling the worst case.
    """

    mu_us: int
    sigma_us: int
    cutoff_lo_us: int
    wcet_us: int
    mixture: tuple[MixtureMode, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, where: str = "exec_model") -> "ExecModel":
        data = read_object(data, where)
        return cls(
            mu_us=read_int(data, "mu_us", where),
            sigma_us=read_int(data, "sigma_us", where),
            cutoff_lo_us=read_int(data, "cutoff_lo_us", where, low=0),
            wcet_us=read_int(data, "wcet_us", where),
            mixture=tuple(MixtureMode.from_dict(m, f"{where}.mixture[{j}]")
                          for j, m in enumerate(read_array(data, "mixture", where, ()))),
        )


@dataclass(frozen=True)
class TaskSpec:
    """Periodic task with a CPU budget reservation and an execution-time model.

    ``deadline_us`` defaults to the period (implicit deadlines).
    """

    id: str
    period_us: int
    budget_us: int
    exec_model: ExecModel
    criticality: Criticality = Criticality.HARD
    deadline_us: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_us is None:
            object.__setattr__(self, "deadline_us", self.period_us)

    @classmethod
    def from_dict(cls, data: Any, where: str = "task") -> "TaskSpec":
        data = read_object(data, where)
        return cls(
            id=read_id(data, where),
            period_us=read_int(data, "period_us", where),
            budget_us=read_int(data, "budget_us", where),
            exec_model=ExecModel.from_dict(read_field(data, "exec_model", where), f"{where}.exec_model"),
            criticality=read_enum(Criticality, data, "criticality", where, "hard"),
            deadline_us=None if data.get("deadline_us") is None else read_int(data, "deadline_us", where),
        )


@dataclass(frozen=True)
class ResourceState:
    """One schedulable CPU: scheduling policy, utilization ceiling, criticality class."""

    id: str
    policy: Policy = Policy.EDF
    u_max: float = 1.0
    criticality: Criticality = Criticality.HARD

    @classmethod
    def from_dict(cls, data: Any, where: str = "resource") -> "ResourceState":
        data = read_object(data, where)
        return cls(
            id=read_id(data, where),
            policy=read_enum(Policy, data, "policy", where, "EDF"),
            u_max=read_number(data, "u_max", where, 1.0, lambda u: 0.0 < u <= 1.0, "number in (0, 1]"),
            criticality=read_enum(Criticality, data, "criticality", where, "hard"),
        )


@dataclass(frozen=True)
class ResourceLoad:
    """Load summary for one resource: remaining budget headroom and deadline-miss probability."""

    buffer: float
    miss_prob: float


@dataclass(frozen=True)
class AllocationPlan:
    """Task-to-resource mapping plus per-resource load summaries.

    Treat instances as immutable: changing assignments means building a new
    plan (see ``orchestration.build_plan``), which recomputes ``per_resource``
    so the summaries can never go stale.  ``mc_reallocate`` leaves them empty.
    ``plan`` prints ``dataclasses.asdict`` of one: the field names are its keys.
    """

    assignments: Mapping[str, str]
    per_resource: Mapping[str, ResourceLoad] = field(default_factory=dict)


def utilization(task: TaskSpec) -> float:
    """Fraction of one CPU reserved by the task: budget / period."""
    return task.budget_us / task.period_us


def validate_task(task: TaskSpec) -> list[str]:
    """Check task invariants; returns one message per violation (empty list when valid)."""
    v: list[str] = []
    if task.period_us <= 0:
        v.append("period must be > 0")
    if task.budget_us <= 0:
        v.append("budget must be > 0")
    assert task.deadline_us is not None
    if task.budget_us > task.deadline_us:
        v.append("budget must be <= deadline")
    if task.deadline_us > task.period_us:
        v.append("deadline must be <= period")
    m = task.exec_model
    if m.sigma_us < 0:
        v.append("exec_model sigma must be >= 0")
    if m.cutoff_lo_us > m.mu_us:
        v.append("exec_model cutoff_lo must be <= mu")
    if m.mu_us > m.wcet_us:
        v.append("exec_model mu must be <= wcet")
    if any(not 0.0 <= mode.weight <= 1.0 for mode in m.mixture):
        v.append("exec_model mixture weights must be in [0, 1]")
    elif sum(mode.weight for mode in m.mixture) > 1.0:
        v.append("exec_model mixture weights must sum to <= 1")
    return v


# Strict JSON field readers: one per JSON type.  Each raises
# ValueError("<path>: expected <what>, got <value!r>"); ``where`` is the path of
# ``data``, and a field's own path is built only when it is rejected.
_REQUIRED = object()
# the largest integer a float holds exactly: no float made from a duration this small overflows
MAX_US = 2 ** 53
_INT_KINDS = {None: "integer", 0: "non-negative integer", 1: "positive integer"}


def _bad(where: str, key: str, what: str, value: Any) -> ValueError:
    return ValueError(f"{f'{where}.{key}' if where else key}: expected {what}, got {value!r}")


def read_field(data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED) -> Any:
    value = data.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{where or 'top level'}: missing required field '{key}'")
    return value


def read_object(value: Any, where: str) -> dict[str, Any]:
    if type(value) is not dict:  # exact type: the Mapping ABC check is slow
        raise ValueError(f"{where}: expected a JSON object, got {value!r}")
    return value


def read_int(data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED,
             low: int | None = None) -> int:
    """An integer of at least ``low``, of magnitude at most ``MAX_US`` for a ``_us`` key; no float or bool."""
    value = read_field(data, key, where, default)
    if type(value) is int and (low is None or value >= low):
        if abs(value) <= MAX_US or not key.endswith("_us"):
            return value
        raise _bad(where, key, "integer of magnitude at most 2**53", value)
    raise _bad(where, key, _INT_KINDS.get(low, f"integer >= {low}"), value)


def read_number(data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED,
                ok: Callable[[float], bool] = math.isfinite, what: str = "finite number") -> float:
    """An integer or float, as a float, for which ``ok`` holds; ``ok`` must reject nan and infinities."""
    value = read_field(data, key, where, default)
    if type(value) is float or type(value) is int:
        try:
            if ok(float(value)):
                return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise _bad(where, key, what, value)


def read_bool(data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED) -> bool:
    value = read_field(data, key, where, default)
    if type(value) is bool:
        return value
    raise _bad(where, key, "boolean", value)


def read_array(data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED,
               nonempty: bool = False) -> list[Any]:
    value = read_field(data, key, where, default)
    if value is default or (type(value) is list and (value or not nonempty)):
        return value
    raise _bad(where, key, "a non-empty array" if nonempty else "an array", value)


# what an id may not hold: a comma, a double quote, whitespace (``str.isspace``) or
# a control character, Unicode category Cc: U+0000-U+001F and U+007F-U+009F
_ID_FORBIDDEN = re.compile(r'[,"\s\x00-\x1f\x7f-\x9f]')


def read_id(data: Mapping[str, Any], where: str) -> str:
    """An id goes unquoted into CSV rows, so it must be one non-empty string field."""
    value = read_field(data, "id", where)
    if type(value) is str and value and not _ID_FORBIDDEN.search(value):
        return value
    raise _bad(where, "id", "a non-empty id without commas, double quotes, whitespace or control characters",
               value)


def read_enum(enum: type[Enum], data: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED) -> Any:
    """A string naming one of ``enum``'s values, as that member."""
    value = read_field(data, key, where, default)
    try:
        return enum(value)
    except ValueError:
        raise _bad(where, key, "|".join(m.value for m in enum), value) from None
