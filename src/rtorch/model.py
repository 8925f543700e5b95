"""Domain types: periodic tasks, CPU resources and allocation plans.

All durations are integer microseconds.  Construction never raises on
semantic violations; ``validate_task`` reports them as data so callers
(scenario loading, tests) decide how to react.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping


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

    def to_dict(self) -> dict[str, Any]:
        return {"weight": self.weight, "offset_us": self.offset_us}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MixtureMode":
        return cls(weight=float(data["weight"]), offset_us=int(data["offset_us"]))


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

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mu_us": self.mu_us,
            "sigma_us": self.sigma_us,
            "cutoff_lo_us": self.cutoff_lo_us,
            "wcet_us": self.wcet_us,
        }
        if self.mixture:
            out["mixture"] = [m.to_dict() for m in self.mixture]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecModel":
        return cls(
            mu_us=int(data["mu_us"]),
            sigma_us=int(data["sigma_us"]),
            cutoff_lo_us=int(data["cutoff_lo_us"]),
            wcet_us=int(data["wcet_us"]),
            mixture=tuple(MixtureMode.from_dict(m) for m in data.get("mixture", ())),
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

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "period_us": self.period_us,
            "deadline_us": self.deadline_us,
            "budget_us": self.budget_us,
            "criticality": self.criticality.value,
            "exec_model": self.exec_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskSpec":
        deadline = data.get("deadline_us")
        return cls(
            id=str(data["id"]),
            period_us=int(data["period_us"]),
            budget_us=int(data["budget_us"]),
            exec_model=ExecModel.from_dict(data["exec_model"]),
            criticality=Criticality(data.get("criticality", "hard")),
            deadline_us=None if deadline is None else int(deadline),
        )


@dataclass(frozen=True)
class ResourceState:
    """One schedulable CPU: scheduling policy, utilization ceiling, criticality class."""

    id: str
    policy: Policy = Policy.EDF
    u_max: float = 1.0
    criticality: Criticality = Criticality.HARD

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "policy": self.policy.value,
            "u_max": self.u_max,
            "criticality": self.criticality.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResourceState":
        return cls(
            id=str(data["id"]),
            policy=Policy(data.get("policy", "EDF")),
            u_max=float(data.get("u_max", 1.0)),
            criticality=Criticality(data.get("criticality", "hard")),
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
    so the summaries can never go stale.
    """

    assignments: Mapping[str, str]
    per_resource: Mapping[str, ResourceLoad] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "assignments": dict(sorted(self.assignments.items())),
            "per_resource": {
                rid: {"buffer": load.buffer, "miss_prob": load.miss_prob}
                for rid, load in sorted(self.per_resource.items())
            },
        }


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
