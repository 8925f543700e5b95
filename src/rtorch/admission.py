"""Admission control: deterministic utilization bounds plus a probabilistic test.

A candidate joins a resource only if (a) the sum of reserved budgets stays
within the policy's schedulability bound and (b) the estimated probability of
the fitted group utilization exceeding the CPU ceiling stays within the
caller's threshold.  Both must hold.  ``GroupLoad`` is the one place a
group's load is summed; ``group_loads`` builds one per resource from a plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .model import Policy, ResourceState, TaskSpec, utilization
from .probability import NormalParams, joint_utilization, miss_probability


def rm_bound(n: int) -> float:
    """Least upper utilization bound for rate-monotonic scheduling of n tasks.

    n * (2^(1/n) - 1); approaches ln 2 for large n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (2.0 ** (1.0 / n) - 1.0)


def edf_bound() -> float:
    """EDF schedules any implicit-deadline set up to full utilization."""
    return 1.0


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of an admission test, keeping both margins for reporting."""

    admitted: bool
    buffer: float
    miss_prob: float
    bound_used: float
    reason: str


def runtime_params(task: TaskSpec, fitted: Mapping[str, NormalParams] | None) -> NormalParams:
    """Fitted runtime distribution for a task, falling back to its declared model."""
    if fitted is not None:
        params = fitted.get(task.id)
        if params is not None:
            return params
    m = task.exec_model
    return NormalParams(float(m.mu_us), float(m.sigma_us))


class GroupLoad:
    """The tasks grouped on one resource and the load they put on it.

    Each task's runtime model (fitted, else declared) is resolved once, when
    the task is added.  Sums are exact (``math.fsum``), so no answer depends
    on the order the tasks were added in.
    """

    def __init__(self, resource: ResourceState, fits: Mapping[str, NormalParams] | None = None,
                 tasks: Iterable[TaskSpec] = ()):
        self.resource = resource
        self.fits = fits
        self.tasks = list(tasks)
        self.models = [(runtime_params(t, fits), t.period_us) for t in self.tasks]

    def add(self, task: TaskSpec) -> None:
        self.tasks.append(task)
        self.models.append((runtime_params(task, self.fits), task.period_us))

    def reserved(self) -> float:
        """Sum of reserved budgets over periods."""
        return math.fsum(utilization(t) for t in self.tasks)

    def miss_prob(self) -> float:
        """P(group utilization > u_max); 0 for no tasks."""
        if not self.tasks:
            return 0.0
        return miss_probability(joint_utilization(self.models), self.resource.u_max)

    def verdict(self, threshold: float) -> AdmissionVerdict:
        """Both admission tests for the group as it stands (at least one task)."""
        util_sum = self.reserved()
        bound = rm_bound(len(self.tasks)) if self.resource.policy is Policy.RM else self.resource.u_max
        prob = self.miss_prob()
        problems = []
        if util_sum > bound:
            problems.append(f"utilization {util_sum:.4f} exceeds bound {bound:.4f}")
        if prob > threshold:
            problems.append(f"miss probability {prob:.6f} exceeds threshold {threshold:g}")
        return AdmissionVerdict(admitted=not problems, buffer=1.0 - util_sum, miss_prob=prob,
                                bound_used=bound, reason="; ".join(problems) or "ok")

    def try_add(self, task: TaskSpec, threshold: float) -> bool:
        """Add ``task`` and keep it only if the grown group is admitted."""
        self.add(task)
        if self.verdict(threshold).admitted:
            return True
        self.tasks.pop()
        self.models.pop()
        return False


def group_loads(resources: Mapping[str, ResourceState], tasks: Mapping[str, TaskSpec],
                assignments: Mapping[str, str], fits: Mapping[str, NormalParams] | None = None,
                evicted: Collection[str] = frozenset()) -> dict[str, GroupLoad]:
    """One GroupLoad per resource, holding its assigned tasks other than ``evicted`` ones."""
    loads = {rid: GroupLoad(res, fits) for rid, res in resources.items()}
    for tid, rid in assignments.items():
        if tid not in evicted:
            loads[rid].add(tasks[tid])
    return loads


def admit(resource: ResourceState, hosted: Sequence[TaskSpec], candidate: TaskSpec, threshold: float,
          fitted: Mapping[str, NormalParams] | None = None) -> AdmissionVerdict:
    """Test whether ``candidate`` fits on ``resource`` next to ``hosted`` tasks.

    ``fitted`` maps task ids to measured runtime distributions in
    microseconds; tasks without a fit use their declared execution model.
    """
    if any(t.id == candidate.id for t in hosted):
        raise ValueError(f"task '{candidate.id}' already hosted on '{resource.id}'")
    return GroupLoad(resource, fitted, [*hosted, candidate]).verdict(threshold)
