"""Admission control: deterministic utilization bounds plus a probabilistic test.

A candidate joins a resource only if (a) the sum of reserved budgets stays
within the policy's schedulability bound and (b) the estimated probability of
the fitted group utilization exceeding the CPU ceiling stays within the
caller's threshold.  Both must hold.  ``GroupLoad`` is the one place a
group's load is summed and its threshold chosen; ``group_loads`` builds one
per resource from a plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Mapping, Sequence

from .model import Criticality, Policy, ResourceState, TaskSpec, utilization
from .probability import NormalParams, miss_probability


@lru_cache
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


def load_terms(task: TaskSpec, fits: Mapping[str, NormalParams] | None) -> tuple[float, float, float]:
    """What a task adds to its group's three sums: budget/period, mu/period and (sigma/period)**2.

    The runtime model is ``runtime_params``; the arithmetic is that of
    ``utilization`` and ``joint_utilization``.
    """
    params = runtime_params(task, fits)
    return utilization(task), params.mu / task.period_us, (params.sigma / task.period_us) ** 2


class GroupLoad:
    """The tasks grouped on one resource and the load they put on it.

    Each task's ``load_terms`` are resolved once, when the task is added, and
    kept in three lists, next to the set of criticality levels hosted.  Sums
    are exact (``math.fsum``), so no answer depends on the order the tasks
    were added in.
    """

    def __init__(self, resource: ResourceState, fits: Mapping[str, NormalParams] | None = None,
                 tasks: Iterable[TaskSpec] = ()):
        self.resource = resource
        self.fits = fits
        self.tasks: list[TaskSpec] = []
        self.util: list[float] = []
        self.mu: list[float] = []
        self.var: list[float] = []
        self.levels: set[Criticality] = set()
        for task in tasks:
            self.add(task)

    def add(self, task: TaskSpec, terms: tuple[float, float, float] | None = None) -> None:
        """Add ``task``; ``terms`` are its ``load_terms``, resolved here when not given."""
        util, mu, var = load_terms(task, self.fits) if terms is None else terms
        self.tasks.append(task)
        self.util.append(util)
        self.mu.append(mu)
        self.var.append(var)
        self.levels.add(task.criticality)

    def reserved(self) -> float:
        """Sum of reserved budgets over periods."""
        return math.fsum(self.util)

    def bound(self) -> float:
        """The policy's utilization bound for the group as it stands."""
        return rm_bound(len(self.tasks)) if self.resource.policy is Policy.RM else self.resource.u_max

    def miss_prob(self) -> float:
        """P(group utilization > u_max); 0 for no tasks."""
        if not self.tasks:
            return 0.0
        joint = NormalParams(math.fsum(self.mu), math.sqrt(math.fsum(self.var)))
        return miss_probability(joint, self.resource.u_max)

    def threshold(self, thresholds: Mapping[Criticality, float], candidate: TaskSpec | None = None) -> float:
        """Strictest threshold among the hosted tasks and ``candidate``; 1.0 for none."""
        if candidate is None and not self.levels:
            return 1.0
        strictest = math.inf if candidate is None else thresholds[candidate.criticality]
        for level in self.levels:
            if thresholds[level] < strictest:
                strictest = thresholds[level]
        return strictest

    def verdict(self, threshold: float) -> AdmissionVerdict:
        """Both admission tests for the group as it stands (at least one task)."""
        util_sum = self.reserved()
        bound = self.bound()
        prob = self.miss_prob()
        problems = []
        if util_sum > bound:
            problems.append(f"utilization {util_sum:.4f} exceeds bound {bound:.4f}")
        if prob > threshold:
            problems.append(f"miss probability {prob:.6f} exceeds threshold {threshold:g}")
        return AdmissionVerdict(admitted=not problems, buffer=1.0 - util_sum, miss_prob=prob,
                                bound_used=bound, reason="; ".join(problems) or "ok")

    def try_add(self, task: TaskSpec, thresholds: Mapping[Criticality, float],
                terms: tuple[float, float, float]) -> bool:
        """Keep ``task`` (whose ``load_terms`` are ``terms``) only if the grown group passes
        ``verdict``'s two tests under the strictest threshold it hosts; the bound is tested first."""
        util, mu, var = terms
        self.tasks.append(task)
        self.util.append(util)
        if self.reserved() <= self.bound():
            self.mu.append(mu)
            self.var.append(var)
            if self.miss_prob() <= self.threshold(thresholds, task):
                self.levels.add(task.criticality)
                return True
            self.mu.pop()
            self.var.pop()
        self.tasks.pop()
        self.util.pop()
        return False


def group_loads(resources: Mapping[str, ResourceState], tasks: Mapping[str, TaskSpec],
                assignments: Mapping[str, str], fits: Mapping[str, NormalParams] | None = None,
                evicted: Collection[str] = frozenset(),
                terms: Mapping[str, tuple[float, float, float]] | None = None) -> dict[str, GroupLoad]:
    """One GroupLoad per resource, holding its assigned tasks other than ``evicted`` ones.

    ``terms`` maps task ids to their ``load_terms``, for a caller that groups
    the same tasks many times.
    """
    loads = {rid: GroupLoad(res, fits) for rid, res in resources.items()}
    for tid, rid in assignments.items():
        if tid not in evicted:
            loads[rid].add(tasks[tid], None if terms is None else terms[tid])
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
