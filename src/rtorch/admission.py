"""Admission control: deterministic utilization bounds plus a probabilistic test.

A candidate joins a resource only if (a) the sum of reserved budgets stays
within the policy's schedulability bound and (b) the estimated probability of
the fitted group utilization exceeding the CPU ceiling stays within the
caller's threshold.  Both must hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import Policy, ResourceState, TaskSpec
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


def group_miss_prob(
    tasks: Sequence[TaskSpec], u_max: float, fits: Mapping[str, NormalParams] | None
) -> float:
    """P(group utilization > u_max) from fitted (else declared) runtimes; 0 for no tasks."""
    if not tasks:
        return 0.0
    joint = joint_utilization([(runtime_params(t, fits), t.period_us) for t in tasks])
    return miss_probability(joint, u_max)


def admit(
    resource: ResourceState,
    hosted: Sequence[TaskSpec],
    candidate: TaskSpec,
    threshold: float,
    fitted: Mapping[str, NormalParams] | None = None,
) -> AdmissionVerdict:
    """Test whether ``candidate`` fits on ``resource`` next to ``hosted`` tasks.

    ``fitted`` maps task ids to measured runtime distributions in
    microseconds; tasks without a fit use their declared execution model.
    """
    if any(t.id == candidate.id for t in hosted):
        raise ValueError(f"task '{candidate.id}' already hosted on '{resource.id}'")

    group = list(hosted) + [candidate]
    util_sum = math.fsum(t.budget_us / t.period_us for t in group)
    if resource.policy is Policy.RM:
        bound = rm_bound(len(group))
    else:
        bound = resource.u_max

    prob = group_miss_prob(group, resource.u_max, fitted)

    problems = []
    if util_sum > bound:
        problems.append(f"utilization {util_sum:.4f} exceeds bound {bound:.4f}")
    if prob > threshold:
        problems.append(f"miss probability {prob:.6f} exceeds threshold {threshold:g}")
    return AdmissionVerdict(
        admitted=not problems,
        buffer=1.0 - util_sum,
        miss_prob=prob,
        bound_used=bound,
        reason="; ".join(problems) if problems else "ok",
    )
