"""Monitoring and reallocation: breach detection, victim choice, two allocators.

Each epoch the orchestrator refits task runtimes over a sliding window,
estimates the deadline-miss probability per resource and, when a resource
breaches the strictest threshold among its hosted criticalities, moves the
task with the earliest next deadline somewhere it still fits.  The naive
allocator scores destinations by period similarity; the Monte Carlo allocator
searches random whole assignments and keeps the best objective.  A task moved
in epoch k is not moved again before epoch k+2, which stops flapping between
two marginal placements.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .admission import GroupLoad, admit, group_loads, load_terms
from .model import (
    AllocationPlan,
    Criticality,
    ResourceLoad,
    ResourceState,
    TaskSpec,
    utilization,
)
from .probability import (
    MIN_FIT_SAMPLES,
    ULP,
    NormalParams,
    breach_cutoffs,
    fit_tasks,
    tail_bounds,
    tail_z_bounds,
)
from .simulation import PlanUpdate, SimSnapshot

DEFAULT_THRESHOLDS: Mapping[Criticality, float] = {
    Criticality.HARD: 1e-4,
    Criticality.SOFT: 1e-2,
    Criticality.BEST_EFFORT: 1.0,
}

COOLDOWN_EPOCHS = 2
# Monte Carlo samples drawn and screened at once; bounds the search's memory to O(block x tasks)
_MC_BLOCK = 256


class Strategy(Enum):
    NAIVE = "naive"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class OrchestratorConfig:
    monitor_period_us: int = 1_000_000
    thresholds: Mapping[Criticality, float] = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    fit_window: int = 1024
    strategy: Strategy = Strategy.NAIVE
    mc_samples: int = 1000
    enabled: bool = True


@dataclass(frozen=True)
class ReallocationDecision:
    """What one epoch decided: moves, why, and any best-effort work demoted."""

    moved: tuple[tuple[str, str, str], ...]  # (task, from, to)
    trigger: tuple[str, float, float]  # (resource, miss_prob, threshold)
    evicted_best_effort: tuple[str, ...] = ()


@dataclass(frozen=True)
class SystemView:
    """Frozen snapshot of everything a reallocation decision may look at."""

    now_us: int
    tasks: Mapping[str, TaskSpec]
    resources: Mapping[str, ResourceState]
    assignments: Mapping[str, str]
    fits: Mapping[str, NormalParams]
    evicted: frozenset[str] = frozenset()
    next_deadline_us: Mapping[str, int] = field(default_factory=dict)
    cooldown: frozenset[str] = frozenset()

    @cached_property
    def terms(self) -> dict[str, tuple[float, float, float]]:
        """Each task's ``load_terms``, resolved once for every grouping of this view."""
        return {tid: load_terms(task, self.fits) for tid, task in self.tasks.items()}

    @cached_property
    def loads(self) -> dict[str, GroupLoad]:
        """Each resource's load under the current assignments, built on first use."""
        return group_loads(self.resources, self.tasks, self.assignments, self.fits, self.evicted, self.terms)


@dataclass(frozen=True)
class EpochEval:
    resource: str
    miss_prob: float
    threshold: float
    breached: bool


def _breaches(loads: Mapping[str, GroupLoad], thresholds: Mapping[Criticality, float]) -> list[EpochEval]:
    """The one breach rule: a resource's miss probability above the strictest threshold it hosts."""
    out = []
    for rid, load in loads.items():
        prob = load.miss_prob()
        thr = load.threshold(thresholds)
        out.append(EpochEval(rid, prob, thr, prob > thr))
    return out


def evaluate_epoch(view: SystemView, config: OrchestratorConfig) -> list[EpochEval]:
    """Per-resource miss probability against the strictest hosted threshold."""
    return _breaches(view.loads, config.thresholds)


def victim_order(view: SystemView, rid: str) -> list[str]:
    """Tasks on the resource in the order they are moved: earliest next absolute deadline, then id."""
    hosted = [t.id for t in view.loads[rid].tasks]
    return sorted(hosted, key=lambda tid: (view.next_deadline_us.get(tid, 0), tid))


def match_score(victim: TaskSpec, hosted: Sequence[TaskSpec]) -> float:
    """Similarity of the victim's period to a resource's hosted workload.

    1 for a perfect period match, falling off with the log period ratio to the
    hosted median; an empty resource is a neutral 0.5.
    """
    if not hosted:
        return 0.5
    median_period = statistics.median(t.period_us for t in hosted)
    return 1.0 / (1.0 + abs(math.log(victim.period_us / median_period)))


def naive_reallocate(view: SystemView, victim_id: str,
                     thresholds: Mapping[Criticality, float]) -> ReallocationDecision:
    """Move the victim to the admissible resource with the best period match.

    On a less-critical destination whose best-effort tasks block admission,
    those tasks yield their budgets (they keep running at background priority)
    and are reported in ``evicted_best_effort``.  No admissible destination
    yields a decision with an empty move list.
    """
    victim = view.tasks[victim_id]
    host_rid = view.assignments[victim_id]
    host = view.loads[host_rid]
    trigger = (host_rid, host.miss_prob(), host.threshold(thresholds))

    options = []  # (-period match, destination, evicted): the least is best
    for rid, res in view.resources.items():
        if rid == host_rid:
            continue
        load = view.loads[rid]
        hosted = load.tasks
        verdict = admit(res, hosted, victim, load.threshold(thresholds, victim), view.fits)
        evicted: tuple[str, ...] = ()
        kept = hosted
        if not verdict.admitted and res.criticality.rank > victim.criticality.rank:
            moveable = [t for t in hosted if t.criticality is Criticality.BEST_EFFORT]
            if moveable:
                rest = GroupLoad(res, view.fits, [t for t in hosted if t.criticality is not Criticality.BEST_EFFORT])
                kept = rest.tasks
                retry = admit(res, kept, victim, rest.threshold(thresholds, victim), view.fits)
                if retry.admitted:
                    verdict = retry
                    evicted = tuple(sorted(t.id for t in moveable))
        if verdict.admitted:
            options.append((-match_score(victim, kept), rid, evicted))

    if not options:
        return ReallocationDecision(moved=(), trigger=trigger)
    _, dest, evicted = min(options)
    return ReallocationDecision(moved=((victim_id, host_rid, dest),), trigger=trigger,
                                evicted_best_effort=evicted)


def plan_objective(view: SystemView, assignments: Mapping[str, str],
                   thresholds: Mapping[Criticality, float]) -> tuple[int, float, int]:
    """(breached resources, worst miss probability, occupied resources): less is better."""
    loads = group_loads(view.resources, view.tasks, assignments, view.fits, view.evicted, view.terms)
    rows = _breaches(loads, thresholds)  # an unoccupied resource neither breaches nor raises the worst
    return (sum(row.breached for row in rows), max((row.miss_prob for row in rows), default=0.0),
            sum(1 for load in loads.values() if load.tasks))


def mc_reallocate(
    view: SystemView,
    thresholds: Mapping[Criticality, float],
    mc_samples: int,
    seed: int,
) -> AllocationPlan:
    """Randomized whole-assignment search; never worse than the incumbent plan.

    Tasks on cooldown keep their incumbent placement; the rest are assigned
    uniformly at random each sample.  The incumbent is always evaluated, so
    the returned plan's objective is <= the incumbent's.  Of several equally
    good samples the earliest wins.  The plan carries no per-resource
    summaries: a caller that prints them calls ``build_plan``.

    Samples are drawn and screened in blocks of ``_MC_BLOCK``: a vectorized
    pass bounds each sample's objective from below, and only samples whose
    bound could still beat the best plan so far are scored exactly by
    ``plan_objective``, in sample order.  The result is the plan a
    sample-by-sample scan with ``plan_objective`` would keep.
    """
    res_ids = list(view.resources)
    movable = [tid for tid in view.tasks if tid not in view.cooldown]
    rng = np.random.default_rng(seed)
    screen = _ObjectiveScreen(view, thresholds, movable, res_ids)

    best_assign = dict(view.assignments)
    best_obj = plan_objective(view, best_assign, thresholds)
    index = {rid: i for i, rid in enumerate(res_ids)}
    # the incumbent as a pick row; -1 (never drawn) for a task it does not place
    best_row = np.array([index.get(view.assignments.get(tid), -1) for tid in movable], dtype=np.int64)
    for start in range(0, mc_samples, _MC_BLOCK):
        picks = rng.integers(0, len(res_ids), size=(min(_MC_BLOCK, mc_samples - start), len(movable)))
        scored = {best_row.tobytes()}
        for i, low in enumerate(screen.bounds(picks)):
            if low >= best_obj:
                continue
            row = picks[i]
            key = row.tobytes()
            if key in scored:  # same assignment as one already scored: cannot be strictly better
                continue
            scored.add(key)
            candidate = dict(view.assignments)
            candidate.update(zip(movable, (res_ids[idx] for idx in row)))
            obj = plan_objective(view, candidate, thresholds)
            if obj < best_obj:
                best_obj, best_assign, best_row = obj, candidate, row
    return AllocationPlan(assignments=best_assign)


class _ObjectiveScreen:
    """Guaranteed lower bounds on ``plan_objective`` for a block of sampled assignments.

    Per (sample, resource) it sums utilization mean and variance and counts
    hosted tasks and criticality levels with ``np.bincount``.  Those sums are
    not ``fsum``-exact: each carries the rounding-error bound of a recursive
    sum of its terms into ``tail_z_bounds``.  The screen then stays in z
    space: a cell surely breaches when its z is below its threshold's cutoff,
    and since the tail falls as z grows, a sample's worst miss probability is
    at least one tail, at its smallest z.
    """

    def __init__(self, view: SystemView, thresholds: Mapping[Criticality, float],
                 movable: Sequence[str], res_ids: Sequence[str]):
        index = {rid: i for i, rid in enumerate(res_ids)}
        moving = set(movable)
        # the columns plan_objective groups: drawn tasks, then pinned ones, never evicted ones
        self.cols = np.array([k for k, tid in enumerate(movable) if tid not in view.evicted], dtype=np.intp)
        pinned = [tid for tid in view.assignments if tid not in moving and tid not in view.evicted]
        self.pinned = np.array([index[view.assignments[tid]] for tid in pinned], dtype=np.int64)
        ids = [movable[k] for k in self.cols] + pinned
        tasks = [view.tasks[tid] for tid in ids]
        terms = np.array([view.terms[tid] for tid in ids]).reshape(-1, 3)
        self.mu, self.var = terms[:, 1], terms[:, 2]
        # strictest level last, so it overwrites the others where present
        levels = sorted({t.criticality for t in tasks}, key=lambda c: -thresholds[c])
        self.levels = [
            (thresholds[c], np.array([k for k, t in enumerate(tasks) if t.criticality is c], dtype=np.intp))
            for c in levels
        ]
        self.u_max = np.array([view.resources[rid].u_max for rid in res_ids])

    def bounds(self, picks: np.ndarray) -> list[tuple]:
        """Lower (breached, worst, occupied) bound of each row of ``picks``."""
        n, n_res = len(picks), len(self.u_max)
        pinned = np.broadcast_to(self.pinned, (n, len(self.pinned)))
        cells = np.concatenate([picks[:, self.cols], pinned], axis=1)
        cells += np.arange(n)[:, None] * n_res

        def per_cell(columns=slice(None), weights=None):
            flat = cells[:, columns].ravel()
            if weights is not None:
                weights = np.tile(weights, n)
            return np.bincount(flat, weights, minlength=n * n_res).reshape(n, n_res)

        count = per_cell()
        mu = per_cell(weights=self.mu)
        var = per_cell(weights=self.var)
        slack = (count + 4) * ULP
        mu_err = slack * per_cell(weights=np.abs(self.mu))
        var_err = slack * var
        # unoccupied cells keep a -inf cutoff and never count as breached
        sure = np.full((n, n_res), -np.inf)
        for value, columns in self.levels:
            sure[per_cell(columns) > 0] = breach_cutoffs(value)

        # an unoccupied cell's zero load fits, so its z is +inf and its tail 0
        z_hi = tail_z_bounds(mu, mu_err, var, var_err, self.u_max)
        worst = tail_bounds(z_hi.min(axis=1))
        return list(zip((z_hi < sure).sum(axis=1).tolist(), worst.tolist(), (count > 0).sum(axis=1).tolist()))


def build_plan(
    assignments: Mapping[str, str],
    tasks: Mapping[str, TaskSpec],
    resources: Mapping[str, ResourceState],
    fits: Mapping[str, NormalParams] | None = None,
    evicted: frozenset[str] = frozenset(),
) -> AllocationPlan:
    """Assemble an AllocationPlan, computing fresh per-resource load summaries."""
    per_resource = {
        rid: ResourceLoad(buffer=1.0 - load.reserved(), miss_prob=load.miss_prob())
        for rid, load in group_loads(resources, tasks, assignments, fits, evicted).items()
    }
    return AllocationPlan(assignments=dict(assignments), per_resource=per_resource)


def orchestrate_step(
    view: SystemView, config: OrchestratorConfig, evals: Sequence[EpochEval], mc_seed: int = 0
) -> Optional[ReallocationDecision]:
    """One monitoring epoch: act on the worst breach in ``evals`` (from ``evaluate_epoch``).

    Returns None when nothing breaches.  With no admissible destination (or
    every candidate victim on cooldown) the decision carries an empty move
    list so the escalation still gets logged.
    """
    breaches = [e for e in evals if e.breached]
    if not breaches:
        return None
    worst = max(breaches, key=lambda e: (e.miss_prob, e.resource))

    if config.strategy is Strategy.NAIVE:
        victims = [t for t in victim_order(view, worst.resource) if t not in view.cooldown]
        if not victims:
            return ReallocationDecision(moved=(), trigger=(worst.resource, worst.miss_prob, worst.threshold))
        return naive_reallocate(view, victims[0], config.thresholds)

    best = mc_reallocate(view, config.thresholds, config.mc_samples, mc_seed).assignments
    moved = tuple((tid, src, best[tid]) for tid, src in view.assignments.items() if best[tid] != src)
    return ReallocationDecision(moved=moved, trigger=(worst.resource, worst.miss_prob, worst.threshold))


def window_fits(
    runtimes: Mapping[str, Sequence[int]], fit_window: int
) -> dict[str, NormalParams]:
    """Normal fit over each task's most recent ``fit_window`` samples.

    Tasks with fewer than ``MIN_FIT_SAMPLES`` samples get no entry, so consumers
    fall back to the declared execution model.  ``fit_tasks`` fits windows of
    one length together, as the rows of one array.
    """
    windows = {}
    for tid, samples in runtimes.items():
        n = min(len(samples), fit_window)
        if n >= MIN_FIT_SAMPLES:
            windows[tid] = samples[-n:]
    return {tid: fit for tid, (fit, _) in fit_tasks(windows).items()}


class OrchestratorHook:
    """Simulation hook driving ``orchestrate_step`` once per monitoring epoch.

    Keeps the decision log (one record per epoch, missing nothing) and the
    per-task cooldown bookkeeping across epochs.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        resources: Sequence[ResourceState],
        config: OrchestratorConfig,
        base_seed: int = 0,
    ):
        self.period_us = config.monitor_period_us
        self.config = config
        self.base_seed = base_seed
        self._tasks = {t.id: t for t in tasks}
        self._resources = {r.id: r for r in resources}
        self._last_moved: dict[str, int] = {}
        self._epoch = 0
        self.records: list[dict] = []

    def __call__(self, snapshot: SimSnapshot) -> Optional[PlanUpdate]:
        self._epoch += 1
        fits = window_fits(snapshot.runtimes, self.config.fit_window)
        cooldown = frozenset(
            tid for tid, epoch in self._last_moved.items()
            if self._epoch - epoch < COOLDOWN_EPOCHS
        )
        view = SystemView(
            now_us=snapshot.now_us,
            tasks=self._tasks,
            resources=self._resources,
            assignments=snapshot.assignments,
            fits=fits,
            evicted=snapshot.evicted,
            next_deadline_us=snapshot.next_deadline_us,
            cooldown=cooldown,
        )
        evals = evaluate_epoch(view, self.config)
        decision = orchestrate_step(view, self.config, evals, mc_seed=self.base_seed + self._epoch)
        self.records.append({
            "time_us": snapshot.now_us,
            "per_resource": {e.resource: e.miss_prob for e in evals},
            "decision": asdict(decision) if decision is not None else None,
        })
        if decision is None or not decision.moved:
            return None
        moves = {tid: dst for tid, _src, dst in decision.moved}
        self._last_moved.update(dict.fromkeys(moves, self._epoch))
        return PlanUpdate(assignments=moves, evicted=frozenset(decision.evicted_best_effort))


def first_fit_plan(
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceState],
    thresholds: Mapping[Criticality, float] = DEFAULT_THRESHOLDS,
    fits: Mapping[str, NormalParams] | None = None,
) -> dict[str, str]:
    """First-fit by declining utilization; raises InfeasibleError when a task fits nowhere."""
    loads = [GroupLoad(res, fits) for res in resources]
    assignments: dict[str, str] = {}
    order = sorted(tasks, key=lambda t: (-utilization(t), t.id))
    for task in order:
        terms = load_terms(task, fits)
        for load in loads:
            if load.try_add(task, thresholds, terms):
                assignments[task.id] = load.resource.id
                break
        else:
            raise InfeasibleError(task.id, f"task '{task.id}' admits on no resource")
    return assignments


class InfeasibleError(Exception):
    """No placement satisfies admission for the named task."""

    def __init__(self, task_id: str, message: str):
        super().__init__(message)
        self.task_id = task_id
