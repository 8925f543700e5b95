"""Seeded discrete-event simulation of preemptive EDF/RM scheduling on CPUs.

Time is integer microseconds throughout, which keeps event ordering exact and
runs byte-for-byte reproducible from (inputs, seed).  Randomness comes from a
single NumPy PCG64 generator; draws happen in event-processing order, which is
itself a total order:

    (timestamp, kind rank, id, insertion counter)

with kind ranks release < interference-end < complete < deadline-check <
interference-start < monitor-epoch.  Within a CPU the dispatcher picks the
ready job with the smallest (evicted?, deadline-or-period, task id, release)
key, so EDF/RM ties resolve by task id and a running job is preempted exactly
when a strictly smaller key becomes ready.

A job's recorded runtime is completion minus first dispatch: queueing before
the first dispatch does not count, but preemptions after it (including
interference, which models higher-priority interrupts stealing the CPU from
every task) stretch the measurement.  Jobs that miss their deadline keep
running to completion; the miss is recorded the moment the deadline passes
with work outstanding.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Sequence

import numpy as np

from .model import AllocationPlan, ExecModel, Policy, ResourceState, TaskSpec
from .probability import NormalParams

_R_RELEASE = 0
_R_IFR_END = 1
_R_COMPLETE = 2
_R_DEADLINE = 3
_R_IFR_START = 4
_R_MONITOR = 5


@dataclass(frozen=True)
class Interference:
    """Sporadic CPU theft: Poisson events at ``rate_per_s`` each blocking the CPU
    for ``magnitude_us`` (models interrupts / blocking I/O above every task)."""

    rate_per_s: float
    magnitude_us: int


@dataclass(frozen=True)
class NoiseModel:
    """System-noise added on top of each task's own execution model.

    ``base_overhead_us`` is a fixed per-job scheduling/OS cost;
    ``latency_jitter`` is a per-job normal draw truncated at zero, so it can
    only lengthen a job.  ``interference`` acts on CPUs, not jobs.
    """

    base_overhead_us: int = 0
    latency_jitter: NormalParams = NormalParams(0.0, 0.0)
    interference: Interference | None = None


ZERO_NOISE = NoiseModel()


@dataclass
class Job:
    """One released instance of a task."""

    task: str
    release_us: int
    abs_deadline_us: int
    demand_us: int
    resource: str
    executed_us: int = 0
    first_start_us: int = -1
    measure_start_us: int = -1
    done: bool = False


@dataclass
class SimTrace:
    """Everything a run produced: ordered events plus per-job measured runtimes."""

    events: list[tuple[int, str, str, str]]
    per_task_runtimes: dict[str, list[int]]

    def miss_counts(self) -> dict[str, int]:
        counts = {task: 0 for task in self.per_task_runtimes}
        for _, kind, task, _ in self.events:
            if kind == "deadline_miss":
                counts[task] += 1
        return counts


@dataclass(frozen=True)
class SimSnapshot:
    """Read-only view handed to the monitoring hook at each epoch."""

    now_us: int
    assignments: Mapping[str, str]
    evicted: frozenset[str]
    next_deadline_us: Mapping[str, int]
    runtimes: Mapping[str, Sequence[int]]


@dataclass(frozen=True)
class PlanUpdate:
    """Hook response: the full new assignment map and the full evicted set."""

    assignments: Mapping[str, str]
    evicted: frozenset[str] = frozenset()


class SimHook(Protocol):
    """Monitoring callback invoked every ``period_us`` of simulated time."""

    period_us: int

    def __call__(self, snapshot: SimSnapshot) -> Optional[PlanUpdate]: ...


def sample_runtime(model: ExecModel, noise: NoiseModel, rng: np.random.Generator) -> int:
    """Draw one job demand: mixture-normal clamped to [cutoff_lo, wcet] plus noise.

    Noise terms are non-negative, so the result never drops below cutoff_lo.
    """
    mu = float(model.mu_us)
    if model.mixture:
        u = rng.random()
        acc = 0.0
        for mode in model.mixture:
            acc += mode.weight
            if u < acc:
                mu = float(model.mu_us + mode.offset_us)
                break
    if model.sigma_us > 0:
        draw = rng.normal(mu, model.sigma_us)
    else:
        draw = mu
    exec_us = min(max(int(round(draw)), model.cutoff_lo_us), model.wcet_us)
    total = exec_us + noise.base_overhead_us
    jitter = noise.latency_jitter
    if jitter.sigma > 0.0 or jitter.mu > 0.0:
        total += max(0, int(round(rng.normal(jitter.mu, jitter.sigma))))
    return total


class _Cpu:
    __slots__ = ("spec", "rm", "ready", "running", "running_key", "run_since", "seq", "blocked_until")

    def __init__(self, spec: ResourceState):
        self.spec = spec
        self.rm = spec.policy is Policy.RM
        self.ready: list[tuple[tuple, Job]] = []
        self.running: Job | None = None
        self.running_key: tuple = ()
        self.run_since = 0
        self.seq = 0
        self.blocked_until = 0


def run_sim(
    plan: AllocationPlan | Mapping[str, str],
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceState],
    noise: NoiseModel = ZERO_NOISE,
    duration_us: int = 1_000_000,
    seed: int = 0,
    hook: SimHook | None = None,
) -> SimTrace:
    """Simulate ``duration_us`` of scheduling and return the trace.

    ``plan`` must assign every task to a known resource; unknown ids fail
    before the clock starts.  ``duration_us`` must cover at least one period
    of every task.  With a ``hook``, monitoring epochs fire every
    ``hook.period_us`` and any returned PlanUpdate takes effect at each moved
    task's next release (in-flight jobs finish where they started).
    """
    assignments = dict(plan.assignments) if isinstance(plan, AllocationPlan) else dict(plan)
    task_map = {t.id: t for t in tasks}
    cpu_map = {r.id: _Cpu(r) for r in resources}

    for tid, rid in assignments.items():
        if tid not in task_map:
            raise ValueError(f"plan assigns unknown task '{tid}'")
        if rid not in cpu_map:
            raise ValueError(f"plan assigns task '{tid}' to unknown resource '{rid}'")
    unassigned = sorted(set(task_map) - set(assignments))
    if unassigned:
        raise ValueError(f"plan leaves tasks unassigned: {', '.join(unassigned)}")
    if tasks and duration_us < max(t.period_us for t in tasks):
        raise ValueError("duration too short")

    rng = np.random.default_rng(seed)
    events: list[tuple[int, str, str, str]] = []
    runtimes: dict[str, list[int]] = {t.id: [] for t in tasks}
    open_jobs: dict[str, list[Job]] = {t.id: [] for t in tasks}
    next_release: dict[str, int] = {t.id: 0 for t in tasks}
    evicted: set[str] = set()

    heap: list[tuple[int, int, str, int, tuple]] = []
    counter = 0

    def push(time: int, rank: int, tie: str, payload: tuple) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (time, rank, tie, counter, payload))

    def job_key(cpu: _Cpu, job: Job) -> tuple:
        primary = task_map[job.task].period_us if cpu.rm else job.abs_deadline_us
        return (1 if job.task in evicted else 0, primary, job.task, job.release_us)

    def dispatch(cpu: _Cpu, now: int) -> None:
        """Give the CPU to the best ready job, preempting a worse running one."""
        if cpu.blocked_until > now:
            return
        if cpu.running is not None:
            if not cpu.ready or cpu.ready[0][0] >= cpu.running_key:
                return
            run = cpu.running
            if run.demand_us - run.executed_us - (now - cpu.run_since) <= 0:
                return  # finishing at this very instant; let its completion event land
            run.executed_us += now - cpu.run_since
            events.append((now, "preempt", run.task, cpu.spec.id))
            heapq.heappush(cpu.ready, (job_key(cpu, run), run))
            cpu.running = None
            cpu.seq += 1
        if not cpu.ready:
            return
        key, job = heapq.heappop(cpu.ready)
        cpu.running = job
        cpu.running_key = key
        cpu.run_since = now
        cpu.seq += 1
        if job.executed_us == 0:
            # runtime measurement anchors at the dispatch where real progress begins,
            # so a zero-length dispatch segment does not inflate the measurement
            job.measure_start_us = now
        if job.first_start_us < 0:
            job.first_start_us = now
            events.append((now, "start", job.task, cpu.spec.id))
        else:
            events.append((now, "resume", job.task, cpu.spec.id))
        push(now + job.demand_us - job.executed_us, _R_COMPLETE, job.task, ("complete", cpu, cpu.seq, job))

    def apply_update(update: PlanUpdate, now: int) -> None:
        for tid in sorted(update.assignments):
            rid = update.assignments[tid]
            if rid not in cpu_map:
                raise ValueError(f"hook assigned task '{tid}' to unknown resource '{rid}'")
            if assignments.get(tid) != rid:
                events.append((now, "migrate", tid, rid))
                assignments[tid] = rid
        newly_evicted = set(update.evicted) - evicted
        if newly_evicted:
            evicted.update(newly_evicted)
            for cpu in cpu_map.values():
                cpu.ready = [(job_key(cpu, j), j) for _, j in cpu.ready]
                heapq.heapify(cpu.ready)
                if cpu.running is not None:
                    cpu.running_key = job_key(cpu, cpu.running)
                dispatch(cpu, now)

    def snapshot(now: int) -> SimSnapshot:
        nd = {}
        for tid, jobs in open_jobs.items():
            if jobs:
                nd[tid] = jobs[0].abs_deadline_us
            else:
                t = task_map[tid]
                assert t.deadline_us is not None
                nd[tid] = next_release[tid] + t.deadline_us
        return SimSnapshot(
            now_us=now,
            assignments=dict(assignments),
            evicted=frozenset(evicted),
            next_deadline_us=nd,
            runtimes=runtimes,
        )

    for t in tasks:
        push(0, _R_RELEASE, t.id, ("release", t.id))
    if noise.interference is not None:
        scale = 1e6 / noise.interference.rate_per_s
        for r in resources:
            first = max(1, int(round(rng.exponential(scale))))
            if first < duration_us:
                push(first, _R_IFR_START, r.id, ("ifr_start", r.id))
    if hook is not None and hook.period_us < duration_us:
        push(hook.period_us, _R_MONITOR, "", ("monitor",))

    while heap:
        now, _rank, _tie, _n, payload = heapq.heappop(heap)
        if now > duration_us:
            break
        kind = payload[0]

        if kind == "release":
            tid = payload[1]
            task = task_map[tid]
            assert task.deadline_us is not None
            rid = assignments[tid]
            cpu = cpu_map[rid]
            job = Job(
                task=tid,
                release_us=now,
                abs_deadline_us=now + task.deadline_us,
                demand_us=sample_runtime(task.exec_model, noise, rng),
                resource=rid,
            )
            events.append((now, "release", tid, rid))
            open_jobs[tid].append(job)
            if job.abs_deadline_us <= duration_us:
                push(job.abs_deadline_us, _R_DEADLINE, tid, ("deadline", job))
            nxt = now + task.period_us
            next_release[tid] = nxt
            if nxt < duration_us:
                push(nxt, _R_RELEASE, tid, ("release", tid))
            heapq.heappush(cpu.ready, (job_key(cpu, job), job))
            dispatch(cpu, now)

        elif kind == "complete":
            _, cpu, dseq, job = payload
            if cpu.running is not job or cpu.seq != dseq:
                continue  # superseded by a preemption
            job.executed_us = job.demand_us
            job.done = True
            events.append((now, "complete", job.task, cpu.spec.id))
            runtimes[job.task].append(now - job.measure_start_us)
            jobs = open_jobs[job.task]
            if jobs and jobs[0] is job:
                jobs.pop(0)
            else:
                # a migrated task can finish a new job on its new CPU while an
                # old overloaded job still drains on the previous one
                jobs.remove(job)
            cpu.running = None
            cpu.seq += 1
            dispatch(cpu, now)

        elif kind == "deadline":
            job = payload[1]
            if not job.done:
                events.append((now, "deadline_miss", job.task, job.resource))

        elif kind == "ifr_start":
            rid = payload[1]
            cpu = cpu_map[rid]
            assert noise.interference is not None
            magnitude = noise.interference.magnitude_us
            if cpu.blocked_until > now:
                cpu.blocked_until += magnitude  # back-to-back interrupts queue up
            else:
                run = cpu.running
                if run is not None:
                    run.executed_us += now - cpu.run_since
                    events.append((now, "preempt", run.task, cpu.spec.id))
                    heapq.heappush(cpu.ready, (job_key(cpu, run), run))
                    cpu.running = None
                    cpu.seq += 1
                cpu.blocked_until = now + magnitude
            push(cpu.blocked_until, _R_IFR_END, rid, ("ifr_end", rid))
            scale = 1e6 / noise.interference.rate_per_s
            nxt = now + max(1, int(round(rng.exponential(scale))))
            if nxt < duration_us:
                push(nxt, _R_IFR_START, rid, ("ifr_start", rid))

        elif kind == "ifr_end":
            rid = payload[1]
            cpu = cpu_map[rid]
            if cpu.blocked_until != now:
                continue  # extended by a later interrupt
            dispatch(cpu, now)

        elif kind == "monitor":
            assert hook is not None
            update = hook(snapshot(now))
            if update is not None:
                apply_update(update, now)
            nxt = now + hook.period_us
            if nxt < duration_us:
                push(nxt, _R_MONITOR, "", ("monitor",))

    return SimTrace(events=events, per_task_runtimes=runtimes)


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time_us,kind,task,resource\n")
        for time_us, kind, task, resource in trace.events:
            fh.write(f"{time_us},{kind},{task},{resource}\n")


def write_runtimes_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("task,runtime_us\n")
        for task, samples in trace.per_task_runtimes.items():
            for r in samples:
                fh.write(f"{task},{r}\n")


def read_runtimes_csv(path) -> dict[str, list[int]]:
    """Parse a runtimes CSV back into per-task sample lists (insertion order kept)."""
    out: dict[str, list[int]] = {}
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "task,runtime_us":
            raise ValueError(f"unexpected runtimes header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                task, value = line.split(",")
                out.setdefault(task, []).append(int(value))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from exc
    return out
