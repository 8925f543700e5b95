"""Independent reference implementations the test suite checks against.

Each routine deliberately uses a different method than the library: numeric
quadrature instead of erfc, Monte Carlo instead of closed-form tails,
two-pass statistics instead of streaming updates, arbitrary precision
instead of float exponentials.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from rtorch.model import AllocationPlan, ExecModel, Policy, ResourceState, TaskSpec
from rtorch.simulation import _KINDS, ZERO_NOISE, NoiseModel, PlanUpdate, SimHook, SimSnapshot, SimTrace


def trace_of(
    events: Sequence[tuple[int, str, str, str]],
    per_task_runtimes: dict[str, list[int]],
    task_ids: Sequence[str] = (),
    cpu_ids: Sequence[str] = (),
) -> SimTrace:
    """The columnar SimTrace of ``(time_us, kind, task, resource)`` tuples.

    The id tables are ``task_ids`` and ``cpu_ids`` plus every id the events
    name, each sorted, as ``run_sim`` interns them.
    """
    tasks = sorted({*task_ids, *(e[2] for e in events)})
    cpus = sorted({*cpu_ids, *(e[3] for e in events)})
    bits = len(cpus).bit_length()
    codes = [(tasks.index(task) << bits | cpus.index(cpu)) << 3 | _KINDS.index(kind)
             for _, kind, task, cpu in events]
    return SimTrace(per_task_runtimes, array("q", [e[0] for e in events]), array("q", codes),
                    tuple(tasks), tuple(cpus))


def phi_simpson(x: float, lo: float = -12.0, steps: int = 20000) -> float:
    """Standard normal CDF by composite Simpson integration of the density."""
    if x <= lo:
        return 0.0
    if steps % 2:
        steps += 1
    h = (x - lo) / steps
    xs = [lo + i * h for i in range(steps + 1)]
    ys = [math.exp(-t * t / 2.0) for t in xs]
    acc = ys[0] + ys[-1]
    acc += 4.0 * sum(ys[1:-1:2])
    acc += 2.0 * sum(ys[2:-1:2])
    return acc * h / (3.0 * math.sqrt(2.0 * math.pi))


def mc_group_miss_fraction(
    mus: list[float],
    sigmas: list[float],
    periods: list[float],
    u_max: float,
    draws: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical P(sum of per-task utilization draws > u_max) and its standard error."""
    rng = np.random.default_rng(seed)
    total = np.zeros(draws)
    for mu, sigma, period in zip(mus, sigmas, periods):
        total += rng.normal(mu, sigma, draws) / period
    p_hat = float(np.mean(total > u_max))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / draws)
    return p_hat, se


def two_pass_stats(samples) -> tuple[float, float]:
    """Textbook two-pass mean and unbiased variance."""
    n = len(samples)
    mean = math.fsum(samples) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, var


def fit_normal_reference(samples) -> tuple[float, float]:
    """``fit_normal`` on one 1-D array, before windows were fitted as stacked rows."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.min() == xs.max():
        return float(xs[0]), 0.0
    return float(xs.mean()), float(xs.std(ddof=1))


def ks_statistic_reference(samples, params) -> float:
    """KS distance to N(mu, sigma) element by element: one CDF and both step gaps per sorted sample."""
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = 0.5 * math.erfc(-(x - params.mu) / (params.sigma * math.sqrt(2.0)))
        d = max(d, (i + 1) / n - cdf, cdf - i / n)
    return d


def read_runtimes_csv_reference(path) -> dict[str, list[int]]:
    """The runtimes CSV reader as a file iteration: split each stripped line on commas."""
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


def rm_bound_exact(n: int, dps: int = 50):
    """n*(2^(1/n) - 1) in arbitrary precision."""
    import mpmath

    with mpmath.workdps(dps):
        return n * (mpmath.mpf(2) ** (mpmath.mpf(1) / n) - 1)


def edf_window_demand(budgets_us: list[int], copies: int = 1) -> int:
    """Total demand of one synchronous batch; fits iff <= the common period."""
    return copies * sum(budgets_us)


def mc_reallocate_reference(view, thresholds, mc_samples: int, seed: int):
    """The Monte Carlo placement search as a plain loop: one draw and one exact score per sample."""
    from rtorch.orchestration import build_plan, plan_objective

    res_ids = list(view.resources)
    movable = [tid for tid in view.tasks if tid not in view.cooldown]
    rng = np.random.default_rng(seed)

    best_assign = dict(view.assignments)
    best_obj = plan_objective(view, best_assign, thresholds)
    for _ in range(mc_samples):
        candidate = dict(view.assignments)
        picks = rng.integers(0, len(res_ids), size=len(movable))
        for tid, idx in zip(movable, picks):
            candidate[tid] = res_ids[idx]
        obj = plan_objective(view, candidate, thresholds)
        if obj < best_obj:
            best_obj = obj
            best_assign = candidate
    return build_plan(best_assign, view.tasks, view.resources, view.fits, view.evicted)


def first_fit_reference(tasks, resources, thresholds, fits=None):
    """First fit that re-derives the whole group and its threshold for ``admit`` at every (task, CPU) pair."""
    from rtorch.admission import admit
    from rtorch.orchestration import InfeasibleError

    placed = {r.id: [] for r in resources}
    assignments: dict[str, str] = {}
    order = sorted(tasks, key=lambda t: (-(t.budget_us / t.period_us), t.id))
    for task in order:
        for res in resources:
            hosted = placed[res.id]
            thr = min(thresholds[t.criticality] for t in hosted + [task])
            if admit(res, hosted, task, thr, fits).admitted:
                hosted.append(task)
                assignments[task.id] = res.id
                break
        else:
            raise InfeasibleError(task.id, f"task '{task.id}' admits on no resource")
    return assignments


_R_RELEASE = 0
_R_IFR_END = 1
_R_COMPLETE = 2
_R_DEADLINE = 3
_R_IFR_START = 4
_R_MONITOR = 5


@dataclass
class ReferenceJob:
    """One released instance of a task (the engine's job record before interning)."""

    task: str
    release_us: int
    abs_deadline_us: int
    demand_us: int
    resource: str
    executed_us: int = 0
    first_start_us: int = -1
    measure_start_us: int = -1
    done: bool = False



def demand_stream_reference(model: ExecModel, noise: NoiseModel, seed: np.random.SeedSequence):
    """Yield job demands one at a time: scalar ``rng.random`` and ``rng.normal`` calls on
    the generators ``simulation.demand_stream`` seeds, clamped and summed as Python integers.

    Noise terms are non-negative, so the result never drops below cutoff_lo.
    """
    bits = np.random.PCG64(seed)
    rng, modes = np.random.Generator(bits), np.random.Generator(bits.jumped())
    jitter = noise.latency_jitter
    while True:
        mu = float(model.mu_us)
        if model.mixture:
            u = modes.random()
            acc = 0.0
            for mode in model.mixture:
                acc += mode.weight
                if u < acc:
                    mu = float(model.mu_us + mode.offset_us)
                    break
        draw = rng.normal(mu, model.sigma_us) if model.sigma_us > 0 else mu
        total = min(max(int(round(draw)), model.cutoff_lo_us), model.wcet_us) + noise.base_overhead_us
        if jitter.sigma > 0.0:
            total += max(0, int(round(rng.normal(jitter.mu, jitter.sigma))))
        else:
            total += max(0, int(round(jitter.mu)))
        yield total


class _ReferenceCpu:
    __slots__ = ("spec", "rm", "ready", "running", "running_key", "run_since", "seq", "blocked_until")

    def __init__(self, spec: ResourceState):
        self.spec = spec
        self.rm = spec.policy is Policy.RM
        self.ready: list[tuple[tuple, ReferenceJob]] = []
        self.running: ReferenceJob | None = None
        self.running_key: tuple = ()
        self.run_since = 0
        self.seq = 0
        self.blocked_until = 0


def run_sim_reference(
    plan: AllocationPlan | Mapping[str, str],
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceState],
    noise: NoiseModel = ZERO_NOISE,
    duration_us: int = 1_000_000,
    seed: int = 0,
    hook: SimHook | None = None,
) -> SimTrace:
    """The event engine before interning: string kind tags, string heap ties, and
    per-job scalar draws from ``demand_stream_reference`` on each task's child of
    ``SeedSequence(seed).spawn(2)[0]`` and per-event interference gaps on each
    CPU's child of ``spawn(2)[1]``, children taken in sorted-id order.

    Simulate ``duration_us`` of scheduling and return the trace.

    ``plan`` must assign every task to a known resource; unknown ids fail
    before the clock starts.  ``duration_us`` must cover at least one period
    of every task.  With a ``hook``, monitoring epochs fire every
    ``hook.period_us`` and any returned PlanUpdate takes effect at each moved
    task's next release (in-flight jobs finish where they started).
    """
    assignments = dict(plan.assignments) if isinstance(plan, AllocationPlan) else dict(plan)
    task_map = {t.id: t for t in tasks}
    cpu_map = {r.id: _ReferenceCpu(r) for r in resources}

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

    task_root, cpu_root = np.random.SeedSequence(seed).spawn(2)
    demands = {tid: demand_stream_reference(task_map[tid].exec_model, noise, child)
               for tid, child in zip(sorted(task_map), task_root.spawn(len(task_map)))}
    gap_rngs = {rid: np.random.default_rng(child)
                for rid, child in zip(sorted(cpu_map), cpu_root.spawn(len(cpu_map)))}
    events: list[tuple[int, str, str, str]] = []
    runtimes: dict[str, list[int]] = {t.id: [] for t in tasks}
    open_jobs: dict[str, list[ReferenceJob]] = {t.id: [] for t in tasks}
    next_release: dict[str, int] = {t.id: 0 for t in tasks}
    evicted: set[str] = set()

    heap: list[tuple[int, int, str, int, tuple]] = []
    counter = 0

    def push(time: int, rank: int, tie: str, payload: tuple) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (time, rank, tie, counter, payload))

    def job_key(cpu: _ReferenceCpu, job: ReferenceJob) -> tuple:
        primary = task_map[job.task].period_us if cpu.rm else job.abs_deadline_us
        return (1 if job.task in evicted else 0, primary, job.task, job.release_us)

    def preempt(cpu: _ReferenceCpu, now: int) -> None:
        """Return the running job to the ready queue, keeping the time it executed."""
        run = cpu.running
        run.executed_us += now - cpu.run_since
        events.append((now, "preempt", run.task, cpu.spec.id))
        heapq.heappush(cpu.ready, (job_key(cpu, run), run))
        cpu.running = None
        cpu.seq += 1

    def dispatch(cpu: _ReferenceCpu, now: int) -> None:
        """Give the CPU to the best ready job, preempting a worse running one."""
        if cpu.blocked_until > now:
            return
        if cpu.running is not None:
            if not cpu.ready or cpu.ready[0][0] >= cpu.running_key:
                return
            run = cpu.running
            if run.demand_us - run.executed_us - (now - cpu.run_since) <= 0:
                return  # finishing at this very instant; let its completion event land
            preempt(cpu, now)
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
            first = max(1, int(round(gap_rngs[r.id].exponential(scale))))
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
            job = ReferenceJob(
                task=tid,
                release_us=now,
                abs_deadline_us=now + task.deadline_us,
                demand_us=next(demands[tid]),
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
                if cpu.running is not None:
                    preempt(cpu, now)
                cpu.blocked_until = now + magnitude
            push(cpu.blocked_until, _R_IFR_END, rid, ("ifr_end", rid))
            scale = 1e6 / noise.interference.rate_per_s
            nxt = now + max(1, int(round(gap_rngs[rid].exponential(scale))))
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

    return trace_of(events, runtimes, task_map, cpu_map)


# histogram_modes on scipy.signal.find_peaks; the library's must agree with it on
# every histogram with at least ``smooth`` bins
def histogram_modes_reference(
    bins: Sequence[tuple[int, int, int]],
    min_prominence: float = 0.02,
    smooth: int = 3,
) -> list[int]:
    """Indices of local maxima in a task histogram, by relative prominence.

    Counts are normalized, lightly smoothed (moving average of ``smooth``
    bins) and zero-padded so edge bins can peak; ``min_prominence`` is a
    fraction of total mass.
    """
    counts = np.array([c for _, _, c in bins], dtype=float)
    total = counts.sum()
    if total == 0:
        return []
    rel = counts / total
    if smooth > 1:
        kernel = np.ones(smooth) / smooth
        rel = np.convolve(rel, kernel, mode="same")
    padded = np.concatenate([[0.0], rel, [0.0]])
    # imported here: scipy.signal takes about a second to load and no command needs it
    from scipy.signal import find_peaks

    peaks, _ = find_peaks(padded, prominence=min_prominence)
    return [int(p - 1) for p in peaks]
