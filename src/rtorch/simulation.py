"""Seeded discrete-event simulation of preemptive EDF/RM scheduling on CPUs.

Time is integer microseconds throughout, which keeps event ordering exact and
runs byte-for-byte reproducible from (inputs, seed).  ``SeedSequence(seed)``
gives each task its own demand streams (``demand_stream``) and each CPU its own
interference gaps (``gap_stream``), so a task's j-th demand depends only on the
seed, the task's rank in sorted-id order and j.  Events are processed in a total order:

    (timestamp, kind rank, id, insertion counter)

with kind ranks release < interference-end < complete < deadline-check <
interference-start < monitor-epoch.  The engine dispatches on the rank alone;
task and CPU ids enter the heap as their index in sorted-id order, which
orders ties exactly as the id strings do.  Releases are one heap event per
distinct release time: it releases the tasks due then in task order, the order
per-task events would have popped in, since nothing a release schedules at its
own instant pops before another release.  Deadline checks are one heap event
per distinct deadline time too: it checks the jobs due then in task order,
since no deadline check schedules anything.  A job due at its task's next
release inside the run (an implicit deadline) waits in its task's pending slot
and joins the checks of that instant only if that release finds it open; every
other job is registered when it is released.  Either way the check lands after
the completions of its instant, so the total order is the per-job one.  Within
a CPU the dispatcher picks the ready job with the smallest (evicted?,
deadline-or-period, task id, release) key, so EDF/RM ties resolve by task id
and a running job is preempted exactly when a strictly smaller key becomes
ready.

A job's recorded runtime is completion minus first dispatch: queueing before
the first dispatch does not count, but preemptions after it (including
interference, which models higher-priority interrupts stealing the CPU from
every task) stretch the measurement.  Jobs that miss their deadline keep
running to completion; the miss is still recorded the moment the deadline
passes with work outstanding.

The trace is two ``array('q')`` columns, 16 bytes an event: the times, and one
code per event packing its kind, task and CPU (see ``SimTrace``).  Each task's
runtimes are one more such column.
"""
from __future__ import annotations

import heapq
import itertools
from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Protocol

import numpy as np

from .model import MAX_US, MAX_US_DIGITS, ExecModel, Policy, ResourceState, TaskSpec
from .probability import NormalParams

_R_RELEASE = 0
_R_IFR_END = 1
_R_COMPLETE = 2
_R_DEADLINE = 3
_R_IFR_START = 4
_R_MONITOR = 5

# the event kinds a trace records, indexed by the low 3 bits of an event code
_KINDS = ("release", "start", "resume", "preempt", "complete", "deadline_miss", "migrate")
_K_RELEASE, _K_START, _K_RESUME, _K_PREEMPT, _K_COMPLETE, _K_MISS, _K_MIGRATE = range(len(_KINDS))

# A job, one released instance of a task, is a list of nine slots: its interned
# task index, the _Cpu it was released on, the code of its events (kind 0), its
# release time, absolute deadline and demand, the time it has executed, its
# first dispatch (-1 until then; times are never negative), and whether it is done.
_J_TASK, _J_CPU, _J_CODE, _J_RELEASE, _J_DEADLINE, _J_DEMAND, _J_EXECUTED, _J_START, _J_DONE = range(9)
_task_rank = itemgetter(_J_TASK)


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
class SimTrace:
    """Everything a run produced: two event columns plus per-job measured runtimes.

    ``per_task_runtimes`` holds each task's runtimes, in completion order.
    Event i happened at ``times[i]`` and has the code ``events[i]``, which is
    ``(task << len(cpu_ids).bit_length() | cpu) << 3 | kind``, with ``task`` an
    index into ``task_ids``, ``cpu`` into ``cpu_ids`` and ``kind`` into
    ``_KINDS``.
    """

    per_task_runtimes: dict[str, array]
    times: array
    events: array
    task_ids: tuple[str, ...]
    cpu_ids: tuple[str, ...]

    def miss_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.per_task_runtimes, 0)
        codes = np.asarray(self.events)
        missed = np.bincount(codes[(codes & 7) == _K_MISS] >> (3 + len(self.cpu_ids).bit_length()),
                             minlength=len(self.task_ids))
        for task, n in zip(self.task_ids, missed.tolist()):
            if n:
                counts[task] += n
        return counts


class _Labels(dict):
    """Event code -> its trace CSV row less the time (``,kind,task,resource`` and a newline),
    worked out at the code's first lookup."""

    def __init__(self, trace: SimTrace):
        super().__init__()
        self.trace = trace

    def __missing__(self, code: int) -> str:
        trace = self.trace
        shift = len(trace.cpu_ids).bit_length()
        task, cpu = trace.task_ids[code >> (3 + shift)], trace.cpu_ids[(code >> 3) & ((1 << shift) - 1)]
        value = self[code] = f",{_KINDS[code & 7]},{task},{cpu}\n"
        return value


@dataclass(frozen=True)
class SimSnapshot:
    """Read-only view handed to the monitoring hook at each epoch.

    ``runtimes`` are the run's live columns.  A hook copies what it keeps (a
    slice does): a column cannot grow while a NumPy view of it is alive.
    """

    now_us: int
    assignments: Mapping[str, str]
    evicted: frozenset[str]
    next_deadline_us: Mapping[str, int]
    runtimes: Mapping[str, array]


@dataclass(frozen=True)
class PlanUpdate:
    """Hook response: the new resource of each task it moves, and the tasks it demotes.

    Tasks missing from ``assignments`` stay put; ids already evicted are ignored.
    An id that names no task, or a resource that does not exist, fails the run.
    """

    assignments: Mapping[str, str]
    evicted: frozenset[str] = frozenset()


class SimHook(Protocol):
    """Monitoring callback invoked every ``period_us`` of simulated time."""

    period_us: int

    def __call__(self, snapshot: SimSnapshot) -> Optional[PlanUpdate]: ...


_DEMAND_BLOCK = 256  # demands (and interference gaps) per NumPy call; the values do not depend on it


def demand_stream(model: ExecModel, noise: NoiseModel, seed: np.random.SeedSequence, releases: int) -> Iterator[int]:
    """Yield the demands of a task's first ``releases`` jobs, drawn from ``seed`` alone.

    A demand is the mixture-normal runtime rounded half to even and clamped to [cutoff_lo,
    wcet], plus the base overhead, plus the latency jitter rounded and truncated at zero, so it
    never drops below cutoff_lo.  It is an int64: for the values the scenario reader accepts
    (every ``_us`` at most 2**53 in magnitude) no sum reaches 2**60.  Each job takes from a
    PCG64 seeded by ``seed`` the runtime's standard normal z (if sigma is positive), then the
    jitter's (if its sigma is positive), as ``mu + sigma * z``; a mixture picks each job's mode
    with one uniform from that PCG64 jumped ahead (``PCG64.jumped``).  NumPy draws the same
    numbers however a sequence is split, so ``_DEMAND_BLOCK`` does not change the demands.
    """
    bits = np.random.PCG64(seed)
    normal = np.random.Generator(bits).standard_normal
    uniform = np.random.Generator(bits.jumped()).random if model.mixture else None
    bounds = list(itertools.accumulate(mode.weight for mode in model.mixture))
    means = np.array([model.mu_us + mode.offset_us for mode in model.mixture] + [model.mu_us], dtype=float)
    sigma = float(model.sigma_us)
    lo, hi = model.cutoff_lo_us, model.wcet_us
    jitter_mu, jitter_sigma = float(noise.latency_jitter.mu), float(noise.latency_jitter.sigma)
    # a jitter without spread is a constant, folded into the overhead with no draw
    offset = noise.base_overhead_us + (0 if jitter_sigma > 0.0 else max(0, round(jitter_mu)))
    width = (sigma > 0.0) + (jitter_sigma > 0.0)
    while releases > 0:
        n = min(releases, _DEMAND_BLOCK)
        releases -= n
        z = normal(n * width).reshape(n, width)
        draw = means[np.searchsorted(bounds, uniform(n), side="right")] if uniform else np.full(n, means[-1])
        if sigma > 0.0:
            draw += sigma * z[:, 0]
        # clipped after the cast, so the bounds compare as integers
        demand = np.clip(np.rint(draw).astype(np.int64), lo, hi) + offset
        if jitter_sigma > 0.0:
            demand += np.maximum(np.rint(jitter_mu + jitter_sigma * z[:, -1]), 0.0).astype(np.int64)
        yield from demand.tolist()


def gap_stream(seed: np.random.SeedSequence, scale: float) -> Iterator[int]:
    """Yield a CPU's interference gaps: exponential draws of mean ``scale`` from
    a PCG64 seeded by ``seed``, rounded half to even and at least 1, drawn
    ``_DEMAND_BLOCK`` at a time (the gaps do not depend on the block size)."""
    exponential = np.random.Generator(np.random.PCG64(seed)).exponential
    while True:
        yield from [max(1, round(gap)) for gap in exponential(scale, _DEMAND_BLOCK).tolist()]


class _Cpu:
    __slots__ = ("index", "id", "code", "rm", "ready", "running", "running_key", "run_since", "seq",
                 "blocked_until")

    def __init__(self, index: int, spec: ResourceState):
        self.index = index  # interned id: the heap tie of this CPU's interference events
        self.id = spec.id
        self.code = index << 3  # this CPU's part of an event code
        self.rm = spec.policy is Policy.RM
        self.ready: list[tuple[tuple, list]] = []  # (key, job); a key is unique per open job
        self.running: list | None = None
        self.running_key: tuple = ()
        self.run_since = 0
        self.seq = 0
        self.blocked_until = 0


def run_sim(
    plan: Mapping[str, str],
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceState],
    noise: NoiseModel = ZERO_NOISE,
    duration_us: int = 1_000_000,
    seed: int = 0,
    hook: SimHook | None = None,
) -> SimTrace:
    """Simulate ``duration_us`` of scheduling and return the trace.

    ``plan`` maps task id to resource id and must assign every task to a
    known resource; unknown ids fail before the clock starts.  ``duration_us``
    must cover at least one period of every task.  With a ``hook``,
    monitoring epochs fire every ``hook.period_us`` and any returned
    PlanUpdate takes effect at each moved task's next release (in-flight jobs
    finish where they started).
    """
    task_map = {t.id: t for t in tasks}
    cpu_rank = {rid: i for i, rid in enumerate(sorted({r.id for r in resources}))}
    cpu_map = {r.id: _Cpu(cpu_rank[r.id], r) for r in resources}

    for tid, rid in plan.items():
        if tid not in task_map:
            raise ValueError(f"plan assigns unknown task '{tid}'")
        if rid not in cpu_map:
            raise ValueError(f"plan assigns task '{tid}' to unknown resource '{rid}'")
    unassigned = sorted(set(task_map) - set(plan))
    if unassigned:
        raise ValueError(f"plan leaves tasks unassigned: {', '.join(unassigned)}")
    longest = max((t.period_us for t in tasks), default=None)
    if longest is not None and duration_us < longest:
        raise ValueError(f"duration too short: {duration_us} us is less than the longest period, {longest} us")

    # Tasks are interned to their rank in sorted-id order, so int heap ties
    # order exactly as the id strings would; per-task state is indexed by it.
    # task and CPU children are spawned in sorted-id order, so adding an id that
    # sorts last leaves every other stream as it was
    task_seeds, cpu_seeds = np.random.SeedSequence(seed).spawn(2)
    ids = sorted(task_map)
    index = {tid: i for i, tid in enumerate(ids)}
    specs = [task_map[tid] for tid in ids]
    period = [t.period_us for t in specs]
    deadline = [t.deadline_us for t in specs]
    # releases fall at k * period < duration_us, so a task releases ceil(duration / period) jobs
    demand = [demand_stream(t.exec_model, noise, s, -(-duration_us // t.period_us)).__next__
              for t, s in zip(specs, task_seeds.spawn(len(specs)))]
    # the one copy of placement and eviction; open jobs live only in the CPU queues
    where = [cpu_map[plan[tid]] for tid in ids]
    demoted = [0] * len(ids)
    runtimes = {t.id: array("q") for t in tasks}
    add_runtime = [runtimes[tid].append for tid in ids]

    # the trace columns: each event appends its time and its code (see SimTrace)
    times, codes = array("q"), array("q")
    stamp, record = times.append, codes.append
    task_code = [t << (3 + len(cpu_rank).bit_length()) for t in range(len(ids))]
    # (time, kind rank, interned id, insertion counter, job or CPU, dispatch seq)
    heap: list[tuple] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    counter = itertools.count()
    # release time -> the tasks due then, and deadline time -> the jobs due then;
    # one heap event handles each list
    releases: dict[int, list[int]] = {0: list(range(len(ids)))}
    dues: dict[int, list[list]] = {}
    # each task's job due at its next release; a done stand-in until the first one
    pending = [[None] * _J_DONE + [True]] * len(ids)

    def job_key(cpu: _Cpu, job: list) -> tuple:
        t = job[_J_TASK]
        return (demoted[t], period[t] if cpu.rm else job[_J_DEADLINE], t, job[_J_RELEASE])

    def check_at(due_us: int, job: list) -> None:
        """Check ``job`` for a miss at ``due_us``, after that instant's completions."""
        due = dues.get(due_us)
        if due is None:
            dues[due_us] = [job]
            heappush(heap, (due_us, _R_DEADLINE, 0, next(counter), None, 0))
        else:
            due.append(job)

    def preempt(cpu: _Cpu, now: int) -> None:
        """Return the running job to the ready queue, keeping the time it executed."""
        run = cpu.running
        run[_J_EXECUTED] += now - cpu.run_since
        stamp(now)
        record(run[_J_CODE] + _K_PREEMPT)
        heappush(cpu.ready, (cpu.running_key, run))  # apply_update keeps running_key current
        cpu.running = None
        cpu.seq += 1

    def dispatch(cpu: _Cpu, now: int) -> None:
        """Give the CPU to the best ready job, preempting a worse running one."""
        if cpu.blocked_until > now:
            return
        ready = cpu.ready
        run = cpu.running
        if run is not None:
            if not ready or ready[0][0] >= cpu.running_key:
                return
            if run[_J_DEMAND] - run[_J_EXECUTED] - (now - cpu.run_since) <= 0:
                return  # finishing at this very instant; let its completion event land
            preempt(cpu, now)
        if not ready:
            return
        key, job = heappop(ready)
        cpu.running = job
        cpu.running_key = key
        cpu.run_since = now
        cpu.seq = seq = cpu.seq + 1
        stamp(now)
        record(job[_J_CODE] + (_K_START if job[_J_START] < 0 else _K_RESUME))
        if job[_J_EXECUTED] == 0:
            # runtime measurement anchors at the dispatch where real progress begins,
            # so a zero-length dispatch segment does not inflate the measurement
            job[_J_START] = now
        end = now + job[_J_DEMAND] - job[_J_EXECUTED]
        heappush(heap, (end, _R_COMPLETE, job[_J_TASK], next(counter), job, seq))

    def apply_update(update: PlanUpdate, now: int) -> None:
        for tid in sorted(update.assignments):
            rid = update.assignments[tid]
            if tid not in index:
                raise ValueError(f"hook assigned unknown task '{tid}'")
            if rid not in cpu_map:
                raise ValueError(f"hook assigned task '{tid}' to unknown resource '{rid}'")
            if where[index[tid]].id != rid:
                where[index[tid]] = cpu = cpu_map[rid]
                stamp(now)
                record(task_code[index[tid]] + cpu.code + _K_MIGRATE)
        rekey = False
        for tid in sorted(update.evicted):
            if tid not in index:
                raise ValueError(f"hook evicted unknown task '{tid}'")
            if not demoted[index[tid]]:
                demoted[index[tid]] = 1
                rekey = True
        if rekey:
            for cpu in cpu_map.values():
                cpu.ready = [(job_key(cpu, j), j) for _, j in cpu.ready]
                heapq.heapify(cpu.ready)
                if cpu.running is not None:
                    cpu.running_key = job_key(cpu, cpu.running)
                dispatch(cpu, now)

    def snapshot(now: int) -> SimSnapshot:
        # a task is next due at its oldest open job's deadline, else at its next
        # release's: releases fall at multiples of the period, those up to now
        # have happened, and every open job is running or ready on one CPU
        nd = [(now // p + 1) * p + d for p, d in zip(period, deadline)]
        for cpu in cpu_map.values():
            for job in [j for _, j in cpu.ready] + ([] if cpu.running is None else [cpu.running]):
                nd[job[_J_TASK]] = min(nd[job[_J_TASK]], job[_J_DEADLINE])
        return SimSnapshot(
            now_us=now,
            assignments={tid: where[index[tid]].id for tid in plan},
            evicted=frozenset(tid for tid, d in zip(ids, demoted) if d),
            next_deadline_us={tid: nd[index[tid]] for tid in task_map},
            runtimes=runtimes,
        )

    if ids:
        heappush(heap, (0, _R_RELEASE, 0, next(counter), None, 0))
    ifr = noise.interference
    if ifr is not None:
        magnitude = ifr.magnitude_us
        scale = 1e6 / ifr.rate_per_s
        gap = [gap_stream(s, scale).__next__ for s in cpu_seeds.spawn(len(cpu_rank))]
        for r in resources:
            first = gap[cpu_rank[r.id]]()
            if first < duration_us:
                cpu = cpu_map[r.id]
                heappush(heap, (first, _R_IFR_START, cpu.index, next(counter), cpu, 0))
    if hook is not None and hook.period_us < duration_us:
        heappush(heap, (hook.period_us, _R_MONITOR, 0, next(counter), None, 0))

    while heap:
        now, rank, tie, _, obj, seq = heappop(heap)
        if now > duration_us:
            break

        if rank == _R_RELEASE:
            released = releases.pop(now)
            released.sort()  # the order per-task events would have popped in
            for t in released:
                if not pending[t][_J_DONE]:
                    check_at(now, pending[t])  # due at this release, and still open
                cpu = where[t]
                code = task_code[t] + cpu.code
                due_us = now + deadline[t]
                job = [t, cpu, code, now, due_us, demand[t](), 0, -1, False]
                stamp(now)
                record(code + _K_RELEASE)
                nxt = now + period[t]
                if due_us == nxt and nxt < duration_us:
                    pending[t] = job  # checked when the task releases next, if still open
                elif due_us <= duration_us:
                    check_at(due_us, job)
                if nxt < duration_us:
                    later = releases.get(nxt)
                    if later is None:
                        releases[nxt] = [t]
                        heappush(heap, (nxt, _R_RELEASE, 0, next(counter), None, 0))
                    else:
                        later.append(t)
                key = (demoted[t], period[t] if cpu.rm else due_us, t, now)  # job_key, inlined
                if cpu.running is None and not cpu.ready and cpu.blocked_until <= now:
                    cpu.running, cpu.running_key, cpu.run_since = job, key, now  # idle: start at once
                    cpu.seq = seq = cpu.seq + 1
                    stamp(now)
                    record(code + _K_START)
                    job[_J_START] = now
                    heappush(heap, (now + job[_J_DEMAND], _R_COMPLETE, t, next(counter), job, seq))
                    continue
                heappush(cpu.ready, (key, job))
                if cpu.running is None or key < cpu.running_key:  # else dispatch would return at once
                    dispatch(cpu, now)

        elif rank == _R_COMPLETE:
            cpu = obj[_J_CPU]
            if cpu.seq != seq:
                continue  # superseded: every dispatch, preemption and completion moves seq
            ready = cpu.ready
            # a running CPU is never blocked, so start the best ready job as dispatch would;
            # while it ends before every heap event, its completion is the next event
            while True:
                obj[_J_DONE] = True
                stamp(now)
                record(obj[_J_CODE] + _K_COMPLETE)
                add_runtime[obj[_J_TASK]](now - obj[_J_START])
                if not ready:
                    cpu.running = None
                    cpu.seq += 1
                    break
                key, obj = heappop(ready)
                cpu.running, cpu.running_key, cpu.run_since = obj, key, now
                cpu.seq = seq = cpu.seq + 2  # the completion's move and the dispatch's
                stamp(now)
                record(obj[_J_CODE] + (_K_START if obj[_J_START] < 0 else _K_RESUME))
                if obj[_J_EXECUTED] == 0:
                    obj[_J_START] = now
                end = now + obj[_J_DEMAND] - obj[_J_EXECUTED]
                if end > duration_us or (heap and heap[0][0] <= end):
                    heappush(heap, (end, _R_COMPLETE, obj[_J_TASK], next(counter), obj, seq))
                    break
                now = end

        elif rank == _R_DEADLINE:
            due = dues.pop(now)
            if len(due) > 1:
                due.sort(key=_task_rank)  # the order per-job events would have popped in
            for job in due:
                if not job[_J_DONE]:
                    stamp(now)
                    record(job[_J_CODE] + _K_MISS)

        elif rank == _R_IFR_START:
            cpu = obj
            if cpu.blocked_until > now:
                cpu.blocked_until += magnitude  # back-to-back interrupts queue up
            else:
                if cpu.running is not None:
                    preempt(cpu, now)
                cpu.blocked_until = now + magnitude
            heappush(heap, (cpu.blocked_until, _R_IFR_END, tie, next(counter), cpu, 0))
            nxt = now + gap[tie]()
            if nxt < duration_us:
                heappush(heap, (nxt, _R_IFR_START, tie, next(counter), cpu, 0))

        elif rank == _R_IFR_END:
            if obj.blocked_until == now:  # else extended by a later interrupt
                dispatch(obj, now)

        else:  # _R_MONITOR
            update = hook(snapshot(now))
            if update is not None:
                apply_update(update, now)
            nxt = now + hook.period_us
            if nxt < duration_us:
                heappush(heap, (nxt, _R_MONITOR, 0, next(counter), None, 0))

    return SimTrace(runtimes, times, codes, tuple(ids), tuple(cpu_rank))


_TRACE_CHUNK = 4096  # rows per write: the text of the whole trace is never held at once


def write_trace_csv(trace: SimTrace, path) -> None:
    stems = _Labels(trace)
    times, codes = trace.times, trace.events
    with open(path, "w", newline="") as fh:
        fh.write("time_us,kind,task,resource\n")
        for lo in range(0, len(times), _TRACE_CHUNK):
            rows = times[lo:lo + _TRACE_CHUNK]
            fields = [None] * (2 * len(rows))  # time, stem, time, stem, ...
            fields[::2] = rows
            fields[1::2] = map(stems.__getitem__, codes[lo:lo + _TRACE_CHUNK])
            fh.write(("%d%s" * len(rows)) % tuple(fields))  # one format call per chunk


_HEADER = "task,runtime_us\n"
# _ID_MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_ID_MASKS = np.array([(1 << 8 * k) - 1 for k in range(8)] + [2**64 - 1], dtype=np.uint64)


def write_runtimes_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_HEADER)
        for task, samples in trace.per_task_runtimes.items():
            if samples:
                rows = f"\n{task},".join(map(str, samples))
                fh.write(f"{task},{rows}\n")


def read_runtimes_csv(path) -> dict[str, list[int]]:
    """Parse a runtimes CSV back into per-task sample lists (insertion order kept).

    A file as ``write_runtimes_csv`` writes it parses in NumPy passes
    (``_read_bulk``); any other file goes through the line loop, which also
    words every error.
    """
    # universal newlines turn \r\n and a lone \r into \n, so lines split as a file iterates them
    with open(path) as fh:
        text = fh.read()
    out = _read_bulk(text)
    return _read_lines(text) if out is None else out


def _read_lines(text: str) -> dict[str, list[int]]:
    """The line loop: reads any text, and words every error with its line number."""
    lines = text.split("\n")
    header = lines[0].strip()
    if header != _HEADER.rstrip("\n"):
        raise ValueError(f"unexpected runtimes header: {header!r}")
    out: dict[str, list[int]] = {}
    task = samples = None  # rows come grouped by task, so the last list is usually the one
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        row_task, _, value = line.partition(",")
        try:
            runtime = int(value)  # also rejects a missing or a third field: "1,2" is no integer
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed row {line!r}") from exc
        if abs(runtime) > MAX_US:
            raise ValueError(f"line {lineno}: runtime_us of magnitude past 2**53")
        if row_task != task:
            task = row_task
            samples = out.setdefault(task, [])
        samples.append(runtime)
    return out


def _read_bulk(text: str) -> dict[str, list[int]] | None:
    """``_read_lines(text)`` for a canonical file, or None for any other.

    Canonical is the header line, then rows ``id,value`` each ending in a
    newline: the id holds no whitespace and the value is an optional ``-`` and
    1 to 16 ASCII digits, of magnitude at most ``MAX_US``.  Rows of a task
    need not be contiguous.  The text is scanned as UTF-8 bytes, in which a
    newline, comma, ``-`` or digit byte is never part of another character.
    """
    if not text.startswith(_HEADER) or not text.endswith("\n"):
        return None
    raw = text.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    # past the header, separators must alternate comma, newline: one comma a row
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))[2:]
    commas, ends = seps[0::2], seps[1::2]
    if (not ends.size or commas.size != ends.size or (buf[commas] != ord(",")).any()
            or (buf[ends] != ord("\n")).any()):
        return None
    negative = buf[commas + 1] == ord("-")
    first_digit = commas + 1 + negative
    n_digits = ends - first_digit
    if n_digits.min() < 1 or n_digits.max() > MAX_US_DIGITS:
        return None
    # rows with n digits are read n columns at a time, so no mask is needed
    magnitude = np.empty(ends.size, dtype=np.int64)
    for n in np.flatnonzero(np.bincount(n_digits)).tolist():
        rows = np.flatnonzero(n_digits == n)
        at = first_digit[rows]
        value = np.zeros(rows.size, dtype=np.int64)
        for k in range(n):
            digit = buf[at + k] - np.uint8(ord("0"))  # a non-digit wraps past 9
            if (digit > 9).any():
                return None
            value *= 10
            value += digit
        magnitude[rows] = value
    if magnitude.max() > MAX_US:
        return None
    values = np.where(negative, -magnitude, magnitude).tolist()

    # a row starts a run unless its id has the bytes of the row before's,
    # compared eight bytes at a time as little-endian words
    starts = np.append(len(_HEADER), ends[:-1] + 1)
    id_len = commas - starts
    longest = int(id_len.max())
    padded = raw + bytes(longest + 8)  # every row reads as many words as the longest id
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    new_run = np.ones(ends.size, dtype=bool)
    new_run[1:] = id_len[1:] != id_len[:-1]
    for at in range(0, longest, 8):
        word = words[starts + at] & _ID_MASKS[np.clip(id_len - at, 0, 8)]
        new_run[1:] |= word[1:] != word[:-1]
    runs = np.flatnonzero(new_run)
    bounds = [*runs.tolist(), ends.size]

    out: dict[str, list[int]] = {}
    for lo, hi, start, comma in zip(bounds, bounds[1:], starts[runs].tolist(), commas[runs].tolist()):
        task = raw[start:comma].decode()
        if not task or any(map(str.isspace, task)):
            return None
        out.setdefault(task, []).extend(values[lo:hi])
    return out
