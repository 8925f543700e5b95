import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rtorch import simulation
from rtorch.model import ExecModel, MixtureMode, Policy, ResourceState, TaskSpec
from rtorch.probability import NormalParams, joint_utilization, miss_probability
from rtorch.scenario import load_scenario
from rtorch.simulation import (
    Interference,
    NoiseModel,
    PlanUpdate,
    demand_stream,
    read_runtimes_csv,
    run_sim,
    write_runtimes_csv,
    write_trace_csv,
)

import numpy as np

from conftest import SCENARIO_DIR
from oracles import demand_stream_reference, read_runtimes_csv_reference, run_sim_reference, trace_of


def fixed_task(tid, period_us, exec_us, budget_us=None, deadline_us=None):
    """Task whose every job takes exactly exec_us."""
    model = ExecModel(mu_us=exec_us, sigma_us=0, cutoff_lo_us=exec_us, wcet_us=exec_us)
    return TaskSpec(
        id=tid,
        period_us=period_us,
        budget_us=exec_us if budget_us is None else budget_us,
        exec_model=model,
        deadline_us=deadline_us,
    )


def edf_cpu(rid="cpu0"):
    return ResourceState(id=rid, policy=Policy.EDF, u_max=1.0)


def test_single_task_runs_every_period():
    task = fixed_task("a", 100_000, 10_000)
    trace = run_sim({"a": "cpu0"}, [task], [edf_cpu()], duration_us=10_000_000)
    assert len(trace.per_task_runtimes["a"]) == 100
    assert set(trace.per_task_runtimes["a"]) == {10_000}
    assert trace.miss_counts() == {"a": 0}
    assert trace.events[0] == (0, "release", "a", "cpu0")
    assert trace.events[1] == (0, "start", "a", "cpu0")
    assert trace.events[2] == (10_000, "complete", "a", "cpu0")


def test_same_seed_reproduces_trace_exactly():
    model = ExecModel(mu_us=10_000, sigma_us=500, cutoff_lo_us=8_000, wcet_us=12_000)
    task = TaskSpec(id="a", period_us=50_000, budget_us=12_000, exec_model=model)
    noise = NoiseModel(base_overhead_us=30, latency_jitter=NormalParams(0, 40))
    runs = [
        run_sim({"a": "cpu0"}, [task], [edf_cpu()], noise=noise, duration_us=2_000_000, seed=7)
        for _ in range(2)
    ]
    assert runs[0].events == runs[1].events
    assert runs[0].per_task_runtimes == runs[1].per_task_runtimes
    other = run_sim({"a": "cpu0"}, [task], [edf_cpu()], noise=noise, duration_us=2_000_000, seed=8)
    assert other.per_task_runtimes != runs[0].per_task_runtimes


def test_overloaded_cpu_counts_misses_and_finishes_late_jobs():
    # two 60 ms jobs per 100 ms period serialize: completions every 60 ms,
    # task a misses from its 4th job on, task b misses every deadline
    a = fixed_task("a", 100_000, 60_000)
    b = fixed_task("b", 100_000, 60_000)
    trace = run_sim({"a": "cpu0", "b": "cpu0"}, [a, b], [edf_cpu()], duration_us=1_000_000)
    assert trace.miss_counts() == {"a": 7, "b": 10}
    assert len(trace.per_task_runtimes["a"]) == 8
    assert len(trace.per_task_runtimes["b"]) == 8
    assert set(trace.per_task_runtimes["a"]) == {60_000}
    assert set(trace.per_task_runtimes["b"]) == {60_000}
    completes = [e for e in trace.events if e[1] == "complete"]
    assert [e[0] for e in completes] == [60_000 * k for k in range(1, 17)]


def test_runtime_excludes_queueing_but_counts_preemption():
    fast = fixed_task("fast", 20_000, 5_000)
    slow = fixed_task("slow", 100_000, 30_000)
    cpu = ResourceState(id="cpu0", policy=Policy.RM, u_max=1.0)
    trace = run_sim({"fast": "cpu0", "slow": "cpu0"}, [fast, slow], [cpu], duration_us=100_000)
    # slow waits 5 ms for fast's first job (not measured), then loses another
    # 5 ms to one preemption mid-run (measured): 30 + 5 = 35 ms
    assert list(trace.per_task_runtimes["slow"]) == [35_000]
    assert set(trace.per_task_runtimes["fast"]) == {5_000}
    kinds = [(e[1], e[2]) for e in trace.events if e[1] in ("preempt", "resume")]
    assert ("preempt", "slow") in kinds
    assert ("resume", "slow") in kinds


def test_rate_monotonic_prefers_short_period_over_early_deadline():
    urgent = fixed_task("urgent", 100_000, 5_000, deadline_us=30_000)
    frequent = fixed_task("frequent", 50_000, 5_000)
    order = {}
    for policy in (Policy.RM, Policy.EDF):
        cpu = ResourceState(id="cpu0", policy=policy, u_max=1.0)
        trace = run_sim(
            {"urgent": "cpu0", "frequent": "cpu0"}, [urgent, frequent], [cpu],
            duration_us=100_000,
        )
        # same-instant releases dispatch in id order, so judge priority by who
        # holds the CPU to completion rather than by the first start event
        order[policy] = next(e[2] for e in trace.events if e[1] == "complete")
    assert order[Policy.RM] == "frequent"
    assert order[Policy.EDF] == "urgent"


@st.composite
def feasible_deterministic_sets(draw):
    n = draw(st.integers(1, 4))
    tasks = []
    for i in range(n):
        period = draw(st.sampled_from([20_000, 25_000, 40_000, 50_000, 100_000]))
        frac = draw(st.integers(1, 100))
        exec_us = (period * frac) // (100 * n)
        tasks.append(fixed_task(f"t{i}", period, max(1, exec_us)))
    return tasks


@settings(max_examples=25, deadline=None)
@given(feasible_deterministic_sets())
def test_deadline_scheduling_never_misses_at_or_under_full_load(tasks):
    total = sum(Fraction(t.exec_model.mu_us, t.period_us) for t in tasks)
    assert total <= 1  # generator guarantee, checked exactly
    plan = {t.id: "cpu0" for t in tasks}
    duration = 4 * max(t.period_us for t in tasks)
    trace = run_sim(plan, tasks, [edf_cpu()], duration_us=duration)
    assert sum(trace.miss_counts().values()) == 0


@settings(max_examples=25, deadline=None)
@given(feasible_deterministic_sets())
def test_rate_monotonic_never_misses_under_its_bound(tasks):
    # cap total load at 0.69 < n(2^(1/n)-1) for every n
    scaled = []
    for t in tasks:
        exec_us = max(1, (t.exec_model.mu_us * 69) // 100)
        scaled.append(fixed_task(t.id, t.period_us, exec_us))
    total = sum(Fraction(t.exec_model.mu_us, t.period_us) for t in scaled)
    assert total <= Fraction(69, 100)
    plan = {t.id: "cpu0" for t in scaled}
    cpu = ResourceState(id="cpu0", policy=Policy.RM, u_max=1.0)
    duration = 4 * max(t.period_us for t in scaled)
    trace = run_sim(plan, scaled, [cpu], duration_us=duration)
    assert sum(trace.miss_counts().values()) == 0


@settings(max_examples=20, deadline=None)
@given(feasible_deterministic_sets(), st.integers(0, 2**32 - 1))
def test_every_completion_has_a_prior_release(tasks, seed):
    plan = {t.id: "cpu0" for t in tasks}
    duration = 3 * max(t.period_us for t in tasks)
    trace = run_sim(plan, tasks, [edf_cpu()], duration_us=duration, seed=seed)
    last = 0
    released = {t.id: 0 for t in tasks}
    completed = {t.id: 0 for t in tasks}
    for time_us, kind, tid, _rid in trace.events:
        assert time_us >= last
        last = time_us
        if kind == "release":
            released[tid] += 1
        elif kind == "complete":
            completed[tid] += 1
            assert completed[tid] <= released[tid]
    for t in tasks:
        assert len(trace.per_task_runtimes[t.id]) == completed[t.id]


def test_interference_stretches_runtimes_in_whole_magnitudes():
    task = fixed_task("a", 10_000, 900)
    noise = NoiseModel(interference=Interference(rate_per_s=200.0, magnitude_us=250))
    trace = run_sim({"a": "cpu0"}, [task], [edf_cpu()], noise=noise, duration_us=5_000_000, seed=3)
    runtimes = trace.per_task_runtimes["a"]
    assert len(runtimes) == 500
    assert all((r - 900) % 250 == 0 for r in runtimes)
    stretched = sum(1 for r in runtimes if r > 900)
    assert stretched >= 10
    assert any(r == 900 for r in runtimes)


def test_empirical_miss_rate_tracks_predicted_probability():
    model = ExecModel(mu_us=56_250, sigma_us=6_250, cutoff_lo_us=0, wcet_us=125_000)
    cams = [
        TaskSpec(id=tid, period_us=125_000, budget_us=62_500, exec_model=model)
        for tid in ("cam_a", "cam_b")
    ]
    joint = joint_utilization([(NormalParams(56_250.0, 6_250.0), 125_000)] * 2)
    predicted = miss_probability(joint, 1.0)
    windows = 2_000
    trace = run_sim(
        {"cam_a": "cpu0", "cam_b": "cpu0"}, cams, [edf_cpu()],
        duration_us=windows * 125_000, seed=11,
    )
    observed = sum(trace.miss_counts().values()) / windows
    assert 0.5 * predicted <= observed <= 1.5 * predicted


class _MoveOnce:
    period_us = 50_000

    def __init__(self):
        self.snapshots = []

    def __call__(self, snapshot):
        self.snapshots.append(snapshot)
        if len(self.snapshots) == 1:
            return PlanUpdate(assignments={"m": "cpu1", "other": "cpu1"}, evicted=frozenset())
        return None


def test_migration_takes_effect_at_next_release():
    mover = fixed_task("m", 100_000, 80_000)
    other = fixed_task("other", 100_000, 1_000)
    cpus = [edf_cpu("cpu0"), edf_cpu("cpu1")]
    hook = _MoveOnce()
    trace = run_sim(
        {"m": "cpu0", "other": "cpu1"}, [mover, other], cpus,
        duration_us=300_000, hook=hook,
    )
    assert len(hook.snapshots) >= 2
    first = hook.snapshots[0]
    assert first.now_us == 50_000
    assert first.assignments == {"m": "cpu0", "other": "cpu1"}
    assert first.next_deadline_us["m"] == 100_000
    migrations = [e for e in trace.events if e[1] == "migrate"]
    assert migrations == [(50_000, "migrate", "m", "cpu1")]
    m_events = [(e[0], e[1], e[3]) for e in trace.events if e[2] == "m"]
    # the in-flight job finishes where it started; later releases move
    assert (80_000, "complete", "cpu0") in m_events
    assert (100_000, "release", "cpu1") in m_events
    assert (180_000, "complete", "cpu1") in m_events
    assert hook.snapshots[1].assignments["m"] == "cpu1"


class _EvictBg:
    period_us = 100_000

    def __init__(self):
        self.calls = 0

    def __call__(self, snapshot):
        self.calls += 1
        if self.calls == 1:
            return PlanUpdate(assignments=dict(snapshot.assignments), evicted=frozenset({"bg"}))
        return None


def test_evicted_task_yields_cpu_but_keeps_running_in_background():
    hard = fixed_task("hard", 100_000, 60_000)
    bg = fixed_task("bg", 100_000, 50_000)
    hook = _EvictBg()
    trace = run_sim(
        {"hard": "cpu0", "bg": "cpu0"}, [hard, bg], [edf_cpu()],
        duration_us=1_000_000, hook=hook,
    )
    # overloaded while bg is foreground, conflict-free once bg is demoted:
    # hard then runs 0-60 in each later period and never misses again
    the_misses = [e for e in trace.events if e[1] == "deadline_miss" and e[2] == "hard"]
    assert all(e[0] <= 200_000 for e in the_misses)
    assert len(trace.per_task_runtimes["bg"]) >= 3  # still completing in the slack
    snapshot_evicted = hook.calls >= 2
    assert snapshot_evicted


def test_unknown_task_in_plan_rejected():
    task = fixed_task("a", 100_000, 10_000)
    with pytest.raises(ValueError, match="unknown task"):
        run_sim({"a": "cpu0", "ghost": "cpu0"}, [task], [edf_cpu()], duration_us=200_000)


def test_unknown_resource_in_plan_rejected():
    task = fixed_task("a", 100_000, 10_000)
    with pytest.raises(ValueError, match="unknown resource"):
        run_sim({"a": "cpu9"}, [task], [edf_cpu()], duration_us=200_000)


def test_unassigned_task_rejected():
    tasks = [fixed_task("a", 100_000, 10_000), fixed_task("b", 100_000, 10_000)]
    with pytest.raises(ValueError, match="unassigned: b"):
        run_sim({"a": "cpu0"}, tasks, [edf_cpu()], duration_us=200_000)


class _Update:
    """Hook that hands back the same update at every epoch."""

    period_us = 50_000

    def __init__(self, update):
        self.update = update

    def __call__(self, snapshot):
        return self.update


@pytest.mark.parametrize("update, message", [
    (PlanUpdate({"ghost": "cpu0"}), "hook assigned unknown task 'ghost'"),
    (PlanUpdate({"a": "cpu9"}), "hook assigned task 'a' to unknown resource 'cpu9'"),
    (PlanUpdate({}, frozenset({"ghost"})), "hook evicted unknown task 'ghost'"),
], ids=["unknown-task", "unknown-resource", "unknown-evicted-task"])
def test_hook_update_naming_an_unknown_id_rejected(update, message):
    task = fixed_task("a", 100_000, 10_000)
    with pytest.raises(ValueError, match=message):
        run_sim({"a": "cpu0"}, [task], [edf_cpu()], duration_us=200_000, hook=_Update(update))


def test_short_duration_rejected():
    task = fixed_task("a", 100_000, 10_000)
    with pytest.raises(ValueError, match="duration too short"):
        run_sim({"a": "cpu0"}, [task], [edf_cpu()], duration_us=50_000)


def test_sample_runtime_respects_cutoffs():
    model = ExecModel(mu_us=1_000, sigma_us=400, cutoff_lo_us=900, wcet_us=1_200)
    draws = list(demand_stream(model, NoiseModel(), np.random.SeedSequence(0), 2_000))
    assert min(draws) == 900
    assert max(draws) == 1_200
    assert all(900 <= d <= 1_200 for d in draws)


def test_sample_runtime_adds_overhead_after_clamping():
    model = ExecModel(mu_us=1_000, sigma_us=0, cutoff_lo_us=1_000, wcet_us=1_000)
    noise = NoiseModel(base_overhead_us=80)
    assert list(demand_stream(model, noise, np.random.SeedSequence(0), 3)) == [1_080] * 3


def test_runtimes_csv_roundtrip(tmp_path):
    trace = trace_of([], {"a": [100, 101], "b": [5]})
    path = tmp_path / "runtimes.csv"
    write_runtimes_csv(trace, path)
    assert read_runtimes_csv(path) == {"a": [100, 101], "b": [5]}


def test_runtimes_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(ValueError, match="header"):
        read_runtimes_csv(path)


def test_runtimes_csv_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("task,runtime_us\na,100\na,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        read_runtimes_csv(path)


def test_trace_csv_has_one_row_per_event(tmp_path, monkeypatch):
    scenario = load_scenario(SCENARIO_DIR / "fig5_short.json")
    trace = run_sim(scenario.initial_plan, scenario.tasks, scenario.resources, noise=scenario.sim.noise,
                    duration_us=500_000, seed=scenario.sim.seed)
    monkeypatch.setattr(simulation, "_TRACE_CHUNK", 100)  # 684 events: six whole chunks and a part
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rows = path.read_text().splitlines()[1:]
    assert len(trace.events) == len(rows) > 0
    assert rows == [",".join(map(str, e)) for e in trace.events]


def test_events_are_a_read_only_view():
    trace = run_sim({"a": "cpu0"}, [fixed_task("a", 1_000, 300)], [edf_cpu()], duration_us=3_000)
    events = trace.events
    assert not hasattr(events, "append") and not hasattr(events, "__setitem__")
    with pytest.raises(TypeError):
        events[0] = (0, "release", "a", "cpu0")
    assert events[-1] == (2_300, "complete", "a", "cpu0")
    assert events[:2] == [(0, "release", "a", "cpu0"), (0, "start", "a", "cpu0")]
    assert events == list(events) and list(events) == events
    assert events != list(events)[:-1]


def test_trace_csv_format(tmp_path):
    trace = trace_of([(0, "release", "a", "cpu0"), (10, "complete", "a", "cpu0")], {"a": [10]})
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_text() == "time_us,kind,task,resource\n0,release,a,cpu0\n10,complete,a,cpu0\n"


# ids whose sorted order differs from declaration order, with non-ASCII and digits
TASK_IDS = ["t2", "t10", "T1", "cam_b", "cam_a", "é", "z"]
CPU_IDS = ["cpu2", "cpu10", "CPU0", "b"]


@st.composite
def exec_models(draw, period, heaviest=None):
    """Models of mean at most ``heaviest`` (0 included), else between 5 % and 60 % of the period."""
    mu = draw(st.integers(period // 20, (period * 3) // 5) if heaviest is None else st.integers(0, heaviest))
    sigma = draw(st.sampled_from([0, mu // 10, mu // 4]))
    lo = draw(st.integers(mu // 2, mu))
    hi = draw(st.integers(mu, 2 * mu))
    modes = draw(st.lists(
        st.tuples(st.sampled_from([0.1, 0.25, 0.4]), st.integers(-mu // 2, mu // 2)), max_size=2))
    mixture = tuple(MixtureMode(weight, offset) for weight, offset in modes)
    return ExecModel(mu_us=mu, sigma_us=sigma, cutoff_lo_us=lo, wcet_us=hi, mixture=mixture)


@st.composite
def simulated_systems(draw):
    """Small random systems for comparing the engine with ``run_sim_reference``."""
    cpu_ids = draw(st.permutations(CPU_IDS))[:draw(st.integers(1, 4))]
    resources = [ResourceState(id=rid, policy=draw(st.sampled_from(list(Policy))), u_max=1.0)
                 for rid in cpu_ids]
    task_ids = draw(st.permutations(TASK_IDS))[:draw(st.integers(1, 5))]
    # one shared period and demands summing below it: jobs queue at each release and
    # the completions of a CPU's jobs chain without a heap event between them
    shared = draw(st.sampled_from([None, None, 2_000, 5_000]))
    tasks = []
    for tid in task_ids:
        period = shared or draw(st.sampled_from([2_000, 3_000, 5_000, 10_000]))
        deadline = draw(st.sampled_from([period, period, (period * 3) // 4, period // 2]))
        model = draw(exec_models(period, shared and period // (4 * len(task_ids))))
        tasks.append(TaskSpec(id=tid, period_us=period, budget_us=min(model.mu_us, deadline),
                              exec_model=model, deadline_us=deadline))
    jitter = draw(st.sampled_from([(0.0, 0.0), (25.0, 0.0), (0.0, 30.0), (10.0, 15.5)]))
    interference = draw(st.one_of(
        st.none(),
        st.builds(Interference, st.sampled_from([200.0, 1_000.0, 3_000.0]), st.integers(10, 400))))
    noise = NoiseModel(base_overhead_us=draw(st.sampled_from([0, 7, 50])),
                       latency_jitter=NormalParams(*jitter), interference=interference)
    plan = {t.id: draw(st.sampled_from(cpu_ids)) for t in tasks}
    # often a multiple of every period (30 ms is their least common multiple), so
    # each task's last job is due at the last instant
    step = shared or 30_000
    multiple = st.integers(-(-10_000 // step), 60_000 // step).map(lambda k: k * step)
    duration = draw(st.one_of(st.integers(10_000, 60_000), multiple))
    hook = None
    if draw(st.booleans()):
        epochs = []
        for _ in range(draw(st.integers(1, 4))):
            moves = draw(st.dictionaries(st.sampled_from(task_ids), st.sampled_from(cpu_ids),
                                         min_size=1, max_size=3))
            evict = draw(st.sets(st.sampled_from(task_ids), max_size=2))
            epochs.append(draw(st.sampled_from([None, (moves, evict)])))
        hook = (draw(st.sampled_from([1_000, 2_500, 7_000])), epochs)
    return tasks, resources, plan, noise, duration, hook


class _ScriptedHook:
    """Applies one scripted (moves, evictions) step per epoch and records every snapshot."""

    def __init__(self, period_us, epochs):
        self.period_us = period_us
        self.epochs = epochs
        self.seen = []

    def __call__(self, snapshot):
        self.seen.append((
            snapshot.now_us, dict(snapshot.assignments), sorted(snapshot.evicted),
            list(snapshot.next_deadline_us.items()),
            [(tid, tuple(v)) for tid, v in snapshot.runtimes.items()],
        ))
        k = len(self.seen) - 1
        if k >= len(self.epochs) or self.epochs[k] is None:
            return None
        moves, evict = self.epochs[k]
        return PlanUpdate(assignments={**snapshot.assignments, **moves},
                          evicted=frozenset(snapshot.evicted | evict))


@settings(max_examples=120, deadline=None)
@given(simulated_systems(), st.integers(0, 2**32 - 1))
def test_engine_matches_reference_engine(system, seed):
    tasks, resources, plan, noise, duration, script = system
    runs = []
    for engine in (run_sim, run_sim_reference):
        hook = None if script is None else _ScriptedHook(*script)
        trace = engine(plan, tasks, resources, noise=noise, duration_us=duration, seed=seed, hook=hook)
        runs.append((trace, hook))
    (trace, hook), (expected, expected_hook) = runs
    assert trace.events == expected.events
    assert list(trace.per_task_runtimes.items()) == list(expected.per_task_runtimes.items())
    if hook is not None:
        assert hook.seen == expected_hook.seen


def test_new_job_completing_before_the_old_one_drains():
    # m overloads cpu0 and moves to cpu1 at the 1.3 ms epoch: its job released there at 2 ms
    # completes at 2.5 ms, while its job due at 2 ms drains on cpu0 until 2.8 ms
    tasks = [fixed_task("hog", 1_000, 900), fixed_task("m", 1_000, 500)]
    runs = []
    for engine in (run_sim, run_sim_reference):
        hook = _ScriptedHook(1_300, [({"m": "cpu1"}, set())])
        trace = engine({"hog": "cpu0", "m": "cpu0"}, tasks, [edf_cpu("cpu0"), edf_cpu("cpu1")],
                       duration_us=6_000, hook=hook)
        runs.append((trace.events, list(trace.per_task_runtimes.items()), hook.seen))
    assert runs[0] == runs[1]
    events, _, seen = runs[0]
    completions = [(e[0], e[3]) for e in events if e[1:3] == ("complete", "m")]
    assert completions[1:3] == [(2_500, "cpu1"), (2_800, "cpu0")]
    # the next epoch sees the old job, not the finished new one or the next release
    now, assignments, _, next_deadline, _ = seen[1]
    assert (now, assignments["m"], dict(next_deadline)["m"]) == (2_600, "cpu1", 2_000)


SAMPLER_CASES = [
    (ExecModel(mu_us=1_000, sigma_us=120, cutoff_lo_us=0, wcet_us=10_000), NoiseModel()),
    (ExecModel(mu_us=1_000, sigma_us=400, cutoff_lo_us=900, wcet_us=1_200),
     NoiseModel(base_overhead_us=30, latency_jitter=NormalParams(0.0, 40.0))),
    (ExecModel(mu_us=900, sigma_us=0, cutoff_lo_us=900, wcet_us=900),
     NoiseModel(latency_jitter=NormalParams(25.0, 0.0))),
    (ExecModel(mu_us=900, sigma_us=60, cutoff_lo_us=500, wcet_us=2_000,
               mixture=(MixtureMode(0.25, 250), MixtureMode(0.1, -300))),
     NoiseModel(base_overhead_us=80, latency_jitter=NormalParams(12.5, 7.25))),
    # demands past float64's integers are clamped and summed as Python integers
    (ExecModel(mu_us=2**60 + 1, sigma_us=3, cutoff_lo_us=2**60 - 1, wcet_us=2**60 + 3,
               mixture=(MixtureMode(0.5, 0),)),
     NoiseModel(base_overhead_us=1)),
    (ExecModel(mu_us=1_000, sigma_us=50, cutoff_lo_us=900, wcet_us=1_100),
     NoiseModel(base_overhead_us=7, latency_jitter=NormalParams(-1e300, 1e300))),
    # every jitter draw is exactly 12.5, which rounds half to even
    (ExecModel(mu_us=900, sigma_us=0, cutoff_lo_us=900, wcet_us=900),
     NoiseModel(latency_jitter=NormalParams(12.5, 1e-300))),
]


@pytest.mark.parametrize("model, noise", SAMPLER_CASES)
def test_demand_stream_equals_scalar_oracle_draw_for_draw(model, noise):
    oracle = demand_stream_reference(model, noise, np.random.SeedSequence(9))
    assert list(demand_stream(model, noise, np.random.SeedSequence(9), 3_000)) == [
        next(oracle) for _ in range(3_000)]


@pytest.mark.parametrize("model, noise", SAMPLER_CASES)
def test_demand_stream_is_the_same_for_any_block_split(model, noise, monkeypatch):
    def stream(block):
        monkeypatch.setattr(simulation, "_DEMAND_BLOCK", block)
        return list(demand_stream(model, noise, np.random.SeedSequence(4), 1_001))

    whole = stream(1_001)
    assert len(whole) == 1_001
    for block in (1, 3, 7, 256, 1_000):
        assert stream(block) == whole


def test_interference_gaps_are_the_same_for_any_block_split(monkeypatch):
    # at seed 194 cpu0 is interrupted 9 times in the 30 ms run, the 8th time at
    # 24,130 us, and cpu2's first gap reaches past the run
    cpus = [edf_cpu(f"cpu{i}") for i in range(4)]
    tasks = [fixed_task(f"t{i}", 5_000, 4_500) for i in range(4)]
    noise = NoiseModel(interference=Interference(rate_per_s=100.0, magnitude_us=300))
    gaps = [simulation.gap_stream(s, 1e4) for s in np.random.SeedSequence(194).spawn(2)[1].spawn(4)]
    starts = [list(itertools.takewhile(lambda t: t < 30_000, itertools.accumulate(g))) for g in gaps]
    assert len(starts[0]) == 9 and starts[0][7] == 24_130 and starts[2] == []

    def trace(block):
        monkeypatch.setattr(simulation, "_DEMAND_BLOCK", block)
        return run_sim({t.id: f"cpu{i}" for i, t in enumerate(tasks)}, tasks, cpus, noise=noise,
                       duration_us=30_000, seed=194)

    whole = trace(256)
    assert (24_130, "preempt", "t0", "cpu0") in whole.events
    for block in (1, 7):
        run = trace(block)
        assert (run.times, run.codes) == (whole.times, whole.codes)


def test_adding_a_task_that_sorts_last_keeps_every_other_demand_sequence():
    # common random numbers for the tipping point: alone on its own CPU with no
    # interference, a task's measured runtimes are its demands
    def demands(name):
        scenario = load_scenario(SCENARIO_DIR / name)
        resources = [ResourceState(id=f"cpu_{t.id}") for t in scenario.tasks]
        trace = run_sim({t.id: f"cpu_{t.id}" for t in scenario.tasks}, scenario.tasks, resources,
                        noise=scenario.sim.noise, duration_us=scenario.sim.duration_us, seed=scenario.sim.seed)
        return trace.per_task_runtimes

    nine, ten = demands("table1_9units.json"), demands("table1_10units.json")
    assert sorted(ten) == sorted(nine) + ["unit_09"]
    for tid in nine:
        assert len(nine[tid]) == 600
        assert nine[tid] == ten[tid], tid


def test_interference_gaps_are_per_cpu():
    # a CPU that sorts last takes its own gap stream: the others' traces do not move
    tasks = [TaskSpec(id=tid, period_us=5_000, budget_us=2_000,
                      exec_model=ExecModel(mu_us=1_500, sigma_us=200, cutoff_lo_us=1_000, wcet_us=2_000))
             for tid in ("a", "b", "c")]
    noise = NoiseModel(interference=Interference(rate_per_s=400.0, magnitude_us=300))
    plan = {"a": "cpu0", "b": "cpu1", "c": "cpu1"}
    two = run_sim(plan, tasks, [edf_cpu("cpu0"), edf_cpu("cpu1")], noise=noise, duration_us=500_000, seed=3)
    three = run_sim(plan, tasks, [edf_cpu("cpu2"), edf_cpu("cpu0"), edf_cpu("cpu1")],
                    noise=noise, duration_us=500_000, seed=3)
    assert two.events == three.events
    assert any(kind == "preempt" for _, kind, _, _ in two.events)  # interference did strike
    # each CPU its own child: cpu0 and cpu1 see different gaps
    alone = {rid: run_sim({t.id: rid for t in tasks[:1]}, tasks[:1], [edf_cpu("cpu0"), edf_cpu("cpu1")],
                          noise=noise, duration_us=500_000, seed=3).events for rid in ("cpu0", "cpu1")}
    assert [e[:3] for e in alone["cpu0"]] != [e[:3] for e in alone["cpu1"]]


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (56_250.0, 6_250.0), (12.5, 7.25), (25.0, 0.0), (-3.75, 1e-3)])
def test_scaled_standard_normal_equals_numpy_normal(loc, scale):
    # the identity the scalar oracle relies on: rng.normal(loc, scale) is loc + scale * z,
    # which demand_stream computes for a block of z at once
    rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    draws = [loc + scale * rng.standard_normal() for _ in range(20_000)]
    assert draws == [ref_rng.normal(loc, scale) for _ in range(20_000)]


_CSV_ROWS = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "c", " a", "a ", "", "a,b"]),
              st.sampled_from(["1", " 2", "30 ", "-4", "1_000", "x", "", "1,2", "1.5"]))
    .map(lambda row: ",".join(row)),
    st.sampled_from(["", "   ", "a", ",", "\t"]),
)


@settings(max_examples=300)
@given(st.sampled_from(["task,runtime_us", " task,runtime_us\t", "task, runtime_us", ""]),
       st.lists(_CSV_ROWS, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_runtimes_csv_reader_matches_reference(header, rows, newline, trailing):
    text = newline.join([header, *rows]) + (newline if trailing else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runtimes.csv"
        path.write_bytes(text.encode())

        def outcome(reader):
            try:
                return reader(path)
            except ValueError as exc:
                return f"error: {exc}"

        assert outcome(read_runtimes_csv) == outcome(read_runtimes_csv_reference)


# ids from the scenario id alphabet: no comma, double quote, whitespace or control character
_TASK_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=',"'),
                    min_size=1, max_size=5).filter(lambda tid: not any(c.isspace() for c in tid))


@st.composite
def canonical_runtimes(draw):
    """The text of a long runtimes CSV as ``write_runtimes_csv`` writes it.

    One to five tasks, values across +-2**53 repeated past ``_BULK_ROWS`` rows;
    the first task may come back after the others, as rows appended by hand.
    """
    tids = draw(st.lists(_TASK_IDS, min_size=1, max_size=5, unique=True))
    values = st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=6)
    runtimes = {tid: draw(values) for tid in tids}
    repeat = -(-simulation._BULK_ROWS // sum(map(len, runtimes.values()))) + draw(st.integers(0, 2))
    runtimes = {tid: samples * repeat for tid, samples in runtimes.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runtimes.csv"
        write_runtimes_csv(trace_of([], runtimes), path)
        text = path.read_text()
    if len(tids) > 1 and draw(st.booleans()):
        text += "".join(f"{tids[0]},{value}\n" for value in draw(values))
    return text


def _outcome(reader, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runtimes.csv"
        path.write_bytes(text.encode())
        try:
            return reader(path)
        except ValueError as exc:
            return f"error: {exc}"


@given(canonical_runtimes())
def test_canonical_runtimes_csv_reads_in_bulk_as_the_reference_reads_it(text):
    assert simulation._read_bulk(text) is not None  # the bulk pass takes it
    assert _outcome(read_runtimes_csv, text) == _outcome(read_runtimes_csv_reference, text)


_CORRUPTIONS = {
    "bad digit": lambda tid, value: f"{tid},{value}x",
    "non-ASCII digit": lambda tid, value: f"{tid},1\u0663",
    "plus sign": lambda tid, value: f"{tid},+{value.lstrip('-')}",
    "underscore": lambda tid, value: f"{tid},1_000",
    "17 digits": lambda tid, value: f"{tid},00000000000000001",
    "extra comma": lambda tid, value: f"{tid},{value},1",
    "missing comma": lambda tid, value: f"{tid}{value}",
    "row split in two": lambda tid, value: f"{tid}\n{value}",
    "blank line": lambda tid, value: f"\n{tid},{value}",
    "two blank lines": lambda tid, value: f"\n\n{tid},{value}",
    "CRLF": lambda tid, value: f"{tid},{value}\r",
    "lone CR": lambda tid, value: f"{tid},{value}\r{tid},{value}",
    "trailing space": lambda tid, value: f"{tid},{value} ",
    "leading no-break space": lambda tid, value: f"\u00a0{tid},{value}",
    "2**53+1": lambda tid, value: f"{tid},{2**53 + 1}",
}


def _corrupt(text, corruption, lineno):
    """``text`` with its line ``lineno`` (1-based, past the header) corrupted, and the expected outcome."""
    lines = text.split("\n")[:-1]
    tid, value = lines[lineno - 1].rsplit(",", 1)
    lines[lineno - 1] = _CORRUPTIONS[corruption](tid, value)
    corrupted = "\n".join(lines) + "\n"
    if corruption == "2**53+1":  # the reference reader has no bound
        return corrupted, f"error: line {lineno}: runtime_us of magnitude past 2**53"
    return corrupted, _outcome(read_runtimes_csv_reference, corrupted)


@given(canonical_runtimes(), st.sampled_from(sorted(_CORRUPTIONS)), st.data())
def test_a_corrupted_row_reads_as_the_reference_reads_it(text, corruption, data):
    lineno = data.draw(st.integers(2, text.count("\n")))
    corrupted, expected = _corrupt(text, corruption, lineno)
    assert _outcome(read_runtimes_csv, corrupted) == expected


# 1,500 rows: three runs, the first task back at the end, ids alike in their first eight bytes
_LONG_RUNTIMES = "task,runtime_us\n" + "".join(
    f"{tid},{value}\n" for tid, count in [("cam_é_0001", 600), ("cam_é_0002", 500), ("z", 300), ("cam_é_0001", 100)]
    for value in range(-(count // 2), count - count // 2))


def test_long_runtimes_csv_reads_in_bulk():
    assert simulation._read_bulk(_LONG_RUNTIMES) is not None
    expected = _outcome(read_runtimes_csv_reference, _LONG_RUNTIMES)
    assert list(expected) == ["cam_é_0001", "cam_é_0002", "z"] and len(expected["cam_é_0001"]) == 700
    assert _outcome(read_runtimes_csv, _LONG_RUNTIMES) == expected


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_each_corruption_of_a_long_file_reads_as_the_reference_reads_it(corruption):
    corrupted, expected = _corrupt(_LONG_RUNTIMES, corruption, 700)
    assert simulation._read_bulk(corrupted) is None  # so the line loop reads it
    assert _outcome(read_runtimes_csv, corrupted) == expected


# Deadline checks share one heap event per deadline time.  A job due at its
# task's next release joins it only if that release finds the job open; any other
# job joins it when released.  Each case below puts that event in a tie the
# per-job events of ``run_sim_reference`` ordered one by one, and checks that both
# engines write the same events.

def _same_as_reference(plan, tasks, resources, **kwargs):
    hook = kwargs.pop("hook", None)
    traces = []
    for engine in (run_sim, run_sim_reference):
        step = None if hook is None else _ScriptedHook(*hook)
        traces.append(engine(plan, tasks, resources, hook=step, **kwargs))
    trace, expected = traces
    assert trace.events == expected.events
    assert list(trace.per_task_runtimes.items()) == list(expected.per_task_runtimes.items())
    return trace.events


def test_deadline_tied_with_an_interference_start_that_preempts():
    # each job runs 0..400+ and misses at 300; at seed 5 an interrupt lands at 300 on a CPU twice
    tasks = [fixed_task("t2", 1_000, 400, deadline_us=300), fixed_task("T1", 1_000, 400, deadline_us=300)]
    events = _same_as_reference({"t2": "cpu1", "T1": "cpu0"}, tasks, [edf_cpu("cpu1"), edf_cpu("cpu0")],
                                noise=NoiseModel(interference=Interference(20_000.0, 2)),
                                duration_us=20_000, seed=5)
    misses = {(e[0], e[3]) for e in events if e[1] == "deadline_miss"}
    tied = [(e[0], e[3]) for e in events if e[1] == "preempt" and (e[0], e[3]) in misses]
    assert tied == [(2_300, "cpu1"), (15_300, "cpu0")]
    at = events.index((2_300, "deadline_miss", "t2", "cpu1"))
    assert events[at + 1] == (2_300, "preempt", "t2", "cpu1")


def test_deadline_tied_with_a_monitor_epoch_that_migrates_and_evicts():
    # cpu0 is overloaded, so both tasks miss at every multiple of 1 ms, the first epoch's time included
    tasks = [fixed_task("b", 1_000, 600), fixed_task("a", 1_000, 700)]
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [edf_cpu("cpu0"), edf_cpu("cpu1")],
                                duration_us=12_000, hook=(5_000, [({"a": "cpu1"}, {"b"})]))
    at_epoch = [e for e in events if e[0] == 5_000]
    assert (5_000, "deadline_miss", "b", "cpu0") in at_epoch
    assert (5_000, "migrate", "a", "cpu1") in at_epoch
    assert at_epoch.index((5_000, "deadline_miss", "b", "cpu0")) < at_epoch.index((5_000, "migrate", "a", "cpu1"))


def test_completion_exactly_at_the_deadline_is_no_miss():
    # a finishes at its deadline 500; b, due at the same instant, runs after it and misses
    tasks = [fixed_task("b", 1_000, 100, deadline_us=500), fixed_task("a", 1_000, 500, deadline_us=500)]
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [edf_cpu()], duration_us=3_000)
    at_500 = [e for e in events if e[0] == 500]
    assert at_500 == [(500, "complete", "a", "cpu0"), (500, "start", "b", "cpu0"),
                      (500, "deadline_miss", "b", "cpu0")]
    assert all(e[2] != "a" for e in events if e[1] == "deadline_miss")


def test_completion_exactly_at_the_implicit_deadline_is_no_miss():
    # b runs 600..1000 and finishes at its deadline, the instant both tasks release again
    tasks = [fixed_task("b", 1_000, 400), fixed_task("a", 1_000, 600)]
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [edf_cpu()], duration_us=3_000)
    assert [e for e in events if e[0] == 1_000] == [
        (1_000, "release", "a", "cpu0"), (1_000, "release", "b", "cpu0"),
        (1_000, "complete", "b", "cpu0"), (1_000, "start", "a", "cpu0")]
    assert not [e for e in events if e[1] == "deadline_miss"]


def test_implicit_deadline_miss_tied_with_an_interference_start_that_preempts():
    # a's period ends when the first interrupt lands; its overrunning job misses at
    # that release, and only then does the interrupt preempt it
    first = _first_interrupt_us(7, 100_000)
    tasks = [fixed_task("a", first, first + 300)]
    events = _same_as_reference({"a": "cpu0"}, tasks, [edf_cpu()], duration_us=3 * first,
                                noise=NoiseModel(interference=Interference(200.0, 10)), seed=7)
    assert [e for e in events if e[0] == first] == [
        (first, "release", "a", "cpu0"), (first, "deadline_miss", "a", "cpu0"), (first, "preempt", "a", "cpu0")]


def test_tasks_sharing_a_deadline_miss_in_sorted_id_order():
    # released at 0, 1500, 2000 and 2000, all due at 3000; declared and released out of sorted-id order
    tasks = [fixed_task("z", 3_000, 3_100), fixed_task("t10", 1_000, 1_100),
             fixed_task("T1", 1_500, 1_600), fixed_task("cam_a", 2_000, 1_100, deadline_us=1_000)]
    cpus = [edf_cpu(f"cpu{i}") for i in range(4)]
    plan = {t.id: f"cpu{i}" for i, t in enumerate(tasks)}
    events = _same_as_reference(plan, tasks, cpus, duration_us=6_000)
    assert [e[2] for e in events if e[:2] == (3_000, "deadline_miss")] == ["T1", "cam_a", "t10", "z"]


# Jobs due at one instant in an order other than task order: a constrained job
# joins the checks when it is released, before an implicit one that joins at the
# instant itself; constrained jobs released apart, and last jobs due at the end,
# join in release order; and a job left open on its CPU by a migration or an eviction
# still joins at its task's next release.  Each case is (tasks, CPUs, duration,
# hook, instant): both tasks start on cpu0, and both miss there at the instant.
_MISSES_OUT_OF_TASK_ORDER = {
    "constrained and implicit": (
        [fixed_task("z", 2_000, 1_200, deadline_us=1_000), fixed_task("a", 1_000, 1_500)], 1, 4_000, None, 1_000),
    "last jobs due at the end": (
        [fixed_task("b", 3_000, 500), fixed_task("a", 1_000, 1_100)], 1, 3_000, None, 3_000),
    "constrained, released apart": (
        [fixed_task("b", 4_000, 3_500, deadline_us=3_000), fixed_task("a", 2_000, 1_500, deadline_us=1_000)],
        1, 6_000, None, 3_000),
    "after a migration": (
        [fixed_task("z", 2_000, 1_200, deadline_us=1_000), fixed_task("a", 1_000, 1_500)], 2, 4_000,
        (500, [({"a": "cpu1"}, set())]), 1_000),
    "after an eviction": (
        [fixed_task("z", 2_000, 1_200, deadline_us=1_000), fixed_task("a", 1_000, 1_500)], 1, 4_000,
        (500, [({}, {"a"})]), 1_000),
}


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("case", sorted(_MISSES_OUT_OF_TASK_ORDER))
def test_misses_due_out_of_task_order_are_written_in_task_order(case, policy):
    tasks, n_cpus, duration_us, hook, at_us = _MISSES_OUT_OF_TASK_ORDER[case]
    cpus = [ResourceState(id=f"cpu{i}", policy=policy, u_max=1.0) for i in range(n_cpus)]
    events = _same_as_reference({t.id: "cpu0" for t in tasks}, tasks, cpus, duration_us=duration_us, hook=hook)
    assert [e[2:] for e in events if e[:2] == (at_us, "deadline_miss")] == [("a", "cpu0"), (tasks[0].id, "cpu0")]


def test_open_job_due_at_the_end_misses():
    events = _same_as_reference({"a": "cpu0"}, [fixed_task("a", 1_000, 1_500)], [edf_cpu()], duration_us=3_000)
    assert events[-1] == (3_000, "deadline_miss", "a", "cpu0")


def test_open_job_due_past_the_end_has_no_miss_row():
    events = _same_as_reference({"a": "cpu0"}, [fixed_task("a", 1_000, 1_500)], [edf_cpu()], duration_us=2_500)
    assert [e[0] for e in events if e[1] == "deadline_miss"] == [1_000, 2_000]


def test_deadline_events_only_for_jobs_open_at_their_deadline(monkeypatch):
    pushed = []
    heappush = simulation.heapq.heappush

    def counting(heap, item):
        if len(item) == 6 and item[1] == simulation._R_DEADLINE:
            pushed.append(item[0])
        heappush(heap, item)

    monkeypatch.setattr(simulation.heapq, "heappush", counting)
    # four and ten tasks of one 100 ms period on one CPU, released at 600 instants in
    # 60 s.  Every job of table1_4units is done at its next release, so only the last
    # jobs, due at the end of the run with no release then, push a check;
    # table1_10units overloads its CPU, so a job is open at every deadline
    for name, jobs, pushes in (("table1_4units", 2_400, 1), ("table1_10units", 6_000, 600)):
        pushed.clear()
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        trace = run_sim(scenario.initial_plan, scenario.tasks, scenario.resources, noise=scenario.sim.noise,
                        duration_us=scenario.sim.duration_us, seed=scenario.sim.seed)
        assert sum(e[1] == "release" for e in trace.events) == jobs
        assert len(pushed) == len(set(pushed)) == pushes
        assert pushed[-1] == scenario.sim.duration_us == 60_000_000


def test_one_release_event_per_distinct_release_time(monkeypatch):
    pushed = []
    heappush = simulation.heapq.heappush

    def counting(heap, item):
        if len(item) == 6 and item[1] == simulation._R_RELEASE:
            pushed.append(item[0])
        heappush(heap, item)

    monkeypatch.setattr(simulation.heapq, "heappush", counting)
    scenario = load_scenario(SCENARIO_DIR / "table1_4units.json")
    trace = run_sim(scenario.initial_plan, scenario.tasks, scenario.resources, noise=scenario.sim.noise,
                    duration_us=scenario.sim.duration_us, seed=scenario.sim.seed)
    # four tasks of one period: 2,400 jobs, released at 600 distinct times
    assert sum(len(v) for v in trace.per_task_runtimes.values()) == 2_400
    assert len(pushed) == len(set(pushed)) == 600


def test_a_later_release_preempts_the_job_an_earlier_release_just_started():
    # both release at 6 ms on an idle RM CPU: a (index 0) starts, then b's shorter period preempts it
    tasks = [fixed_task("b", 2_000, 500), fixed_task("a", 3_000, 1_000)]
    cpu = ResourceState(id="cpu0", policy=Policy.RM, u_max=1.0)
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [cpu], duration_us=9_000)
    assert [e for e in events if e[0] == 6_000] == [
        (6_000, "release", "a", "cpu0"), (6_000, "start", "a", "cpu0"), (6_000, "release", "b", "cpu0"),
        (6_000, "preempt", "a", "cpu0"), (6_000, "start", "b", "cpu0")]


# The engine's fast paths: a release onto an idle CPU starts its job at once, a
# release that cannot preempt only joins the ready queue, and a completion whose
# successor ends before every heap event handles that completion too.  Each case
# below checks the events against ``run_sim_reference``, which has no fast path.

def test_release_onto_an_idle_cpu_starts_at_once():
    events = _same_as_reference({"a": "cpu0"}, [fixed_task("a", 1_000, 300)], [edf_cpu()], duration_us=3_000)
    assert events[:4] == [(0, "release", "a", "cpu0"), (0, "start", "a", "cpu0"),
                          (300, "complete", "a", "cpu0"), (1_000, "release", "a", "cpu0")]


def _first_interrupt_us(seed, duration_us):
    """When the first interrupt lands on the one CPU of a run at ``seed``, at 200 interrupts a second."""
    trace = run_sim_reference({"x": "cpu0"}, [fixed_task("x", duration_us, duration_us - 1)], [edf_cpu()],
                              noise=NoiseModel(interference=Interference(200.0, 10)),
                              duration_us=duration_us, seed=seed)
    return next(e[0] for e in trace.events if e[1] == "preempt")


def test_release_onto_an_idle_cpu_an_interrupt_blocks_waits():
    # a's first job is done when the interrupt lands; its second, released 100 us into
    # the 500 us block, starts when the block ends
    first = _first_interrupt_us(7, 100_000)
    tasks = [fixed_task("a", first + 100, 50)]
    events = _same_as_reference({"a": "cpu0"}, tasks, [edf_cpu()], duration_us=first + 1_000,
                                noise=NoiseModel(interference=Interference(200.0, 500)), seed=7)
    assert events[3:6] == [(first + 100, "release", "a", "cpu0"), (first + 500, "start", "a", "cpu0"),
                           (first + 550, "complete", "a", "cpu0")]


@pytest.mark.parametrize("policy", list(Policy))
def test_release_tying_the_running_job_does_not_preempt(policy):
    # a and b tie on deadline and period, so the id decides: b waits for a; at 1 ms
    # a's next job ties its overrunning one too, and the release time decides
    tasks = [fixed_task("a", 1_000, 1_100), fixed_task("b", 1_000, 300)]
    cpu = ResourceState(id="cpu0", policy=policy, u_max=1.0)
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [cpu], duration_us=3_000)
    assert not [e for e in events if e[1] == "preempt"]
    assert [e for e in events if e[0] in (0, 1_000)] == [
        (0, "release", "a", "cpu0"), (0, "start", "a", "cpu0"), (0, "release", "b", "cpu0"),
        (1_000, "release", "a", "cpu0"), (1_000, "release", "b", "cpu0"),
        (1_000, "deadline_miss", "a", "cpu0"), (1_000, "deadline_miss", "b", "cpu0")]
    # EDF runs b's job, due first; RM runs a's, the task with the smaller id
    after = "b" if policy is Policy.EDF else "a"
    assert events[7:9] == [(1_100, "complete", "a", "cpu0"), (1_100, "start", after, "cpu0")]


def test_chain_cut_by_a_release_at_its_end():
    # b would end at 1 ms, when both tasks release again: the releases come first
    tasks = [fixed_task("a", 1_000, 300), fixed_task("b", 1_000, 700)]
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [edf_cpu()], duration_us=3_000)
    assert [e for e in events if e[0] == 1_000] == [
        (1_000, "release", "a", "cpu0"), (1_000, "release", "b", "cpu0"),
        (1_000, "complete", "b", "cpu0"), (1_000, "start", "a", "cpu0")]


def test_chain_cut_by_a_deadline_check_at_its_end():
    # b ends at its deadline, 500, and c, due then too, misses after it starts
    tasks = [fixed_task("a", 1_000, 200, deadline_us=500), fixed_task("b", 1_000, 300, deadline_us=500),
             fixed_task("c", 1_000, 100, deadline_us=500)]
    events = _same_as_reference({t.id: "cpu0" for t in tasks}, tasks, [edf_cpu()], duration_us=2_000)
    assert [e for e in events if e[0] == 500] == [
        (500, "complete", "b", "cpu0"), (500, "start", "c", "cpu0"), (500, "deadline_miss", "c", "cpu0")]


def test_chain_cut_by_an_interference_start_at_its_end():
    # b is sized to end when the first interrupt lands; c starts and is preempted at once
    first = _first_interrupt_us(7, 100_000)
    assert 1_000 < first < 90_000
    tasks = [fixed_task("a", 100_000, 500), fixed_task("b", 100_000, first - 500), fixed_task("c", 100_000, 50)]
    events = _same_as_reference({t.id: "cpu0" for t in tasks}, tasks, [edf_cpu()], duration_us=100_000,
                                noise=NoiseModel(interference=Interference(200.0, 10)), seed=7)
    assert [e for e in events if e[0] == first] == [
        (first, "complete", "b", "cpu0"), (first, "start", "c", "cpu0"), (first, "preempt", "c", "cpu0")]


def test_chain_cut_by_a_monitor_epoch_at_its_end():
    # b ends at the first epoch, 1 ms, which then moves a to cpu1 and evicts c
    tasks = [fixed_task("a", 5_000, 300), fixed_task("b", 5_000, 700), fixed_task("c", 5_000, 100)]
    events = _same_as_reference({t.id: "cpu0" for t in tasks}, tasks, [edf_cpu("cpu0"), edf_cpu("cpu1")],
                                duration_us=10_000, hook=(1_000, [({"a": "cpu1"}, {"c"})]))
    assert [e for e in events if e[0] == 1_000] == [
        (1_000, "complete", "b", "cpu0"), (1_000, "start", "c", "cpu0"), (1_000, "migrate", "a", "cpu1")]


def test_zero_length_job_inside_a_chain():
    zero = TaskSpec(id="b", period_us=1_000, budget_us=1,
                    exec_model=ExecModel(mu_us=0, sigma_us=0, cutoff_lo_us=0, wcet_us=0))
    tasks = [fixed_task("a", 1_000, 300), zero, fixed_task("c", 1_000, 200)]
    events = _same_as_reference({t.id: "cpu0" for t in tasks}, tasks, [edf_cpu()], duration_us=2_000)
    assert [e for e in events if 0 < e[0] < 1_000] == [
        (300, "complete", "a", "cpu0"), (300, "start", "b", "cpu0"), (300, "complete", "b", "cpu0"),
        (300, "start", "c", "cpu0"), (500, "complete", "c", "cpu0")]
    runtimes = run_sim({t.id: "cpu0" for t in tasks}, tasks, [edf_cpu()], duration_us=2_000).per_task_runtimes
    assert {tid: list(column) for tid, column in runtimes.items()} == {"a": [300, 300], "b": [0, 0], "c": [200, 200]}


@pytest.mark.parametrize("b_us, last", [(300, (1_500, "complete", "b", "cpu0")),
                                        (301, (1_200, "start", "b", "cpu0"))])
def test_chain_ending_on_the_last_instant(b_us, last):
    # released at 1 ms, due after the end at 1.5 ms: nothing is in the heap, so b's
    # completion chains onto a's and lands on the last instant, or just past it
    tasks = [fixed_task("a", 1_000, 200), fixed_task("b", 1_000, b_us)]
    events = _same_as_reference({"a": "cpu0", "b": "cpu0"}, tasks, [edf_cpu()], duration_us=1_500)
    assert events[-1] == last


def test_one_completion_event_per_period_on_table1(monkeypatch):
    pushed = []
    heappush = simulation.heapq.heappush

    def counting(heap, item):
        if len(item) == 6 and item[1] == simulation._R_COMPLETE:
            pushed.append(item[0])
        heappush(heap, item)

    monkeypatch.setattr(simulation.heapq, "heappush", counting)
    scenario = load_scenario(SCENARIO_DIR / "table1_4units.json")
    trace = run_sim(scenario.initial_plan, scenario.tasks, scenario.resources, noise=scenario.sim.noise,
                    duration_us=scenario.sim.duration_us, seed=scenario.sim.seed)
    # four tasks of one period on one CPU: the first job of each period starts on its
    # release and the other three chain onto it, so 2,400 jobs push 600 completions
    assert sum(len(v) for v in trace.per_task_runtimes.values()) == 2_400
    assert len(pushed) == 600
