import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtorch import orchestration
from rtorch.model import Criticality, ExecModel, Policy, ResourceState, TaskSpec
from rtorch.orchestration import (
    COOLDOWN_EPOCHS,
    DEFAULT_THRESHOLDS,
    InfeasibleError,
    OrchestratorConfig,
    OrchestratorHook,
    Strategy,
    SystemView,
    build_plan,
    evaluate_epoch,
    first_fit_plan,
    group_threshold,
    match_score,
    mc_reallocate,
    naive_reallocate,
    orchestrate_step,
    plan_objective,
    victim_order,
    window_fits,
)
from rtorch.probability import MIN_FIT_SAMPLES, NormalParams, fit_normal, joint_utilization, miss_probability
from rtorch.simulation import PlanUpdate, run_sim

from oracles import first_fit_reference, fit_normal_reference, mc_reallocate_reference


def mk_task(tid, period_us, budget_us, crit=Criticality.HARD, mu_us=None, sigma_us=0):
    mu = budget_us // 2 if mu_us is None else mu_us
    model = ExecModel(mu_us=mu, sigma_us=sigma_us, cutoff_lo_us=0, wcet_us=period_us)
    return TaskSpec(id=tid, period_us=period_us, budget_us=budget_us,
                    exec_model=model, criticality=crit)


def mk_cpu(rid, crit=Criticality.HARD, u_max=1.0):
    return ResourceState(id=rid, policy=Policy.EDF, u_max=u_max, criticality=crit)


def mk_view(tasks, resources, assignments, fits=None, **kw):
    defaults = dict(
        now_us=1_000_000,
        tasks={t.id: t for t in tasks},
        resources={r.id: r for r in resources},
        assignments=dict(assignments),
        fits=fits or {},
        next_deadline_us={t.id: t.period_us for t in tasks},
    )
    defaults.update(kw)
    return SystemView(**defaults)


CAM_FIT = NormalParams(56_250.0, 6_250.0)
BG_FIT = NormalParams(24_000.0, 500.0)
RELAXED = {Criticality.HARD: 0.05, Criticality.SOFT: 1e-2, Criticality.BEST_EFFORT: 1.0}


def camera_system():
    cams = [mk_task(t, 125_000, 62_500, mu_us=56_250, sigma_us=6_250) for t in ("cam_a", "cam_b")]
    bg = mk_task("bg_worker", 50_000, 25_000, crit=Criticality.BEST_EFFORT,
                 mu_us=24_000, sigma_us=500)
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1", crit=Criticality.BEST_EFFORT)]
    assignments = {"cam_a": "cpu0", "cam_b": "cpu0", "bg_worker": "cpu1"}
    fits = {"cam_a": CAM_FIT, "cam_b": CAM_FIT, "bg_worker": BG_FIT}
    return cams + [bg], cpus, assignments, fits


def test_group_threshold_takes_strictest_hosted():
    hard = mk_task("h", 100_000, 10_000)
    soft = mk_task("s", 100_000, 10_000, crit=Criticality.SOFT)
    be = mk_task("e", 100_000, 10_000, crit=Criticality.BEST_EFFORT)
    assert group_threshold([be], DEFAULT_THRESHOLDS) == 1.0
    assert group_threshold([be, soft], DEFAULT_THRESHOLDS) == 1e-2
    assert group_threshold([be, soft, hard], DEFAULT_THRESHOLDS) == 1e-4
    assert group_threshold([], DEFAULT_THRESHOLDS) == 1.0


def test_epoch_evaluation_flags_colocated_cameras():
    tasks, cpus, assignments, fits = camera_system()
    view = mk_view(tasks, cpus, assignments, fits)
    evals = {e.resource: e for e in evaluate_epoch(view, OrchestratorConfig(thresholds=RELAXED))}
    assert evals["cpu0"].breached
    assert evals["cpu0"].miss_prob == pytest.approx(0.0786, abs=1e-4)
    assert evals["cpu0"].threshold == 0.05
    assert not evals["cpu1"].breached
    assert evals["cpu1"].threshold == 1.0


def test_victim_is_earliest_next_deadline_then_id():
    tasks, cpus, assignments, fits = camera_system()
    view = mk_view(tasks, cpus, assignments, fits,
                   next_deadline_us={"cam_a": 125_000, "cam_b": 125_000, "bg_worker": 50_000})
    assert victim_order(view, "cpu0") == ["cam_a", "cam_b"]
    tilted = mk_view(tasks, cpus, assignments, fits,
                     next_deadline_us={"cam_a": 250_000, "cam_b": 125_000, "bg_worker": 50_000})
    assert victim_order(tilted, "cpu0") == ["cam_b", "cam_a"]
    with_spare = mk_view(tasks, cpus + [mk_cpu("cpu2")], assignments, fits)
    assert victim_order(with_spare, "cpu2") == []


def test_match_score_prefers_similar_periods():
    victim = mk_task("v", 125_000, 10_000)
    same = [mk_task("s", 125_000, 10_000)]
    fast = [mk_task("f", 10_000, 1_000)]
    assert match_score(victim, same) == pytest.approx(1.0)
    assert match_score(victim, fast) == pytest.approx(1.0 / (1.0 + math.log(12.5)))
    assert match_score(victim, []) == 0.5
    mixed = [mk_task("a", 100_000, 1), mk_task("b", 125_000, 1), mk_task("c", 150_000, 1)]
    assert match_score(victim, mixed) == pytest.approx(1.0)  # median is 125 ms


def test_naive_move_prefers_period_matched_destination():
    victim = mk_task("cam", 125_000, 62_500, mu_us=56_250, sigma_us=6_250)
    peer = mk_task("peer", 125_000, 62_500, mu_us=56_250, sigma_us=6_250)
    slow_buddy = mk_task("slow_buddy", 125_000, 10_000, mu_us=9_000, sigma_us=100)
    fast_buddy = mk_task("fast_buddy", 10_000, 800, mu_us=700, sigma_us=10)
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1"), mk_cpu("cpu2")]
    view = mk_view(
        [victim, peer, slow_buddy, fast_buddy], cpus,
        {"cam": "cpu0", "peer": "cpu0", "slow_buddy": "cpu1", "fast_buddy": "cpu2"},
        fits={"cam": CAM_FIT, "peer": CAM_FIT,
              "slow_buddy": NormalParams(9_000.0, 100.0),
              "fast_buddy": NormalParams(700.0, 10.0)},
    )
    decision = naive_reallocate(view, "cam", RELAXED)
    assert decision.moved == (("cam", "cpu0", "cpu1"),)
    assert decision.evicted_best_effort == ()
    assert decision.trigger[0] == "cpu0"
    assert decision.trigger[1] == pytest.approx(0.0786, abs=1e-4)


def test_naive_move_evicts_best_effort_when_needed():
    tasks, cpus, assignments, fits = camera_system()
    view = mk_view(tasks, cpus, assignments, fits)
    decision = naive_reallocate(view, "cam_a", RELAXED)
    assert decision.moved == (("cam_a", "cpu0", "cpu1"),)
    assert decision.evicted_best_effort == ("bg_worker",)
    assert decision.trigger[0] == "cpu0"


def test_naive_move_never_evicts_from_equally_critical_resource():
    tasks, cpus, assignments, fits = camera_system()
    hard_cpu1 = [mk_cpu("cpu0"), mk_cpu("cpu1", crit=Criticality.HARD)]
    view = mk_view(tasks, hard_cpu1, assignments, fits)
    decision = naive_reallocate(view, "cam_a", RELAXED)
    assert decision.moved == ()
    assert decision.evicted_best_effort == ()


def test_naive_move_reports_trigger_when_nowhere_fits():
    a = mk_task("a", 100_000, 60_000, mu_us=55_000, sigma_us=2_000)
    b = mk_task("b", 100_000, 60_000, mu_us=55_000, sigma_us=2_000)
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1", u_max=0.3)]
    view = mk_view([a, b], cpus, {"a": "cpu0", "b": "cpu0"},
                   fits={"a": NormalParams(55_000.0, 2_000.0), "b": NormalParams(55_000.0, 2_000.0)})
    decision = naive_reallocate(view, "a", DEFAULT_THRESHOLDS)
    assert decision.moved == ()
    assert decision.trigger[0] == "cpu0"
    assert decision.trigger[1] > decision.trigger[2]


def four_even_tasks():
    tasks = [mk_task(f"t{i}", 100_000, 40_000, mu_us=40_000, sigma_us=2_000) for i in range(4)]
    fits = {t.id: NormalParams(40_000.0, 2_000.0) for t in tasks}
    return tasks, fits


def test_mc_search_splits_even_load_across_cpus():
    tasks, fits = four_even_tasks()
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1")]
    view = mk_view(tasks, cpus, {t.id: "cpu0" for t in tasks}, fits)
    plan = mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples=300, seed=1)
    sizes = sorted(
        sum(1 for rid in plan.assignments.values() if rid == cpu) for cpu in ("cpu0", "cpu1")
    )
    assert sizes == [2, 2]
    for load in build_plan(plan.assignments, view.tasks, view.resources, fits).per_resource.values():
        assert load.miss_prob < 1e-4
        assert load.buffer == pytest.approx(0.2)


def test_mc_search_respects_cooldown_pins():
    tasks, fits = four_even_tasks()
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1")]
    pinned = frozenset({"t0", "t1", "t2", "t3"})
    view = mk_view(tasks, cpus, {t.id: "cpu0" for t in tasks}, fits, cooldown=pinned)
    plan = mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples=200, seed=1)
    assert plan.assignments == {t.id: "cpu0" for t in tasks}


@st.composite
def random_systems(draw):
    n_tasks = draw(st.integers(1, 5))
    n_res = draw(st.integers(1, 3))
    resources = [mk_cpu(f"cpu{i}") for i in range(n_res)]
    tasks = []
    fits = {}
    assignments = {}
    for i in range(n_tasks):
        period = draw(st.sampled_from([10_000, 50_000, 100_000]))
        budget = draw(st.integers(period // 10, period // 2))
        tasks.append(mk_task(f"t{i}", period, budget))
        mu = budget * draw(st.floats(0.3, 1.4))
        fits[f"t{i}"] = NormalParams(mu, mu * draw(st.floats(0.0, 0.3)))
        assignments[f"t{i}"] = f"cpu{draw(st.integers(0, n_res - 1))}"
    return tasks, resources, assignments, fits


@settings(max_examples=15, deadline=None)
@given(random_systems(), st.integers(0, 1000))
def test_mc_search_never_worse_than_incumbent(system, seed):
    tasks, resources, assignments, fits = system
    view = mk_view(tasks, resources, assignments, fits)
    incumbent = plan_objective(view, assignments, DEFAULT_THRESHOLDS)
    plan = mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples=40, seed=seed)
    result = plan_objective(view, plan.assignments, DEFAULT_THRESHOLDS)
    assert result <= incumbent


def exact_fill_system():
    """Seven deterministic tasks of 0.1 each on two 0.7 CPUs.  All seven on one
    CPU sum to u_max in naive summation (0.7) but past it in fsum
    (0.7000000000000001), which breaches; a screen trusting the naive sum
    would rank that sample above every split."""
    tasks = [mk_task(f"d{i}", 10, 1, mu_us=1) for i in range(7)]
    cpus = [mk_cpu(f"cpu{i}", u_max=0.7) for i in range(2)]
    return mk_view(tasks, cpus, {t.id: "cpu0" for t in tasks})


def identical_tasks_system():
    tasks, fits = four_even_tasks()
    tasks += [mk_task(f"u{i}", 100_000, 40_000, mu_us=40_000, sigma_us=2_000) for i in range(4)]
    cpus = [mk_cpu(f"cpu{i}") for i in range(4)]
    return mk_view(tasks, cpus, {t.id: "cpu0" for t in tasks}, fits)


def single_cpu_system():
    tasks, fits = four_even_tasks()
    return mk_view(tasks, [mk_cpu("cpu0")], {t.id: "cpu0" for t in tasks}, fits)


def pinned_evicted_fitted_system():
    tasks, cpus, assignments, fits = camera_system()
    tasks = tasks + [mk_task(f"x{i}", 50_000, 15_000, crit=crit, mu_us=12_000, sigma_us=1_500)
                     for i, crit in enumerate(Criticality)]
    cpus = cpus + [mk_cpu("cpu2", crit=Criticality.SOFT, u_max=0.8)]
    assignments = dict(assignments, x0="cpu0", x1="cpu1", x2="cpu2")
    # x1 runs on its declared model; the others have fits
    fits = dict(fits, x0=NormalParams(14_000.0, 3_000.0), x2=NormalParams(9_000.0, 0.0))
    return mk_view(tasks, cpus, assignments, fits,
                   cooldown=frozenset({"cam_a", "x2"}), evicted=frozenset({"bg_worker"}))


@pytest.mark.parametrize("system", [exact_fill_system, identical_tasks_system, single_cpu_system,
                                    pinned_evicted_fitted_system])
@pytest.mark.parametrize("mc_samples", [1, orchestration._MC_BLOCK + 1, 1000])
def test_mc_search_matches_sample_by_sample_scan(system, mc_samples):
    view = system()
    for seed in (0, 1, 7):
        expected = mc_reallocate_reference(view, DEFAULT_THRESHOLDS, mc_samples, seed)
        assert mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples, seed).assignments == expected.assignments


@settings(max_examples=40, deadline=None)
@given(random_systems(), st.integers(0, 1000), st.sampled_from([1, 2, 300]), st.data())
def test_mc_search_matches_scan_on_random_systems(system, seed, mc_samples, data):
    tasks, resources, assignments, fits = system
    ids = [t.id for t in tasks]
    subset = st.frozensets(st.sampled_from(ids))
    view = mk_view(tasks, resources, assignments, fits,
                   cooldown=data.draw(subset), evicted=data.draw(subset))
    expected = mc_reallocate_reference(view, DEFAULT_THRESHOLDS, mc_samples, seed)
    assert mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples, seed).assignments == expected.assignments


@st.composite
def screened_systems(draw):
    """Mixed criticalities, thresholds 0 and 1, and deterministic groups that fill u_max exactly."""
    u_max = draw(st.sampled_from([0.5, 0.7, 1.0]))
    resources = [mk_cpu(f"cpu{i}", u_max=u_max) for i in range(draw(st.integers(1, 4)))]
    tasks = []
    for i in range(draw(st.integers(1, 8))):
        period = draw(st.sampled_from([10, 100_000]))
        # 0.1, 0.25 and 0.5 of a period fill 0.5, 0.7 and 1.0 exactly in some sums
        mu = period * draw(st.sampled_from([1, 2, 5, 10])) // 20 or 1
        sigma = draw(st.sampled_from([0, 0, 1, period // 100, period // 5]))
        crit = draw(st.sampled_from(list(Criticality)))
        tasks.append(mk_task(f"t{i}", period, mu, crit=crit, mu_us=mu, sigma_us=sigma))
    assignments = {t.id: draw(st.sampled_from(resources)).id for t in tasks}
    thresholds = {c: draw(st.sampled_from([0.0, 1e-12, 1e-4, 1e-2, 0.5, 1.0])) for c in Criticality}
    ids = st.frozensets(st.sampled_from([t.id for t in tasks]))
    view = mk_view(tasks, resources, assignments, cooldown=draw(ids), evicted=draw(ids))
    return view, thresholds


@settings(max_examples=150, deadline=None)
@given(screened_systems(), st.integers(0, 2**32 - 1))
def test_objective_screen_bounds_contain_plan_objective(system, seed):
    view, thresholds = system
    res_ids = list(view.resources)
    movable = [tid for tid in view.tasks if tid not in view.cooldown]
    picks = np.random.default_rng(seed).integers(0, len(res_ids), size=(64, len(movable)))
    lows, highs = orchestration._ObjectiveScreen(view, thresholds, movable, res_ids).bounds(picks)
    for row, low, high in zip(picks, lows, highs):
        candidate = dict(view.assignments)
        candidate.update(zip(movable, (res_ids[idx] for idx in row)))
        exact = plan_objective(view, candidate, thresholds)
        assert all(lo <= value <= hi for lo, value, hi in zip(low, exact, high)), (low, exact, high)


def test_objective_screen_counts_a_deterministic_group_at_u_max_as_undecided():
    """Seven 0.1 tasks on one 0.7 CPU: the fsum exceeds u_max by one ulp, the screen's sum
    need not, so its bounds must leave the breach undecided and contain the exact count."""
    view = exact_fill_system()
    res_ids = list(view.resources)
    movable = list(view.tasks)
    picks = np.zeros((1, len(movable)), dtype=np.int64)
    lows, highs = orchestration._ObjectiveScreen(view, DEFAULT_THRESHOLDS, movable, res_ids).bounds(picks)
    assert plan_objective(view, view.assignments, DEFAULT_THRESHOLDS) == (1, 1.0, 1)
    assert lows[0] == (0, 0.0, 1)
    assert highs[0] == (1, 1.0, 1)


def test_mc_search_on_one_cpu_scores_only_the_incumbent(monkeypatch):
    calls = []
    monkeypatch.setattr(orchestration, "plan_objective",
                        lambda *args: calls.append(args) or plan_objective(*args))
    view = single_cpu_system()
    plan = mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples=1000, seed=1)
    assert plan.assignments == view.assignments
    assert len(calls) == 1


@pytest.mark.parametrize("n_res, n_movable", [(2, 5), (3, 7), (8, 39), (32, 240), (1, 4)])
def test_block_draws_equal_per_sample_draws(n_res, n_movable):
    """The search draws a block of samples in one call; the stream must match one call per sample."""
    for seed in range(3):
        per_sample = np.random.default_rng(seed)
        rows = np.array([per_sample.integers(0, n_res, size=n_movable) for _ in range(50)])
        blocked = np.random.default_rng(seed)
        blocks = [blocked.integers(0, n_res, size=(k, n_movable)) for k in (17, 33)]
        assert np.array_equal(rows, np.concatenate(blocks))


def test_mc_search_memory_does_not_grow_with_samples():
    periods = (20_000, 25_000, 40_000, 50_000)
    tasks = [mk_task(f"t{i}", periods[i % 4], periods[i % 4] // 20, mu_us=periods[i % 4] // 25,
                     sigma_us=periods[i % 4] // 200) for i in range(240)]
    cpus = [mk_cpu(f"cpu{i}") for i in range(32)]
    view = mk_view(tasks, cpus, {t.id: f"cpu{i % 32}" for i, t in enumerate(tasks)})
    tracemalloc.start()
    try:
        mc_reallocate(view, DEFAULT_THRESHOLDS, mc_samples=100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_step_returns_none_without_breach():
    tasks, cpus, assignments, fits = camera_system()
    spread = dict(assignments, cam_b="cpu1")
    view = mk_view(tasks, cpus, spread, fits, evicted=frozenset({"bg_worker"}))
    config = OrchestratorConfig(thresholds=RELAXED)
    evals = evaluate_epoch(view, config)
    assert not any(e.breached for e in evals)
    assert orchestrate_step(view, config, evals) is None


def test_step_skips_victims_on_cooldown():
    a = mk_task("a", 100_000, 45_000, mu_us=55_000, sigma_us=2_000)
    b = mk_task("b", 100_000, 45_000, mu_us=55_000, sigma_us=2_000)
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1")]
    fits = {"a": NormalParams(55_000.0, 2_000.0), "b": NormalParams(55_000.0, 2_000.0)}
    config = OrchestratorConfig()
    free = mk_view([a, b], cpus, {"a": "cpu0", "b": "cpu0"}, fits)
    assert orchestrate_step(free, config, evaluate_epoch(free, config)).moved == (("a", "cpu0", "cpu1"),)
    held = mk_view([a, b], cpus, {"a": "cpu0", "b": "cpu0"}, fits,
                   cooldown=frozenset({"a"}))
    assert orchestrate_step(held, config, evaluate_epoch(held, config)).moved == (("b", "cpu0", "cpu1"),)
    frozen = mk_view([a, b], cpus, {"a": "cpu0", "b": "cpu0"}, fits,
                     cooldown=frozenset({"a", "b"}))
    decision = orchestrate_step(frozen, config, evaluate_epoch(frozen, config))
    assert decision is not None
    assert decision.moved == ()


def test_window_fit_needs_minimum_samples():
    assert window_fits({"a": [100] * 29}, fit_window=1024) == {}
    fits = window_fits({"a": [100] * 30}, fit_window=1024)
    assert fits["a"].mu == 100.0
    assert fits["a"].sigma == 0.0


def test_window_fit_uses_only_recent_window():
    samples = [0] * 26 + [100] * 64
    fits = window_fits({"a": samples}, fit_window=64)
    assert fits["a"].mu == 100.0
    assert fits["a"].sigma == 0.0


def test_window_fit_matches_streaming_statistics():
    samples = list(range(50, 150))
    fits = window_fits({"a": samples}, fit_window=1024)
    import statistics as stats
    assert fits["a"].mu == pytest.approx(stats.fmean(samples))
    assert fits["a"].sigma == pytest.approx(stats.stdev(samples))


def test_window_fit_accepts_numpy_integers():
    samples = np.arange(50, 150, dtype=np.int64)
    fits = window_fits({"a": list(samples)}, fit_window=1024)
    assert fits == window_fits({"a": [int(x) for x in samples]}, fit_window=1024)


@st.composite
def runtime_streams(draw):
    """Per-task runtime lists of mixed lengths: windows still filling, full ones, constant rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = {}
    for i in range(draw(st.integers(1, 10))):
        n = draw(st.sampled_from([0, 1, 29, 30, 80, 129, 1_024, 1_500, 4_096]) | st.integers(0, 300))
        kind = draw(st.sampled_from(["normal", "narrow", "constant", "huge"]))
        if kind == "constant":
            samples = [draw(st.integers(0, 2**52))] * n
        elif kind == "narrow":  # mostly one value, so a window may be constant or not
            samples = (10_000 + (rng.random(n) < 0.01)).tolist()
        elif kind == "huge":
            samples = rng.integers(2**51, 2**52, n).tolist()
        else:
            samples = np.rint(rng.normal(draw(st.integers(100, 10**9)), 50.0, n)).astype(int).tolist()
        streams[f"t{i}"] = samples
    return streams


@settings(max_examples=150, deadline=None)
@given(runtime_streams(), st.sampled_from([30, 64, 80, 129, 1_024, 2_048]))
def test_stacked_window_fits_equal_per_task_fits_bit_for_bit(streams, fit_window):
    fits = window_fits(streams, fit_window)
    windows = {tid: s[-fit_window:] for tid, s in streams.items() if min(len(s), fit_window) >= MIN_FIT_SAMPLES}
    assert fits.keys() == windows.keys()
    for tid, window in windows.items():
        assert fits[tid] == fit_normal(window) == NormalParams(*fit_normal_reference(window))


def test_first_fit_packs_by_declining_utilization():
    heavy = mk_task("heavy", 100_000, 60_000, mu_us=10_000)
    medium = mk_task("medium", 100_000, 50_000, mu_us=10_000)
    light = mk_task("light", 100_000, 30_000, mu_us=5_000)
    cpus = [mk_cpu("cpu0"), mk_cpu("cpu1")]
    plan = first_fit_plan([light, medium, heavy], cpus)
    assert plan == {"heavy": "cpu0", "medium": "cpu1", "light": "cpu0"}


def test_first_fit_raises_when_nothing_fits():
    giant = mk_task("giant", 100_000, 90_000, mu_us=10_000)
    blocker = mk_task("blocker", 100_000, 20_000, mu_us=10_000)
    cpus = [mk_cpu("cpu0")]
    with pytest.raises(InfeasibleError) as err:
        first_fit_plan([giant, blocker], cpus)
    assert err.value.task_id == "blocker"


@st.composite
def first_fit_systems(draw):
    """EDF/RM CPUs of three ceilings, mixed criticality, optional fits, and
    deterministic tenths of a CPU that fill a ceiling of 1.0 or 0.9 exactly."""
    resources = [
        ResourceState(id=f"cpu{i}", policy=draw(st.sampled_from(list(Policy))),
                      u_max=draw(st.sampled_from([1.0, 0.9, 0.69])),
                      criticality=draw(st.sampled_from(list(Criticality))))
        for i in range(draw(st.integers(1, 4)))
    ]
    with_fits = draw(st.booleans())
    n_tenths = draw(st.sampled_from([0, 9, 10, 11]))
    tasks = [mk_task(f"d{i}", 10_000, 1_000, crit=draw(st.sampled_from(list(Criticality))), mu_us=1_000)
             for i in range(n_tenths)]
    fits = {}
    for i in range(draw(st.integers(0 if n_tenths else 1, 6))):
        crit = draw(st.sampled_from(list(Criticality)))
        period = draw(st.sampled_from([10_000, 50_000, 100_000]))
        budget = draw(st.integers(period // 20, period // 2))
        mu = round(budget * draw(st.floats(0.3, 1.0)))
        tasks.append(mk_task(f"t{i}", period, budget, crit=crit, mu_us=mu,
                             sigma_us=round(mu * draw(st.floats(0.0, 0.3)))))
        if with_fits and draw(st.booleans()):
            fit_mu = budget * draw(st.floats(0.3, 1.4))
            fits[f"t{i}"] = NormalParams(fit_mu, fit_mu * draw(st.floats(0.0, 0.3)))
    thresholds = draw(st.sampled_from([DEFAULT_THRESHOLDS, RELAXED]))
    return tasks, resources, thresholds, fits if with_fits else None


@settings(max_examples=80, deadline=None)
@given(first_fit_systems())
def test_first_fit_matches_reference(system):
    def outcome(first_fit):
        try:
            return first_fit(*system)
        except InfeasibleError as exc:
            return exc.task_id

    assert outcome(first_fit_plan) == outcome(first_fit_reference)


@settings(max_examples=40, deadline=None)
@given(random_systems(), st.data())
def test_epoch_plan_and_objective_agree_on_miss_probabilities(system, data):
    tasks, resources, assignments, fits = system
    evicted = data.draw(st.frozensets(st.sampled_from([t.id for t in tasks])))
    view = mk_view(tasks, resources, assignments, fits, evicted=evicted)
    expected = {}
    for res in resources:
        hosted = [view.tasks[tid] for tid, rid in assignments.items() if rid == res.id and tid not in evicted]
        joint = joint_utilization([(fits[t.id], t.period_us) for t in hosted]) if hosted else None
        expected[res.id] = miss_probability(joint, res.u_max) if hosted else 0.0

    evals = evaluate_epoch(view, OrchestratorConfig())
    assert {e.resource: e.miss_prob for e in evals} == expected
    plan = build_plan(assignments, view.tasks, view.resources, fits, evicted)
    assert {rid: load.miss_prob for rid, load in plan.per_resource.items()} == expected
    breached, worst, occupied = plan_objective(view, assignments, DEFAULT_THRESHOLDS)
    assert worst == max(expected.values())
    assert breached == sum(e.breached for e in evals)
    assert occupied == len({rid for tid, rid in assignments.items() if tid not in evicted})


def test_build_plan_excludes_evicted_tasks_from_load():
    tasks, cpus, assignments, fits = camera_system()
    spread = dict(assignments, cam_a="cpu1")
    plan = build_plan(spread, {t.id: t for t in tasks}, {r.id: r for r in cpus},
                      fits, evicted=frozenset({"bg_worker"}))
    assert plan.assignments["bg_worker"] == "cpu1"
    assert plan.per_resource["cpu1"].buffer == pytest.approx(0.5)  # cam_a only
    assert plan.per_resource["cpu0"].buffer == pytest.approx(0.5)  # cam_b only
    assert plan.per_resource["cpu0"].miss_prob < 1e-10
    shape = asdict(plan)
    assert set(shape) == {"assignments", "per_resource"}
    assert set(shape["per_resource"]["cpu0"]) == {"buffer", "miss_prob"}


def conveyor_sim(duration_us, seed, with_hook):
    tasks, cpus, assignments, _fits = camera_system()
    hook = None
    if with_hook:
        config = OrchestratorConfig(monitor_period_us=1_000_000, thresholds=RELAXED)
        hook = OrchestratorHook(tasks, cpus, config, base_seed=seed)
    trace = run_sim(dict(assignments), tasks, cpus, duration_us=duration_us,
                    seed=seed, hook=hook)
    return trace, hook


def test_hook_relocates_camera_once_and_misses_drop():
    duration = 30_000_000
    baseline, _ = conveyor_sim(duration, seed=5, with_hook=False)
    managed, hook = conveyor_sim(duration, seed=5, with_hook=True)

    def cam_misses(trace):
        counts = trace.miss_counts()
        return counts["cam_a"] + counts["cam_b"]

    assert cam_misses(managed) < cam_misses(baseline)
    migrations = [e for e in managed.events if e[1] == "migrate"]
    assert migrations == [(1_000_000, "migrate", "cam_a", "cpu1")]
    first = hook.records[0]
    assert first["decision"] is not None
    assert first["decision"]["moved"] == (("cam_a", "cpu0", "cpu1"),)
    assert first["decision"]["evicted_best_effort"] == ("bg_worker",)
    assert first["per_resource"]["cpu0"] == pytest.approx(0.0786, abs=1e-4)
    assert all(r["decision"] is None for r in hook.records[1:])
    assert len(hook.records) == 29
    # the demoted task keeps finishing work in the leftover slack
    assert len(managed.per_task_runtimes["bg_worker"]) > 100


def test_hook_update_holds_only_the_moves_and_the_demoted():
    tasks, cpus, assignments, _fits = camera_system()
    hook = OrchestratorHook(tasks, cpus, OrchestratorConfig(monitor_period_us=1_000_000, thresholds=RELAXED),
                            base_seed=5)
    updates = []

    class Recorder:
        period_us = hook.period_us

        def __call__(self, snapshot):
            updates.append(hook(snapshot))
            return updates[-1]

    run_sim(dict(assignments), tasks, cpus, duration_us=3_000_000, seed=5, hook=Recorder())
    assert updates == [PlanUpdate(assignments={"cam_a": "cpu1"}, evicted=frozenset({"bg_worker"})), None]


def test_hook_evaluates_each_epoch_once(monkeypatch):
    calls = []
    evaluate = orchestration.evaluate_epoch

    def counting(view, config):
        calls.append(view.now_us)
        return evaluate(view, config)

    monkeypatch.setattr(orchestration, "evaluate_epoch", counting)
    _trace, hook = conveyor_sim(5_000_000, seed=5, with_hook=True)
    assert len(hook.records) == 4
    assert calls == [r["time_us"] for r in hook.records]


def test_cooldown_constant_spans_two_epochs():
    assert COOLDOWN_EPOCHS == 2
