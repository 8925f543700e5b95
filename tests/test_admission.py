import math

import pytest
from hypothesis import given, strategies as st

from oracles import rm_bound_exact
from rtorch.admission import GroupLoad, admit, edf_bound, load_terms, rm_bound, runtime_params
from rtorch.model import Criticality, ExecModel, Policy, ResourceState, TaskSpec
from rtorch.probability import NormalParams, joint_utilization, miss_probability


def make_task(tid, period_us, budget_us, mu_us, sigma_us=0, crit=Criticality.HARD):
    model = ExecModel(mu_us=mu_us, sigma_us=sigma_us, cutoff_lo_us=0, wcet_us=period_us)
    return TaskSpec(id=tid, period_us=period_us, budget_us=budget_us, exec_model=model, criticality=crit)


def assert_same_as_rebuilt(load, thresholds, threshold):
    """``load`` answers bit-equal to a group rebuilt from its tasks, and to the sums taken afresh."""
    rebuilt = GroupLoad(load.resource, load.fits, load.tasks)
    assert load.reserved() == rebuilt.reserved() == math.fsum(t.budget_us / t.period_us for t in load.tasks)
    assert load.miss_prob() == rebuilt.miss_prob()
    assert load.threshold(thresholds) == rebuilt.threshold(thresholds)
    if load.tasks:
        models = [(runtime_params(t, load.fits), t.period_us) for t in load.tasks]
        assert load.miss_prob() == miss_probability(joint_utilization(models), load.resource.u_max)
        assert load.verdict(threshold) == rebuilt.verdict(threshold)


def test_rm_bound_reference_values():
    assert rm_bound(1) == 1.0
    assert rm_bound(2) == pytest.approx(0.82843, abs=1e-5)
    assert rm_bound(2) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)
    assert rm_bound(10**6) == pytest.approx(math.log(2.0), abs=1e-3)
    assert edf_bound() == 1.0


def test_rm_bound_matches_high_precision_oracle():
    for n in range(1, 31):
        assert rm_bound(n) == pytest.approx(rm_bound_exact(n), abs=1e-12)


def test_rm_bound_strictly_decreasing():
    values = [rm_bound(n) for n in range(1, 51)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rm_bound_rejects_nonpositive_n():
    for n in (0, -1, 0, -1):  # twice each: a memoized call raises as the first one did
        with pytest.raises(ValueError):
            rm_bound(n)


def test_memoized_rm_bound_returns_the_formula_float():
    for _ in range(2):
        for n in range(1, 10_001):
            assert rm_bound(n) == n * (2.0 ** (1.0 / n) - 1.0)


def threshold_reference(load, thresholds, candidate=None):
    """The strictest threshold as a set union and a generator: the first way it was written."""
    levels = load.levels if candidate is None else load.levels | {candidate.criticality}
    return min((thresholds[c] for c in levels), default=1.0)


# thresholds past 1 included: the strictest of them is no lower than 1.0
@given(st.lists(st.sampled_from(list(Criticality)), max_size=4),
       st.one_of(st.none(), st.sampled_from(list(Criticality))),
       st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e9), st.just(math.inf), st.integers(0, 5)),
                min_size=3, max_size=3))
def test_threshold_equals_the_set_based_reference(hosted, candidate, values):
    thresholds = dict(zip(Criticality, values))
    load = GroupLoad(ResourceState(id="cpu0"), tasks=[make_task(f"t{i}", 1_000, 100, 100, crit=crit)
                                                      for i, crit in enumerate(hosted)])
    task = None if candidate is None else make_task("x", 1_000, 100, 100, crit=candidate)
    assert load.threshold(thresholds, task) == threshold_reference(load, thresholds, task)


def test_admits_tenth_task_exactly_at_edf_bound():
    tasks = [make_task(f"t{i}", 100_000, 10_000, 1_000) for i in range(10)]
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    verdict = admit(cpu, tasks[:9], tasks[9], threshold=1e-4)
    assert verdict.admitted
    assert verdict.buffer == 0.0
    assert verdict.reason == "ok"


def test_rejects_eleventh_task_past_edf_bound():
    tasks = [make_task(f"t{i}", 100_000, 10_000, 1_000) for i in range(11)]
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    verdict = admit(cpu, tasks[:10], tasks[10], threshold=1e-4)
    assert not verdict.admitted
    assert "utilization" in verdict.reason
    assert verdict.buffer == pytest.approx(-0.1)


def test_rm_bound_tighter_than_edf():
    tasks = [make_task(f"t{i}", 100_000, 30_000, 1_000) for i in range(3)]
    rm_cpu = ResourceState(id="cpu0", policy=Policy.RM, u_max=1.0)
    edf_cpu = ResourceState(id="cpu1", policy=Policy.EDF, u_max=1.0)
    rejected = admit(rm_cpu, tasks[:2], tasks[2], threshold=1e-4)
    admitted = admit(edf_cpu, tasks[:2], tasks[2], threshold=1e-4)
    assert not rejected.admitted
    assert rejected.bound_used == pytest.approx(rm_bound(3))
    assert admitted.admitted


def test_rm_pair_just_inside_and_outside_bound():
    inside = [make_task(f"a{i}", 100_000, 41_000, 1_000) for i in range(2)]
    outside = [make_task(f"b{i}", 100_000, 42_000, 1_000) for i in range(2)]
    rm_cpu = ResourceState(id="cpu0", policy=Policy.RM, u_max=1.0)
    assert admit(rm_cpu, inside[:1], inside[1], threshold=1e-4).admitted
    assert not admit(rm_cpu, outside[:1], outside[1], threshold=1e-4).admitted


def test_camera_pair_rejected_on_miss_probability():
    cam_a = make_task("cam_a", 125_000, 62_500, 56_250, sigma_us=6_250)
    cam_b = make_task("cam_b", 125_000, 62_500, 56_250, sigma_us=6_250)
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    verdict = admit(cpu, [cam_a], cam_b, threshold=0.05)
    assert not verdict.admitted
    assert "miss probability" in verdict.reason
    assert verdict.miss_prob == pytest.approx(0.0786, abs=1e-4)
    relaxed = admit(cpu, [cam_a], cam_b, threshold=0.1)
    assert relaxed.admitted


def test_fitted_runtimes_override_declared_model():
    cam_a = make_task("cam_a", 125_000, 62_500, 56_250, sigma_us=6_250)
    cam_b = make_task("cam_b", 125_000, 62_500, 56_250, sigma_us=6_250)
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    fitted = {
        "cam_a": NormalParams(56_250.0, 2_000.0),
        "cam_b": NormalParams(56_250.0, 2_000.0),
    }
    verdict = admit(cpu, [cam_a], cam_b, threshold=0.05, fitted=fitted)
    assert verdict.admitted
    assert verdict.miss_prob < 1e-4


def test_rejects_candidate_already_hosted():
    t = make_task("t0", 100_000, 10_000, 1_000)
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    with pytest.raises(ValueError, match="already hosted"):
        admit(cpu, [t], t, threshold=1e-4)


@st.composite
def admission_groups(draw):
    n = draw(st.integers(2, 6))
    tasks = []
    fitted = {}
    for i in range(n):
        period = draw(st.sampled_from([10_000, 20_000, 50_000, 100_000]))
        budget = period // (n + 1)
        mu = budget * draw(st.floats(0.05, 1.0))
        sigma = mu * draw(st.floats(0.0, 0.2))
        tasks.append(make_task(f"t{i}", period, budget, budget))
        fitted[f"t{i}"] = NormalParams(mu, sigma)
    return tasks, fitted


@given(admission_groups(), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
def test_raising_threshold_never_revokes_admission(group, ta, tb):
    tasks, fitted = group
    lo, hi = sorted([ta, tb])
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    at_lo = admit(cpu, tasks[:-1], tasks[-1], threshold=lo, fitted=fitted)
    at_hi = admit(cpu, tasks[:-1], tasks[-1], threshold=hi, fitted=fitted)
    if at_lo.admitted:
        assert at_hi.admitted


@given(admission_groups(), st.floats(1e-6, 1.0), st.integers(0, 4))
def test_removing_a_hosted_task_never_revokes_admission(group, threshold, drop):
    tasks, fitted = group
    cpu = ResourceState(id="cpu0", policy=Policy.EDF, u_max=1.0)
    full = admit(cpu, tasks[:-1], tasks[-1], threshold=threshold, fitted=fitted)
    if not full.admitted:
        return
    hosted = list(tasks[:-1])
    del hosted[drop % len(hosted)]
    reduced = admit(cpu, hosted, tasks[-1], threshold=threshold, fitted=fitted)
    assert reduced.admitted
    assert reduced.miss_prob <= full.miss_prob + 1e-15


@given(admission_groups(), st.sampled_from(list(Policy)), st.sampled_from([1.0, 0.9, 0.69]),
       st.floats(1e-6, 1.0), st.data())
def test_group_load_verdict_ignores_task_order_and_equals_admit(group, policy, u_max, threshold, data):
    tasks, fitted = group
    cpu = ResourceState(id="cpu0", policy=policy, u_max=u_max)
    expected = admit(cpu, tasks[:-1], tasks[-1], threshold=threshold, fitted=fitted)
    shuffled = data.draw(st.permutations(tasks))
    assert GroupLoad(cpu, fitted, shuffled).verdict(threshold) == expected
    grown = GroupLoad(cpu, fitted, shuffled[:-1])
    every_level = dict.fromkeys(Criticality, threshold)
    assert grown.try_add(shuffled[-1], every_level, load_terms(shuffled[-1], fitted)) == expected.admitted
    assert grown.tasks == (shuffled if expected.admitted else shuffled[:-1])
    assert_same_as_rebuilt(grown, every_level, threshold)


@st.composite
def group_histories(draw):
    """A CPU, thresholds per level, fits for some tasks, and a sequence of (task, add or try_add)."""
    cpu = ResourceState(id="cpu0", policy=draw(st.sampled_from(list(Policy))),
                        u_max=draw(st.sampled_from([1.0, 0.9, 0.69])))
    # distinct per level, so a level left behind by a rejected task changes the group's threshold
    thresholds = dict(zip(Criticality, draw(st.permutations([1e-4, 1e-2, 0.5]))))
    fitted = {}
    steps = []
    for i in range(draw(st.integers(1, 10))):
        period = draw(st.sampled_from([10_000, 20_000, 50_000, 100_000]))
        budget = draw(st.integers(period // 50, period // 2))
        task = make_task(f"t{i}", period, budget, budget, sigma_us=budget // 10,
                         crit=draw(st.sampled_from(list(Criticality))))
        if draw(st.booleans()):
            mu = budget * draw(st.floats(0.05, 1.5))
            fitted[task.id] = NormalParams(mu, mu * draw(st.floats(0.0, 0.3)))
        steps.append((task, draw(st.sampled_from(["add", "try_add", "try_add"]))))
    return cpu, thresholds, fitted, steps


@given(group_histories(), st.floats(1e-6, 1.0))
def test_group_load_after_adds_and_tries_equals_a_rebuilt_group(history, threshold):
    cpu, thresholds, fitted, steps = history
    load = GroupLoad(cpu, fitted)
    for task, step in steps:
        if step == "add":
            load.add(task)
        else:
            hosted = list(load.tasks)
            strictest = min(thresholds[t.criticality] for t in hosted + [task])
            expected = admit(cpu, hosted, task, strictest, fitted).admitted
            assert load.try_add(task, thresholds, load_terms(task, fitted)) == expected
            assert load.tasks == (hosted + [task] if expected else hosted)
        assert_same_as_rebuilt(load, thresholds, threshold)
