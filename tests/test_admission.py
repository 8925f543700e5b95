import math

import pytest
from hypothesis import given, strategies as st

from oracles import rm_bound_exact
from rtorch.admission import admit, edf_bound, rm_bound
from rtorch.model import ExecModel, Policy, ResourceState, TaskSpec
from rtorch.probability import NormalParams


def make_task(tid, period_us, budget_us, mu_us, sigma_us=0):
    model = ExecModel(mu_us=mu_us, sigma_us=sigma_us, cutoff_lo_us=0, wcet_us=period_us)
    return TaskSpec(id=tid, period_us=period_us, budget_us=budget_us, exec_model=model)


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
    with pytest.raises(ValueError):
        rm_bound(0)


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
