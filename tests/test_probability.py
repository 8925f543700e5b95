import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rtorch.model import ExecModel, TaskSpec
from rtorch.probability import (
    NormalParams,
    StreamingFit,
    buffer,
    fit_tasks,
    joint_utilization,
    ks_statistic,
    ULP,
    breach_cutoffs,
    miss_probability,
    tail_bounds,
    tail_z_bounds,
)

from oracles import (
    fit_normal_reference,
    ks_statistic_reference,
    mc_group_miss_fraction,
    phi_simpson,
    two_pass_stats,
)


def make_task(tid, period, budget):
    return TaskSpec(
        id=tid, period_us=period, budget_us=budget,
        exec_model=ExecModel(mu_us=budget, sigma_us=0, cutoff_lo_us=budget, wcet_us=budget),
    )


def upper_tail(x):
    """1 - Phi(x): the miss probability of a standard normal load against a ceiling of x."""
    return miss_probability(NormalParams(0.0, 1.0), x)


def test_cdf_matches_quadrature_oracle():
    for x in [-6.0, -3.0, -1.0, -0.5, 0.0, 0.3, 1.0, 1.41421, 2.5, 4.0, 6.0]:
        assert upper_tail(x) == pytest.approx(1.0 - phi_simpson(x), abs=1e-9)


def test_cdf_reference_points():
    assert upper_tail(0.0) == pytest.approx(0.5, abs=1e-12)
    # value computed with the quadrature oracle above
    assert upper_tail(1.41421) == pytest.approx(1.0 - 0.92135, abs=5e-6)
    assert upper_tail(-8.0) > 1.0 - 1e-14
    assert upper_tail(8.0) < 1e-14


def test_joint_of_camera_pair():
    params = NormalParams(56250.0, 6250.0)
    joint = joint_utilization([(params, 125000), (params, 125000)])
    assert joint.mu == pytest.approx(0.9, abs=1e-12)
    assert joint.sigma == pytest.approx(0.070711, abs=1e-6)
    assert miss_probability(joint, 1.0) == pytest.approx(0.0786, abs=1e-4)


def test_joint_camera_pair_against_monte_carlo():
    p_hat, se = mc_group_miss_fraction(
        [56250.0, 56250.0], [6250.0, 6250.0], [125000.0, 125000.0],
        u_max=1.0, draws=1_000_000, seed=20260822,
    )
    joint = joint_utilization([(NormalParams(56250.0, 6250.0), 125000)] * 2)
    assert abs(miss_probability(joint, 1.0) - p_hat) <= 3 * se


def test_joint_empty_rejected():
    with pytest.raises(ValueError, match="no tasks"):
        joint_utilization([])


def test_degenerate_miss_probability():
    assert miss_probability(NormalParams(0.8, 0.0), 1.0) == 0.0
    assert miss_probability(NormalParams(1.0, 0.0), 1.0) == 0.0
    assert miss_probability(NormalParams(1.2, 0.0), 1.0) == 1.0


@given(
    mu=st.floats(-10.0, 10.0),
    # 0, subnormals, and spreads small enough that |z| passes 40
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0 ** -1022), st.floats(0.0, 1e-3), st.floats(0.0, 10.0)),
    u_max=st.floats(0.01, 1.0),
)
@example(mu=0.5, sigma=0.0, u_max=0.7)
@example(mu=0.7, sigma=0.0, u_max=0.7)
@example(mu=0.9, sigma=0.0, u_max=0.7)
@example(mu=0.7, sigma=5e-324, u_max=0.7)
@example(mu=0.9, sigma=5e-324, u_max=0.7)
@example(mu=0.0, sigma=0.01, u_max=0.5)  # z = 50
@example(mu=1.0, sigma=0.01, u_max=0.5)  # z = -50
def test_miss_probability_reads_a_plain_pair_bit_for_bit_as_normal_params(mu, sigma, u_max):
    """``GroupLoad.miss_prob`` passes a plain ``(mu, sigma)`` pair; it must get a record's bits,
    and those of the tail written out from the record's fields."""
    joint = NormalParams(mu, sigma)
    if joint.sigma == 0.0:
        written = 0.0 if joint.mu <= u_max else 1.0
    else:
        written = 0.5 * math.erfc((u_max - joint.mu) / joint.sigma / math.sqrt(2.0))
    assert miss_probability((mu, sigma), u_max).hex() == miss_probability(joint, u_max).hex() == written.hex()


@given(
    mu=st.floats(0.1, 0.95),
    sigma=st.floats(0.001, 0.3),
    u_lo=st.floats(0.2, 1.0),
    delta=st.floats(0.001, 0.5),
)
def test_miss_probability_monotone_in_u_max(mu, sigma, u_lo, delta):
    joint = NormalParams(mu, sigma)
    assert miss_probability(joint, u_lo + delta) <= miss_probability(joint, u_lo)


@given(
    mu=st.floats(0.1, 0.9),
    sigma_lo=st.floats(0.001, 0.2),
    delta=st.floats(0.0, 0.3),
)
def test_miss_probability_grows_with_sigma_below_ceiling(mu, sigma_lo, delta):
    # with the mean under the ceiling, more spread can only push mass past it
    lo = miss_probability(NormalParams(mu, sigma_lo), 1.0)
    hi = miss_probability(NormalParams(mu, sigma_lo + delta), 1.0)
    assert hi >= lo - 1e-15


def test_buffer_exactness_and_sign():
    tasks = [make_task(f"t{i}", 100_000, 10_000) for i in range(10)]
    assert buffer([]) == 1.0
    for n in range(11):
        assert buffer(tasks[:n]) == 1.0 - 0.1 * n
    eleven = tasks + [make_task("t10", 100_000, 10_000)]
    assert buffer(eleven) < 0.0


@given(st.lists(st.tuples(st.integers(1_000, 1_000_000), st.integers(1, 1_000)), min_size=0, max_size=12))
def test_buffer_additivity(pairs):
    tasks = [make_task(f"t{i}", period, max(1, period * frac // 1000)) for i, (period, frac) in enumerate(pairs)]
    half = len(tasks) // 2
    left, right = tasks[:half], tasks[half:]
    assert buffer(tasks) == pytest.approx(buffer(left) + buffer(right) - 1.0, abs=1e-12)


@given(st.permutations(list(range(8))))
def test_joint_permutation_invariant(order):
    models = [
        (NormalParams(1000.0 + 37 * i, 10.0 + 3 * i), 10_000 + 1_000 * i)
        for i in range(8)
    ]
    base = joint_utilization(models)
    shuffled = joint_utilization([models[i] for i in order])
    assert shuffled.mu == base.mu
    assert shuffled.sigma == base.sigma


@pytest.mark.parametrize("samples", [
    np.maximum(np.random.default_rng(7).normal(10_000, 50, 100_000), 9_900).tolist(),
    np.random.default_rng(8).integers(9_000, 11_000, 5_000).tolist(),
    [12_345],
    [3.0, 5.0],
    [42] * 50,
    [0.1] * 1_000,
], ids=["float", "int", "n1", "n2", "constant_int", "constant_float"])
def test_fit_normal_matches_two_pass(samples):
    fit = fit_tasks({0: samples})[0][0]
    mean, var = two_pass_stats(samples)
    assert fit.mu == pytest.approx(mean, rel=1e-12)
    assert fit.sigma ** 2 == pytest.approx(var, rel=1e-12, abs=1e-24)
    assert min(samples) <= fit.mu <= max(samples)
    if len(set(samples)) == 1:
        assert fit.sigma == 0.0


def test_streaming_fit_matches_two_pass():
    rng = np.random.default_rng(7)
    samples = np.maximum(rng.normal(10_000, 50, 100_000), 9_900)
    fit = StreamingFit()
    for x in samples:
        fit.update(float(x))
    mean, var = two_pass_stats(samples.tolist())
    assert fit.mean == pytest.approx(mean, rel=1e-9)
    assert fit.stddev == pytest.approx(math.sqrt(var), rel=1e-9)
    assert fit.count == 100_000


def test_streaming_fit_order_insensitive_mean():
    rng = random.Random(3)
    samples = [rng.gauss(500.0, 40.0) for _ in range(5_000)]
    fits = []
    for ordering in (samples, sorted(samples), sorted(samples, reverse=True)):
        fit = StreamingFit()
        for x in ordering:
            fit.update(x)
        fits.append(fit.mean)
    assert fits[1] == pytest.approx(fits[0], rel=1e-9)
    assert fits[2] == pytest.approx(fits[0], rel=1e-9)


@pytest.mark.parametrize("samples", [
    np.random.default_rng(9).normal(700.0, 30.0, 500).tolist(),
    [3, 1, 3, 2, 1, 1, 3] * 5,
    [42.0] * 40,
], ids=["float", "ties", "constant"])
def test_streaming_fit_is_fit_tasks_bit_for_bit(samples):
    fit = StreamingFit()
    for x in samples:
        fit.update(x)
    params, distance = fit_tasks({0: samples}, score=True)[0]
    assert (fit.mean, fit.stddev) == (params.mu, params.sigma)
    assert fit.to_normal() == (params, distance)


def test_fit_insufficient_samples():
    fit = StreamingFit()
    for x in range(29):
        fit.update(float(x))
    with pytest.raises(ValueError, match="insufficient samples"):
        fit.to_normal()


def test_fit_goodness_separates_normal_from_bimodal():
    rng = np.random.default_rng(11)
    normal_fit = StreamingFit()
    for x in rng.normal(10_000, 50, 100_000):
        normal_fit.update(float(x))
    _, goodness = normal_fit.to_normal()
    assert goodness < 0.02

    bimodal_fit = StreamingFit()
    modes = rng.random(20_000) < 0.5
    xs = np.where(modes, rng.normal(1_000, 50, 20_000), rng.normal(1_500, 50, 20_000))
    for x in xs:
        bimodal_fit.update(float(x))
    _, goodness = bimodal_fit.to_normal()
    assert goodness > 0.1


def test_fit_constant_stream_is_degenerate():
    fit = StreamingFit()
    for _ in range(50):
        fit.update(42.0)
    params, goodness = fit.to_normal()
    assert params.sigma == 0.0
    assert goodness == 0.0


def test_ks_statistic_perfect_fit_small():
    rng = np.random.default_rng(5)
    xs = rng.normal(0.0, 1.0, 50_000)
    d = ks_statistic([xs], [NormalParams(0.0, 1.0)])[0]
    # expected O(1/sqrt(n))
    assert d < 0.01


@st.composite
def near_boundary_groups(draw):
    """Runtime normals whose utilization mean can sit on u_max with a sigma far below it."""
    n = draw(st.integers(1, 12))
    models = []
    for _ in range(n):
        period = draw(st.sampled_from([7, 10, 30_000, 125_000]))
        mu = draw(st.floats(0.0, period * 0.3))
        sigma = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0])) * period * draw(st.floats(0.0, 0.2))
        models.append((NormalParams(mu, sigma), period))
    return models


@given(near_boundary_groups(), st.floats(0.05, 1.0), st.booleans())
def test_tail_z_bounds_contain_the_exact_tail(models, u_max, on_boundary):
    mu_terms = [m.mu / period for m, period in models]
    var_terms = [(m.sigma / period) ** 2 for m, period in models]
    mu = var = 0.0
    for a, b in zip(reversed(mu_terms), reversed(var_terms)):  # recursive sums, another order
        mu += a
        var += b
    if on_boundary:
        u_max = mu
    slack = (len(models) + 4) * ULP
    z_hi = tail_z_bounds(np.array([mu]), np.array([slack * math.fsum(mu_terms)]),
                         np.array([var]), np.array([slack * var]), np.array([u_max]))
    joint = joint_utilization(models)
    exact = miss_probability(joint, u_max)
    if joint.sigma > 0.0:
        assert (u_max - joint.mu) / joint.sigma <= z_hi[0]
    assert tail_bounds(z_hi)[0] <= exact


def test_tail_bounds_are_exact_at_infinite_z():
    assert tail_bounds(np.array([-np.inf, np.inf])).tolist() == [1.0, 0.0]


def test_tail_bounds_take_one_tail_per_distinct_end(monkeypatch):
    calls = []
    erfc = math.erfc
    monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
    lo = tail_bounds(np.array([1.0, 1.0, 2.0, 1.0, 3.0]))
    assert len(calls) == 3
    assert lo.tolist() == [lo[0], lo[0], lo[2], lo[0], lo[4]] and lo[4] < lo[2] < lo[0]


def phi_quantile_bisect(p: float) -> float:
    """x with Phi(x) = p, by bisection of math.erfc (enough for a 1e-5 check)."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("threshold", [0.0, 1e-300, 1e-12, 1e-4, 1e-2, 0.05, 0.5, 0.9999995, 1.0])
def test_breach_cutoffs_separate_breaches_from_clear_groups(threshold):
    sure = breach_cutoffs(threshold)
    if threshold >= 1.0:
        assert sure == -math.inf
        return
    if math.isfinite(sure):
        for z in (sure, math.nextafter(sure, -math.inf), sure - 1e-9, sure - 1.0):
            assert miss_probability(NormalParams(-z, 1.0), 0.0) > threshold
    # the cutoff sits where the tail crosses the threshold, not somewhere safe but loose
    if 1e-290 < threshold < 0.999:
        crossing = -phi_quantile_bisect(threshold)
        assert crossing - 1e-5 < sure < crossing + 1e-5


def test_breach_cutoffs_are_cached():
    breach_cutoffs.cache_clear()
    breach_cutoffs(1e-4)
    breach_cutoffs(1e-4)
    assert breach_cutoffs.cache_info().hits == 1


@given(st.lists(st.integers(0, 12), min_size=1, max_size=400), st.floats(-5.0, 20.0),
       st.floats(0.05, 10.0))
def test_ks_statistic_matches_per_element_reference_on_ties(samples, mu, sigma):
    params = NormalParams(mu, sigma)
    assert abs(ks_statistic([samples], [params])[0] - ks_statistic_reference(samples, params)) <= 1e-15


def test_ks_statistic_takes_one_tail_per_distinct_value(monkeypatch):
    calls = []
    erfc = math.erfc
    monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
    ks_statistic([[3, 1, 3, 2, 1, 1, 3]], [NormalParams(2.0, 1.0)])
    assert len(calls) == 3


def test_ks_statistic_of_stacked_rows_takes_one_tail_per_distinct_value_per_row(monkeypatch):
    rows = [[3, 1, 3, 2, 1, 1, 3], [5, 5, 6, 7, 7, 7, 8], [4, 4, 4, 4, 4, 4, 4]]
    fits = [NormalParams(2.0, 1.0), NormalParams(6.0, 1.0), NormalParams(4.0, 0.0)]
    calls = []
    erfc = math.erfc
    monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
    distances = ks_statistic(rows, fits)
    assert len(calls) == 3 + 4  # the constant row's distance is 0 by definition
    monkeypatch.undo()
    assert distances == [ks_statistic([row], [fit])[0] for row, fit in zip(rows, fits)]


@st.composite
def task_rows(draw):
    """One task's samples: ties, spread floats or a constant stream, of a length many tasks share."""
    n = draw(st.sampled_from([1, 2, 3, 7, 30]))
    kind = draw(st.sampled_from(["ties", "floats", "constant"]))
    if kind == "ties":
        return draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    if kind == "floats":
        return draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return [draw(st.integers(-(2**53), 2**53))] * n


@given(st.lists(task_rows(), min_size=1, max_size=10))
def test_fit_tasks_gives_each_task_the_fit_and_distance_of_its_row_alone(rows):
    samples = {f"t{i}": row for i, row in enumerate(rows)}
    scored = fit_tasks(samples, score=True)
    assert list(scored) == list(samples)
    for tid, row in samples.items():
        fit, distance = scored[tid]
        assert fit == fit_tasks({0: row})[0][0] == NormalParams(*fit_normal_reference(row))
        assert distance == ks_statistic([row], [fit])[0]
        if fit.sigma == 0.0:
            assert distance == 0.0
        else:
            assert abs(distance - ks_statistic_reference(row, fit)) <= 1e-15
    unscored = fit_tasks(samples)
    assert [fit for fit, _ in unscored.values()] == [fit for fit, _ in scored.values()]
    assert all(math.isnan(distance) for _, distance in unscored.values())
