"""Independent reference implementations the test suite checks against.

Each routine deliberately uses a different method than the library: numeric
quadrature instead of erfc, Monte Carlo instead of closed-form tails,
two-pass statistics instead of streaming updates, arbitrary precision
instead of float exponentials.
"""
from __future__ import annotations

import math

import numpy as np


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
    """First fit that re-derives the whole group for ``admit`` at every (task, CPU) pair."""
    from rtorch.admission import admit
    from rtorch.orchestration import InfeasibleError, group_threshold

    placed = {r.id: [] for r in resources}
    assignments: dict[str, str] = {}
    order = sorted(tasks, key=lambda t: (-(t.budget_us / t.period_us), t.id))
    for task in order:
        for res in resources:
            hosted = placed[res.id]
            thr = group_threshold(hosted + [task], thresholds)
            if admit(res, hosted, task, thr, fits).admitted:
                hosted.append(task)
                assignments[task.id] = res.id
                break
        else:
            raise InfeasibleError(task.id, f"task '{task.id}' admits on no resource")
    return assignments
