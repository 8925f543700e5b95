"""Normal-distribution arithmetic behind admission control and runtime fitting.

The deadline-miss estimate treats per-task runtimes as independent normals.
Scaled by each task's period they add in utilization space: means add, and
variances add, so the group utilization is again normal.  The miss
probability is the upper tail of that normal beyond the CPU's utilization
ceiling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erfc

from .model import TaskSpec

_SQRT2 = math.sqrt(2.0)
# float64 machine epsilon, twice the unit roundoff
ULP = 2.0 ** -52
# scipy's erfc agrees with math.erfc to ~6e-14 relative above 1e-300 and only
# absolutely below it, so vectorized tails are widened by both margins
_TAIL_REL = 1e-6
_TAIL_ABS = 1e-300

# KS distance above which a single normal does not describe a sample stream (e.g. bimodal data)
GOODNESS_POOR = 0.1


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of a normal distribution."""

    mu: float
    sigma: float


def joint_utilization(models: Sequence[tuple[NormalParams, int]]) -> NormalParams:
    """Combine per-task runtime normals into one utilization-space normal.

    Each entry is ``(runtime_params_us, period_us)``.  Means add as mu/period;
    variances add as (sigma/period)^2.  Order never matters (exact summation).
    """
    if not models:
        raise ValueError("no tasks")
    mu = math.fsum(m.mu / period for m, period in models)
    var = math.fsum((m.sigma / period) ** 2 for m, period in models)
    return NormalParams(mu, math.sqrt(var))


def miss_probability(joint: NormalParams, u_max: float) -> float:
    """P(group utilization > u_max) for a normal group utilization.

    Degenerate case sigma == 0: 0 if the deterministic load fits, else 1.
    """
    if joint.sigma == 0.0:
        return 0.0 if joint.mu <= u_max else 1.0
    # upper tail 1 - Phi(z) computed directly from erfc to keep precision for z >> 0
    z = (u_max - joint.mu) / joint.sigma
    return 0.5 * math.erfc(z / _SQRT2)


def miss_probability_bounds(
    mu: np.ndarray, mu_err: np.ndarray, var: np.ndarray, var_err: np.ndarray, u_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bounds on ``miss_probability`` for many groups at once.

    ``mu`` and ``var`` approximate each group's utilization mean and variance
    to within ``mu_err`` and ``var_err`` of the sums ``joint_utilization``
    returns.  The bounds hold for every mean and variance in those ranges,
    allow for rounding in the square root and quotient, and are widened for
    the difference between scipy's and math's erfc.  A group with variance
    exactly 0 gets 0 or 1, or [0, 1] when its mean is within error of u_max.
    """
    det = var == 0.0
    s_lo = np.where(det, 1.0, np.sqrt(var - var_err) * (1.0 - 8 * ULP))
    s_hi = np.where(det, 1.0, np.sqrt(var + var_err) * (1.0 + 8 * ULP))
    gap_lo = u_max - (mu + mu_err)
    gap_hi = u_max - (mu - mu_err)
    z_lo = np.minimum(gap_lo / s_lo, gap_lo / s_hi)
    z_hi = np.maximum(gap_hi / s_lo, gap_hi / s_hi)
    z_lo -= 8 * ULP * np.abs(z_lo)
    z_hi += 8 * ULP * np.abs(z_hi)
    p_lo = np.maximum(0.5 * erfc(z_hi / _SQRT2) * (1.0 - _TAIL_REL) - _TAIL_ABS, 0.0)
    p_hi = np.minimum(0.5 * erfc(z_lo / _SQRT2) * (1.0 + _TAIL_REL) + _TAIL_ABS, 1.0)
    p_lo = np.where(det, (gap_hi < 0.0).astype(float), p_lo)
    p_hi = np.where(det, (gap_lo < 0.0).astype(float), p_hi)
    return p_lo, p_hi


def buffer(tasks: Iterable[TaskSpec]) -> float:
    """Unreserved CPU fraction: 1 - sum(budget/period).  Negative when oversubscribed."""
    return 1.0 - math.fsum(t.budget_us / t.period_us for t in tasks)


def ks_statistic(samples: Sequence[float], params: NormalParams) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and N(mu, sigma).

    For a degenerate fit (sigma == 0, constant stream) the distance is
    defined as 0.
    """
    if params.sigma == 0.0:
        return 0.0
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    # vectorized Phi((x - mu) / sigma)
    cdf = 0.5 * erfc(-(xs - params.mu) / (params.sigma * _SQRT2))
    steps = np.arange(1, n + 1) / n
    d_plus = np.max(steps - cdf)
    d_minus = np.max(cdf - (steps - 1 / n))
    return float(max(d_plus, d_minus))


def fit_normal(samples: Sequence[float]) -> NormalParams:
    """Sample mean and unbiased standard deviation.

    A constant stream (one sample included) fits exactly, with sigma 0.
    """
    xs = np.asarray(samples, dtype=np.float64)
    if xs.min() == xs.max():
        return NormalParams(float(xs[0]), 0.0)
    return NormalParams(float(xs.mean()), float(xs.std(ddof=1)))


@dataclass
class StreamingFit:
    """Runtime samples collected one at a time and fitted with ``fit_normal``.

    Samples are retained so ``to_normal`` can score the fit with a KS
    statistic; memory grows linearly with the stream (fine for analysis runs,
    the orchestrator refits over bounded windows instead).
    """

    _samples: list[float] = field(default_factory=list, repr=False)

    def update(self, sample: float) -> None:
        self._samples.append(float(sample))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return fit_normal(self._samples).mu

    @property
    def stddev(self) -> float:
        return fit_normal(self._samples).sigma

    def to_normal(self, min_count: int = 30) -> tuple[NormalParams, float]:
        """Fitted NormalParams plus KS goodness-of-fit (smaller is better)."""
        if self.count < min_count:
            raise ValueError("insufficient samples")
        params = fit_normal(self._samples)
        return params, ks_statistic(self._samples, params)
