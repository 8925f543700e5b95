"""Normal-distribution arithmetic behind admission control and runtime fitting.

The deadline-miss estimate treats per-task runtimes as independent normals.
Scaled by each task's period they add in utilization space: means add, and
variances add, so the group utilization is again normal.  The miss
probability is the upper tail of that normal beyond the CPU's utilization
ceiling.

Every tail is ``math.erfc``, scalar or mapped over an array, so no command
loads SciPy.  Vectorized callers work in z space (the standardized gap
between mean and ceiling) and call ``erfc`` only where the value matters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import TaskSpec, utilization

_SQRT2 = math.sqrt(2.0)
# float64 machine epsilon, twice the unit roundoff
ULP = 2.0 ** -52
# widening of a tail bound taken at the end of a z interval: the computed tail
# 0.5 * math.erfc(z / sqrt 2) is monotone only up to its rounding, a few ulps
# relative in normal range and absolute in the subnormal range below 1e-300
_TAIL_REL = 1e-6
_TAIL_ABS = 1e-300
# math.erfc(z / sqrt 2) is exactly 2 below -_Z_SPAN and exactly 0 above it
_Z_SPAN = 40.0

# fewest runtime samples a normal is fitted to, at runtime and by analyze
MIN_FIT_SAMPLES = 30
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


def tail_z_bounds(
    mu: np.ndarray, mu_err: np.ndarray, var: np.ndarray, var_err: np.ndarray, u_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bounds on the z that ``miss_probability`` computes for many groups.

    ``mu`` and ``var`` approximate each group's utilization mean and variance
    to within ``mu_err`` and ``var_err`` of the sums ``joint_utilization``
    returns.  The bounds hold for every mean and variance in those ranges and
    allow for rounding in the square root and quotient.  A group with
    variance exactly 0 has no z: it gets -inf where its load exceeds u_max,
    +inf where it fits and [-inf, +inf] when its mean is within error of
    u_max, so the tail at either end is its 1 or 0.
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
    z_lo = np.where(det, np.where(gap_lo < 0.0, -np.inf, np.inf), z_lo)
    z_hi = np.where(det, np.where(gap_hi < 0.0, -np.inf, np.inf), z_hi)
    return z_lo, z_hi


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise (about 0.1 us a value, so callers keep arrays short)."""
    return np.fromiter(map(math.erfc, x.tolist()), float, x.size)


def _widen(tail):
    """Bounds on the computed tail anywhere past the z it was taken at: (for z' <= z, for z' >= z)."""
    return (np.maximum(tail * (1.0 - _TAIL_REL) - _TAIL_ABS, 0.0),
            np.minimum(tail * (1.0 + _TAIL_REL) + _TAIL_ABS, 1.0))


def tail_bounds(z_lo: np.ndarray, z_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bounds on ``miss_probability``'s tail at every z in [z_lo, z_hi].

    The tail falls as z grows, so the bounds are the tails at ``z_hi`` and
    ``z_lo``, widened for rounding; -inf and +inf give exactly 1 and 0.
    ``erfc`` runs once per distinct end point: samples often repeat a group.
    """
    n = z_hi.size
    distinct, index = np.unique(np.concatenate([z_hi, z_lo]), return_inverse=True)
    lo, hi = _widen((0.5 * _erfc(distinct / _SQRT2))[index])
    return np.where(z_hi == -np.inf, 1.0, lo[:n]), np.where(z_lo == np.inf, 0.0, hi[n:])


@functools.lru_cache(maxsize=256)
def breach_cutoffs(threshold: float) -> tuple[float, float]:
    """z cutoffs ``(sure, clear)`` for ``miss_probability(...) > threshold``.

    Every group whose z is below ``sure`` breaches the threshold, and no
    group whose z is at least ``clear`` does.  A probability never exceeds
    1, so a threshold of 1 or more gets -inf for both.
    """
    if threshold >= 1.0:
        return -math.inf, -math.inf
    sure = _last_true(lambda z: _widen(0.5 * math.erfc(z / _SQRT2))[0] > threshold)[0]
    clear = _last_true(lambda z: _widen(0.5 * math.erfc(z / _SQRT2))[1] > threshold)[1]
    return sure, clear


def _last_true(pred) -> tuple[float, float]:
    """Adjacent ``(a, b)`` with ``pred(a)`` true and ``pred(b)`` false, by bisection.

    Beyond +-_Z_SPAN the tail is constant, so a predicate false at -_Z_SPAN
    gives ``a`` = -inf and one true at +_Z_SPAN gives ``b`` = +inf.
    """
    a, b = -_Z_SPAN, _Z_SPAN
    if not pred(a):
        return -math.inf, a
    if pred(b):
        return b, math.inf
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return a, b
        if pred(mid):
            a = mid
        else:
            b = mid


def buffer(tasks: Iterable[TaskSpec]) -> float:
    """Unreserved CPU fraction: 1 - sum(budget/period).  Negative when oversubscribed."""
    return 1.0 - math.fsum(utilization(t) for t in tasks)


def ks_statistic(samples: Sequence[float], params: NormalParams) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and N(mu, sigma).

    For a degenerate fit (sigma == 0, constant stream) the distance is
    defined as 0.
    """
    if params.sigma == 0.0:
        return 0.0
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    # tied samples share one CDF value, so Phi((x - mu) / sigma) is taken once
    # per run of ties: D+ peaks at a run's last index and D- at its first
    last = np.flatnonzero(np.append(xs[1:] != xs[:-1], True))
    first = np.append(0, last[:-1] + 1)
    cdf = 0.5 * _erfc(-(xs[last] - params.mu) / (params.sigma * _SQRT2))
    steps = np.arange(1, n + 1) / n
    d_plus = np.max(steps[last] - cdf)
    d_minus = np.max(cdf - (steps[first] - 1 / n))
    return float(max(d_plus, d_minus))


def fit_normal(samples: Sequence[float]) -> NormalParams:
    """Sample mean and unbiased standard deviation.

    A constant stream (one sample included) fits exactly, with sigma 0.
    """
    return fit_normals([samples])[0]


def fit_normals(rows: Sequence[Sequence[float]]) -> list[NormalParams]:
    """``fit_normal`` of each row, one NumPy reduction per statistic for all rows.

    The rows must share one length.  Each row reduces along its own contiguous
    axis, so a row fits to the same bits alone or stacked with others.
    """
    xs = np.asarray(rows, dtype=np.float64)
    constant = (xs.min(axis=1) == xs.max(axis=1)).tolist()  # an empty row raises here
    firsts = xs[:, 0].tolist()
    if all(constant):  # also every one-sample row, whose ddof=1 spread is undefined
        return [NormalParams(first, 0.0) for first in firsts]
    mus = xs.mean(axis=1).tolist()
    sigmas = xs.std(axis=1, ddof=1).tolist()
    return [NormalParams(first, 0.0) if same else NormalParams(mu, sigma)
            for first, same, mu, sigma in zip(firsts, constant, mus, sigmas)]


@dataclass
class StreamingFit:
    """Runtime samples, given at once or added one at a time, fitted with ``fit_normal``.

    Samples are retained so ``to_normal`` can score the fit with a KS
    statistic; memory grows linearly with the stream (fine for analysis runs,
    the orchestrator refits over bounded windows instead).
    """

    samples: list[float] = field(default_factory=list, repr=False)

    def update(self, sample: float) -> None:
        self.samples.append(float(sample))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return fit_normal(self.samples).mu

    @property
    def stddev(self) -> float:
        return fit_normal(self.samples).sigma

    def to_normal(self) -> tuple[NormalParams, float]:
        """Fitted NormalParams plus KS goodness-of-fit (smaller is better)."""
        if self.count < MIN_FIT_SAMPLES:
            raise ValueError("insufficient samples")
        params = fit_normal(self.samples)
        return params, ks_statistic(self.samples, params)
