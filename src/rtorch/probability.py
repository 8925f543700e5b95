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
from typing import Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .model import TaskSpec, utilization

K = TypeVar("K")

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


class NormalParams(NamedTuple):
    """Mean and standard deviation of a normal distribution.

    A named pair: ``miss_probability`` and ``admission.load_terms`` unpack it,
    so they also accept a plain ``(mu, sigma)`` pair.
    """

    mu: float
    sigma: float


def joint_utilization(models: Sequence[tuple[NormalParams, int]]) -> NormalParams:
    """Combine per-task runtime normals into one utilization-space normal.

    Each entry is ``(runtime normal in us, period_us)``.  Means add as mu/period;
    variances add as (sigma/period)^2.  Order never matters (exact summation).
    """
    if not models:
        raise ValueError("no tasks")
    mu = math.fsum(m.mu / period for m, period in models)
    var = math.fsum((m.sigma / period) ** 2 for m, period in models)
    return NormalParams(mu, math.sqrt(var))


def miss_probability(joint: tuple[float, float], u_max: float) -> float:
    """P(group utilization > u_max) for a normal group utilization.

    ``joint`` is its ``NormalParams`` or a plain ``(mu, sigma)`` pair.
    Degenerate case sigma == 0: 0 if the deterministic load fits, else 1.
    """
    mu, sigma = joint
    if sigma == 0.0:
        return 0.0 if mu <= u_max else 1.0
    # upper tail 1 - Phi(z) computed directly from erfc to keep precision for z >> 0
    z = (u_max - mu) / sigma
    return 0.5 * math.erfc(z / _SQRT2)


def tail_z_bounds(
    mu: np.ndarray, mu_err: np.ndarray, var: np.ndarray, var_err: np.ndarray, u_max: np.ndarray
) -> np.ndarray:
    """Elementwise upper bound on the z that ``miss_probability`` computes for many groups.

    ``mu`` and ``var`` approximate each group's utilization mean and variance
    to within ``mu_err`` and ``var_err`` of the sums ``joint_utilization``
    returns.  The bound holds for every mean and variance in those ranges and
    allows for rounding in the square root and quotient.  A group with
    variance exactly 0 has no z: it gets -inf where its load surely exceeds
    u_max and +inf otherwise, so the tail there is its 1 or at least 0.
    """
    det = var == 0.0
    s_lo = np.where(det, 1.0, np.sqrt(var - var_err) * (1.0 - 8 * ULP))
    s_hi = np.where(det, 1.0, np.sqrt(var + var_err) * (1.0 + 8 * ULP))
    gap = u_max - (mu - mu_err)
    z_hi = np.maximum(gap / s_lo, gap / s_hi)
    z_hi += 8 * ULP * np.abs(z_hi)
    return np.where(det, np.where(gap < 0.0, -np.inf, np.inf), z_hi)


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise (about 0.1 us a value, so callers keep arrays short)."""
    return np.fromiter(map(math.erfc, x.tolist()), float, x.size)


def _widen(tail):
    """Lower bound on the computed tail anywhere at or before the z it was taken at."""
    return np.maximum(tail * (1.0 - _TAIL_REL) - _TAIL_ABS, 0.0)


def tail_bounds(z_hi: np.ndarray) -> np.ndarray:
    """Elementwise lower bound on ``miss_probability``'s tail at every z <= z_hi.

    The tail falls as z grows, so the bound is the tail at ``z_hi``, widened
    for rounding; -inf and +inf give exactly 1 and 0.  ``erfc`` runs once per
    distinct end point: samples often repeat a group.
    """
    distinct, index = np.unique(z_hi, return_inverse=True)
    return np.where(z_hi == -np.inf, 1.0, _widen(0.5 * _erfc(distinct / _SQRT2))[index])


@functools.lru_cache(maxsize=256)
def breach_cutoffs(threshold: float) -> float:
    """z cutoff ``sure`` for ``miss_probability(...) > threshold``: every group whose z is below it breaches.

    The widened tail falls as z grows, so bisection finds the last z at which
    it still exceeds the threshold.  Below -_Z_SPAN the tail is constant, so a
    threshold it does not exceed there (any of 1 or more) gets -inf.
    """
    def breaches(z: float) -> bool:
        return _widen(0.5 * math.erfc(z / _SQRT2)) > threshold

    a, b = -_Z_SPAN, _Z_SPAN
    if not breaches(a):
        return -math.inf
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return a
        if breaches(mid):
            a = mid
        else:
            b = mid


def buffer(tasks: Iterable[TaskSpec]) -> float:
    """Unreserved CPU fraction: 1 - sum(budget/period).  Negative when oversubscribed."""
    return 1.0 - math.fsum(utilization(t) for t in tasks)


def ks_statistic(rows: Sequence[Sequence[float]], params: Sequence[NormalParams]) -> list[float]:
    """One-sample Kolmogorov-Smirnov distance between each row and its own N(mu, sigma).

    The rows share one length and ``params`` holds one fit per row; each row
    gets the bits it gets alone.  For a degenerate fit (sigma == 0, constant
    stream) the distance is defined as 0.
    """
    out = [0.0] * len(params)
    live = [i for i, fit in enumerate(params) if fit.sigma != 0.0]
    if not live:
        return out
    xs = np.sort(np.asarray(rows, dtype=float)[live], axis=1)
    n = xs.shape[1]
    # tied samples share one CDF value, so Phi((x - mu) / sigma) is taken once
    # per run of ties in a row: D+ peaks at a run's last index and D- at its first
    edges = np.ones((len(live), n + 1), dtype=bool)
    edges[:, 1:-1] = xs[:, 1:] != xs[:, :-1]
    last, first = edges[:, 1:], edges[:, :-1]
    mu = np.array([params[i].mu for i in live])[:, None]
    scale = np.array([params[i].sigma for i in live])[:, None] * _SQRT2
    cdf = 0.5 * _erfc((-(xs - mu) / scale)[last])
    steps = np.broadcast_to(np.arange(1, n + 1) / n, xs.shape)
    starts = np.append(0, np.cumsum(last.sum(axis=1))[:-1])  # each row's first run in cdf
    d_plus = np.maximum.reduceat(steps[last] - cdf, starts)
    d_minus = np.maximum.reduceat(cdf - (steps[first] - 1 / n), starts)
    for i, d in zip(live, np.maximum(d_plus, d_minus).tolist()):
        out[i] = d
    return out


def fit_tasks(samples: Mapping[K, Sequence[float]], score: bool = False) -> dict[K, tuple[NormalParams, float]]:
    """Mean and unbiased standard deviation of each entry, with its ``ks_statistic`` when ``score`` (else nan).

    A constant stream (one sample included) fits exactly, with sigma 0.  Entries
    with one sample count are stacked as the rows of one array and reduced along
    the rows' contiguous axis, so each row fits and scores to the bits it gets
    alone, with one ``ks_statistic`` call per distinct count.  The result keeps
    the order of ``samples``.
    """
    by_count: dict[int, list[K]] = {}
    for key, values in samples.items():
        by_count.setdefault(len(values), []).append(key)
    out: dict[K, tuple[NormalParams, float]] = dict.fromkeys(samples)
    for keys in by_count.values():
        rows = np.asarray([samples[key] for key in keys], dtype=np.float64)
        constant = (rows.min(axis=1) == rows.max(axis=1)).tolist()  # an empty row raises here
        firsts = rows[:, 0].tolist()
        if all(constant):  # also every one-sample row, whose ddof=1 spread is undefined
            fits = [NormalParams(first, 0.0) for first in firsts]
        else:
            mus = rows.mean(axis=1).tolist()
            sigmas = rows.std(axis=1, ddof=1).tolist()
            fits = [NormalParams(first, 0.0) if same else NormalParams(mu, sigma)
                    for first, same, mu, sigma in zip(firsts, constant, mus, sigmas)]
        scores = ks_statistic(rows, fits) if score else [math.nan] * len(keys)
        out.update(zip(keys, zip(fits, scores)))
    return out


@dataclass
class StreamingFit:
    """Runtime samples, given at once or added one at a time, fitted with ``fit_tasks``.

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
        return fit_tasks({0: self.samples})[0][0].mu

    @property
    def stddev(self) -> float:
        return fit_tasks({0: self.samples})[0][0].sigma

    def to_normal(self) -> tuple[NormalParams, float]:
        """Fitted NormalParams plus KS goodness-of-fit (smaller is better)."""
        if self.count < MIN_FIT_SAMPLES:
            raise ValueError("insufficient samples")
        return fit_tasks({0: self.samples}, score=True)[0]
