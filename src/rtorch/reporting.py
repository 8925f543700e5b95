"""Run statistics: per-task runtime summaries, group skew figures, histograms.

The skew figure SKW is the (min, max) absolute deviation of per-task mean
runtimes from the group average, rounded to whole microseconds and rendered
"min/max".  SD_MX is the runtime standard deviation of the task with the
largest deviation.  Histograms bin measured runtimes on a fixed grid (10 us
by default); counts stay raw in the report and are normalized per task on
CSV export.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import takewhile
from typing import Mapping, Sequence

import numpy as np

from .probability import fit_tasks
from .simulation import SimTrace


@dataclass(frozen=True)
class TaskStats:
    count: int
    mean_us: float
    stddev_us: float
    min_us: int
    max_us: int
    miss_count: int


@dataclass(frozen=True)
class RunReport:
    per_task: Mapping[str, TaskStats]
    group_avg_us: float
    skw: tuple[int, int]
    sd_mx_us: float
    histogram: Mapping[str, list[tuple[int, int, int]]]  # (bin_lo, bin_hi, count)
    bin_width_us: int


def _bin_runtimes(samples: Sequence[int], bin_width: int) -> list[tuple[int, int, int]]:
    lo0 = (min(samples) // bin_width) * bin_width
    n_bins = (max(samples) - lo0) // bin_width + 1
    if n_bins == 1:  # also keeps a bin width past int64 out of NumPy
        return [(lo0, lo0 + bin_width, len(samples))]
    counts = np.bincount((np.asarray(samples) - lo0) // bin_width).tolist()
    return list(zip(range(lo0, lo0 + n_bins * bin_width, bin_width),
                    range(lo0 + bin_width, lo0 + (n_bins + 1) * bin_width, bin_width), counts))


def build_report(trace: SimTrace, bin_width_us: int = 10) -> RunReport:
    """Summarize a trace; every task must have completed at least one job."""
    misses = trace.miss_counts()
    runtimes = trace.per_task_runtimes
    for tid, samples in runtimes.items():
        if not samples:
            raise ValueError(f"task '{tid}' completed no jobs")
    per_task = {
        tid: TaskStats(
            count=len(runtimes[tid]),
            mean_us=fit.mu,
            stddev_us=fit.sigma,
            min_us=min(runtimes[tid]),
            max_us=max(runtimes[tid]),
            miss_count=misses[tid],
        )
        for tid, (fit, _) in fit_tasks(runtimes).items()
    }

    means = {tid: s.mean_us for tid, s in per_task.items()}
    group_avg = math.fsum(means.values()) / len(means)
    deviations = {tid: abs(m - group_avg) for tid, m in means.items()}
    skw = (round(min(deviations.values())), round(max(deviations.values())))
    # the task whose mean strays furthest from the group; ties resolve by id
    worst = max(deviations, key=lambda tid: (deviations[tid], tid))
    histogram = {
        tid: _bin_runtimes(samples, bin_width_us)
        for tid, samples in trace.per_task_runtimes.items()
    }
    return RunReport(
        per_task=per_task,
        group_avg_us=group_avg,
        skw=skw,
        sd_mx_us=per_task[worst].stddev_us,
        histogram=histogram,
        bin_width_us=bin_width_us,
    )


def export_histogram(report: RunReport, path) -> None:
    """CSV of per-task relative bin counts; each task's rel_count column sums to 1."""
    with open(path, "w", newline="") as fh:
        fh.write("task,bin_lo_us,bin_hi_us,rel_count\n")
        for tid, bins in report.histogram.items():
            total = report.per_task[tid].count
            rel = {count: repr(count / total) for count in {count for _, _, count in bins}}
            fh.write("".join([f"{tid},{lo},{hi},{rel[count]}\n" for lo, hi, count in bins]))


# one histogram bin as json.dump(indent=2) lays it out, three levels down
_BIN_JSON = "      [\n        %d,\n        %d,\n        %d\n      ]"
_HISTOGRAM_SLOT = '\n  "histogram": null'


def write_report_json(report: RunReport, path) -> None:
    """Write ``asdict(report)`` as ``json.dump(indent=2, sort_keys=True)`` does, plus a newline.

    The keys are the field names of ``RunReport`` and ``TaskStats``.  Everything
    but the histogram goes through ``json.dumps``; the histogram is written task
    by task into its slot, so the whole text is never held in memory.  The slot
    is unique: top-level keys are the only lines indented by exactly two spaces,
    and a JSON string cannot hold a raw newline.
    """
    summary = asdict(replace(report, histogram=None))
    head, tail = json.dumps(summary, indent=2, sort_keys=True).split(_HISTOGRAM_SLOT)
    with open(path, "w") as fh:
        fh.write(head)
        fh.write('\n  "histogram": ')
        sep = "{"
        for tid in sorted(report.histogram):
            bins = report.histogram[tid]
            fh.write(f"{sep}\n    {json.dumps(tid)}: ")
            if bins:
                fh.write("[\n")
                fh.write(",\n".join([_BIN_JSON % (lo, hi, count) for lo, hi, count in bins]))
                fh.write("\n    ]")
            else:
                fh.write("[]")
            sep = ","
        fh.write("\n  }" if report.histogram else "{}")
        fh.write(tail)
        fh.write("\n")


def render_table(report: RunReport) -> str:
    """Single summary row, columns AVG & SKW & SD_MX (AVG in whole us)."""
    avg = round(report.group_avg_us)
    lo, hi = report.skw
    return f"{avg} & {lo}/{hi} & {report.sd_mx_us:.2f}"


def _peaks(padded: np.ndarray, min_prominence: float) -> list[int]:
    """Indices of the peaks of ``padded`` with topographic prominence >= ``min_prominence``.

    The same list as SciPy's ``find_peaks(padded, prominence=min_prominence)``
    gives: a peak is a sample higher than both neighbours, or the middle sample
    of such a flat run; each side is walked to a strictly higher sample or the
    edge, and the prominence is the peak's height above the higher of the two
    lowest points passed.
    """
    x = padded.tolist()
    last = len(x) - 1
    peaks = []
    i = 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    kept = []
    for p in peaks:
        top = x[p]
        left = min(takewhile(lambda v: v <= top, x[p::-1]))
        right = min(takewhile(lambda v: v <= top, x[p:]))
        if top - max(left, right) >= min_prominence:
            kept.append(p)
    return kept


def histogram_modes(
    bins: Sequence[tuple[int, int, int]],
    min_prominence: float = 0.02,
    smooth: int = 3,
) -> list[int]:
    """Indices of local maxima in a task histogram, by relative prominence.

    Counts are normalized, lightly smoothed (moving average of ``smooth``
    bins, centred, one output per bin) and zero-padded so edge bins can peak;
    ``min_prominence`` is a fraction of total mass.
    """
    counts = np.array([c for _, _, c in bins], dtype=float)
    total = counts.sum()
    if total == 0:
        return []
    rel = counts / total
    if smooth > 1:
        start = (smooth - 1) // 2
        rel = np.convolve(rel, np.ones(smooth) / smooth)[start:start + len(rel)]
    padded = np.concatenate([[0.0], rel, [0.0]])
    return [p - 1 for p in _peaks(padded, min_prominence)]
