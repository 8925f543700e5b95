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
from array import array
from dataclasses import asdict, dataclass, replace
from itertools import takewhile
from typing import Iterable, Mapping, Sequence

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
    # (lowest bin edge, counts): bin i spans [lo + i * bin_width_us, lo + (i + 1) * bin_width_us)
    histogram: Mapping[str, tuple[int, array]]
    bin_width_us: int


def _bin_runtimes(column: np.ndarray, bin_width: int) -> tuple[int, array]:
    lo0 = (int(column.min()) // bin_width) * bin_width
    return lo0, array("q", np.bincount((column - lo0) // bin_width).astype(np.int64).tobytes())


def _bin_fields(lo: int, width: int, counts: Sequence, values: Iterable) -> tuple:
    """``(bin_lo, bin_hi, value)`` of each bin, flattened for one ``%`` format."""
    n = len(counts)
    fields = [None] * (3 * n)
    fields[0::3] = range(lo, lo + n * width, width)
    fields[1::3] = range(lo + width, lo + (n + 1) * width, width)
    fields[2::3] = values
    return tuple(fields)


def build_report(trace: SimTrace, bin_width_us: int = 10) -> RunReport:
    """Summarize a trace; every task must have completed at least one job."""
    misses = trace.miss_counts()
    runtimes = trace.per_task_runtimes
    for tid, samples in runtimes.items():
        if not samples:
            raise ValueError(f"task '{tid}' completed no jobs")
    columns = {tid: np.asarray(samples) for tid, samples in runtimes.items()}
    per_task = {
        tid: TaskStats(
            count=len(columns[tid]),
            mean_us=fit.mu,
            stddev_us=fit.sigma,
            min_us=int(columns[tid].min()),
            max_us=int(columns[tid].max()),
            miss_count=misses[tid],
        )
        for tid, (fit, _) in fit_tasks(columns).items()
    }

    means = {tid: s.mean_us for tid, s in per_task.items()}
    group_avg = math.fsum(means.values()) / len(means)
    deviations = {tid: abs(m - group_avg) for tid, m in means.items()}
    skw = (round(min(deviations.values())), round(max(deviations.values())))
    # the task whose mean strays furthest from the group; ties resolve by id
    worst = max(deviations, key=lambda tid: (deviations[tid], tid))
    histogram = {tid: _bin_runtimes(column, bin_width_us) for tid, column in columns.items()}
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
        for tid, (lo, counts) in report.histogram.items():
            total = report.per_task[tid].count
            rel = {count: repr(count / total) for count in set(counts)}
            fields = _bin_fields(lo, report.bin_width_us, counts, map(rel.__getitem__, counts))
            fh.write((tid.replace("%", "%%") + ",%d,%d,%s\n") * len(counts) % fields)


# one histogram bin as json.dump(indent=2) lays it out, three levels down
_BIN_JSON = "      [\n        %d,\n        %d,\n        %d\n      ]"
_HISTOGRAM_SLOT = '\n  "histogram": null'


def write_report_json(report: RunReport, path) -> None:
    """Write ``asdict(report)`` as ``json.dump(indent=2, sort_keys=True)`` does, plus a newline,
    with each task's histogram as its list of ``[bin_lo, bin_hi, count]`` bins.

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
            lo, counts = report.histogram[tid]
            fh.write(f"{sep}\n    {json.dumps(tid)}: ")
            if counts:
                fh.write("[\n")
                fields = _bin_fields(lo, report.bin_width_us, counts, counts)
                fh.write(",\n".join([_BIN_JSON] * len(counts)) % fields)
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
