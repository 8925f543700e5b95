import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtorch.reporting import (
    RunReport,
    TaskStats,
    _peaks,
    build_report,
    export_histogram,
    histogram_modes,
    render_table,
    write_report_json,
)

from oracles import histogram_modes_reference, trace_of, two_pass_stats


def trace_with_means():
    """Four tasks whose runtime means are exactly 10712, 10708, 10704, 10720."""
    runtimes = {
        "u1": [10_712, 10_712],
        "u2": [10_706, 10_710],
        "u3": [10_700, 10_708],
        "u4": [10_715, 10_725],
    }
    return trace_of([], runtimes)


def test_group_figures_from_known_means():
    report = build_report(trace_with_means())
    assert report.group_avg_us == pytest.approx(10_711.0)
    # deviations from 10711 are 1, 3, 7, 9
    assert report.skw == (1, 9)
    assert report.per_task["u4"].mean_us == pytest.approx(10_720.0)
    expected_sd = math.sqrt(((10_715 - 10_720) ** 2 + (10_725 - 10_720) ** 2) / 1)
    assert report.sd_mx_us == pytest.approx(expected_sd)
    assert render_table(report) == f"10711 & 1/9 & {expected_sd:.2f}"


def test_stats_match_independent_two_pass(tmp_path):
    rng = np.random.default_rng(42)
    samples = [int(x) for x in rng.normal(10_000, 120, size=5_000)]
    trace = trace_of([], {"a": samples})
    report = build_report(trace)
    mean, var = two_pass_stats([float(s) for s in samples])
    assert report.per_task["a"].mean_us == pytest.approx(mean, rel=1e-12)
    assert report.per_task["a"].stddev_us == pytest.approx(math.sqrt(var), rel=1e-12)
    assert report.per_task["a"].min_us == min(samples)
    assert report.per_task["a"].max_us == max(samples)


def test_empty_task_rejected():
    trace = trace_of([], {"a": [100], "b": []})
    with pytest.raises(ValueError, match="task 'b' completed no jobs"):
        build_report(trace)


def test_miss_counts_flow_into_stats():
    trace = trace_of([(100, "deadline_miss", "a", "cpu0"), (200, "deadline_miss", "a", "cpu0")],
                     {"a": [50, 60]})
    report = build_report(trace)
    assert report.per_task["a"].miss_count == 2


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 100_000), min_size=1, max_size=300),
    st.sampled_from([1, 5, 10, 25, 10**30]),  # a width past int64 makes one bin
)
def test_histogram_conserves_counts_and_covers_samples(samples, bin_width):
    trace = trace_of([], {"a": samples})
    report = build_report(trace, bin_width_us=bin_width)
    bins = report.histogram["a"]
    assert sum(c for _, _, c in bins) == len(samples)
    assert all(hi - lo == bin_width for lo, hi, _ in bins)
    assert all(lo % bin_width == 0 for lo, _, _ in bins)
    assert bins[0][0] <= min(samples) < bins[0][0] + bin_width
    assert bins[-1][0] <= max(samples) <= bins[-1][1]
    for lo, hi, count in bins:
        assert count == sum(1 for s in samples if lo <= s < hi)


def test_histogram_export_normalizes_per_task(tmp_path):
    runtimes = {"a": [10, 11, 12, 25, 25], "b": [7, 7]}
    trace = trace_of([], runtimes)
    report = build_report(trace)
    path = tmp_path / "hist.csv"
    export_histogram(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,bin_lo_us,bin_hi_us,rel_count"
    by_task = {}
    for line in lines[1:]:
        task, lo, hi, rel = line.split(",")
        by_task.setdefault(task, []).append(float(rel))
    assert sum(by_task["a"]) == pytest.approx(1.0, abs=1e-9)
    assert sum(by_task["b"]) == pytest.approx(1.0, abs=1e-9)


def test_report_json_round_trips(tmp_path):
    report = build_report(trace_with_means())
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(asdict(report)))
    assert loaded["skw"] == [1, 9]
    assert loaded["per_task"]["u1"]["count"] == 2


# ids that could break a hand-written JSON writer: quotes, backslashes,
# non-ASCII, control characters, and ids that spell the histogram's own key
AWKWARD_IDS = ['"histogram": {}', '\n  "histogram": null', 'a"b', "back\\slash", "é", "日本", "tab\t", "", "z"]


@st.composite
def run_reports(draw):
    ids = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_IDS), st.text(max_size=6)), max_size=5, unique=True))
    counts = st.integers(0, 10**6)
    per_task = {
        tid: TaskStats(count=draw(counts), mean_us=draw(st.floats()), stddev_us=draw(st.floats(0)),
                       min_us=draw(counts), max_us=draw(counts), miss_count=draw(counts))
        for tid in ids
    }
    width = draw(st.integers(1, 100))
    histogram = {}
    for tid in ids:
        lo0 = draw(st.integers(-1_000, 10**6)) * width
        histogram[tid] = [(lo0 + i * width, lo0 + (i + 1) * width, c)
                          for i, c in enumerate(draw(st.lists(counts, max_size=6)))]
    return RunReport(per_task=per_task, group_avg_us=draw(st.floats()),
                     skw=(draw(counts), draw(counts)), sd_mx_us=draw(st.floats()),
                     histogram=histogram, bin_width_us=width)


@settings(max_examples=200)
@given(run_reports())
def test_report_json_equals_json_dump(report):
    with tempfile.TemporaryDirectory() as tmp:
        path, expected = Path(tmp) / "report.json", Path(tmp) / "expected.json"
        write_report_json(report, path)
        with open(expected, "w") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == expected.read_bytes()


def test_single_task_group_has_zero_skew():
    trace = trace_of([], {"solo": [100, 110, 120]})
    report = build_report(trace)
    assert report.skw == (0, 0)
    assert report.sd_mx_us == report.per_task["solo"].stddev_us


def make_bins(counts, bin_width=10, start=0):
    return [
        (start + i * bin_width, start + (i + 1) * bin_width, c)
        for i, c in enumerate(counts)
    ]


def test_unimodal_histogram_has_one_mode():
    rng = np.random.default_rng(0)
    samples = rng.normal(500, 40, size=20_000).astype(int)
    counts = np.bincount(np.clip(samples // 10, 0, 99), minlength=100)
    modes = histogram_modes(make_bins(list(counts)))
    assert len(modes) == 1
    assert abs(modes[0] - 50) <= 2


def test_bimodal_histogram_has_two_modes():
    rng = np.random.default_rng(0)
    a = rng.normal(300, 25, size=10_000)
    b = rng.normal(700, 25, size=3_000)
    samples = np.concatenate([a, b]).astype(int)
    counts = np.bincount(np.clip(samples // 10, 0, 99), minlength=100)
    modes = histogram_modes(make_bins(list(counts)))
    assert len(modes) == 2
    assert abs(modes[0] - 30) <= 2
    assert abs(modes[1] - 70) <= 2


def test_sharp_edge_bin_can_be_a_mode():
    # all mass in one bin: the zero padding lets the edge peak out
    modes = histogram_modes(make_bins([1_000]), smooth=1)
    assert modes == [0]


def test_empty_histogram_has_no_modes():
    assert histogram_modes(make_bins([0, 0, 0])) == []


def test_minor_ripples_are_not_modes():
    counts = [0, 5, 980, 10, 5, 8, 4, 0]
    modes = histogram_modes(make_bins(counts))
    assert modes == [2]


def test_histogram_shorter_than_smoothing_window_keeps_its_indices():
    # a constant runtime fills one bin; smoothing must not shift or lengthen the histogram
    assert histogram_modes(make_bins([1_000])) == [0]
    assert histogram_modes(make_bins([1_000, 5])) == [0]


# zero-padded histograms: small integers (plateaus are common) or floats
_HISTOGRAM_VALUES = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=39),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=39),
)


@settings(max_examples=400, deadline=None)
@given(values=_HISTOGRAM_VALUES, prominence=st.sampled_from([0.0, 0.02, 0.1]),
       smooth=st.sampled_from([1, 2, 3, 5]))
def test_peaks_and_modes_match_scipy_find_peaks(values, prominence, smooth):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    padded = np.array([0.0, *values, 0.0])
    assert _peaks(padded, prominence) == list(find_peaks(padded, prominence=prominence)[0])
    if len(values) >= smooth:
        bins = make_bins(values)
        assert histogram_modes(bins, prominence, smooth) == histogram_modes_reference(bins, prominence, smooth)
