"""Spans and counters around rtorch's public functions, for the traced run only.

``install`` replaces module attributes with wrappers.  Where a module calls
another module through a name it imported (``cli.run_sim``), the wrapper goes
on the caller's name, since that is the name the call looks up.  Spans record
name, start, end, parent and operation; they stay in memory and are written
out once at the end.  The hottest small functions (``admit``,
``miss_probability``) get counters instead of spans, and a fit is timed from
``StreamingFit()`` to ``to_normal()`` rather than per sample.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        while self.stack and self.stack.pop() != idx:
            pass

    def begin_op(self, op: int, name: str) -> int:
        self.op = op
        return self.open(name)

    def end_op(self, idx: int) -> Counter:
        """Close the operation's span and hand back (and reset) its counters."""
        self.close(idx)
        counts, self.counts = self.counts, Counter()
        return counts

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counts, args, kwargs, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn, timed: bool = False):
    if not timed:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @functools.wraps(fn)
    def timed_wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.counts[name + ".ns"] += time.perf_counter_ns() - t0
            tracer.counts[name] += 1
    return timed_wrapper


def _count_sim(counts, args, kwargs, trace):
    counts["simulation.events"] += len(trace.events)
    counts["simulation.jobs"] += sum(len(v) for v in trace.per_task_runtimes.values())


def _count_mc(counts, args, kwargs, plan):
    counts["orchestration.mc_samples"] += kwargs.get("mc_samples", args[2] if len(args) > 2 else 0)


def _count_step(counts, args, kwargs, decision):
    if decision is not None:
        counts["orchestration.decisions"] += 1
        counts["orchestration.moves"] += len(decision.moved)


# (module, attribute, span name, post-call counter); a missing attribute is skipped
SPANS = (
    ("cli", "load_scenario", "scenario.load", None),
    ("cli", "first_fit_plan", "orchestration.first_fit", None),
    ("cli", "build_plan", "orchestration.build_plan", None),
    ("orchestration", "build_plan", "orchestration.build_plan", None),
    ("cli", "mc_reallocate", "orchestration.mc_reallocate", _count_mc),
    ("orchestration", "mc_reallocate", "orchestration.mc_reallocate", _count_mc),
    ("orchestration", "naive_reallocate", "orchestration.naive_reallocate", None),
    ("orchestration", "orchestrate_step", "orchestration.step", _count_step),
    ("orchestration", "window_fits", "orchestration.window_fits", None),
    ("orchestration", "evaluate_epoch", "orchestration.evaluate", None),
    ("cli", "run_sim", "simulation.run_sim", _count_sim),
    ("cli", "write_trace_csv", "simulation.write_trace", None),
    ("cli", "write_runtimes_csv", "simulation.write_runtimes", None),
    ("cli", "read_runtimes_csv", "simulation.read_runtimes", None),
    ("cli", "build_report", "reporting.build_report", None),
    ("cli", "write_report_json", "reporting.write_report", None),
    ("cli", "export_histogram", "reporting.export_histogram", None),
    ("probability", "ks_statistic", "probability.ks", None),
)
COUNTERS = (
    ("cli", "admit", "admission.admit", True),
    ("orchestration", "admit", "admission.admit", True),
    ("cli", "miss_probability", "probability.miss_probability", False),
    ("orchestration", "miss_probability", "probability.miss_probability", False),
    ("admission", "miss_probability", "probability.miss_probability", False),
)


def install(tracer: Tracer) -> None:
    """Wrap rtorch's functions in place; only ever called for the traced run."""
    import importlib

    modules = {name: importlib.import_module(f"rtorch.{name}")
               for name in ("cli", "orchestration", "admission", "probability", "simulation")}
    for mod, attr, name, after in SPANS:
        fn = getattr(modules[mod], attr, None)
        if fn is not None:
            setattr(modules[mod], attr, _spanned(tracer, name, fn, after))
    for mod, attr, name, timed in COUNTERS:
        fn = getattr(modules[mod], attr, None)
        if fn is not None:
            setattr(modules[mod], attr, _counted(tracer, name, fn, timed))

    hook = getattr(modules["orchestration"], "OrchestratorHook", None)
    if hook is not None:
        hook.__call__ = _spanned(tracer, "orchestration.epoch", hook.__call__)
    trace_cls = getattr(modules["simulation"], "SimTrace", None)
    if trace_cls is not None and hasattr(trace_cls, "miss_counts"):
        trace_cls.miss_counts = _spanned(tracer, "simulation.miss_counts", trace_cls.miss_counts)
    fit_cls = getattr(modules["probability"], "StreamingFit", None)
    if fit_cls is not None:
        init, to_normal = fit_cls.__init__, fit_cls.to_normal

        @functools.wraps(init)
        def fit_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._bench_span = tracer.open("probability.fit")

        @functools.wraps(to_normal)
        def fit_to_normal(self, *args, **kwargs):
            try:
                return to_normal(self, *args, **kwargs)
            finally:
                tracer.close(self._bench_span)
                tracer.counts["probability.fit_samples"] += self.count

        fit_cls.__init__, fit_cls.to_normal = fit_init, fit_to_normal


def _tail(values: list[float]) -> float:
    """Highest percentile with ten samples beyond it; the median below 40 samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) < 40:
        return statistics.median(ordered)
    return ordered[len(ordered) - 11]


def layer_metrics(tracer: Tracer, op_round: list[int], op_counts: list[Counter],
                  op_sizes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-round totals (median over rounds), rates and epoch percentiles."""
    spans = tracer.spans
    n_rounds = max(op_round) + 1 if op_round else 1
    dur = defaultdict(lambda: [0.0] * n_rounds)   # name -> seconds per round
    calls = defaultdict(lambda: [0] * n_rounds)
    engine = [0.0] * n_rounds
    self_cli = [0.0] * n_rounds
    fit_self = [0.0] * n_rounds
    realloc_in_epoch = [0.0] * n_rounds
    epoch_ms: list[float] = []
    child_time = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def in_epoch(idx: int) -> bool:
        while idx >= 0:
            if spans[idx][NAME] == "orchestration.epoch":
                return True
            idx = spans[idx][PARENT]
        return False

    for idx, (name, start, end, parent, op) in enumerate(spans):
        r = op_round[op]
        seconds = (end - start) / 1e9
        dur[name][r] += seconds
        calls[name][r] += 1
        if name == "simulation.run_sim":
            engine[r] += (end - start - child_time[idx]) / 1e9
        elif name.startswith("cli."):
            self_cli[r] += (end - start - child_time[idx]) / 1e9
        elif name == "probability.fit":
            fit_self[r] += (end - start - child_time[idx]) / 1e9
        elif name == "orchestration.epoch":
            epoch_ms.append(seconds * 1e3)
        elif name in ("orchestration.naive_reallocate", "orchestration.mc_reallocate") and in_epoch(parent):
            realloc_in_epoch[r] += seconds

    counts = [Counter() for _ in range(n_rounds)]
    sizes = [Counter() for _ in range(n_rounds)]
    for op, c in enumerate(op_counts):
        counts[op_round[op]].update(c)
        sizes[op_round[op]].update(op_sizes[op])

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    def ratio(num, den) -> list[float]:
        return [n / d if d else 0.0 for n, d in zip(num, den)]

    epochs = calls["orchestration.epoch"]
    c = {key: [counts[r][key] for r in range(n_rounds)] for key in (
        "simulation.events", "simulation.jobs", "orchestration.decisions", "orchestration.moves",
        "orchestration.mc_samples", "probability.miss_probability", "admission.admit",
        "admission.admit.ns", "probability.fit_samples")}
    ms = lambda name: [s * 1e3 for s in dur[name]]  # noqa: E731
    realloc_ms = [s * 1e3 for s in realloc_in_epoch]
    return {
        "scenario.load_ms": (med(ms("scenario.load")), "ms"),
        "simulation.engine_s": (med(engine), "s"),
        "simulation.events": (med(c["simulation.events"]), "count"),
        "simulation.jobs": (med(c["simulation.jobs"]), "count"),
        "simulation.events_per_s": (med(ratio(c["simulation.events"], engine)), "events/s"),
        "simulation.write_trace_s": (med(dur["simulation.write_trace"]), "s"),
        "simulation.write_runtimes_s": (med(dur["simulation.write_runtimes"]), "s"),
        "simulation.trace_mb": (med([s["trace_bytes"] / 1e6 for s in sizes]), "MB"),
        "simulation.miss_counts_calls": (med(calls["simulation.miss_counts"]), "count"),
        "simulation.miss_counts_s": (med(dur["simulation.miss_counts"]), "s"),
        "simulation.read_runtimes_s": (med(dur["simulation.read_runtimes"]), "s"),
        "probability.fit_samples_per_s": (med(ratio(c["probability.fit_samples"], fit_self)), "samples/s"),
        "probability.ks_ms": (med(ms("probability.ks")), "ms"),
        "probability.miss_prob_calls": (med(c["probability.miss_probability"]), "count"),
        "orchestration.epochs": (med(epochs), "count"),
        "orchestration.epoch_ms_p50": (med(epoch_ms), "ms"),
        "orchestration.epoch_ms_tail": (_tail(epoch_ms), "ms"),
        "orchestration.window_fits_ms": (med(ratio(ms("orchestration.window_fits"), epochs)), "ms"),
        "orchestration.evaluate_ms": (med(ratio(ms("orchestration.evaluate"), epochs)), "ms"),
        "orchestration.evaluate_calls_per_epoch": (
            med(ratio(calls["orchestration.evaluate"], epochs)), "calls/epoch"),
        "orchestration.reallocate_ms": (med(ratio(realloc_ms, epochs)), "ms"),
        "orchestration.decisions": (med(c["orchestration.decisions"]), "count"),
        "orchestration.moves": (med(c["orchestration.moves"]), "count"),
        "orchestration.mc_calls": (med(calls["orchestration.mc_reallocate"]), "count"),
        "orchestration.mc_samples_per_s": (
            med(ratio(c["orchestration.mc_samples"], dur["orchestration.mc_reallocate"])), "samples/s"),
        "orchestration.first_fit_ms": (med(ms("orchestration.first_fit")), "ms"),
        "orchestration.build_plan_ms": (med(ms("orchestration.build_plan")), "ms"),
        "admission.admit_calls": (med(c["admission.admit"]), "count"),
        "admission.admit_us": (med(ratio([ns / 1e3 for ns in c["admission.admit.ns"]], c["admission.admit"])), "us"),
        "reporting.build_report_s": (med(dur["reporting.build_report"]), "s"),
        "reporting.write_report_s": (med(dur["reporting.write_report"]), "s"),
        "reporting.export_histogram_s": (med(dur["reporting.export_histogram"]), "s"),
        "reporting.report_mb": (med([s["report_bytes"] / 1e6 for s in sizes]), "MB"),
        "cli.self_s": (med(self_cli), "s"),
    }
