"""perfbench's tracer wraps rtorch functions by module and name, and skips a
name it cannot find.  A renamed function would silently drop its per-layer
metric, so every name the tracer wraps must still resolve, and the trace
attributes it counts must still count what they did."""
import importlib

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR
from oracles import events_of, trace_of
from rtorch.scenario import load_scenario
from rtorch.simulation import run_sim, write_trace_csv


def tracer_tables():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)  # read only: no bytecode written
    return namespace["SPANS"], namespace["COUNTERS"]


SPANS, COUNTERS = tracer_tables()
# orchestration reaches the normal tail only through admission, so this counter wraps nothing
UNWRAPPED = {("orchestration", "miss_probability")}
TARGETS = sorted({(entry[0], entry[1]) for entry in SPANS + COUNTERS} - UNWRAPPED)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"rtorch.{module}"), attr, None))


def test_traced_trace_counts(tmp_path):
    # simulation.events is len(trace.events), simulation.jobs the summed runtime columns
    scenario = load_scenario(SCENARIO_DIR / "fig5_short.json")
    trace = run_sim(scenario.initial_plan, scenario.tasks, scenario.resources, noise=scenario.sim.noise,
                    duration_us=500_000, seed=scenario.sim.seed)
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(trace.events) == len(trace.times) == len(rows) > 0
    assert sum(map(len, trace.per_task_runtimes.values())) == sum(row.split(",")[1] == "complete" for row in rows) > 0
    events = events_of(trace)
    again = trace_of(events, trace.per_task_runtimes, trace.task_ids, trace.cpu_ids)
    assert events_of(again) == events and again.events == trace.events
