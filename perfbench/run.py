#!/usr/bin/env python3
"""Benchmark rtorch's simulate, plan and analyze commands on one workload.

    python3 perfbench/run.py --workload paper|fleet|placement --seed N --seconds S --trace 0|1

Run from the root of a source checkout: rtorch is imported from ``src/`` and
driven in-process through ``rtorch.cli.main``, in this single process.  Inputs
are generated from ``--seed`` into ``perfbench/runs/<workload>-trace<T>/``
(emptied at start).  Rounds of the same operations repeat until ``--seconds``
have passed; each metric is the median over rounds.  Every output is checked
against values computed separately from rtorch (see ``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``result.json`` in
the run directory keeps both sets, and the traced run also writes
``spans.jsonl`` there.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, no helper threads: keep BLAS pools at one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "fleet", "placement"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(bench, setup_s: float) -> dict:
    rounds = bench.round_times

    def med(key):
        return statistics.median(r[key] for r in rounds)

    return {
        "setup_s": (setup_s, "s"),
        "simulate_s": (med("simulate_s"), "s"),
        "sim_events_per_s": (statistics.median(
            r["trace_rows"] / r["simulate_s"] if r["simulate_s"] else 0.0 for r in rounds), "events/s"),
        "plan_s": (med("plan_s"), "s"),
        "analyze_s": (med("analyze_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "rtorch" / "cli.py", ROOT / "scenarios") if not p.exists()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import rtorch.cli
    import tracing
    import workloads

    run_dir = workloads.ensure_dir(BENCH_DIR / "runs" / f"{args.workload}-trace{args.trace}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    imported = time.perf_counter() - T_START

    workload = workloads.WORKLOADS[args.workload](ROOT, run_dir, args.seed)
    generation = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.generate()
        generation.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(generation)

    bench = workloads.Bench(rtorch.cli.main, tracer)
    t0 = time.perf_counter()
    while True:
        bench.start_round()
        workload.run_round(bench)
        if time.perf_counter() - t0 >= args.seconds:
            break

    e2e = end_to_end(bench, setup_s)
    layers = tracing.layer_metrics(tracer, bench.op_round, bench.op_counts, bench.op_sizes) if tracer else {}
    correct = not bench.unexpected
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(bench.round_times), "round_times": bench.round_times, "correct": correct,
        "attempted": bench.attempted, "failed": bench.failed,
        "end_to_end": as_json(e2e), "per_layer": as_json(layers),
        "unexpected_failures": bench.unexpected, "known_failures": bench.known[:3],
        "calibration": bench.calibration,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(run_dir / "spans.jsonl")
    for line in bench.unexpected:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload}: {len(bench.round_times)} rounds, {bench.attempted} operations, "
          f"{bench.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": as_json(layers if tracer else e2e)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
