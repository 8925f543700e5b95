"""Output checks, computed from the scenario and the written files alone.

Nothing here imports rtorch: every expected value (statistics, histogram
bins, normal tails, utilization bounds, exit codes) is recomputed from the
inputs with the standard library, following the definitions in the README.
Each ``check_*`` function returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

DEFAULT_THRESHOLDS = {"hard": 1e-4, "soft": 1e-2, "best_effort": 1.0}
MIN_FIT_SAMPLES = 30
TRACE_KINDS = {"release", "start", "resume", "preempt", "complete", "deadline_miss", "migrate", "evict"}
EXIT_OK, EXIT_INPUT, EXIT_HARD_MISS, EXIT_INFEASIBLE = 0, 1, 2, 3


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def normal_tail(mu: float, sigma: float, u_max: float) -> float:
    """P(N(mu, sigma) > u_max); a point mass when sigma is 0."""
    if sigma == 0.0:
        return 0.0 if mu <= u_max else 1.0
    return 0.5 * math.erfc((u_max - mu) / (sigma * math.sqrt(2.0)))


def rm_bound(n: int) -> float:
    return n * (2.0 ** (1.0 / n) - 1.0)


def mean_stdev(samples) -> tuple[float, float]:
    """Two-pass mean and unbiased standard deviation."""
    n = len(samples)
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var)


def thresholds(scenario: dict) -> dict[str, float]:
    out = dict(DEFAULT_THRESHOLDS)
    out.update((scenario.get("orchestrator") or {}).get("thresholds", {}))
    return out


# ---------------------------------------------------------------- simulate

def read_runtimes(path) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    with open(path) as fh:
        if fh.readline().strip() != "task,runtime_us":
            raise ValueError(f"{path}: unexpected header")
        for line in fh:
            task, value = line.rstrip("\n").split(",")
            out.setdefault(task, []).append(int(value))
    return out


@dataclass
class TraceScan:
    rows: int = 0
    misses: Counter = field(default_factory=Counter)
    releases: Counter = field(default_factory=Counter)
    completes: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def scan_trace(lines) -> TraceScan:
    """Row count, releases, misses and completions per task, and the trace invariants:
    known kinds, non-decreasing time, and at most one running job per CPU
    (start/resume need an idle CPU; preempt/complete must name its job)."""
    scan = TraceScan()
    lines = iter(lines)
    if next(lines, "").strip() != "time_us,kind,task,resource":
        scan.problems.append("trace.csv: unexpected header")
        return scan
    running: dict[str, str] = {}
    last = -1
    for line in lines:
        scan.rows += 1
        t, kind, task, res = line.rstrip("\n").split(",")
        t = int(t)
        if t < last:
            scan.problems.append(f"trace row {scan.rows}: time goes back to {t}")
        last = t
        if kind not in TRACE_KINDS:
            scan.problems.append(f"trace row {scan.rows}: unknown kind {kind!r}")
        elif kind in ("start", "resume"):
            if running.get(res) is not None:
                scan.problems.append(f"trace row {scan.rows}: {task} starts on {res} while {running[res]} runs")
            running[res] = task
        elif kind in ("preempt", "complete"):
            if running.get(res) != task:
                scan.problems.append(f"trace row {scan.rows}: {kind} of {task} on {res}, which runs {running.get(res)}")
            running[res] = None
            if kind == "complete":
                scan.completes[task] += 1
        elif kind == "deadline_miss":
            scan.misses[task] += 1
        elif kind == "release":
            scan.releases[task] += 1
        if len(scan.problems) > 5:
            break
    return scan


def check_runtime_floor(scenario: dict, runtimes: dict[str, list[int]]) -> list[str]:
    """Every measured runtime is at least the task's cut-off plus the fixed overhead."""
    base = ((scenario.get("sim") or {}).get("noise") or {}).get("base_overhead_us", 0)
    problems = []
    for task in scenario["tasks"]:
        floor = task["exec_model"]["cutoff_lo_us"] + base
        low = min(runtimes.get(task["id"], [floor]))
        if low < floor:
            problems.append(f"runtime {low} of {task['id']} below cutoff+overhead {floor}")
    return problems


def check_report(report: dict, runtimes: dict[str, list[int]], misses: Counter) -> list[str]:
    """Per-task stats, AVG, SKW and SD_MX against two-pass statistics of runtimes.csv."""
    problems = []
    per_task = report["per_task"]
    if set(per_task) != set(runtimes):
        return [f"report tasks {sorted(per_task)[:3]}... differ from runtimes.csv tasks"]
    means, stdevs = {}, {}
    for tid, samples in runtimes.items():
        got = per_task[tid]
        mean, sd = mean_stdev(samples)
        means[tid], stdevs[tid] = mean, sd
        expected = {"count": len(samples), "min_us": min(samples), "max_us": max(samples),
                    "miss_count": misses.get(tid, 0)}
        for key, value in expected.items():
            if got[key] != value:
                problems.append(f"report {tid}.{key} = {got[key]}, expected {value}")
        if not close(got["mean_us"], mean):
            problems.append(f"report {tid}.mean_us = {got['mean_us']}, expected {mean}")
        if not close(got["stddev_us"], sd, abs_=1e-9):
            problems.append(f"report {tid}.stddev_us = {got['stddev_us']}, expected {sd}")
    avg = math.fsum(means.values()) / len(means)
    if not close(report["group_avg_us"], avg):
        problems.append(f"report group_avg_us = {report['group_avg_us']}, expected {avg}")
    dev = {tid: abs(m - avg) for tid, m in means.items()}
    lo, hi = report["skw"]
    if abs(lo - min(dev.values())) > 0.5 + 1e-6 or abs(hi - max(dev.values())) > 0.5 + 1e-6:
        problems.append(f"report skw {lo}/{hi} is not the rounded min/max deviation")
    top = max(dev.values())
    candidates = [stdevs[tid] for tid, d in dev.items() if d >= top - 1e-9 * max(1.0, top)]
    if not any(close(report["sd_mx_us"], sd, abs_=1e-9) for sd in candidates):
        problems.append(f"report sd_mx_us = {report['sd_mx_us']}, expected one of {candidates}")
    return problems


def expected_bins(samples, width: int) -> list[tuple[int, int, float]]:
    lo0 = (min(samples) // width) * width
    counts = Counter((x - lo0) // width for x in samples)
    n_bins = (max(samples) - lo0) // width + 1
    return [(lo0 + i * width, lo0 + (i + 1) * width, counts[i] / len(samples)) for i in range(n_bins)]


def check_histogram(lines, runtimes: dict[str, list[int]], width: int) -> list[str]:
    """histogram.csv: per task, the benchmark's own binning, rel_counts summing to 1."""
    rows: dict[str, list[tuple[int, int, float]]] = {}
    lines = iter(lines)
    if next(lines, "").strip() != "task,bin_lo_us,bin_hi_us,rel_count":
        return ["histogram.csv: unexpected header"]
    for line in lines:
        task, lo, hi, rel = line.rstrip("\n").split(",")
        rows.setdefault(task, []).append((int(lo), int(hi), float(rel)))
    if set(rows) != set(runtimes):
        return ["histogram.csv tasks differ from runtimes.csv tasks"]
    problems = []
    for tid, got in rows.items():
        if not close(math.fsum(r for _, _, r in got), 1.0):
            problems.append(f"histogram {tid}: rel_count sums to {math.fsum(r for _, _, r in got)}")
        want = expected_bins(runtimes[tid], width)
        if len(got) != len(want) or any(
            g[:2] != w[:2] or not close(g[2], w[2]) for g, w in zip(got, want)
        ):
            problems.append(f"histogram {tid}: bins differ from the expected binning")
    return problems


def expected_simulate_exit(scenario: dict, misses: Counter) -> int:
    hard = {t["id"] for t in scenario["tasks"] if t.get("criticality", "hard") == "hard"}
    return EXIT_HARD_MISS if any(misses[t] for t in hard) else EXIT_OK


# ---------------------------------------------------------------- analyze

_TASK_LINE = re.compile(r"^task (\S+): n=(\d+) mu=(\S+)us sigma=(\S+)us goodness=(\S+)")
_GROUP_LINE = re.compile(
    r"^group: joint_mu=(\S+) joint_sigma=(\S+) u_max=(\S+) miss_prob=(\S+) buffer_at_mean=(\S+?)(  BREACH)?$"
)


def analyze_prediction(runtimes: dict[str, list[int]], periods: dict[str, int], u_max: float) -> dict:
    """Normal fits per task and the joint utilization tail, as analyze defines them."""
    fits = {tid: mean_stdev(s) for tid, s in runtimes.items()}
    joint_mu = math.fsum(m / periods[tid] for tid, (m, _) in fits.items())
    joint_sigma = math.sqrt(math.fsum((s / periods[tid]) ** 2 for tid, (_, s) in fits.items()))
    return {"fits": fits, "joint_mu": joint_mu, "joint_sigma": joint_sigma,
            "miss_prob": normal_tail(joint_mu, joint_sigma, u_max)}


def expected_analyze_exit(runtimes: dict[str, list[int]]) -> int:
    if not runtimes or min(len(s) for s in runtimes.values()) < MIN_FIT_SAMPLES:
        return EXIT_INPUT
    return EXIT_OK


def _printed(value: float, printed: str, decimals: int) -> bool:
    """``printed`` is ``value`` rounded to ``decimals`` places (allowing last-digit ties)."""
    return abs(float(printed) - value) <= 0.5 * 10.0 ** -decimals * (1 + 1e-6) + 1e-9 * abs(value)


def check_analyze(stdout: str, runtimes: dict[str, list[int]], periods: dict[str, int],
                  u_max: float, threshold: float) -> list[str]:
    want = analyze_prediction(runtimes, periods, u_max)
    problems = []
    seen = set()
    group = None
    for line in stdout.splitlines():
        m = _TASK_LINE.match(line)
        if m:
            tid, n, mu, sigma = m.group(1), int(m.group(2)), m.group(3), m.group(4)
            seen.add(tid)
            if tid not in runtimes:
                problems.append(f"analyze: unknown task {tid}")
                continue
            exp_mu, exp_sigma = want["fits"][tid]
            if n != len(runtimes[tid]):
                problems.append(f"analyze {tid}: n={n}, expected {len(runtimes[tid])}")
            if not _printed(exp_mu, mu, 1) or not _printed(exp_sigma, sigma, 1):
                problems.append(f"analyze {tid}: mu={mu} sigma={sigma}, expected {exp_mu:.3f} {exp_sigma:.3f}")
        group = _GROUP_LINE.match(line) or group
    if seen != set(runtimes):
        problems.append(f"analyze printed {len(seen)} tasks, expected {len(runtimes)}")
    if group is None:
        return problems + ["analyze: no group line"]
    joint_mu, joint_sigma, _, prob, headroom, breach = group.groups()
    if not _printed(want["joint_mu"], joint_mu, 4) or not _printed(want["joint_sigma"], joint_sigma, 4):
        problems.append(f"analyze: joint {joint_mu}/{joint_sigma}, expected "
                        f"{want['joint_mu']:.6f}/{want['joint_sigma']:.6f}")
    if not _printed(want["miss_prob"], prob, 6):
        problems.append(f"analyze: miss_prob={prob}, expected {want['miss_prob']:.8f}")
    if not _printed(1.0 - want["joint_mu"], headroom, 4):
        problems.append(f"analyze: buffer_at_mean={headroom}, expected {1.0 - want['joint_mu']:.6f}")
    if abs(want["miss_prob"] - threshold) > 1e-9 and bool(breach) != (want["miss_prob"] > threshold):
        problems.append(f"analyze: BREACH marker {'set' if breach else 'missing'} at miss_prob {want['miss_prob']}")
    return problems


# ---------------------------------------------------------------- plan

def groups_of(scenario: dict, assignments: dict[str, str]) -> dict[str, list[dict]]:
    tasks = {t["id"]: t for t in scenario["tasks"]}
    out: dict[str, list[dict]] = {r["id"]: [] for r in scenario["resources"]}
    for tid, rid in assignments.items():
        out[rid].append(tasks[tid])
    return out


def declared_miss_prob(hosted: list[dict], u_max: float) -> float:
    if not hosted:
        return 0.0
    mu = math.fsum(t["exec_model"]["mu_us"] / t["period_us"] for t in hosted)
    sigma = math.sqrt(math.fsum((t["exec_model"]["sigma_us"] / t["period_us"]) ** 2 for t in hosted))
    return normal_tail(mu, sigma, u_max)


def reserved(hosted: list[dict]) -> float:
    return math.fsum(t["budget_us"] / t["period_us"] for t in hosted)


def bound_breaks(scenario: dict, assignments: dict[str, str]) -> list[str]:
    """CPUs whose reserved utilization exceeds the policy bound (EDF u_max, RM n(2^(1/n)-1))."""
    resources = {r["id"]: r for r in scenario["resources"]}
    out = []
    for rid, hosted in groups_of(scenario, assignments).items():
        if not hosted:
            continue
        res = resources[rid]
        bound = rm_bound(len(hosted)) if res.get("policy", "EDF") == "RM" else res.get("u_max", 1.0)
        if reserved(hosted) > bound:
            out.append(rid)
    return out


def objective(scenario: dict, assignments: dict[str, str]) -> tuple[int, float, int]:
    """(breached CPUs, worst miss probability, occupied CPUs) from the declared models."""
    thr = thresholds(scenario)
    resources = {r["id"]: r for r in scenario["resources"]}
    breached, worst, occupied = 0, 0.0, 0
    for rid, hosted in groups_of(scenario, assignments).items():
        if not hosted:
            continue
        occupied += 1
        prob = declared_miss_prob(hosted, resources[rid].get("u_max", 1.0))
        worst = max(worst, prob)
        if prob > min(thr[t.get("criticality", "hard")] for t in hosted):
            breached += 1
    return breached, worst, occupied


def not_worse(a: tuple[int, float, int], b: tuple[int, float, int]) -> bool:
    """Objective ``a`` is no worse than ``b``, comparing the float term with a tolerance."""
    if a[0] != b[0]:
        return a[0] < b[0]
    if not close(a[1], b[1], abs_=1e-300):
        return a[1] < b[1]
    return a[2] <= b[2]


def expected_plan_exit(scenario: dict) -> int:
    """3 when some task admits on no CPU alone or total reservations exceed capacity."""
    thr = thresholds(scenario)
    for task in scenario["tasks"]:
        util = task["budget_us"] / task["period_us"]
        if not any(
            util <= (1.0 if r.get("policy", "EDF") == "RM" else r.get("u_max", 1.0))
            and declared_miss_prob([task], r.get("u_max", 1.0)) <= thr[task.get("criticality", "hard")]
            for r in scenario["resources"]
        ):
            return EXIT_INFEASIBLE
    capacity = math.fsum(r.get("u_max", 1.0) for r in scenario["resources"])
    return EXIT_INFEASIBLE if reserved(scenario["tasks"]) > capacity else EXIT_OK


def check_plan(plan: dict, scenario: dict) -> list[str]:
    """Every task placed on a known CPU; per_resource buffer and miss_prob recomputed."""
    resources = {r["id"]: r for r in scenario["resources"]}
    assignments = plan["assignments"]
    if set(assignments) != {t["id"] for t in scenario["tasks"]}:
        return ["plan does not place every task exactly once"]
    if not set(assignments.values()) <= set(resources):
        return ["plan names an unknown CPU"]
    problems = []
    for rid, hosted in groups_of(scenario, assignments).items():
        got = plan["per_resource"].get(rid)
        if got is None:
            problems.append(f"plan: no per_resource entry for {rid}")
            continue
        buffer = 1.0 - reserved(hosted)
        prob = declared_miss_prob(hosted, resources[rid].get("u_max", 1.0))
        if not close(got["buffer"], buffer):
            problems.append(f"plan {rid}: buffer {got['buffer']}, expected {buffer}")
        if not close(got["miss_prob"], prob, abs_=1e-300):
            problems.append(f"plan {rid}: miss_prob {got['miss_prob']}, expected {prob}")
    return problems


def parse_plan(stdout: str) -> dict | None:
    try:
        plan = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return plan if isinstance(plan, dict) and "assignments" in plan else None
