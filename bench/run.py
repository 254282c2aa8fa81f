"""The pureil benchmark: four workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and bench/workloads.py.  Each runs in
child processes of its own, one at a time, so per-instance memos and caches
start cold and memory is measured per workload.

--trace 0 prints the end-to-end metrics: throughput, p50/p90 latency, CPU per
request, set-up time (median of SETUP_REPEATS cold starts) and peak RSS.
--trace 1 prints the per-layer metrics from a traced run, which replays the
requests of an untraced reference run (its wall time gives the overhead).

Lines before the last describe the run (Python, commit, nproc, seed, why the
workload exists) and every metric with its unit and sample count; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
A record of the run is also written to .bench_out/; for a traced run it names
the span dump and says how many spans were kept and dropped.  Exits 2 without
a result when the checkout has no src/pureil, when a child fails, or when a
run hits the worker's wall-time cap or completes fewer requests than needed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_REQUESTS = 100  # so at least ten samples lie beyond p90
TRACE_SHARE = 0.25  # the traced replay covers this share of --seconds untraced
CHILD_TIMEOUT_S = 170.0
# the modules of src/pureil, less `errors`, which holds exception classes only
LAYERS = [
    "cli", "decompose", "feasibility", "formulas", "invariance",
    "language", "linalg", "nabla", "principles", "probability", "serialize",
]
# counters read from the tracer: metric name -> span name
TRACED_COUNTS = {
    "probability.eval_sd_calls": "probability:ProbabilityFunction.eval_sd",
    "probability.restrict_calls": "probability:restrict",
    "language.atom_map_calls": "language:PredPermutation.atom_map",
    "language.descriptions": "language:StateDescription.__init__",
    "feasibility.verify_calls": "feasibility:verify_certificate",
}
# counters the workloads' oracles compute from requests and results
COUNTER_UNITS = {
    "linalg.max_dim": "rows",
    "nabla.picks": "picks/req",
    "nabla.components": "count/req",
    "probability.components": "count/req",
    "decompose.grid_descriptions": "count/req",
    "decompose.nu_max": "count",
    "decompose.g_max": "count",
    "principles.units": "count/req",
    "principles.fail_ratio": "ratio",
    "formulas.assignments": "count/req",
    "formulas.models": "count/req",
    "feasibility.fm_calls": "calls/req",
    "feasibility.simplex_calls": "calls/req",
    "feasibility.infeasible_ratio": "ratio",
    "cli.error_exits": "exits/req",
}
# ROADMAP baselines (single runs, Python 3.11.7): context, not gates
ROADMAP_BASELINES = {
    "decompose q=4 verify-n 3 (CLI)": "1.5 s",
    "decompose q=5 verify-n 1 (CLI)": "27 s",
    "choose_p_vectors(compositions(5))": "14 s",
    "restrict(nabla(u,4),3), 512 descriptions, nu=8": "3.5 s",
    "check_px + check_ex, q=3, n=4": "1.1 s",
    "eval_sentence, q=3, 5 constants": "0.52 s",
    "extendable q=4 r=11, FM": "0.124 s",
    "extendable q=4 r=11, simplex": "0.011 s",
}


class BenchmarkError(Exception):
    """The run cannot produce a result: no library, or a child failed."""


def spawn(root: str, settings: dict) -> dict:
    """Run one worker to completion and return its result object."""
    settings = dict(settings, root=root, out_dir=os.path.join(root, ".bench_out"))
    settings["t_spawn"] = perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(settings)]
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=root, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{settings['mode']} worker timed out") from exc
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode("utf-8").strip().splitlines()[-5:]
        raise BenchmarkError(f"{settings['mode']} worker exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(lines[-1])
    if result.get("cut_short"):
        raise BenchmarkError(f"{settings['mode']} worker hit its wall-time cap after "
                             f"{result['requests']} requests")
    return result


def require_requests(run: dict, wanted: int):
    if run["requests"] < wanted:
        raise BenchmarkError(f"{run['requests']} requests completed, {wanted} needed")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def block_medians(run: dict, block: int) -> tuple[float, float]:
    """Median over the run's whole blocks of throughput and of CPU per request.

    Every block holds the same mix of request shapes, so blocks are like for
    like, and the median drops the blocks a busy neighbour slowed down.
    """
    lat, cpu = run["latencies"], run["cpu"]
    blocks = max(len(lat) // block, 1)
    size = len(lat) // blocks
    spans = [slice(i * size, (i + 1) * size) for i in range(blocks)]
    rate = statistics.median(size / sum(lat[s]) for s in spans)
    cpu_per_request = statistics.median(sum(cpu[s]) / size for s in spans)
    return rate, cpu_per_request


def end_to_end(root: str, base: dict):
    """Cold starts before and after the measured run, so set-up time samples
    more than one moment of a shared machine."""
    before = SETUP_REPEATS // 2
    setups = [spawn(root, dict(base, mode="setup"))["setup_s"] for _ in range(before)]
    run = spawn(root, dict(base, mode="measure", min_requests=MIN_REQUESTS))
    require_requests(run, MIN_REQUESTS)
    setups.append(run["setup_s"])
    setups += [spawn(root, dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_REPEATS - 1 - before)]
    lat = run["latencies"]
    n = len(lat)
    block = workloads.block_size(base["workload"])
    rate, cpu_per_request = block_medians(run, block)
    blocks = max(n // block, 1)
    metrics = {
        "requests_per_s": (rate, "1/s", blocks),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms", n),
        "latency_p90_ms": (1000 * p90(lat), "ms", n),
        "cpu_ms_per_request": (1000 * cpu_per_request, "ms", blocks),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    return run, metrics


def per_layer(root: str, base: dict):
    reference = spawn(root, dict(base, mode="base", seconds=base["seconds"] * TRACE_SHARE))
    n = reference["requests"]
    run = spawn(root, dict(base, mode="trace", max_requests=n))
    require_requests(run, n)
    layers = run["layers"]
    names = run["names"]
    metrics = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (entry["calls"] / n, "calls/req", n)
        metrics[f"{layer}.self_s"] = (entry["self_s"] / n, "s/req", n)
    for metric, span in TRACED_COUNTS.items():
        metrics[metric] = (names.get(span, 0) / n, "calls/req", n)
    # CLI processes also pay interpreter start and teardown and the import; the
    # tracer's own import and install there is overhead, not program time
    startup = run.get("interpreter_s", 0.0) + run.get("import_s", 0.0)
    attributed = sum(entry["self_s"] for entry in layers.values()) + startup
    traced_wall = run["measured_s"] - run.get("tracer_s", 0.0)
    metrics["cli.import_s"] = (run.get("import_s", 0.0) / n, "s/req", n)
    metrics["cli.interpreter_s"] = (run.get("interpreter_s", 0.0) / n, "s/req", n)
    for metric, unit in COUNTER_UNITS.items():
        metrics[metric] = (run["counters"].get(metric, 0), unit, n)
    metrics["trace.overhead_ratio"] = (run["measured_s"] / reference["measured_s"], "ratio", n)
    metrics["trace.layer_share"] = (attributed / traced_wall, "ratio", n)
    metrics["trace.requests"] = (n, "count", 1)
    metrics["failed_ratio"] = (run["failed"] / n, "ratio", n)
    return run, metrics


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "pureil")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=root, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip()


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run; returns the full record (result line under 'result')."""
    if not os.path.isfile(os.path.join(root, "src", "pureil", "__init__.py")):
        raise BenchmarkError(f"no src/pureil under {root}")
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    base = {"workload": workload, "seed": seed, "seconds": seconds}
    if trace:
        child, metrics = per_layer(root, base)
    else:
        child, metrics = end_to_end(root, base)
    problems = child["warmup_problems"] + child["problems"]
    failed = child["failed"]
    # correct: every failure is one of the known crash cases kept in on purpose
    correct = child["warmup_failed"] == 0 and failed == child["known_crashes"]
    spans = None
    if trace:
        spans = {
            "path": os.path.relpath(child["spans_path"], root),
            "kept": child["spans_kept"],
            "dropped": child["spans_dropped"],
        }
    return {
        "record": {
            "workload": workload,
            "why": workloads.WHY[workload],
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "commit": commit(root),
            "source_sha256": source_digest(root),
            "nproc": os.cpu_count(),
            "known_crashes": workloads.KNOWN_CRASHES,
            "known_defects_left_out": workloads.KNOWN_DEFECTS,
            "known_crash_requests": child["known_crashes"],
            "problems": problems,
            "spans": spans,
            "roadmap_baselines": ROADMAP_BASELINES,
        },
        "samples": {name: count for name, (_, _, count) in metrics.items()},
        "latencies_s": child["latencies"],
        "cpu_s": child["cpu"],
        "result": {
            "correct": correct,
            "attempted": child["requests"],
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    path = os.path.join(root, ".bench_out", f"run-{args.workload}-{args.seed}-{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("record " + json.dumps(record["record"], sort_keys=True))
    for name, metric in record["result"]["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']} (n={record['samples'][name]})")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
