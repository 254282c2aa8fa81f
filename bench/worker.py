"""One workload in one child process: set up, run the closed loop, check.

Usage (the runner starts this; it is not meant to be run by hand):

    python3 bench/worker.py '<json settings>'

Settings: workload, seed, seconds, mode, min_requests, max_requests,
t_spawn (the runner's `perf_counter` just before it started this process;
on Linux both clocks are CLOCK_MONOTONIC), root (the checkout) and out_dir.

Modes:
  setup    set up and stop; reports setup_s
  measure  untraced loop over whole blocks for `seconds` of request time
           and at least `min_requests`; end-to-end numbers
  base     the same without the minimum; the reference wall time for the
           traced run
  trace    traced loop over exactly `max_requests`; per-layer numbers

A loop still running after MAX_WALL_S of wall time stops after the block in
hand and reports `cut_short`; the runner refuses such a run.

The last line of stdout is one JSON object with the results.  Every request is
checked by its oracle right after it completes, outside the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter, process_time

import workloads

# keep well inside the per-run limit even if the machine is much slower
MAX_WALL_S = 120.0
CLI_TIMEOUT_S = 60.0


class Counters:
    """Per-request counters: 'sum' is averaged over all requests, 'ratio'
    over the requests that reported it, 'max' keeps the largest value."""

    def __init__(self):
        self.values: dict[str, list] = {}

    def add(self, name: str, value, how: str = "sum"):
        entry = self.values.setdefault(name, [how, 0, 0])
        if how == "max":
            entry[1] = max(entry[1], value)
        else:
            entry[1] += value
        entry[2] += 1

    def summary(self, requests: int) -> dict[str, float]:
        out = {}
        for name, (how, total, count) in self.values.items():
            if how == "max":
                out[name] = total
            elif how == "ratio":
                out[name] = total / count
            else:
                out[name] = total / requests
        return out


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Closed loop with one client; accumulates latencies, CPU and failures."""

    def __init__(self, settings: dict, lib, tracer=None):
        self.settings = settings
        self.name = settings["workload"]
        self.lib = lib
        self.tracer = tracer
        _, self.execute, self.check = workloads.WORKLOADS[self.name]
        self.ctx: dict = {}
        self.counters = Counters()
        self.latencies: list[float] = []
        self.measured_s = 0.0
        self.cpu: list[float] = []
        self.failed = 0
        self.known_crashes = 0
        self.problems: list[str] = []
        self.cli_stats = {"layers": {}, "names": {}, "interpreter_s": 0.0, "import_s": 0.0, "tracer_s": 0.0}

    # -- one request --------------------------------------------------------

    def timed(self, req):
        """Run one request; returns (result, error, seconds, CPU seconds).
        Only this is timed."""
        if self.name == "cli_processes":
            return self.timed_cli(req)
        if self.tracer is not None:
            self.tracer.active = True
        c0 = process_time()
        t0 = perf_counter()
        try:
            result, error = self.execute(self.lib, req), None
        except Exception as exc:  # a request that raises is a failed request
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        c1 = process_time()
        if self.tracer is not None:
            self.tracer.active = False
        return result, error, t1 - t0, c1 - c0

    def timed_cli(self, req):
        root = self.settings["root"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        stats_path = os.path.join(self.settings["out_dir"], f"cli-{os.getpid()}.json")
        cpu0 = children_cpu_s()
        t0 = perf_counter()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "pureil.cli", *req["argv"]]
        else:
            cmd = [sys.executable, os.path.join(root, "bench", "cli_trace.py"),
                   stats_path, repr(t0), *req["argv"]]
        try:
            proc = subprocess.run(cmd, capture_output=True, env=env, cwd=root, timeout=CLI_TIMEOUT_S)
            result, error = (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")), None
        except subprocess.TimeoutExpired:
            result, error = None, f"timed out after {CLI_TIMEOUT_S} s"
        t1 = perf_counter()
        cpu = children_cpu_s() - cpu0
        if self.tracer is not None and os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
            os.remove(stats_path)
            # start and teardown of the interpreter, as the parent sees them
            stats["interpreter_s"] += t1 - stats.pop("t_done")
            self.tracer.adopt(stats.pop("spans"))
            self.tracer.spans_dropped += stats.pop("spans_dropped")
            merge_cli_stats(self.cli_stats, stats)
        return result, error, t1 - t0, cpu

    def run_block(self, block: list[dict]):
        """Run each request, then check it outside the timed region."""
        for req in block:
            result, error, seconds, cpu = self.timed(req)
            self.latencies.append(seconds)
            self.cpu.append(cpu)
            self.measured_s += seconds
            self.verify(req, result, error)

    def verify(self, req, result, error):
        if error:
            problems = [error]
        else:
            try:
                problems = self.check(self.lib, req, result, self.ctx, self.counters.add)
            except Exception as exc:  # an oracle that cannot read the result rejects it
                problems = [f"unreadable result: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if req.get("known_crash"):
                self.known_crashes += 1
            elif len(self.problems) < 20:
                self.problems.append(f"{req.get('case', req['kind'])}: {problems[0]}")


def merge_cli_stats(total: dict, stats: dict):
    for key in ("interpreter_s", "import_s", "tracer_s"):
        total[key] += stats[key]
    for layer, entry in stats["layers"].items():
        mine = total["layers"].setdefault(layer, {"calls": 0, "self_s": 0.0})
        mine["calls"] += entry["calls"]
        mine["self_s"] += entry["self_s"]
    for name, calls in stats["names"].items():
        total["names"][name] = total["names"].get(name, 0) + calls


def load_library(root: str):
    """Import `pureil` from the checkout's src/, and nowhere else."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import pureil

    where = os.path.realpath(pureil.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"pureil imported from {where}, not from {src}")
    return pureil


def main(settings: dict) -> dict:
    started = perf_counter()
    name, seed, mode = settings["workload"], settings["seed"], settings["mode"]
    in_process = name != "cli_processes"
    lib = load_library(settings["root"])
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        if in_process:
            tracer.install()
    loop = Loop(settings, lib, tracer)
    warm = Loop(settings, lib)
    warm.run_block([workloads.warmup_request(name, seed)])
    setup_s = perf_counter() - settings["t_spawn"]
    out = {"setup_s": setup_s, "warmup_failed": warm.failed, "warmup_problems": warm.problems}
    if mode == "setup":
        return out

    cut_short = False
    for block in workloads.blocks(name, seed):
        done = len(loop.latencies)
        if mode == "trace":
            if done >= settings["max_requests"]:
                break
        elif loop.measured_s >= settings["seconds"] and done >= settings.get("min_requests", 0):
            break
        if perf_counter() - started > MAX_WALL_S:
            cut_short = True
            break
        loop.run_block(block)

    n = len(loop.latencies)
    who = resource.RUSAGE_CHILDREN if name == "cli_processes" else resource.RUSAGE_SELF
    out.update(
        cut_short=cut_short,
        requests=n,
        failed=loop.failed,
        known_crashes=loop.known_crashes,
        problems=loop.problems,
        latencies=loop.latencies,
        measured_s=loop.measured_s,
        cpu=loop.cpu,
        peak_rss_mb=peak_rss_mb(who),
        counters=loop.counters.summary(max(n, 1)),
    )
    if tracer is not None:
        if in_process:
            out["layers"] = tracer.layer_totals()
            out["names"] = {key: stat[0] for key, stat in tracer.stats.items()}
        else:
            out.update(loop.cli_stats)
        out["spans_path"] = os.path.join(settings["out_dir"], f"spans-{name}-{seed}.jsonl")
        out["spans_kept"] = sum(span is not None for span in tracer.spans)
        out["spans_dropped"] = tracer.spans_dropped
        tracer.dump(out["spans_path"])
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
