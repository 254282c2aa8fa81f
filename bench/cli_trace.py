"""Run one `pureil` CLI command with per-layer tracing.

Usage: python3 bench/cli_trace.py STATS_PATH T_SPAWN ARGV...

Stdout, stderr and the exit code are those of `python -m pureil.cli ARGV...`.
STATS_PATH receives, as JSON: per-layer calls and self time; the interpreter
start (T_SPAWN, the parent's `perf_counter` just before it started this
process, to the first line here); the time to import `pureil.cli`; the
tracer's own import and install time; the spans, and how many were dropped
past the tracer's cap; and `t_done`, the clock just before the file is
written, from which the parent takes the interpreter teardown.
"""

import sys
from time import perf_counter

started = perf_counter()


def main() -> int:
    stats_path, t_spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import pureil.cli

    t1 = perf_counter()
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer_s = perf_counter() - t1
    tracer.active = True
    try:
        return pureil.cli.main(argv)
    except SystemExit as stop:
        return stop.code
    finally:
        tracer.active = False
        import json

        stats = {
            "interpreter_s": started - t_spawn,
            "import_s": t1 - t0,
            "tracer_s": tracer_s,
            "layers": tracer.layer_totals(),
            "names": {key: stat[0] for key, stat in tracer.stats.items()},
            "spans": [span for span in tracer.spans if span is not None],
            "spans_dropped": tracer.spans_dropped,
            "t_done": perf_counter(),
        }
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(stats, handle)


if __name__ == "__main__":
    sys.exit(main())
