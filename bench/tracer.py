"""Per-layer spans for the benchmark's traced runs.

The layers are the modules of `src/pureil`.  Wrappers are installed from the
benchmark's side: every public function and every public method (plus
`__init__`) of every public class defined in a `pureil` module gets a
wrapper, and each name another `pureil` module (or the package namespace)
bound to the original is re-pointed at the wrapper, so calls that cross a
module boundary always pass through one.

Each wrapped call is a span (name, start, end, parent).  Self time is the
span's duration minus the time its child spans cover, and a layer's self time
is the sum over the spans of its functions.  Self time and call counts are
accumulated as spans close, so they cover every span.  The spans themselves
are kept in memory up to MAX_SPANS and written out by `dump` when the run
ends; `spans_dropped` counts the ones past the cap, and the runner puts it in
the run record, so a truncated dump shows.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "pureil"
# about 150 bytes each in memory and 60 in the dump
MAX_SPANS = 200_000


def layer_modules() -> dict[str, object]:
    """Loaded `pureil.<layer>` modules by layer name.

    Modules come from `sys.modules`: `import pureil.nabla as m` would give the
    *function* `nabla`, because the package namespace rebinds that name.
    """
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and name.count(".") == 1 and module is not None
    }


class Tracer:
    """Span recorder; `active` gates recording so untimed code is not traced."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.spans_dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[list] = []  # open frames: [span index, parent, child seconds, start]

    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -2
            self.spans_dropped += 1
        frame = [index, parent, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list):
        end = perf_counter()
        index, parent, child, start = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - child
        if index >= 0:
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator's body runs on each resume, so each resume is a span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter() if tracer.active else None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer._exit(name, frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return wrapper

    def install(self):
        """Wrap every public callable of the loaded `pureil` modules."""
        modules = layer_modules()
        replaced: dict[int, tuple] = {}
        for layer, module in modules.items():
            qualified = f"{PACKAGE}.{layer}"
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != qualified:
                    continue
                if inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            setattr(value, meth, self._wrap(f"{layer}:{attr}.{meth}", fn))
                elif inspect.isfunction(value) or hasattr(value, "__wrapped__"):  # plain or lru_cache
                    replaced[id(value)] = (value, self._wrap(f"{layer}:{attr}", value))
        # re-point every binding of a wrapped function, wherever it was imported
        for module in [sys.modules[PACKAGE], *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer (the part of a name before ':')."""
        out: dict[str, dict[str, float]] = {}
        for name, (calls, self_s) in self.stats.items():
            entry = out.setdefault(name.split(":", 1)[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
        return out

    def adopt(self, spans: list):
        """Append the spans another tracer recorded (a CLI process's), with
        their parent indices moved past the spans already kept."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
            else:
                self.spans_dropped += 1

    def dump(self, path: str):
        """Write the kept spans, one JSON array per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
