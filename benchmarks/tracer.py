"""Spans around the calls into prodgeo's layers, recorded from outside.

``Tracer.install`` wraps every public module-level function of each layer
module (``core``, ``geodesics``, ...) and rebinds the wrapper wherever a
prodgeo module holds the original, so calls between modules and inside a
module are seen as well as the benchmark's own calls.  ``uninstall`` puts
the originals back.  Nothing in ``src/`` is changed.

Per span name the tracer keeps calls, total time, self time (the span's
duration minus the time covered by its child spans) and exceptions raised.
Spans carry their parent's id and the id of the operation (root span) they
belong to; the first ``keep`` spans are kept in memory for writing out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("core", "geodesics", "isometries", "triangles", "sweep", "oracle",
          "verification", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "exceptions")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.exceptions = 0


class Tracer:
    def __init__(self, keep: int = 0):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.keep = keep
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._op_id = None
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; a span with no parent
        starts a new operation."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        if stack:
            parent = stack[-1][0]
        else:
            parent = None
            self._op_id = span_id
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.exceptions += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < self.keep:
                self.spans.append((span_id, parent, self._op_id, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        import prodgeo  # noqa: F401  (loads the package and its modules)
        import prodgeo.cli  # noqa: F401

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"prodgeo.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "prodgeo" or name.startswith("prodgeo."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
