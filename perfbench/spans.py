"""Layer spans recorded from outside the program.

``Tracer`` wraps every public function of the timed cirkit modules in every
cirkit module namespace that binds it (``cli`` calls ``io.read_iq`` through
the module, ``gbsm`` binds ``average_pdp`` by name), so nested calls become
nested spans. Spans are kept in memory; nothing is written while timing.
The wrappers are installed only while a traced operation runs, and the
original functions are put back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "cirkit"
LAYERS = ("io", "sounder", "analysis", "gbsm", "svgplot")


class Tracer:
    def __init__(self, byte_counted: frozenset[str] = frozenset()):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.nbytes: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched: list = []
        self.names = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.names.add(name)
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, name in byte_counted))

    def _wrap(self, name, fn, count_bytes: bool):
        spans, stack, nbytes = self.spans, self._stack, self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_bytes:
                nbytes[name] += os.path.getsize(args[0])  # the file read or written
            return result

        return traced

    def __enter__(self):
        self.spans.clear()
        self.nbytes.clear()
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False


def summarize(spans, nbytes, op_seconds: float) -> dict[str, float]:
    """Per-operation figures: ``<f>.s``, ``<f>.calls``, ``<f>.self_s``,
    ``<f>.mb_per_s`` for every function that ran, and ``cli.self_s``, the
    operation time that no span covers."""
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    top = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        own[name] += duration - children[index]
        busy[name] += duration
        if parent < 0:
            top += duration
    figures = {"cli.self_s": op_seconds - top, "spans.top_s": top}
    for name in calls:
        figures[f"{name}.s"] = busy[name]
        figures[f"{name}.calls"] = float(calls[name])
        figures[f"{name}.self_s"] = own[name]
        if name in nbytes and busy[name] > 0:
            figures[f"{name}.mb_per_s"] = nbytes[name] / 1e6 / busy[name]
    return figures
