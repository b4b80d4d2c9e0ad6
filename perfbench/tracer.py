"""In-memory span tracer that wraps package functions where callers find them.

A function is wrapped in every ``bidouble`` module namespace that holds it,
because callers look names up in their own module (``cli.search``, or
``surface_invariants`` inside ``bidouble.search``).  Spans (name, start, end,
parent) are kept in flat arrays and written out once at the end; a layer's
self time is its span time minus the time of the spans nested directly in it.
Functions called per type are only counted, which keeps the overhead low.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _timed(self, nid: int, call: Callable[[], Any]) -> Any:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return call()
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, after: Callable[[Any], None] | None = None):
        """Decorator factory: record a span per call, then ``after(result)``."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.span_name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after is not None:
                    after(result)
                return result

            return wrapper

        return wrap

    def iterator(self, name: str, count_key: str):
        """Decorator factory for generator functions: one span per ``next()``.

        Items yielded are counted under ``count_key``.
        """
        nid = self._name_id(name)
        tracer = self
        self.counts[count_key] += 0

        class _Traced:
            def __init__(self, inner):
                self._next = inner.__next__

            def __iter__(self):
                return self

            def __next__(self):
                item = tracer._timed(nid, self._next)
                tracer.counts[count_key] += 1
                return item

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _Traced(fn(*args, **kwargs))

            return wrapper

        return wrap

    def counter(self, name: str):
        """Decorator factory that only counts calls."""
        counts = self.counts
        key = name + ".calls"
        counts[key] += 0

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def install(self, module_name: str, attr: str, decorator) -> None:
        """Wrap ``module_name.attr`` in every loaded ``bidouble`` namespace that holds it.

        A missing function is skipped; its metrics then read zero.
        """
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            return
        wrapped = decorator(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bidouble" and not mod_name.startswith("bidouble."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time, in seconds."""
        children = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            row = out[self.names[nid]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - children[i]
        return out

    def write(self, handle, rep: int) -> None:
        """Append this repetition's spans as one JSON line, times in microseconds."""
        origin = self.start[0] if self.start else 0.0
        json.dump(
            {
                "rep": rep,
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.parent.tolist(),
                "start_us": [round((t - origin) * 1e6) for t in self.start],
                "end_us": [round((t - origin) * 1e6) for t in self.end],
            },
            handle,
            separators=(",", ":"),
        )
        handle.write("\n")
