"""Span tracing of setpart's public functions, from outside the library.

`Tracer.install` replaces every public function of the setpart modules,
and every public method of their classes, by a wrapper that records one
span (name, start, end, parent) per call.  A function is replaced at
each module attribute bound to it, so a call is seen wherever the caller
looks the name up: `verify` calls `core.trace_profile`, `stats` calls
its own imported `classify`, and both go through the wrapper.  Calls of
a generator record one span per item.  Spans stay in memory, in flat
arrays, until `aggregate` reads them.

Limitations: operators and other dunder methods (`QPolynomial.__mul__`,
dataclass `__init__`/`__eq__`), properties, the cached `blocks` view and
private helpers (`verify._sweep`, `core._rgf_words`) are not wrapped, so
their time stays in the self time of the public function that calls them.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
from array import array
from time import perf_counter

MODULES = ("core", "stats", "bijections", "motzkin", "qseries", "verify", "cli")
LIMITATION = (
    "spans wrap public functions and public methods at the module attributes "
    "callers look up; dunder methods, properties, the cached block view and "
    "private helpers run inside their caller's self time"
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.items: list[int] = []  # per name: generator items yielded
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.items.append(0)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        opener, closer, items = self._open, self._close, self.items

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = opener(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            closer(idx)
                        items[nid] += 1
                        yield item
                finally:
                    it.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of setpart's modules."""
        modules = [getattr(package, short) for short in MODULES]
        replacement: dict[int, object] = {}
        for short, mod in zip(MODULES, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = self.wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_methods(obj, f"{short}.{name}")
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    self._patch(mod, name, replacement[id(obj)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, name, self.wrap(obj, f"{prefix}.{name}"))
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapped = self.wrap(obj.__func__, f"{prefix}.{name}")
                self._patch(cls, name, type(obj)(wrapped))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, items, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        count = len(self.start)
        child = self._child = array("d", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(count):
            row = stats[self.name_id[i]]
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {
            name: {"calls": c, "items": self.items[nid], "total_s": t, "self_s": s}
            for nid, (name, (c, t, s)) in enumerate(zip(self.names, stats))
        }

    def self_time(self, idx: int) -> float:
        """Self seconds of one span; valid after `aggregate`."""
        return self.end[idx] - self.start[idx] - self._child[idx]

    def enclosing(self, idx: int, prefix: str) -> str:
        """Name of the nearest enclosing span whose name starts with `prefix`."""
        idx = self.parent[idx]
        while idx >= 0:
            name = self.names[self.name_id[idx]]
            if name.startswith(prefix):
                return name
            idx = self.parent[idx]
        return ""

    def spans_named(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, v in enumerate(self.name_id) if v == nid]

