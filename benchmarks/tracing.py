"""Span tracer that wraps the program's public functions from outside.

The tracer never edits the program's source. :meth:`Tracer.wrap_function`
replaces a function object with a timing wrapper in *every* loaded module
that binds it (``featurize`` is bound in ``lamlab.policy``,
``lamlab.policy.model``, ``lamlab.training.losses``, ...), so calls made
through any of those names are seen. :meth:`Tracer.wrap_method` does the
same for a method on its class. :meth:`Tracer.uninstall` restores every
binding it replaced.

Spans are kept in memory as flat integer arrays (id, parent id, name id,
start ns, end ns) and written out once, at the end. Parent ids follow the
call stack of each thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable


class TraceSetupError(RuntimeError):
    """A name the tracer was asked to wrap does not exist (the program
    changed shape), or a workload's calls into the layers are not the ones
    it must make."""


NameFn = Callable[[tuple, dict], str]
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        # Distinct (state, candidate) pairs seen by a wrapped function. The
        # state objects are held here so that no id() is reused while the
        # tracer lives.
        self._pairs: dict[str, set] = defaultdict(set)
        self._held: dict[int, object] = {}

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def active(self, name: str) -> bool:
        """Whether a span of this name is open on the calling thread."""
        nid = self._name_ids.get(name)
        return nid is not None and any(n == nid for _, n in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def note_pair(self, name: str, state: object, key: object) -> None:
        """Record one (state, key) pair under ``name``; states by identity."""
        with self._lock:
            self._held[id(state)] = state
            self._pairs[name].add((id(state), key))

    def distinct(self, name: str) -> int:
        return len(self._pairs.get(name, ()))

    def _record(self, sid: int, parent: int, nid: int, start: int, end: int) -> None:
        with self._lock:
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)

    def traced(self, fn: Callable, name: str | NameFn, hook: Hook | None = None) -> Callable:
        """A wrapper around ``fn`` that records one span per call, named
        ``name`` or ``name(args, kwargs)``, then runs ``hook`` on the result."""
        fixed = None if callable(name) else self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, nid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._record(sid, parent, nid, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- installation -------------------------------------------------------

    def wrap_function(
        self, module: str, attr: str, name: str | NameFn, hook: Hook | None = None
    ) -> int:
        """Wrap ``module.attr`` at every module that binds that function
        object. Returns the number of bindings replaced."""
        original = _lookup(module, attr)
        wrapper = self.traced(original, name, hook)
        replaced = 0
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    replaced += 1
        return replaced

    def wrap_method(
        self, module: str, qualname: str, name: str | NameFn, hook: Hook | None = None
    ) -> None:
        """Wrap ``Class.method`` (``qualname``) on the class that defines it."""
        cls_name, _, method = qualname.partition(".")
        cls = _lookup(module, cls_name)
        if method not in vars(cls) or not callable(vars(cls)[method]):
            raise TraceSetupError(f"{module}.{qualname} no longer exists")
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self.traced(original, name, hook))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- results --------------------------------------------------------------

    def spans(self) -> Iterable[tuple[int, int, str, int, int]]:
        for i in range(len(self.span_id)):
            yield (
                self.span_id[i],
                self.span_parent[i],
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
            )

    def summary(self, self_time_for: Iterable[str] = ()) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and, for the names asked for,
        ``self_s``."""
        return summarize(self.spans(), self_time_for)

    def write(self, path: str | Path) -> None:
        """Write all spans as tab-separated lines, times relative to the
        first span start."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start) if len(self.span_start) else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans():
                fh.write(f"{sid}\t{parent}\t{name}\t{start - origin}\t{end - origin}\n")


def _lookup(module: str, attr: str):
    try:
        value = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as exc:
        raise TraceSetupError(f"{module}.{attr} no longer exists: {exc}") from exc
    if not callable(value):
        raise TraceSetupError(f"{module}.{attr} is not callable")
    return value


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(
    spans: Iterable[tuple[int, int, str, int, int]], self_time_for: Iterable[str] = ()
) -> dict[str, dict[str, float]]:
    """Aggregate spans ``(id, parent, name, start_ns, end_ns)``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    wanted = set(self_time_for)
    out: dict[str, dict[str, float]] = {}
    spans = list(spans)
    interval_of: dict[int, tuple[str, int, int]] = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += (end - start) / 1e9
        if name in wanted:
            interval_of[sid] = (name, start, end)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent in interval_of:
            children[parent].append((start, end))
    for name in wanted:
        if name in out:
            out[name]["self_s"] = 0.0
    for sid, (name, start, end) in interval_of.items():
        out[name]["self_s"] += ((end - start) - covered_ns(children.get(sid, []))) / 1e9
    return out
