"""Outside-in span tracer for the benchmark's traced pass.

The tracer replaces module-level functions and class methods of the engine
with recording wrappers, in the namespace the engine looks each name up in
at call time, and puts the originals back on ``restore``. Spans are only
recorded under a root span that the benchmark opens around a measured call,
so untimed work (reference checks) leaves no trace.

Each span carries a name, start and end (``perf_counter_ns``), the index of
its parent span and the run id the benchmark set when it opened. Spans are
kept in compact arrays in memory; ``self_times`` derives per-span self time
(duration minus the time covered by direct children) and checks that every
child nests inside its parent.
"""

from __future__ import annotations

import threading
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

_MARK = "__perfbench_span__"


class TraceError(RuntimeError):
    """A wrap target is missing, or the recorded spans are inconsistent."""


def _lookup(owner, attr: str):
    # class attributes are read from the class dict, so a method comes back
    # as the plain function that restore must put back
    space = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attr not in space:
        raise TraceError(f"wrap target {owner.__name__}.{attr} does not exist")
    return space[attr]


def is_wrapped(owner, attr: str) -> bool:
    return hasattr(_lookup(owner, attr), _MARK)


class Tracer:
    """Records spans for the targets given as (owner, attribute, span name)."""

    def __init__(self, targets):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.name = array("q")
        self.run_id = 0
        self._stack = [-1]
        self._thread = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []
        # resolve every target before touching any, so a renamed engine
        # function fails the whole pass instead of silently losing a span
        self._resolved = [(owner, attr, _lookup(owner, attr), name)
                          for owner, attr, name in targets]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        if threading.get_ident() != self._thread:
            raise TraceError("span opened off the tracing thread; run with one client thread")
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        stack, open_, start, end = self._stack, self._open, self.start, self.end

        def wrapper(*args, **kwargs):
            if stack[-1] < 0:
                return fn(*args, **kwargs)
            idx = open_(name_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Root (or nested) span opened by the benchmark's own code."""
        idx = self._open(self._id(name))
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def install(self) -> None:
        for owner, attr, original, name in self._resolved:
            if hasattr(original, _MARK):
                raise TraceError(f"{owner.__name__}.{attr} is already wrapped")
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if _lookup(owner, attr) is not original:
                raise TraceError(f"could not restore {owner.__name__}.{attr}")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    Raises TraceError if a span ends before it starts, a child lies outside
    its parent's interval, or a self time comes out negative (children
    that overlap each other).
    """
    dur = end - start
    if np.any(dur < 0):
        raise TraceError("a span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if np.any(p >= child):
        raise TraceError("a span's parent was opened after it")
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        raise TraceError("a child span lies outside its parent")
    covered = np.bincount(p, weights=dur[child], minlength=len(dur)).astype(np.int64)
    own = dur - covered
    if np.any(own < 0):
        raise TraceError("child spans overlap: a self time is negative")
    return own
