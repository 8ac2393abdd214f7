"""In-memory span tracer for the benchmark's traced run.

A span is (name, parent span, sequence id, start, end). Spans live in flat
arrays while the run lasts and are written out once at the end. A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded, so the children of one span never overlap.

Two kinds of span exist. ``span()`` is a context manager the benchmark
puts around the public calls it makes. ``wrap()`` replaces a function
inside a ``plbench`` module (or a method on a class) for the length of the
traced run, so calls the library makes internally are recorded too. A
function has to be wrapped in the namespace that calls it, because
``from .x import f`` binds a name of its own. ``restore()`` puts every
original back.
"""
from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class NullTracer:
    """Stands in for the tracer in the untraced run: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name):
        yield

    def begin_sequence(self):
        return -1

    def end_sequence(self):
        pass

    def count(self, name, value=1.0):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.seq = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._seq = -1
        self._next_seq = 0
        self.counts: dict[int, dict[str, float]] = {}
        self.samples: dict[int, dict[str, list[float]]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def _open(self, name_ix: int) -> int:
        i = len(self.start)
        self.name.append(name_ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.seq.append(self._seq)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(i)

    def begin_sequence(self) -> int:
        """Start a sequence id; spans, counts and samples until
        ``end_sequence`` belong to it."""
        self._seq = self._next_seq
        self._next_seq += 1
        return self._seq

    def end_sequence(self) -> None:
        self._seq = -1

    def count(self, name, value=1.0):
        c = self.counts.setdefault(self._seq, {})
        c[name] = c.get(name, 0.0) + value

    def sample(self, name, value):
        self.samples.setdefault(self._seq, {}).setdefault(name, []).append(float(value))

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a function that records a span named
        ``name`` around each call. ``observe(tracer, args, result)`` runs
        after a call that returned."""
        original = vars(owner)[attr]
        name_ix = self._name_index(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = tracer._open(name_ix)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, tuple[float, int]]]:
        """sequence id -> span name -> (total self time s, call count)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        name = np.frombuffer(self.name, dtype=np.int32)
        seq = np.frombuffer(self.seq, dtype=np.int32)
        out: dict[int, dict[str, tuple[float, int]]] = {}
        key = seq.astype(np.int64) * len(self.names) + name
        uniq, inverse = np.unique(key, return_inverse=True)
        totals = np.bincount(inverse, weights=own)
        calls = np.bincount(inverse)
        for k, total, c in zip(uniq, totals, calls):
            s, nm = divmod(int(k), len(self.names))
            out.setdefault(s, {})[self.names[nm]] = (float(total), int(c))
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            seq=np.frombuffer(self.seq, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
