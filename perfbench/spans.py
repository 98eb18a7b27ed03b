"""In-memory span recorder and attribute patcher for the traced benchmark run.

Spans are recorded from outside the program: :class:`Patch` replaces module
and class attributes that the library looks up at call time with wrappers
made by :class:`Recorder`, and puts every original back on exit.  A span is
(name, parent, start, end); spans are appended on entry, so a parent always
precedes its children, and one thread runs everything, so children never
overlap each other.  Counters sit beside the spans for work that is counted
but not timed (object constructions) and for values read from results.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

__all__ = ["Recorder", "Patch", "self_times"]


class Recorder:
    """Spans in flat typed arrays (about 24 bytes each) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name, after=None):
        """Wrap ``fn`` so every call records a span.

        ``name`` is a string, or a function of the call's arguments returning
        one (used to tag a branch).  ``after(recorder, result)`` runs on each
        successful return, to read counts out of the result.
        """
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, ids, name_id, clock = self._stack, self._ids, self.name_id, time.perf_counter
        fixed = name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            if fixed is not None:
                names.append(fixed)
            else:
                tag = name(*args, **kwargs)
                nid = ids.get(tag)
                names.append(nid if nid is not None else name_id(tag))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key: str):
        """Wrap ``fn`` so every call adds one to ``counts[key]``; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self):
        """(name, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one parent are disjoint (single thread, nested calls), so
    the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Patch:
    """Context manager that sets attributes and restores the originals.

    ``targets`` is a list of (owner, attribute, replacement).  An attribute
    patched twice keeps its first original, so restoring is exact.
    """

    def __init__(self, targets):
        self._targets = list(targets)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for owner, attr, replacement in self._targets:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
