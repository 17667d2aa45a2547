"""In-memory span recorder, counters and attribute patching.

A span is (name, start, end, parent, request): parent is the index of the
span open when it started (-1 at the top), request the id of the CLI run
it belongs to.  Spans live in compact arrays while a traced pass runs and
are written out once, when the benchmark ends.  Self time of a span is its
duration minus the durations of its direct children; spans on one thread
nest strictly, so that is the part of its interval no child covers.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans plus named counters and samples for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def arrays(self) -> dict:
        """Spans as numpy arrays, with duration and self time per span."""
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        dur = end - start
        return {
            "name": np.array(self.name, dtype=np.int64),
            "names": list(self.names),
            "start": start,
            "end": end,
            "parent": parent,
            "request": np.array(self.request, dtype=np.int64),
            "dur": dur,
            "self": self_times(parent, dur),
        }


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration minus the summed durations of each span's direct children."""
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


class Patcher:
    """setattr with an undo log; restore() puts every original back."""

    def __init__(self):
        self._undo: list = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, value) -> int:
        """Rebind every module attribute that refers to original; returns the count."""
        hits = 0
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.replace(mod, attr, value)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
