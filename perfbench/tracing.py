"""In-memory spans recorded around calls into the program's layers.

A span is (op id, name, start, end, parent span index). Spans of one op (a
stream step or a training example) share the op id; the parent is the span
that was open when the call started, or -1. Nothing is written until the run
ends, so recording a span costs two clock reads and a list append.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (self.op, name, t0, t1, parent)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0)

    def wrap(self, name: str, fn):
        """Return `fn` with a span named `name` around every call."""

        def timed(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0)

        return timed

    def durations_ms(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1000.0 for s in self.spans if s is not None and s[1] == name]

    def self_ms(self, name: str) -> list[float]:
        """Duration of each span named `name` minus the time its child spans cover."""
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s is not None and s[4] >= 0:
                child_ms[s[4]] = child_ms.get(s[4], 0.0) + (s[3] - s[2]) * 1000.0
        return [
            (s[3] - s[2]) * 1000.0 - child_ms.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s is not None and s[1] == name
        ]

    def to_json(self, t_ref: float) -> list[dict]:
        """Spans as dicts with times in ms from `t_ref`."""
        return [
            {
                "id": i,
                "op": s[0],
                "name": s[1],
                "start_ms": (s[2] - t_ref) * 1000.0,
                "end_ms": (s[3] - t_ref) * 1000.0,
                "parent": s[4],
            }
            for i, s in enumerate(self.spans)
            if s is not None
        ]
