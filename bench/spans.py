"""In-memory spans around the benchmark's calls into reallot.

A span is ``(name, start, end, parent, group)``: ``parent`` is the index of
the enclosing span or -1, and ``group`` names what the span belongs to:
``p<pass>/<request id>`` for a request, ``setup<k>`` for a set-up
repetition. Spans stay in memory and are written once, at exit.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Tracing off: ``wrap`` hands back the function itself, so untraced
    runs call reallot with no indirection at all."""

    enabled = False

    def wrap(self, name, fn):
        return fn

    @contextmanager
    def request(self, group):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._group = ""

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)  # filled on close; children point here
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._group)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)

        return traced

    @contextmanager
    def request(self, group):
        """The root span of one request or one set-up repetition."""
        self._group = group
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, "request", start)
            self._group = ""

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict[str, dict[str, list]]:
    """Per group and span name: ``[calls, busy_s, self_s]``. Self time is
    the span's duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _group in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for i, (name, start, end, _parent, group) in enumerate(spans):
        entry = out[group][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return out
