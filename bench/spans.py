"""Spans recorded from outside the program, around its public functions.

The tracer swaps a module attribute for a wrapper that records one span
per call: job id, span id, parent span id, name, start and end in
nanoseconds. The program is not changed: the engine and the CLI look
their collaborators up in their own module namespace on every call, so
patching that namespace is enough. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

Span = tuple[int, int, int, str, int, int]  # job, id, parent, name, start_ns, end_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = 0
        self._stack = [0]
        self._next = 1

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.job, sid, parent, name, start, end))

        return traced

    def job_spans(self, job: int) -> list[Span]:
        return [s for s in self.spans if s[0] == job]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("job,span,parent,name,start_ns,end_ns\n")
            for s in self.spans:
                f.write(",".join(map(str, s)) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Replace ``(owner, attribute, make_wrapper)`` targets; restore them on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, total seconds, and self seconds (minus child spans)."""
    child_ns: dict[int, int] = defaultdict(int)
    for _job, _sid, parent, _name, start, end in spans:
        child_ns[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
    for _job, sid, _parent, name, start, end in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child_ns[sid]
    return {name: (c, total / 1e9, own / 1e9) for name, (c, total, own) in out.items()}
