"""Spans and counters recorded from outside qcap, by wrapping its callables.

Each wrapped callable is replaced at the name its consumer looks up (for
example ``qcap.tradeoff.batched_entropy`` rather than only
``qcap.linalg.batched_entropy``) and restored when the patch context exits.
A span records its name, start, end, parent span and job id; spans stay in
memory until the run writes them out as JSONL.  Self time is a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    nested: bool           # inside another span of the same name
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """In-memory span recorder; one per traced pass."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    job: str = ""
    _stack: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        nested = any(s.name == name for s in self._stack)
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0,
                  parent.id if parent else None, self.job, nested)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration
            self.spans.append(sp)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)`` adds counts."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapped

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time leaves out spans nested in another of the same name,
        so recursion and re-entry are not counted twice.
        """
        out: dict[str, tuple[int, float, float]] = {}
        for s in self.spans:
            calls, inclusive, self_s = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, inclusive + (0.0 if s.nested else s.duration),
                           self_s + s.self_s)
        return out

    def job_self_s(self) -> dict[str, float]:
        """Sum of span self times per job id."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.job] = out.get(s.job, 0.0) + s.self_s
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda x: x.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     "self_s": s.self_s}) + "\n")


@contextlib.contextmanager
def patched(replacements):
    """Apply ``(owner, attribute, make)`` triples, restoring every original on exit.

    ``owner.attribute`` becomes ``make(original)``.  An attribute the owner
    does not define is skipped, so tracing keeps working when qcap drops one
    of the names it wraps.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
