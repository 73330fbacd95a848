"""In-memory span recorder that wraps library functions at their lookup site.

A hook names a module object, an attribute on it and the layer the call
belongs to. While installed, the attribute is replaced by a wrapper that
records one span per call: name, layer, start, end, parent span and job id.
Callers that look the function up through that module attribute at call
time (``linalg.frobenius_residual(...)``, or a bare name inside the module
that defines or imports it) reach the wrapper; nothing in the library
changes. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap ``getattr(module, attr)``; ``note(args, kwargs, result)`` may
    return extra attributes to store on the span."""

    module: object
    attr: str
    layer: str
    note: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), 0.0, parent, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, hook: Hook):
        name = hook.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook.note is not None:
                span.attrs.update(hook.note(args, kwargs, result))
            return result

        return wrapper

    def install(self, hooks) -> None:
        if self._saved:
            raise RuntimeError("tracer hooks are already installed")
        for hook in hooks:
            original = getattr(hook.module, hook.attr)
            self._saved.append((hook.module, hook.attr, original))
            setattr(hook.module, hook.attr, self._wrap(original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def job_span(self, job: str, hooks):
        """Record every hooked call made inside the block under ``job``,
        below one root span of layer ``bench.job``."""
        self.job = job
        self.install(hooks)
        root = self._open("bench.job", "bench.job")
        try:
            yield
        finally:
            self._close(root)
            self.uninstall()
            self.job = None

    def write_jsonl(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "job": s.job,
                }
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
