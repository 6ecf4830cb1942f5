"""Spans recorded from outside the program.

The tracer wraps public functions at the module attribute each caller
imports them under (``powergram.cli.build_ecm``, not only
``powergram.centrality.build_ecm``), so the library is not modified.
Spans are kept in memory and written out once, at the end of a run.
Private helpers such as the optimizer's Lyapunov call are not wrapped
and stay invisible.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    answer: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; thread-aware so the oracle's pool is attributed.

    A span opened on a worker thread with no open span of its own takes
    the innermost open span of the main thread as its parent, which is
    the call that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(
            id=next(self._ids), name=name, start=time.perf_counter(), end=0.0,
            parent=parent.id if parent else None,
            answer=parent.answer if parent else None,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def answer(self, name: str, answer_id: int):
        """One CLI answer, the root of its spans."""
        span = self._open(name)
        span.answer = answer_id
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Replace ``module.attr`` by a timed wrapper until :meth:`restore`.

        ``annotate(args, kwargs, result)`` may return extra attributes
        recorded on the span. A name the module no longer has is listed
        in ``missing`` and left alone, so the layer then reads as idle.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans: list[Span], root: Span) -> float:
    """A span's duration minus the part its direct children cover."""
    children = [(s.start, s.end) for s in spans if s.parent == root.id]
    return root.duration - union_length(children)
