"""In-memory spans around calls into each layer's public entry points.

The benchmark never edits the program to trace it.  :meth:`Tracer.wrap`
replaces one bound method of one *instance* the benchmark holds (a job, a
history layer, a stack layer, the raw engine adapter, the HTTP endpoint's
backend) with a wrapper that opens a span, calls the original and closes the
span; :meth:`Tracer.unwrap_all` restores every instance afterwards.

A span records its name, start, end, the index of the span that was open on
the same thread when it started (its parent) and a trace id shared by every
span of one request — one scheduler step of one job.  Self time is a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence


class Span:
    """One timed call: ``end`` stays ``None`` until the call returns."""

    __slots__ = ("name", "start", "end", "parent", "trace")

    def __init__(self, name: str, start: float, parent: int, trace: int) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.trace = trace

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} never closed")
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; each thread keeps its own open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_trace = 0
        self._wrapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, new_trace: bool = False) -> Iterator[None]:
        """Time the enclosed block as one span.

        ``new_trace=True`` starts a new request (trace id) even under an open
        parent — used for each scheduler step, so the spans of one step share
        an id distinct from the scheduler's.
        """
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if parent < 0 or new_trace:
                trace = self._next_trace
                self._next_trace += 1
            else:
                trace = self.spans[parent].trace
            span = Span(name, self._clock(), parent, trace)
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            span.end = self._clock()
            stack.pop()

    def wrap(self, owner: object, attribute: str, name: str, new_trace: bool = False) -> None:
        """Trace every call of ``owner.attribute`` as a span called ``name``."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        tracer = self

        def traced(*args: object, **kwargs: object) -> object:
            with tracer.span(name, new_trace=new_trace):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._wrapped.append((owner, attribute, original if had_own else None))

    def unwrap_all(self) -> None:
        """Restore every wrapped instance to its untraced state."""
        while self._wrapped:
            owner, attribute, own_original = self._wrapped.pop()
            if own_original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own_original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to their parent's interval and merged where they
    overlap, so a span's self time is exactly the time no child accounts for.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.duration))
    selfs = []
    for index, span in enumerate(spans):
        end = span.start + span.duration
        covered = 0.0
        reach = span.start
        for start, duration in sorted(children.get(index, ())):
            low = max(start, reach)
            high = min(start + duration, end)
            if high > low:
                covered += high - low
                reach = high
        selfs.append(span.duration - covered)
    return selfs


def subtree_self_residuals(spans: Sequence[Span], root_name: str) -> list[float]:
    """For every span called ``root_name``: sum of self times over its whole
    subtree minus its duration.

    This is the "self times along a step add up to the step" check.  It is
    zero up to rounding when every child runs inside its parent and siblings
    do not overlap; a child escaping its parent or overlapping a sibling
    makes it positive.
    """
    selfs = self_times(spans)
    subtree = list(selfs)
    # A parent is always recorded before its children, so one backward pass
    # folds every subtree into its root.
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index].parent
        if parent >= 0:
            subtree[parent] += subtree[index]
    return [
        subtree[index] - span.duration
        for index, span in enumerate(spans)
        if span.name == root_name
    ]
