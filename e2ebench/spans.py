"""Spans recorded around the program's layer entry points.

The benchmark wraps functions and methods of the program from here, by
setting module and class attributes, and removes the wrappers again; no
program file changes.  Spans stay in memory until the run ends.  Worker
processes forked while wrappers are installed skip recording, so their
internals stay unmeasured.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from measure import merged_length


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def recording(self) -> bool:
        return self.active and os.getpid() == self._pid

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent=None if parent is None else parent.sid,
            request=request,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


Hook = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class EntryPoint:
    """One attribute of a module or class to wrap, and its span name."""

    owner: Any
    attr: str
    name: str
    before: Callable[[Span, tuple, dict], None] | None = None
    after: Hook | None = None


def _wrap(recorder: Recorder, point: EntryPoint, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.recording():
            return fn(*args, **kwargs)
        with recorder.span(point.name) as span:
            if point.before is not None:
                point.before(span, args, kwargs)
            result = fn(*args, **kwargs)
            if point.after is not None:
                point.after(span, args, kwargs, result)
            return result

    return traced


class Wrappers:
    """Installs and removes the wrappers for a set of entry points."""

    def __init__(self, recorder: Recorder, points: Sequence[EntryPoint]) -> None:
        self.recorder = recorder
        self.points = list(points)
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        for point in self.points:
            original = vars(point.owner)[point.attr]
            self._saved.append((point.owner, point.attr, original))
            setattr(point.owner, point.attr, _wrap(self.recorder, point, original))
        self.recorder.active = True
        try:
            yield
        finally:
            self.recorder.active = False
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = merged_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.sid, ())
            if end > span.start and start < span.end
        )
        result[span.sid] = span.duration - covered
    return result


def root_names(spans: Sequence[Span]) -> dict[int, str]:
    """The name of the outermost ancestor of every span."""
    by_id = {span.sid: span for span in spans}
    roots: dict[int, str] = {}

    def root_of(span: Span) -> str:
        chain = []
        current = span
        while current.sid not in roots:
            chain.append(current)
            parent = by_id.get(current.parent) if current.parent else None
            if parent is None:
                roots[current.sid] = current.name
                break
            current = parent
        name = roots[current.sid]
        for member in chain:
            roots[member.sid] = name
        return name

    for span in spans:
        root_of(span)
    return roots


@dataclass
class LayerTotal:
    self_seconds: float = 0.0
    total_seconds: float = 0.0
    count: int = 0


def layer_totals(
    spans: Sequence[Span], side_of: Callable[[str], str]
) -> dict[tuple[str, str], LayerTotal]:
    """Self time, inclusive time and call count by (side, span name).

    *side_of* maps a root span's name to the side ("read" or "write")
    whose operation caused the work.
    """
    selfs = self_times(spans)
    roots = root_names(spans)
    totals: dict[tuple[str, str], LayerTotal] = defaultdict(LayerTotal)
    for span in spans:
        entry = totals[(side_of(roots[span.sid]), span.name)]
        entry.self_seconds += selfs[span.sid]
        entry.total_seconds += span.duration
        entry.count += 1
    return totals
