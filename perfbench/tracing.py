"""In-memory spans around calls into the system's public functions.

The benchmark does not instrument the program: it wraps the public
methods of the objects it builds (instance attributes, restored on
``close``) and, for the in-process pipeline, ``Pipeline.run`` on the
class.  Each wrapper records a :class:`Span` — name, start, end, the
span that caused it and a trace id shared by every span of one job or
HTTP request.  Spans stay in memory until :meth:`Tracer.write` dumps
them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("span_id", "name", "trace", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, trace, parent, start):
        self.span_id = span_id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_payload(self) -> Dict[str, object]:
        return {
            "id": self.span_id, "name": self.name, "trace": self.trace,
            "parent": self.parent, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; a disabled tracer records nothing and wraps nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: trace id -> root span id, so spans opened on another thread
        #: (a job thread, an HTTP handler) still name their cause
        self._roots: Dict[str, int] = {}
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: str = "") -> Span:
        if not self.enabled:
            return Span(0, name, trace, None, 0.0)
        stack = self._stack()
        if not trace and stack:
            trace = stack[-1].trace
        parent = stack[-1].span_id if stack else self._roots.get(trace)
        span = Span(next(self._ids), name, trace, parent, time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        if not self.enabled:
            return span
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        return span

    def set_trace(self, span: Span, trace: str) -> None:
        """Name a root span's trace once the id is known (a job id comes
        back from the submit the span covers)."""
        span.trace = trace
        if span.parent is None:
            with self._lock:
                self._roots.setdefault(trace, span.span_id)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        trace_of: Optional[Callable[..., str]] = None,
        before: Optional[Callable[..., Dict[str, object]]] = None,
        after: Optional[Callable[[object], Dict[str, object]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``trace_of(*args, **kwargs)`` names the trace from the call's
        arguments; ``before`` adds attributes measured just before the
        call and ``after(result)`` attributes read from its result (a
        ``"trace"`` entry there names the trace instead).
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        on_class = isinstance(owner, type)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            call_args = args[1:] if on_class else args
            extra = before(*call_args, **kwargs) if before else {}
            trace = trace_of(*call_args, **kwargs) if trace_of else ""
            span = self.begin(name, trace or "")
            span.attrs.update(extra)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                self.end(span)
                raise
            self.end(span)
            if after is not None:
                found = after(result)
                span.trace = str(found.pop("trace", span.trace))
                span.attrs.update(found)
            return result

        setattr(owner, attr, wrapper)
        if on_class:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: owner.__dict__.pop(attr, None))

    def add(self, name: str, trace: str, start: float, end: float) -> None:
        """Record a span timed by the caller (overlapping client-side
        operations that no call stack nests)."""
        if not self.enabled:
            return
        span = Span(next(self._ids), name, trace, None, start)
        span.end = end
        with self._lock:
            self.spans.append(span)

    def adopt(self, key: str, traces: Dict[object, str]) -> None:
        """Give spans that carry ``attrs[key]`` the trace it maps to, and
        untraced spans their parent's trace (a job thread learns its job
        id only after the run it executes has started)."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.trace:
                continue
            if key in span.attrs:
                span.trace = traces.get(span.attrs[key], "")
                if span.parent is None:
                    span.parent = self._roots.get(span.trace)
            elif span.parent in by_id:
                span.trace = by_id[span.parent].trace

    def close(self) -> None:
        """Undo every wrap, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        with path.open("w") as out:
            for span in spans:
                out.write(json.dumps(span.to_payload(), sort_keys=True) + "\n")
