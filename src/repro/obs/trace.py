"""Per-query span trees with a contextvar fast path.

One :class:`Tracer` records one query's execution as a tree of
:class:`Span` nodes (parse, plan, admission wait, per-morsel execution,
merge, serialize ...).  Instrumentation sites call the module-level
:func:`span` / :func:`annotate` / :func:`record` helpers; when no trace
is active (the default) those are near-free -- a single
``ContextVar.get()`` returning ``None`` -- so the instrumented hot
paths cost nothing for untraced traffic.  This is the contextvar fast
path the overhead regression test pins.

Activation is explicit: the owner of a flow calls
``token = activate(tracer, tracer.root)`` on the thread that executes
it and ``deactivate(token)`` when done, so traces follow requests
across the service's admission/worker thread handoff (contextvars do
not propagate between threads by themselves).

Cross-process spans (the morsel executions inside
:mod:`repro.core.parallel` workers) are recorded as plain timing tuples
in the worker, shipped over the result channel and grafted into the
active trace with :func:`record`; timestamps are shifted into the
parent span's window so the nesting invariant (children lie within
their parents) holds even if the processes' clocks disagree.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar

from repro.obs.clock import Clock, DEFAULT_CLOCK

#: (tracer, current span) of the active trace on this thread/context,
#: or None -- the disabled fast path.
_ACTIVE: ContextVar["tuple[Tracer, Span] | None"] = ContextVar(
    "repro_obs_active", default=None
)


class Span:
    """One named, timed node of a trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs", "children")

    def __init__(self, name, span_id, parent_id, start, attrs=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = None
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self, origin: float) -> dict:
        """The span subtree as plain data; times in milliseconds
        relative to ``origin`` (normally the root span's start)."""
        duration = self.duration
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round((self.start - origin) * 1e3, 6),
            "duration_ms": None if duration is None else round(duration * 1e3, 6),
            "attrs": dict(self.attrs),
            "children": [child.to_dict(origin) for child in self.children],
        }


class Tracer:
    """Builds one query's span tree against an injectable clock.

    Span ids are allocated sequentially in creation order, so a
    deterministic execution (single worker, :class:`FakeClock`) yields
    a bit-identical trace -- the golden-trace tests rely on this.
    """

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or DEFAULT_CLOCK
        self.root: Span | None = None
        self._lock = threading.Lock()
        self._next_id = 0

    def _allocate(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def start(self, name: str, **attrs) -> Span:
        """Open the root span.  A tracer traces exactly one tree."""
        if self.root is not None:
            raise RuntimeError("tracer already has a root span")
        self.root = Span(name, self._allocate(), None, self.clock.now(), attrs)
        return self.root

    def child(self, parent: Span, name: str, attrs=None, start=None) -> Span:
        span = Span(
            name,
            self._allocate(),
            parent.span_id,
            self.clock.now() if start is None else start,
            attrs,
        )
        with self._lock:
            parent.children.append(span)
        return span

    def finish(self, span: Span | None = None, end: float | None = None) -> None:
        span = span if span is not None else self.root
        if span is None or span.end is not None:
            return
        end_time = self.clock.now() if end is None else end
        # Grafted cross-process children carry timestamps from another
        # clock domain and may extend past this moment; widen the span
        # so children always nest within their parents.
        for child in span.children:
            if child.end is not None and child.end > end_time:
                end_time = child.end
        span.end = end_time

    def render(self) -> dict:
        """The finished tree as plain data (root must exist)."""
        if self.root is None:
            raise RuntimeError("tracer never started a root span")
        if self.root.end is None:
            self.finish(self.root)
        return self.root.to_dict(self.root.start)


# ----------------------------------------------------------------------
# Context helpers (the instrumentation surface)
# ----------------------------------------------------------------------
def activate(tracer: Tracer, span: Span):
    """Install ``span`` as the current parent on this thread/context;
    returns a token for :func:`deactivate`."""
    return _ACTIVE.set((tracer, span))


def deactivate(token) -> None:
    _ACTIVE.reset(token)


def active() -> bool:
    return _ACTIVE.get() is not None


class _NullSpan:
    """Singleton no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens a child span under the current one."""

    __slots__ = ("_name", "_attrs", "_token", "span")

    def __init__(self, name, attrs):
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer, parent = _ACTIVE.get()
        self.span = tracer.child(parent, self._name, self._attrs)
        self._token = _ACTIVE.set((tracer, self.span))
        return self.span

    def __exit__(self, *exc_info):
        tracer, span = _ACTIVE.get()
        _ACTIVE.reset(self._token)
        tracer.finish(span)
        return False


def span(name: str, **attrs):
    """Open a child span of the current trace, or no-op when disabled.

    ``with span("parse") as s:`` -- ``s`` is the :class:`Span` (set
    attrs on it) or ``None`` when tracing is off.
    """
    if _ACTIVE.get() is None:
        return NULL_SPAN
    return _ActiveSpan(name, attrs)


def annotate(**attrs) -> None:
    """Merge attrs into the current span, if any."""
    context = _ACTIVE.get()
    if context is not None:
        context[1].attrs.update(attrs)


def record(name: str, start: float, end: float, **attrs) -> Span | None:
    """Graft an already-measured interval as a completed child span.

    Used for intervals timed outside the active context -- the
    admission wait (timed from the submitting thread) and per-morsel
    executions (timed inside worker processes).  If ``start`` precedes
    the parent span's start (different clock domain), the interval is
    shifted forward to the parent's start; the duration is preserved.
    """
    context = _ACTIVE.get()
    if context is None:
        return None
    tracer, parent = context
    if end < start:
        end = start
    if start < parent.start:
        shift = parent.start - start
        start += shift
        end += shift
    child = tracer.child(parent, name, attrs, start=start)
    child.end = end
    return child
