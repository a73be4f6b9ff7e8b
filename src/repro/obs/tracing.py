"""Deterministic span-tree tracing for the request / ingest / train paths.

A :class:`Tracer` records a tree of named, timed :class:`Span` objects.
Instrumented code opens spans with the context-manager API (or the
:meth:`Tracer.wrap` decorator); nesting follows the call structure, so
one gateway request produces one connected tree covering admission →
queue wait → batch assembly → subgraph extraction → engine forward.

Determinism: the tracer reads time through the injectable
:mod:`repro.obs.clock`, so tests installing a
:class:`~repro.obs.clock.FakeClock` get bit-identical trees (and
therefore bit-identical exports) on every run.

Cost when disabled: the process-wide tracer defaults to
:data:`NULL_TRACER`, whose ``span()`` returns one shared, stateless
null context manager — no allocation, no clock read.  Hot paths call
the module-level :func:`span` helper, which is a single list read plus
that null handle; ``benchmarks/test_obs_overhead.py`` checks its
serving/engine overhead in one run.

>>> from repro.obs.clock import FakeClock
>>> clock = FakeClock()
>>> tracer = Tracer(clock=clock.now)
>>> with tracer.span("request"):
...     with tracer.span("extract"):
...         clock.advance(0.002)
...     with tracer.span("forward"):
...         clock.advance(0.006)
>>> print(tracer.format_tree())
request                                        8.000 ms
  extract                                      2.000 ms
  forward                                      6.000 ms
"""

from __future__ import annotations

import json
from functools import wraps
from typing import Callable, Dict, Iterator, List, Optional

from . import clock as _clock

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "tracing_enabled",
]


class Span:
    """One named, timed node of a trace tree."""

    __slots__ = ("name", "start", "end", "meta", "children")

    def __init__(self, name: str, start: float,
                 meta: Optional[dict] = None) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(start)
        self.meta = meta or {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` pairs in pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) named ``name``, pre-order."""
        for node, _ in self.walk():
            if node.name == name:
                return node
        return None

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class _OpenSpan:
    """Context-manager handle that closes its span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_: Span) -> None:
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Span-tree recorder with context-manager and decorator APIs.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds.  Defaults
        to :func:`repro.obs.clock.now`, i.e. the injectable process
        clock, so traces recorded under a fake clock are reproducible.
    max_roots:
        Bound on retained completed trees (oldest dropped first), so a
        long-lived traced gateway cannot grow memory without limit.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_roots: int = 4096) -> None:
        if max_roots <= 0:
            raise ValueError(f"max_roots must be positive, got {max_roots}")
        self._clock = clock or _clock.now
        self.max_roots = int(max_roots)
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._root_hooks: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **meta) -> _OpenSpan:
        """Open a child span of the innermost active span (or a root)."""
        span_ = Span(name, self._clock(), meta or None)
        if self._stack:
            self._stack[-1].children.append(span_)
        self._stack.append(span_)
        return _OpenSpan(self, span_)

    def _retain_root(self, span_: Span) -> None:
        """Keep one completed tree: append, trim to ``max_roots``, and
        notify root hooks.  The single path every completed root — live
        or retroactive — goes through, so the two can never diverge on
        ``max_roots`` behaviour."""
        self.roots.append(span_)
        if len(self.roots) > self.max_roots:
            del self.roots[: len(self.roots) - self.max_roots]
        for hook in self._root_hooks:
            hook(span_)

    def on_root(self, hook: Callable[[Span], None]) -> None:
        """Call ``hook(span)`` whenever a tree completes (flight
        recorders subscribe here to capture recent roots)."""
        self._root_hooks.append(hook)

    def _close(self, span_: Span) -> None:
        span_.end = self._clock()
        # Pop through any unclosed descendants (an exception may have
        # skipped their __exit__); the tree stays consistent.
        while self._stack:
            top = self._stack.pop()
            if top is span_:
                break
        if not self._stack:
            self._retain_root(span_)

    def record(self, name: str, start: float, end: float, **meta) -> Span:
        """Attach an already-measured interval as a span.

        For durations that are not call-shaped — e.g. a request's queue
        wait, measured from its enqueue timestamp when the batch
        finally drains.  The span lands under the innermost active span
        (or becomes a root).
        """
        span_ = Span(name, start, meta or None)
        span_.end = float(end)
        if self._stack:
            self._stack[-1].children.append(span_)
        else:
            self._retain_root(span_)
        return span_

    def wrap(self, name: Optional[str] = None) -> Callable:
        """Decorator form: every call of the function runs in a span."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @wraps(fn)
            def inner(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return inner

        return decorate

    def reset(self) -> None:
        """Drop every recorded tree and any open spans."""
        self.roots = []
        self._stack = []

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def format_tree(self, name_width: int = 42) -> str:
        """Flamegraph-style text rendering of every completed tree."""
        lines: List[str] = []
        for root in self.roots:
            for node, depth in root.walk():
                label = "  " * depth + node.name
                lines.append(
                    f"{label:<{name_width}} {node.duration * 1e3:9.3f} ms"
                )
        return "\n".join(lines)

    def chrome_trace(self) -> List[Dict[str, object]]:
        """Chrome-trace ("X" complete) events for ``chrome://tracing``."""
        events: List[Dict[str, object]] = []
        for root in self.roots:
            for node, depth in root.walk():
                event: Dict[str, object] = {
                    "name": node.name,
                    "ph": "X",
                    "ts": node.start * 1e6,
                    "dur": node.duration * 1e6,
                    "pid": 0,
                    "tid": 0,
                }
                if node.meta:
                    event["args"] = dict(node.meta)
                events.append(event)
        return events

    def to_chrome_json(self) -> str:
        """The Chrome-trace events serialised as a JSON array."""
        return json.dumps(self.chrome_trace())


class _NullSpan:
    """Shared no-op context manager (also a no-op decorator target)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **meta) -> _NullSpan:
        """Return the shared null context manager."""
        return _NULL_SPAN

    def record(self, name: str, start: float, end: float, **meta) -> None:
        """Discard the interval."""
        return None

    def on_root(self, hook: Callable[[Span], None]) -> None:
        """Discard the hook — no roots ever complete here."""
        return None

    def wrap(self, name: Optional[str] = None) -> Callable:
        """Identity decorator."""

        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate

    def reset(self) -> None:
        """Nothing to drop."""
        return None

    def format_tree(self, name_width: int = 42) -> str:
        """Always empty."""
        return ""

    def chrome_trace(self) -> List[Dict[str, object]]:
        """Always empty."""
        return []

    def to_chrome_json(self) -> str:
        """Always an empty JSON array."""
        return "[]"


#: The process-wide default: tracing disabled.
NULL_TRACER = NullTracer()

_ACTIVE: List[object] = [NULL_TRACER]


def get_tracer():
    """The currently installed process-wide tracer."""
    return _ACTIVE[0]


def set_tracer(tracer) -> None:
    """Install a tracer process-wide (``NULL_TRACER`` disables)."""
    _ACTIVE[0] = tracer


class use_tracer:
    """Context manager pinning the process-wide tracer for a block."""

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def __enter__(self):
        self._previous = _ACTIVE[0]
        _ACTIVE[0] = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE[0] = self._previous


def span(name: str, **meta):
    """Open a span on the active tracer (a null handle when disabled).

    The one-liner every instrumentation point uses::

        with obs_tracing.span("gateway.forward"):
            ...
    """
    return _ACTIVE[0].span(name, **meta)


def tracing_enabled() -> bool:
    """Whether the active tracer records anything."""
    return _ACTIVE[0].enabled
