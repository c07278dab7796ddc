"""Per-run trace trees, scoped through :mod:`contextvars`.

A trace is a tree of :class:`Span` objects rooted at one request:
``discover`` → ``prepare`` → per-round ``round`` marks → ``query``
evaluations and cache/store/lock operations.  The tree serializes into
the run's JSON record (:meth:`Span.to_record`), so every run record
carries its own timeline.

Usage is two-layered:

* The *owner* of a request opens the root with
  ``with tracer.trace("discover", run_id=...) as root:`` — the root is
  installed in a :mod:`contextvars` context variable for the duration.
* Any code on that call path (query engine, store, locks) marks work
  with the module-level ``with span("query", index=3):`` — it attaches
  to whatever root is active, or does nothing at all when none is.

The "nothing at all" path is the design center: ``span()`` returns one
shared null context manager when no trace is active, so instrumented
code outside a traced request costs a single ContextVar read.  Spans cap
their children at :data:`MAX_CHILDREN` (the drop count is recorded), so
a pathological run cannot balloon its own record.
"""

from __future__ import annotations

import time
from contextvars import ContextVar, Token
from typing import Any, Dict, List, Optional

#: Children per span before further ones are dropped (and counted).
MAX_CHILDREN = 256

_ACTIVE: ContextVar[Optional["Span"]] = ContextVar(
    "repro_active_span", default=None
)


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "attrs", "children", "start", "end", "dropped")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.dropped = 0

    @property
    def duration(self) -> float:
        """Seconds spent in the span (up to now if still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - (
            self.start
        )

    def child(self, name: str, attrs: Optional[dict] = None) -> Optional[Span]:
        """Attach a child span, or ``None`` when the cap is reached."""
        if len(self.children) >= MAX_CHILDREN:
            self.dropped += 1
            return None
        node = Span(name, attrs)
        self.children.append(node)
        return node

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    def to_record(self, _origin: Optional[float] = None) -> dict:
        """JSON-safe tree: millisecond offsets from the root's start."""
        origin = self.start if _origin is None else _origin
        end = self.end if self.end is not None else time.perf_counter()
        record = {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": round((end - self.start) * 1000.0, 3),
        }
        if self.attrs:
            record["attrs"] = {key: _safe(value) for key, value in self.attrs.items()}
        if self.children:
            record["children"] = [c.to_record(origin) for c in self.children]
        if self.dropped:
            record["dropped_children"] = self.dropped
        return record


def _safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _NullSpanCtx:
    """The shared do-nothing span (no active trace, or children full)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpanCtx()


class _SpanCtx:
    """Context manager for one child span on the active trace."""

    __slots__ = ("_name", "_attrs", "_span", "_token")

    def __init__(self, name: str, attrs: dict, parent: Span) -> None:
        self._name = name
        self._attrs = attrs
        self._span = parent.child(name, attrs)
        self._token: Optional[Token] = None

    def __enter__(self):
        if self._span is not None:
            self._token = _ACTIVE.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if self._span is not None and self._token is not None:
            if exc_type is not None:
                self._span.annotate(error=exc_type.__name__)
            self._span.finish()
            _ACTIVE.reset(self._token)
        return False


def span(name: str, **attrs):
    """Mark a timed operation on the active trace (no-op when none)."""
    parent = _ACTIVE.get()
    if parent is None:
        return _NULL
    ctx = _SpanCtx(name, attrs, parent)
    if ctx._span is None:  # parent's children are full; drop counted
        return _NULL
    return ctx


def mark(name: str, **attrs) -> None:
    """Record an instantaneous (zero-duration) event on the active trace."""
    parent = _ACTIVE.get()
    if parent is None:
        return
    node = parent.child(name, attrs)
    if node is not None:
        node.finish()


def active_span() -> Optional[Span]:
    """The innermost open span, or ``None`` when no trace is active."""
    return _ACTIVE.get()


class _RootCtx:
    __slots__ = ("_root", "_token")

    def __init__(self, root: Span) -> None:
        self._root = root

    def __enter__(self):
        self._token = _ACTIVE.set(self._root)
        return self._root

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._root.annotate(error=exc_type.__name__)
        self._root.finish()
        _ACTIVE.reset(self._token)
        return False


class Tracer:
    """Factory for trace roots."""

    def trace(self, name: str, **attrs):
        """Open a trace root: ``with tracer.trace("discover") as root:``.

        Yields the root :class:`Span`; the caller keeps the reference
        and serializes ``root.to_record()`` after the block exits.
        """
        return _RootCtx(Span(name, attrs))
