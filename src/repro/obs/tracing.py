"""The tracing core of :mod:`repro.obs`: spans, tracers, ambient context.

A :class:`Span` is one timed region of work — a plan node execution, a
query algorithm, a PXQL statement, a catalog load — with a unique
id, a link to its parent, wall-clock and CPU time, and a free-form
attribute dict.  A :class:`Tracer` maintains the *active span stack*:
entering :meth:`Tracer.span` starts a child of the currently active
span, exiting stops the clock and attaches it; completed root spans are
kept in a bounded ring buffer for later export.

Instrumented modules that do not hold a tracer of their own (the query
algorithms, the world sampler, the catalog) use the
*ambient* tracer: :func:`current_tracer` reads a context variable that
defaults to the process-global tracer, and :func:`use_tracer` rebinds it
for a ``with`` region.  The engine executor and the PXQL interpreter
activate their own tracer this way, so everything beneath a statement
lands in one connected span tree.

A :class:`Tracer` may be shared across threads (the PXQL server shares
one per server): the *active span stack* is thread-local, so two
workers' span trees can never interleave, while the finished-roots ring
is shared and guarded by a lock.  Individual :class:`Span` objects are
plain data and are **not** internally synchronized — a span belongs to
the thread that opened it until it finishes.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, cast

#: Attribute values a span may carry (kept JSON-friendly).
Attribute = object

_span_ids = itertools.count(1)


@dataclass
class Span:
    """One timed, attributed region of work.

    Attributes:
        name: the span's label (dotted, e.g. ``"engine.node.Scan(bib)"``).
        span_id: unique within the process.
        parent_id: the enclosing span's id (``None`` for roots).
        wall_s: elapsed wall-clock seconds (0 until the span finishes).
        cpu_s: elapsed process CPU seconds (0 until the span finishes).
        attributes: free-form structured metadata.
        children: sub-spans, in start order.
        status: ``"ok"``, or ``"error"`` when the region raised.
    """

    name: str
    span_id: int = field(default_factory=lambda: next(_span_ids))
    parent_id: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attributes: dict[str, Attribute] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    status: str = "ok"

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span's subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def self_s(self) -> float:
        """Wall time not accounted for by child spans (>= 0)."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    def find(self, name: str) -> "Span | None":
        """The first span in the subtree whose name contains ``name``."""
        for span in self.walk():
            if name in span.name:
                return span
        return None

    def to_dict(self) -> dict[str, Attribute]:
        """A JSON-friendly flat form (children by reference via ids)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.span_id for child in self.children],
        }


class Tracer:
    """Collects span trees; at most ``capacity`` finished roots are kept.

    Args:
        enabled: when off, :meth:`span` still yields a usable, timed
            span (so instrumented code never branches) but links and
            keeps nothing.
        capacity: ring-buffer size for finished root spans.
    """

    def __init__(self, enabled: bool = True, capacity: int = 256) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=capacity)

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's active span stack (created on first use).

        Thread-local by design: span nesting is a property of one
        thread's call stack, so a tracer shared across worker threads
        keeps one stack per thread and the trees never interleave.
        """
        stack = cast("list[Span] | None", getattr(self._local, "stack", None))
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, /, **attributes: Attribute) -> Iterator[Span]:
        """Open a child span of the currently active span.

        The yielded span's ``attributes`` may be extended inside the
        block; timings are filled in when the block exits.  When the
        block raises, the span is still closed (status ``"error"``) and
        the exception propagates.
        """
        span = Span(name=name, attributes=dict(attributes))
        # A disabled tracer still times the span it yields (its caller
        # reads ``wall_s``) but neither links nor keeps it.
        enabled = self.enabled
        stack = self._stack if enabled else []
        parent = stack[-1] if stack else None
        if parent is not None:
            span.parent_id = parent.span_id
        stack.append(span)
        wall_0 = time.perf_counter()
        cpu_0 = time.process_time()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.wall_s = time.perf_counter() - wall_0
            span.cpu_s = time.process_time() - cpu_0
            stack.pop()
            if parent is not None:
                parent.children.append(span)
            elif enabled:
                with self._lock:
                    self._finished.append(span)

    def event(self, name: str, /, wall_s: float = 0.0,
              **attributes: Attribute) -> Span:
        """Attach an already-measured span (no enter/exit bracketing).

        Used where the instrumented region was timed out-of-band, or is
        an instant — e.g. a fallback.
        """
        span = Span(name=name, wall_s=wall_s, attributes=dict(attributes))
        if not self.enabled:
            return span
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            with self._lock:
                self._finished.append(span)
        return span

    # ------------------------------------------------------------------
    @property
    def active(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    @property
    def last(self) -> Span | None:
        """The most recently finished root span."""
        with self._lock:
            return self._finished[-1] if self._finished else None

    def roots(self) -> list[Span]:
        """The finished root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def take(self) -> list[Span]:
        """Drain and return the finished root spans."""
        with self._lock:
            roots = list(self._finished)
            self._finished.clear()
        return roots

    def clear(self) -> None:
        """Drop all finished roots (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()


#: The process-global default tracer (disabled by default: ambient
#: instrumentation costs nothing until someone opts in).
_GLOBAL_TRACER = Tracer(enabled=False)

_ACTIVE_TRACER: ContextVar[Tracer | None] = ContextVar(
    "repro_obs_tracer", default=None
)


def global_tracer() -> Tracer:
    """The process-global default tracer."""
    return _GLOBAL_TRACER


def current_tracer() -> Tracer:
    """The ambient tracer: the innermost :func:`use_tracer`, else global."""
    tracer = _ACTIVE_TRACER.get()
    return tracer if tracer is not None else _GLOBAL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the ambient tracer for the ``with`` region."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)
