"""Span-based tracing with an injectable clock and trace contexts.

A :class:`Span` is one timed region (a digest, a solver call, a stream
run); spans nest, and the :class:`Tracer` keeps the finished ones for
the exporters.  The clock is injectable so tests can assert exact
durations.

Request-scoped tracing (PR 5) adds three ideas on top of plain nesting:

* a :class:`TraceContext` — ``(trace_id, span_id, tenant)`` — names one
  request's trace and the span new work should hang under.  Contexts are
  explicit values, so they can cross executor boundaries (thread pools,
  solve-job closures, cluster frames) that implicit stacks cannot;
* :meth:`Tracer.activate` installs a context as the *remote parent* for
  spans opened where no local span is open — this is how a solver job
  running on a pool thread parents its spans into the request that
  submitted it.  A context marked unsampled (head sampling left its
  request out) parents nothing: spans opened under it record nothing;
* :meth:`Tracer.adopt` grafts spans recorded *elsewhere* (a cluster
  worker's spans, shipped back in its reply frame) into this tracer,
  re-identifying them so a request's span tree includes the work its
  shards did on other nodes, and :meth:`Tracer.assemble` renders any
  trace as that tree.

Concurrency: nesting state lives in per-tracer :mod:`contextvars`
variables rather than thread-locals.  Threads behave as before (each
pool thread sees its own empty stack), and **asyncio tasks do too** —
each task gets a copy of its creator's context, so a request span held
open across an ``await`` can never become the accidental parent of a
concurrent request's spans.  The stacks themselves are immutable tuples
(set, not mutated), which is what makes the per-task copies sound.
Span-id allocation and the shared ``finished`` ring are guarded by a
lock, so ``as_dicts`` sees each finished span exactly once.

Retention is bounded: ``finished`` is a ring holding the most recent
``max_finished`` spans (default :data:`DEFAULT_MAX_FINISHED`), with a
``dropped_spans`` counter when old spans fall off — an always-on tracer
on a long-lived worker keeps a working set, not an unbounded log.
Exports that assemble *recent* traces are unaffected; pass
``max_finished=None`` for the old unbounded behaviour.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time as _time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, Iterator, List, \
    Mapping, Optional, Sequence, Union

__all__ = ["DEFAULT_MAX_FINISHED", "INERT_SPAN", "Span", "TraceContext",
           "Tracer", "mint_trace_id"]

# Generous enough that every in-repo export/assembly pattern (the
# threadsafety suite finishes 3200 spans; a request tree is dozens)
# fits with headroom, small enough that a week-long worker stays flat.
DEFAULT_MAX_FINISHED = 16384

Attr = Union[str, int, float, bool, None]


def mint_trace_id() -> str:
    """A fresh trace id: 128 random bits as 32 lowercase hex chars.

    Every digest mints one, observability on or off.  ``os.urandom``
    draws the bits directly: ``uuid.uuid4().hex`` also builds a
    ``UUID`` object, and cost 5 to 7 times as much (timeit, 2-vCPU
    host)."""
    return os.urandom(16).hex()


class _InertSpan:
    """What an unrecorded region yields: it takes attributes and keeps
    none."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Attr) -> None:
        pass


INERT_SPAN = _InertSpan()


@dataclass(frozen=True)
class TraceContext:
    """Names one trace and the span new work should parent under.

    ``span_id`` is the *remote parent*: spans opened while this context
    is active (and no local span is open) point at it.  ``tenant`` rides
    along for per-session accounting and structured-log correlation.
    ``trace_id`` may be ``None`` for parent-only contexts — engine work
    traced outside any request still parents correctly, it just belongs
    to no named trace.  ``sampled`` is false for a request head sampling
    left out.  It travels only when false: a router ships an unsampled
    request's context with each leg, so the worker records no span for
    it either.
    """

    trace_id: Optional[str]
    span_id: Optional[int] = None
    tenant: str = ""
    sampled: bool = True

    @staticmethod
    def mint(tenant: str = "") -> "TraceContext":
        """A fresh root context (no parent span yet)."""
        return TraceContext(trace_id=mint_trace_id(), tenant=tenant)

    def at(self, span_id: Optional[int]) -> "TraceContext":
        """The same trace, re-rooted at ``span_id``."""
        return replace(self, span_id=span_id)

    def unsampled(self) -> "TraceContext":
        """The same position, marked so that no span records under it."""
        return replace(self, sampled=False)

    # -- wire format (crosses process boundaries) --------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "tenant": self.tenant,
        }
        if not self.sampled:
            payload["sampled"] = False
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
            tenant=str(payload.get("tenant", "")),
            sampled=payload.get("sampled", True) is not False,
        )


@dataclass
class Span:
    """One timed region.  ``ended`` is None while the span is open."""

    name: str
    started: float
    span_id: int
    parent_id: Optional[int] = None
    ended: Optional[float] = None
    trace_id: Optional[str] = None
    attributes: Dict[str, Attr] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.ended is None:
            return None
        return self.ended - self.started

    def set_attribute(self, key: str, value: Attr) -> None:
        self.attributes[key] = value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`as_dict`.

        Round-trips still-open spans too: ``ended``/``duration`` stay
        ``None`` (duration is derived, so it is accepted and ignored).
        """
        ended = payload.get("ended")
        return cls(
            name=str(payload["name"]),
            started=float(payload["started"]),
            span_id=int(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            ended=None if ended is None else float(ended),
            trace_id=payload.get("trace_id"),
            attributes=dict(payload.get("attributes", {})),
        )


class Tracer:
    """Collects spans; nesting is tracked through per-task/thread stacks."""

    def __init__(
        self,
        clock: Callable[[], float] = _time.perf_counter,
        *,
        max_finished: Optional[int] = DEFAULT_MAX_FINISHED,
    ):
        if max_finished is not None and max_finished < 1:
            raise ValueError(
                f"max_finished must be >= 1 or None, got {max_finished}"
            )
        self.clock = clock
        self.max_finished = max_finished
        self.finished: Deque[Span] = deque()
        self.dropped_spans = 0
        self._lock = threading.Lock()
        self._next_id = 1
        self._open: Dict[int, Span] = {}
        # Immutable tuples: every asyncio task / thread sees its own
        # snapshot, so nesting never crosses concurrency domains.
        self._stack_var: "contextvars.ContextVar[tuple]" = \
            contextvars.ContextVar(f"repro_spans_{id(self)}", default=())
        self._context_var: "contextvars.ContextVar[tuple]" = \
            contextvars.ContextVar(f"repro_traces_{id(self)}", default=())

    @property
    def depth(self) -> int:
        """Nesting depth of the *calling task/thread's* open spans."""
        return len(self._stack_var.get())

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _trim_finished_locked(self) -> None:
        # caller holds the lock; the ring keeps the newest spans
        if self.max_finished is None:
            return
        overflow = len(self.finished) - self.max_finished
        if overflow > 0:
            for _ in range(overflow):
                self.finished.popleft()
            self.dropped_spans += overflow

    # -- context activation ------------------------------------------------

    @contextmanager
    def activate(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Install ``context`` as the remote parent for this task/thread.

        Spans opened with no local parent inherit the context's trace id
        and point at its ``span_id``.  ``None`` is accepted and inert, so
        call-sites need no conditional.
        """
        if context is None:
            yield
            return
        token = self._context_var.set(
            self._context_var.get() + (context,)
        )
        try:
            yield
        finally:
            self._context_var.reset(token)

    def current_context(self, tenant: str = "") -> Optional[TraceContext]:
        """The innermost trace position of the calling task/thread.

        The innermost *open span* wins (new work belongs under it); with
        no open span, the innermost :meth:`activate` context; else None.
        """
        contexts = self._context_var.get()
        if not tenant and contexts:
            # an open span narrows the position but the activated
            # request context still knows whose request this is
            tenant = contexts[-1].tenant
        stack = self._stack_var.get()
        if stack:
            top = stack[-1]
            return TraceContext(
                trace_id=top.trace_id, span_id=top.span_id,
                tenant=tenant,
            )
        if contexts:
            context = contexts[-1]
            return replace(context, tenant=tenant) if tenant else context
        return None

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Attr) -> Iterator[Span]:
        """Open a span; it closes (and is recorded) on context exit.

        The span is recorded even when the body raises — a crashed solver
        still shows up in the trace, flagged with an ``error`` attribute.
        With no local span open under an unsampled context, nothing is
        recorded and the body gets :data:`INERT_SPAN`.
        """
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
            trace_id = parent.trace_id
        else:
            contexts = self._context_var.get()
            context = contexts[-1] if contexts else None
            if context is not None and not context.sampled:
                yield INERT_SPAN
                return
            parent_id = context.span_id if context else None
            trace_id = context.trace_id if context else None
        span = Span(
            name=name,
            started=self.clock(),
            span_id=self._allocate_id(),
            parent_id=parent_id,
            trace_id=trace_id,
            attributes=dict(attributes),
        )
        token = self._stack_var.set(stack + (span,))
        with self._lock:
            self._open[span.span_id] = span
        try:
            yield span
        except BaseException as error:
            span.attributes.setdefault("error", repr(error))
            raise
        finally:
            span.ended = self.clock()
            self._stack_var.reset(token)
            with self._lock:
                self._open.pop(span.span_id, None)
                self.finished.append(span)
                self._trim_finished_locked()

    # -- adoption (cross-node re-parenting) --------------------------------

    def adopt(
        self,
        span_dicts: Sequence[Mapping[str, Any]],
        *,
        parent_id: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> List[Span]:
        """Graft foreign spans (worker-side ``as_dicts`` output) in.

        Every adopted span gets a fresh id from this tracer's allocator
        (worker-local ids would collide with ours); parent links *within*
        the adopted set are remapped through the same renaming, and spans
        whose parents are not part of the set — the worker's roots — are
        re-parented onto ``parent_id``.  ``trace_id`` (when given)
        overrides the foreign trace id so the whole graft lands in the
        caller's trace.  Returns the adopted spans in their new identity.
        """
        spans = [Span.from_dict(d) for d in span_dicts]
        mapping: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: s.span_id):
            mapping[span.span_id] = self._allocate_id()
        adopted: List[Span] = []
        for span in sorted(spans, key=lambda s: s.span_id):
            old_parent = span.parent_id
            span.span_id = mapping[span.span_id]
            if old_parent in mapping:
                span.parent_id = mapping[old_parent]
            else:
                span.parent_id = parent_id
            if trace_id is not None:
                span.trace_id = trace_id
            adopted.append(span)
        with self._lock:
            self.finished.extend(adopted)
            self._trim_finished_locked()
        return adopted

    # -- introspection -----------------------------------------------------

    def as_dicts(self) -> List[dict]:
        """Finished spans, in deterministic (allocation-id) order.

        Completion order is racy under concurrency — two executor threads
        finishing "simultaneously" append in whichever order the lock
        admits them — so exports sort by span id, which is allocated once
        and totally ordered.
        """
        with self._lock:
            finished = list(self.finished)
        finished.sort(key=lambda span: span.span_id)
        return [span.as_dict() for span in finished]

    def open_spans(self) -> List[dict]:
        """Snapshot of currently-open spans (for debug endpoints)."""
        with self._lock:
            spans = sorted(self._open.values(), key=lambda s: s.span_id)
            return [span.as_dict() for span in spans]

    def spans_for(self, trace_id: str) -> List[dict]:
        """Every span (finished or still open) of one trace, by id."""
        with self._lock:
            spans = list(self.finished) + list(self._open.values())
        spans = [s for s in spans if s.trace_id == trace_id]
        spans.sort(key=lambda span: span.span_id)
        return [span.as_dict() for span in spans]

    def assemble(
        self, trace_id: str, *, follow_links: bool = True
    ) -> dict:
        """One trace as a span tree.

        Returns ``{"trace_id", "spans", "roots"}`` where each root is a
        span dict with a ``children`` list (recursively).  Spans whose
        ``parent_id`` does not resolve within the trace (the request
        root, or a graft point that lives in another trace) become
        roots.  When ``follow_links`` is set, a span carrying
        ``link_trace_id`` attributes — a coalesced follower or cache hit
        pointing at the trace that actually computed its digest — gets
        that trace assembled under a ``linked`` key (one level deep, so
        link cycles cannot recurse).
        """
        dicts = self.spans_for(trace_id)
        nodes = {d["span_id"]: dict(d, children=[]) for d in dicts}
        roots: List[dict] = []
        for node in nodes.values():
            parent = node["parent_id"]
            if parent in nodes and parent != node["span_id"]:
                nodes[parent]["children"].append(node)
            else:
                roots.append(node)
        if follow_links:
            for node in nodes.values():
                linked = node["attributes"].get("link_trace_id")
                if linked and linked != trace_id:
                    node["linked"] = self.assemble(
                        linked, follow_links=False
                    )
        return {
            "trace_id": trace_id,
            "spans": len(nodes),
            "roots": roots,
        }
