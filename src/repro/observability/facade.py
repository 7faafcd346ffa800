"""The zero-overhead-when-disabled instrumentation facade.

The hot paths (Scan's posting-list walk, the greedy rounds, the stream
event loop) must pay *nothing* for observability when nobody asked for
it.  The contract:

* Observability is **off by default**.  One module-level reference,
  ``_ACTIVE``, is ``None`` while off; every facade helper checks it first
  and returns immediately, so a disabled ``count()`` is one global load
  and one ``is None`` test.
* Solvers publish at **call granularity** — work units are accumulated in
  local integers inside the loops (or derived arithmetically) and handed
  to the registry once per solver call, never per iteration.  Where even
  a local accumulator would show up (Scan's inner loop), the count is
  derived after the loop instead: Scan's index advances equal the summed
  posting-list lengths, so its loop carries no counter at all and the
  disabled path pays one ``enabled()`` check per call, which
  ``benchmarks/test_observability_overhead.py`` enforces (≤5% delta).
* :func:`enable` / :func:`disable` swap the whole bundle atomically;
  :func:`session` scopes it for tests and benches.

The bundle pairs a :class:`~repro.observability.metrics.MetricsRegistry`
with a :class:`~repro.observability.tracing.Tracer` sharing one clock, so
counters, histograms and spans line up on the same timeline.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from .metrics import MetricsRegistry
from .tracing import INERT_SPAN, TraceContext, Tracer

__all__ = [
    "Observability",
    "enable",
    "disable",
    "session",
    "active",
    "enabled",
    "clock",
    "count",
    "observe",
    "set_gauge",
    "span",
    "activate",
    "current_context",
]


class Observability:
    """A metrics registry and a tracer sharing one injectable clock."""

    __slots__ = ("registry", "tracer", "clock")

    def __init__(self, clock: Callable[[], float] = _time.perf_counter):
        self.clock = clock
        self.registry = MetricsRegistry(clock=clock)
        self.tracer = Tracer(clock=clock)


_ACTIVE: Optional[Observability] = None


def enable(
    bundle: Optional[Observability] = None,
    *,
    clock: Callable[[], float] = _time.perf_counter,
) -> Observability:
    """Turn instrumentation on; returns the active bundle.

    Pass an existing :class:`Observability` to resume accumulating into
    it, or a ``clock`` to build a fresh deterministic one.
    """
    global _ACTIVE
    _ACTIVE = bundle if bundle is not None else Observability(clock=clock)
    return _ACTIVE


def disable() -> Optional[Observability]:
    """Turn instrumentation off; returns the bundle that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def session(
    bundle: Optional[Observability] = None,
    *,
    clock: Callable[[], float] = _time.perf_counter,
) -> Iterator[Observability]:
    """Scoped :func:`enable`; restores the previous state on exit."""
    global _ACTIVE
    previous = _ACTIVE
    active_bundle = enable(bundle, clock=clock)
    try:
        yield active_bundle
    finally:
        _ACTIVE = previous


def active() -> Optional[Observability]:
    """The active bundle, or ``None`` when observability is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def clock() -> Callable[[], float]:
    """The active clock — the injectable one when enabled, else
    ``time.perf_counter``.  Timing call-sites route through this so one
    ``enable(clock=fake)`` makes every recorded duration deterministic.
    """
    return _ACTIVE.clock if _ACTIVE is not None else _time.perf_counter


def count(name: str, amount: int = 1) -> None:
    """Increment a counter iff observability is enabled."""
    if _ACTIVE is not None:
        _ACTIVE.registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation iff observability is enabled."""
    if _ACTIVE is not None:
        _ACTIVE.registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge iff observability is enabled."""
    if _ACTIVE is not None:
        _ACTIVE.registry.gauge(name).set(value)


@contextmanager
def _null_span() -> Iterator[object]:
    """The inert span stand-in returned while observability is off."""
    yield INERT_SPAN


def span(name: str, **attributes):
    """A tracer span when enabled, an inert context manager when not."""
    if _ACTIVE is not None:
        return _ACTIVE.tracer.span(name, **attributes)
    return _null_span()


def activate(context: Optional[TraceContext]):
    """``Tracer.activate`` when enabled, an inert context manager when
    not — worker call-sites re-attach to their request's trace without
    branching."""
    if _ACTIVE is not None:
        return _ACTIVE.tracer.activate(context)
    return _null_span()


def current_context(tenant: str = "") -> Optional[TraceContext]:
    """The calling task/thread's trace position, or ``None`` when
    observability is off (or nothing is traced)."""
    if _ACTIVE is not None:
        return _ACTIVE.tracer.current_context(tenant)
    return None
