"""Structured event logging: JSON lines over stdlib ``logging``.

The serving stack used to have silent paths — a shed request, a stale
cache publish, a quarantined arrival left no record an operator could
correlate with anything.  This module gives every such event one JSON
object on one line, carrying the three correlation keys the rest of the
observability layer speaks: **trace_id**, **tenant**, **epoch**.

Design constraints:

* **stdlib logging underneath.**  Events flow through the
  ``repro.events`` logger, so deployments route them with ordinary
  handler/level configuration, and nothing here fights an existing
  logging setup.  :class:`JsonLinesHandler` is the provided sink;
  :func:`configure` attaches one.
* **near-zero cost when nobody listens.**  :func:`emit` checks
  ``logger.isEnabledFor(level)`` first; with the default WARNING
  threshold the routine INFO events (one per request) cost one integer
  comparison.  Hot inner loops still use the facade counters — events
  are for *discrete, explainable occurrences*, not per-iteration data.
* **trace correlation by default.**  When no ``trace_id`` is passed and
  a tracer is active, the event picks up the calling task's current
  trace context, so events land in the same trace the spans do.

Schema (one JSON object per line)::

    {"event": "service.shed", "level": "WARNING", "ts": 1700000000.0,
     "trace_id": "9f…", "tenant": "acme", "epoch": 7, …event fields…}

``ts`` is wall-clock (``record.created``); everything else is the
emitting call's keyword fields, JSON-coerced with ``default=repr`` so a
stray un-serialisable value degrades to its repr instead of killing the
log line.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from . import facade as _facade

__all__ = [
    "LOGGER_NAME",
    "JsonLinesHandler",
    "capture",
    "configure",
    "emit",
    "event_payload",
]

LOGGER_NAME = "repro.events"

# bound once: ``logging.getLogger`` takes the logging module's lock, and
# emit() runs once per served request.  It returns this same object to
# anyone else asking for LOGGER_NAME.
_LOGGER = logging.getLogger(LOGGER_NAME)

_STRUCT_ATTR = "structured_event"


def event_payload(record: logging.LogRecord) -> Dict[str, Any]:
    """The structured payload of one log record (ts/level filled in)."""
    payload = dict(getattr(record, _STRUCT_ATTR, None) or
                   {"event": record.getMessage()})
    payload.setdefault("level", record.levelname)
    payload.setdefault("ts", record.created)
    return payload


class JsonLinesHandler(logging.Handler):
    """Writes one JSON object per line to a text stream."""

    def __init__(self, stream=None, level: int = logging.NOTSET):
        super().__init__(level=level)
        import sys

        self.stream = stream if stream is not None else sys.stderr

    def emit(self, record: logging.LogRecord) -> None:
        try:
            line = json.dumps(
                event_payload(record), sort_keys=True, default=repr
            )
            self.stream.write(line + "\n")
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)


class _ListHandler(logging.Handler):
    """Collects structured payloads in memory (tests)."""

    def __init__(self, sink: List[Dict[str, Any]]):
        super().__init__(level=logging.DEBUG)
        self.sink = sink

    def emit(self, record: logging.LogRecord) -> None:
        self.sink.append(event_payload(record))


def configure(
    stream=None, level: int = logging.INFO
) -> JsonLinesHandler:
    """Attach a :class:`JsonLinesHandler` to the events logger.

    Returns the handler so callers can detach it
    (``logging.getLogger(LOGGER_NAME).removeHandler(handler)``).
    """
    logger = _LOGGER
    handler = JsonLinesHandler(stream=stream)
    logger.addHandler(handler)
    if logger.level == logging.NOTSET or logger.level > level:
        logger.setLevel(level)
    return handler


@contextmanager
def capture(
    level: int = logging.DEBUG,
) -> Iterator[List[Dict[str, Any]]]:
    """Collect every event emitted in the block (for tests).

    Yields the list the payloads are appended to, in emission order.
    """
    logger = _LOGGER
    sink: List[Dict[str, Any]] = []
    handler = _ListHandler(sink)
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield sink
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


def emit(
    event: str,
    *,
    level: int = logging.INFO,
    trace_id: Optional[str] = None,
    tenant: Optional[str] = None,
    epoch: Optional[int] = None,
    **fields: Any,
) -> None:
    """Emit one structured event.

    ``trace_id`` defaults to the calling task's active trace (when a
    tracer is running), so events emitted under a request span correlate
    without every call-site threading the id through.
    """
    logger = _LOGGER
    if not logger.isEnabledFor(level):
        return
    if trace_id is None:
        ctx = _facade.current_context()
        if ctx is not None:
            trace_id = ctx.trace_id
            if tenant is None and ctx.tenant:
                tenant = ctx.tenant
    payload: Dict[str, Any] = {
        "event": event,
        "trace_id": trace_id,
        "tenant": tenant,
        "epoch": epoch,
    }
    payload.update(fields)
    logger.log(level, "%s", event, extra={_STRUCT_ATTR: payload})
