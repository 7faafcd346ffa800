"""Structured event logging: schema, levels, trace correlation."""

from __future__ import annotations

import io
import json
import logging

from repro import observability
from repro.observability import structlog
from repro.observability.structlog import (
    LOGGER_NAME,
    JsonLinesHandler,
    event_payload,
)


class TestEmitAndCapture:
    def test_basic_event_schema(self):
        with structlog.capture() as events:
            structlog.emit("unit.test", tenant="acme", epoch=3, extra=1)
        (event,) = events
        assert event["event"] == "unit.test"
        assert event["tenant"] == "acme"
        assert event["epoch"] == 3
        assert event["extra"] == 1
        assert event["level"] == "INFO"
        assert event["ts"] > 0

    def test_explicit_level(self):
        with structlog.capture() as events:
            structlog.emit("unit.warn", level=logging.WARNING)
        assert events[0]["level"] == "WARNING"

    def test_capture_is_ordered(self):
        with structlog.capture() as events:
            for i in range(5):
                structlog.emit("unit.seq", index=i)
        assert [e["index"] for e in events] == list(range(5))

    def test_capture_restores_level(self):
        logger = logging.getLogger(LOGGER_NAME)
        before = logger.level
        with structlog.capture():
            pass
        assert logger.level == before

    def test_below_threshold_is_dropped_cheaply(self):
        # the default logger threshold gates emission before any
        # payload is built
        with structlog.capture(level=logging.WARNING) as events:
            structlog.emit("unit.info", level=logging.INFO)
            structlog.emit("unit.warn", level=logging.WARNING)
        assert [e["event"] for e in events] == ["unit.warn"]


class TestTraceCorrelation:
    def test_no_tracer_means_null_trace_id(self):
        with structlog.capture() as events:
            structlog.emit("unit.untraced")
        assert events[0]["trace_id"] is None

    def test_trace_id_picked_up_from_active_span(self):
        with observability.session():
            ctx = observability.TraceContext.mint(tenant="acme")
            with observability.activate(ctx):
                with observability.span("outer"):
                    with structlog.capture() as events:
                        structlog.emit("unit.traced")
        (event,) = events
        assert event["trace_id"] == ctx.trace_id
        assert event["tenant"] == "acme"

    def test_explicit_trace_id_wins(self):
        with observability.session():
            ctx = observability.TraceContext.mint()
            with observability.activate(ctx):
                with structlog.capture() as events:
                    structlog.emit("unit.pinned", trace_id="deadbeef")
        assert events[0]["trace_id"] == "deadbeef"


class TestJsonLinesHandler:
    def _emit_through(self, **fields):
        stream = io.StringIO()
        handler = structlog.configure(stream=stream)
        logger = logging.getLogger(LOGGER_NAME)
        try:
            structlog.emit("unit.line", **fields)
        finally:
            logger.removeHandler(handler)
        return stream.getvalue()

    def test_one_json_object_per_line(self):
        text = self._emit_through(answer=42)
        lines = text.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["event"] == "unit.line"
        assert payload["answer"] == 42

    def test_unserialisable_value_degrades_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        text = self._emit_through(thing=Opaque())
        payload = json.loads(text)
        assert payload["thing"] == "<opaque>"

    def test_configure_returns_detachable_handler(self):
        logger = logging.getLogger(LOGGER_NAME)
        handler = structlog.configure(stream=io.StringIO())
        assert handler in logger.handlers
        logger.removeHandler(handler)
        assert handler not in logger.handlers

    def test_event_payload_plain_record_fallback(self):
        record = logging.LogRecord(
            LOGGER_NAME, logging.INFO, __file__, 1, "plain message",
            None, None,
        )
        payload = event_payload(record)
        assert payload["event"] == "plain message"
        assert payload["level"] == "INFO"

    def test_handler_default_stream_is_stderr(self):
        import sys

        assert JsonLinesHandler().stream is sys.stderr


class TestLoggerBinding:
    def test_emit_looks_no_logger_up(self, monkeypatch):
        lookups = []
        real = logging.getLogger

        def counting(name=None):
            lookups.append(name)
            return real(name)

        monkeypatch.setattr(logging, "getLogger", counting)
        with structlog.capture() as events:
            for index in range(1000):
                structlog.emit("unit.bound", index=index)
        assert lookups == []
        assert [e["index"] for e in events] == list(range(1000))
