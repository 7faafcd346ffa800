"""Cluster message envelopes and the digest parity fingerprint.

A request frame is ``{"op", "rid", "payload", "trace", "spans"}``;
a response frame is ``{"rid", "status", "payload", "error", "spans"}``.
``rid`` is a per-connection request id — responses may interleave out
of request order (the worker handles requests concurrently), and the
client correlates them back through its pending-future table.
``trace`` carries the router's :class:`~repro.observability.tracing.
TraceContext` dict; ``spans`` (request side) asks the worker to export
the spans it opened so the router can graft them into its own trace via
``Tracer.adopt``.

:func:`canonical_fingerprint` defines what "byte-identical" means for
the parity guarantees: the full :class:`~repro.pipeline.DigestResult`
wire dict, minus the fields that legitimately differ between a local
solve and a routed one — wall-clock ``elapsed`` and the trace identity
(``trace_id``/``solve_span_id``), which name *who computed it*, not
*what was computed*.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import ReproError
from ..index.inverted_index import Document
from ..pipeline import DigestResult

__all__ = [
    "ClusterError",
    "NodeUnavailableError",
    "ShardTimeoutError",
    "WorkerFaultError",
    "OP_DIGEST",
    "OP_EXPORT",
    "OP_HEALTH",
    "OP_HEARTBEAT",
    "OP_INGEST",
    "OP_INTROSPECT",
    "OP_PROFILE",
    "OP_ROWS",
    "OP_SCRAPE",
    "OP_SET_WINDOW",
    "canonical_fingerprint",
    "document_from_dict",
    "document_to_dict",
    "error_frame",
    "ok_frame",
    "request_frame",
]


class ClusterError(ReproError):
    """Base class for cluster-layer failures."""


class NodeUnavailableError(ClusterError):
    """The node's connection is down or died mid-request."""


class ShardTimeoutError(ClusterError):
    """A scatter leg exhausted its per-shard deadline on every replica."""


class WorkerFaultError(ClusterError):
    """The worker answered with an error frame (remote exception)."""


OP_DIGEST = "digest"
OP_INGEST = "ingest"
OP_HEARTBEAT = "heartbeat"
OP_HEALTH = "health"
OP_INTROSPECT = "introspect"
OP_EXPORT = "export"
OP_ROWS = "rows"
OP_SET_WINDOW = "set_window"
OP_SCRAPE = "scrape"
OP_PROFILE = "profile"


def request_frame(
    op: str,
    rid: int,
    payload: Dict[str, Any],
    trace: Optional[Mapping[str, Any]] = None,
    want_spans: bool = False,
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"op": op, "rid": rid, "payload": payload}
    if trace is not None:
        frame["trace"] = dict(trace)
    if want_spans:
        frame["spans"] = True
    return frame


def ok_frame(
    rid: int,
    payload: Dict[str, Any],
    spans: Optional[Sequence[Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {
        "rid": rid, "status": "ok", "payload": payload,
    }
    if spans:
        frame["spans"] = [dict(span) for span in spans]
    return frame


def error_frame(rid: int, message: str) -> Dict[str, Any]:
    return {"rid": rid, "status": "error", "error": message}


def document_to_dict(document: Document) -> Dict[str, Any]:
    return {
        "doc_id": document.doc_id,
        "timestamp": document.timestamp,
        "text": document.text,
    }


def document_from_dict(payload: Mapping[str, Any]) -> Document:
    return Document(
        doc_id=int(payload["doc_id"]),
        timestamp=float(payload["timestamp"]),
        text=str(payload.get("text", "")),
    )


def canonical_fingerprint(result: DigestResult) -> str:
    """The parity identity of a digest: sorted-key JSON of its wire
    dict with timing and trace provenance stripped."""
    payload = result.to_dict()
    payload.pop("trace_id", None)
    payload.pop("solve_span_id", None)
    solution = dict(payload["solution"])
    solution.pop("elapsed", None)
    payload["solution"] = solution
    return json.dumps(payload, sort_keys=True)
