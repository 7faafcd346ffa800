"""A cluster worker: one :class:`DiversificationService` behind frames.

Each worker owns a consistent-hash partition of the label space (the
router decides placement; the worker just serves what it is sent) and
speaks the length-prefixed JSON frame protocol over an asyncio stream
server.  Requests on one connection are handled *concurrently* — a slow
digest never blocks a heartbeat — and responses are correlated back by
``rid``, not by order.

The wrapped service is a completely ordinary single-process service:
the worker's corpus is exactly the documents the router forwarded to it
(those matching its owned/replicated labels), so a digest over a label
subset of that partition (a forward) is byte-identical to what a
single-process service would answer for the same labels, and the rows
it reads for a scatter leg (the ``rows`` op) are what a single-process
batch solve over them reads — the parity the router's merge builds on.
Dedup must be off (``dedup_distance=None``):
SimHash kept-sets are computed over the *whole* corpus in arrival order
and cannot be reproduced on per-node partial corpora.

**Durable mode**: constructed with ``wal_dir``, the worker routes
ingest through :meth:`DiversificationService.durable_ingest` — its WAL
and its ``ViewRegistry`` epochs both live on the node that owns the
data, which is the cluster-aware-ingest design: recovery is local, no
cross-node replay coordination.

**Trace propagation**: a request frame carrying a ``trace`` context and
the ``spans`` flag gets a per-request private tracer; the worker's
spans come back in the response frame and the router grafts them into
its own trace via the existing ``Tracer.adopt`` path.  A context marked
unsampled (its router's head sampling left the request out) is served
active, so the worker's service records no span for the leg.
"""

from __future__ import annotations

import asyncio
import logging
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..index.inverted_index import Document
from ..index.query import LabelMatcher, TopicQuery
from ..observability import facade as _obs
from ..observability import structlog
from ..observability.profiling import MAX_CAPTURE_SECONDS, Profiler
from ..observability.tracing import TraceContext, Tracer
from ..service import DigestRequest, DiversificationService, \
    ServiceConfig
from .frames import FrameError, MAX_FRAME, encode_frame, read_frame
from .protocol import (
    ClusterError,
    OP_DIGEST,
    OP_EXPORT,
    OP_HEALTH,
    OP_HEARTBEAT,
    OP_INGEST,
    OP_INTROSPECT,
    OP_PROFILE,
    OP_ROWS,
    OP_SCRAPE,
    OP_SET_WINDOW,
    document_from_dict,
    document_to_dict,
    error_frame,
    ok_frame,
)

__all__ = ["WorkerNode", "default_worker_config"]


def default_worker_config(**overrides: Any) -> ServiceConfig:
    """A service config suitable for a cluster worker.

    Dedup is off (partition parity requires it) and views are on; any
    knob can still be overridden.
    """
    overrides.setdefault("dedup_distance", None)
    return ServiceConfig(**overrides)


class WorkerNode:
    """One shard server: frames in, service calls out.

    Parameters
    ----------
    name:
        The node's cluster identity (its position on the hash ring).
    queries:
        The *full* topic universe.  The router decides which labels'
        documents reach this node; knowing every query lets the worker
        serve any label subset its corpus actually holds — including
        replicated labels during failover.
    config:
        Service config; ``dedup_distance`` must be ``None``.
    wal_dir:
        When given, ingest batches run through the durable WAL pipeline
        rooted there (local exactly-once, local recovery).
    """

    def __init__(
        self,
        name: str,
        queries: Sequence[TopicQuery],
        config: Optional[ServiceConfig] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = MAX_FRAME,
        wal_dir: Optional[Any] = None,
        ingest_config: Optional[Any] = None,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.max_frame = max_frame
        config = config if config is not None \
            else default_worker_config()
        if config.dedup_distance is not None:
            raise ClusterError(
                "cluster workers require dedup_distance=None: SimHash "
                "kept-sets depend on the full corpus in arrival order "
                "and cannot be reproduced on a label partition"
            )
        self.service = DiversificationService(queries, config)
        self.service.cluster_info = self._cluster_info
        # Every document this node holds, by id — the idempotency gate
        # for rebalance handoffs (the same doc may arrive again when a
        # label moves or a replica resyncs) and the export source.
        self._documents: Dict[int, Document] = {}
        # Last piggybacked cluster picture (membership + ring summary).
        self._peers: Dict[str, Any] = {}
        self._owned_labels: Tuple[str, ...] = ()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.address: Optional[Tuple[str, int]] = None
        self._inflight = 0
        self.requests_served = 0
        self.heartbeats_seen = 0
        self.frames_rejected = 0
        self.ingest_skipped = 0
        self._ingest_pipeline = None
        self._wal_dir = wal_dir
        if wal_dir is not None:
            self._ingest_pipeline = self.service.durable_ingest(
                wal_dir, ingest_config
            )
            # crash-recovery path: restore committed state, replay the
            # tail, then flush the resequencer window — the node must
            # serve its full corpus the moment it is back
            self._ingest_pipeline.recover()
            self._ingest_pipeline.drain()
            self._ingest_pipeline.flush()
            for document in self.service.corpus():
                self._documents[document.doc_id] = document

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``.

        Always request port 0 in tests and read this back — the worker
        itself never assumes a port.
        """
        if self._server is not None:
            raise ClusterError(f"worker {self.name!r} already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        structlog.emit(
            "cluster.worker_started", node=self.name,
            host=self.address[0], port=self.address[1],
        )
        return self.address

    async def stop(self) -> None:
        """Stop serving (existing in-flight requests are abandoned —
        from the router's side this is indistinguishable from a crash,
        which is exactly what the failover tests exploit)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # sever established connections too — closing only the listener
        # would leave connected clients being served by a "dead" node
        for writer in list(self._connections):
            writer.close()
        # let the severed handlers unwind before the caller's loop can
        # go away — an abandoned handler would be cancelled at loop
        # shutdown and logged by the asyncio streams machinery
        for _ in range(20):
            if not self._connections:
                break
            await asyncio.sleep(0)
        self._connections.clear()
        self.service.close()
        if self._ingest_pipeline is not None:
            self._ingest_pipeline.close()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def durable(self) -> bool:
        return self._ingest_pipeline is not None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        self._connections.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(reader, self.max_frame)
                except FrameError as error:
                    # oversized or truncated: the stream cannot be
                    # resynchronised — reject and drop the connection
                    # instead of hanging on a partial read
                    self.frames_rejected += 1
                    _obs.count("cluster.worker.frames_rejected")
                    structlog.emit(
                        "cluster.frame_rejected",
                        level=logging.WARNING,
                        node=self.name, reason=repr(error),
                    )
                    break
                if frame is None:
                    break
                task = asyncio.ensure_future(
                    self._serve_frame(frame, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            self._connections.discard(writer)
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_frame(
        self,
        frame: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        rid = frame.get("rid", -1)
        op = frame.get("op", "")
        payload = frame.get("payload") or {}
        trace = frame.get("trace")
        want_spans = bool(frame.get("spans"))
        self._inflight += 1
        self.requests_served += 1
        spans: Optional[List[dict]] = None
        try:
            if trace is not None and want_spans:
                # a per-request private tracer: its spans ship back in
                # the response and the router adopts them — identical
                # in-process and across real process boundaries
                tracer = Tracer(clock=_time.perf_counter)
                context = TraceContext.from_dict(trace)
                with tracer.activate(context):
                    with tracer.span(
                        f"cluster.worker.{op}", node=self.name,
                    ) as worker_span:
                        result = await self._dispatch(op, payload)
                if op == OP_DIGEST:
                    # link the worker span to the service-side trace:
                    # the router's assembled tree follows it, so the
                    # persisted cross-node tree reaches down to the
                    # worker's service.solve spans
                    linked = (
                        (result.get("response") or {}).get("trace_id")
                    )
                    if linked:
                        worker_span.set_attribute(
                            "link_trace_id", linked
                        )
                spans = tracer.as_dicts()
                # the worker root's parent is the *router's* span id —
                # an id from a different allocator that can collide
                # with this tracer's own ids.  Null it out: the router
                # re-parents foreign roots onto its span on adoption.
                for entry in spans:
                    if entry["span_id"] == worker_span.span_id:
                        entry["parent_id"] = None
            elif trace is not None:
                # a leg its router left unsampled: served under its
                # context, marked so, the service records no span
                with _obs.activate(TraceContext.from_dict(trace)):
                    result = await self._dispatch(op, payload)
            else:
                result = await self._dispatch(op, payload)
            response = ok_frame(rid, result, spans=spans)
        except Exception as error:  # remote faults become error frames
            _obs.count("cluster.worker.errors")
            response = error_frame(rid, repr(error))
        finally:
            self._inflight -= 1
        try:
            body = encode_frame(response, self.max_frame)
        except FrameError as error:
            body = encode_frame(
                error_frame(rid, repr(error)), self.max_frame
            )
        async with write_lock:
            writer.write(body)
            try:
                await writer.drain()
            except (ConnectionError, OSError):  # peer went away
                pass

    # -- op dispatch -------------------------------------------------------

    async def _dispatch(
        self, op: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == OP_ROWS:
            return self._op_rows(payload)
        if op == OP_DIGEST:
            return await self._op_digest(payload)
        if op == OP_INGEST:
            return self._op_ingest(payload)
        if op == OP_HEARTBEAT:
            return self._op_heartbeat(payload)
        if op == OP_EXPORT:
            return self._op_export(payload)
        if op == OP_SET_WINDOW:
            return self._op_set_window(payload)
        if op == OP_SCRAPE:
            return self._op_scrape(payload)
        if op == OP_PROFILE:
            return await self._op_profile(payload)
        if op == OP_HEALTH:
            return self.service.health()
        if op == OP_INTROSPECT:
            return self.service.introspect()
        raise ClusterError(f"unknown op {op!r}")

    async def _op_digest(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        request = DigestRequest.from_dict(payload["request"])
        response = await self.service.digest(request)
        return {"response": response.to_dict()}

    def _op_rows(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """A scatter leg's rows (:meth:`DiversificationService.rows`) as
        ``{"instance": ...}``, or its refusal as ``{"reason": ...}``."""
        request = DigestRequest(
            lam=payload["lam"], labels=payload["labels"],
            dimension=payload.get("dimension"),
        )
        try:
            instance = self.service.rows(
                request, payload["window_labels"], payload.get("newest")
            )
        except ReproError as error:
            return {"reason": str(error)}
        return {"instance": instance.to_dict()}

    def _op_ingest(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        documents = [
            document_from_dict(entry)
            for entry in payload.get("documents", ())
        ]
        fresh: List[Document] = []
        skipped = 0
        for document in documents:
            if document.doc_id in self._documents:
                skipped += 1  # handoff overlap / replica resync
                continue
            self._documents[document.doc_id] = document
            fresh.append(document)
        self.ingest_skipped += skipped
        if fresh:
            if self._ingest_pipeline is not None:
                for document in fresh:
                    self._ingest_pipeline.append(document)
                self._ingest_pipeline.drain()
                # quiesce the resequencer window: the response's epoch
                # and corpus count must reflect the whole batch
                self._ingest_pipeline.flush()
            else:
                self.service.ingest(fresh)
        return {
            "node": self.name,
            "epoch": self.service.epoch,
            "accepted": len(fresh),
            "skipped": skipped,
            "corpus": self.service.corpus_size(),
            "durable": self.durable,
        }

    def _op_heartbeat(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.heartbeats_seen += 1
        membership = payload.get("membership")
        if membership is not None:
            self._peers = membership
        ring = payload.get("ring") or {}
        self._owned_labels = tuple(ring.get(self.name, ()))
        return {
            "node": self.name,
            "status": "alive",
            "epoch": self.service.epoch,
            "corpus": self.service.corpus_size(),
            "inflight": self._inflight,
        }

    def _op_export(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The rebalance source: this node's documents matching any of
        the requested labels, each exported once."""
        labels = set(payload.get("labels", ()))
        matcher = LabelMatcher(self.service.queries)
        out = []
        for doc_id in sorted(self._documents):
            document = self._documents[doc_id]
            if matcher.match(document.text) & labels:
                out.append(document_to_dict(document))
        return {"node": self.name, "documents": out}

    def _op_scrape(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The federation pull: this node's telemetry as a versioned
        delta against the collector's cursor (see
        :meth:`DiversificationService.scrape`)."""
        cursor = payload.get("cursor")
        out = self.service.scrape(
            None if cursor is None else int(cursor)
        )
        out["node"] = self.name
        # exclude this scrape request from the inflight count
        out["service"]["inflight"] = self._inflight - 1
        return out

    async def _op_profile(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """On-demand continuous-profiling capture: sample this node's
        threads for a bounded number of seconds and return collapsed
        stacks plus the speedscope document.  The worker keeps serving
        while the sampler runs — that is the point."""
        seconds = min(
            float(payload.get("seconds", 1.0)), MAX_CAPTURE_SECONDS
        )
        if seconds <= 0:
            raise ClusterError(
                f"profile capture needs seconds > 0, got {seconds}"
            )
        hz = int(payload.get("hz", 100))
        profiler = Profiler(hz=hz)
        profiler.start()
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.stop()
        return {
            "node": self.name,
            "seconds": seconds,
            "hz": profiler.hz,
            "samples": profiler.sample_count,
            "overflowed": profiler.overflowed,
            "collapsed": profiler.collapsed(),
            "speedscope": profiler.speedscope(
                name=f"{self.name} profile"
            ),
        }

    def _op_set_window(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        labels = tuple(payload["labels"])
        window = payload.get("window")
        self.service.set_view_window(
            labels, None if window is None else float(window)
        )
        return {"node": self.name, "labels": sorted(labels),
                "window": window}

    # -- the service's cluster section (health/introspect) -----------------

    def _cluster_info(self) -> Dict[str, Any]:
        return {
            "role": "worker",
            "node": self.name,
            "address": None if self.address is None
            else list(self.address),
            "owned_labels": sorted(self._owned_labels),
            "peers": self._peers,
            "inflight": self._inflight,
            "requests_served": self.requests_served,
            "heartbeats_seen": self.heartbeats_seen,
            "frames_rejected": self.frames_rejected,
            "ingest_skipped": self.ingest_skipped,
            "documents": len(self._documents),
            "durable": self.durable,
        }
