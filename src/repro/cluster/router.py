"""The asyncio scatter-gather router: the cluster's front end.

One :class:`ClusterRouter` owns the hash ring, the membership table and
one multiplexed connection per worker.  A digest request resolves its
labels, groups them by live owner, and either

* **forwards whole** — every requested label lives on one owner group,
  whose worker serves the digest — or
* **scatter-gathers** — each owner group reads its leg's rows (the
  ``rows`` op), and the router merges and solves them.

**Why the merge is exact.**  λ-coverage decomposes by label: post ``p``
with label ``ℓ`` is covered iff some selected post carries ``ℓ`` within
λ, and Scan, Scan+ and GreedySC read only each label's sorted values
and the posts' label sets.  A leg's rows hold exactly that for its
labels, so the legs' rows laid end to end — a *seam* post, a uid in
more than one leg because its labels span owners, gets one row with the
union of its legs' labels — are the one-process instance over the
served labels.  Merged on their decoded columns (:func:`_merge_legs`),
however many legs came back, they are solved with
``solve(algorithm, merged)``: pick-identical to one process over the
served labels by construction (Scan, Scan+ and GreedySC build a post
only for each pick).

**Failure semantics**: per-shard deadlines, hedged retries to replicas
after ``hedge_delay``, request-path failures feeding the same detector
as heartbeats.  A label whose owners are all down degrades the
response explicitly (``missing_labels``, and a ``reason`` naming them
and each failed leg's cause) rather than failing it, and the cover
served is one process's over the labels that remain — partial answers
with honest labels beat outages.  A request no worker could answer (a
NaN or negative λ, an unknown algorithm) is refused before it scatters.
"""

from __future__ import annotations

import asyncio
import logging
import time as _time
from collections import OrderedDict
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from itertools import compress
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, \
    Mapping, Optional, Sequence, Set, Tuple

from ..core.instance import InstanceColumns
from ..core.registry import lookup, solve
from ..errors import ReproError
from ..index.inverted_index import Document
from ..index.query import LabelMatcher, TopicQuery
from ..observability import facade as _obs
from ..observability import structlog
from ..observability.collector import Collector
from ..observability.traces import TracePipeline, head_sample
from ..observability.tracing import TraceContext
from ..pipeline import DigestResult
from ..service import DigestRequest, ServiceConfig, ServiceResponse
from .frames import MAX_FRAME, encode_frame, read_frame
from .hashring import HashRing
from .membership import Membership
from .protocol import (
    ClusterError,
    NodeUnavailableError,
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
    ShardTimeoutError,
    WorkerFaultError,
    document_to_dict,
    request_frame,
)

__all__ = ["ClusterConfig", "ClusterResponse", "ClusterRouter",
           "NodeClient"]

OK = "ok"
DEGRADED = "degraded"
ERROR = "error"


def _check_leg(
    columns: InstanceColumns, labels: Sequence[str], lam: float, node: str
) -> None:
    """Raise :class:`ClusterError` when a leg's decoded rows are not
    over the labels and lambda the leg asked for — the merge hands the
    legs' rows to ``InstanceColumns.from_rows`` on that promise.  Reads
    the columns, so a forward never builds its instance here."""
    if columns.labels != frozenset(labels) or columns.lam != lam:
        raise ClusterError(
            f"{node} answered over labels {sorted(columns.labels)} at "
            f"lambda {columns.lam}; the leg asked for "
            f"{list(labels)} at lambda {lam}"
        )


def _merge_legs(
    parts: Sequence[InstanceColumns], lam: float, labels: Sequence[str]
) -> Tuple[InstanceColumns, int]:
    """The legs' rows as one set of columns over ``labels`` (sorted),
    and the number of seam posts among them.

    A seam post is a uid in more than one leg (its labels span owners),
    with partial label sets whose union is its true requested label set:
    it keeps its first leg's row, whose mask ORs its legs' masks.  Masks
    move to the merged bit order, and each leg's label-set objects are
    kept.  Each leg's labels were checked to be the ones it asked for
    (:func:`_check_leg`) and its rows were decoded sorted and unique, so
    the merged rows, sorted, meet :meth:`InstanceColumns.from_rows`'s
    contract.  Raises :class:`ClusterError` when two legs disagree on a
    seam post's value.
    """
    bits = {label: 1 << index for index, label in enumerate(labels)}
    label_sets: Dict[int, FrozenSet[str]] = {}
    # the legs' columns end to end: a leg's row r is row offset + r
    uids: List[int] = []
    values: List[float] = []
    masks: List[int] = []
    texts: List[str] = []
    offsets: List[int] = []
    for part in parts:
        remap = {}
        for mask, names in part.label_sets.items():
            merged = sum(map(bits.__getitem__, names))
            remap[mask] = merged
            label_sets.setdefault(merged, names)
        offsets.append(len(uids))
        uids += part.uids
        values += part.values
        masks.extend(map(remap.__getitem__, part.masks))
        texts += part.texts
    seam: Set[int] = set()
    for index, first in enumerate(parts):
        for other in parts[index + 1:]:
            seam |= first.rows.keys() & other.rows.keys()
    keep = [True] * len(uids)
    legs = [(part.rows.get, offset) for part, offset in zip(parts, offsets)]
    for uid in sorted(seam):
        first = -1
        for row_of, offset in legs:
            row = row_of(uid)
            if row is None:
                continue
            row += offset
            if first < 0:
                first = row
            elif values[row] != values[first]:
                raise ClusterError(
                    f"scatter legs disagree on the value of post {uid}: "
                    f"{values[first]!r} and {values[row]!r}"
                )
            else:
                masks[first] |= masks[row]
                keep[row] = False
        union = masks[first]
        if union not in label_sets:
            label_sets[union] = frozenset(
                label for label in labels if union & bits[label]
            )
    # (value, uid) order: two stable sorts, the minor key first
    order = list(compress(range(len(uids)), keep))
    order.sort(key=uids.__getitem__)
    order.sort(key=values.__getitem__)
    return InstanceColumns.from_rows(
        lam, frozenset(labels),
        list(map(uids.__getitem__, order)),
        list(map(values.__getitem__, order)),
        list(map(masks.__getitem__, order)),
        list(map(texts.__getitem__, order)),
        label_sets,
    ), len(seam)


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs for one :class:`ClusterRouter`.

    The ring runs :class:`HashRing`'s default vnodes per worker.
    """

    # placement
    replication: int = 1
    # scatter behaviour
    request_timeout: float = 5.0
    hedge_delay: float = 0.25
    # membership
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 1.0
    max_missed: int = 3
    # wire
    max_frame: int = MAX_FRAME
    clock: Callable[[], float] = _time.perf_counter

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ClusterError(
                f"replication must be >= 1, got {self.replication}"
            )
        # `not x > 0` refuses NaN too: a NaN deadline expires at once,
        # and a NaN heartbeat interval never wakes the loop
        for name in (
            "request_timeout", "heartbeat_interval", "heartbeat_timeout"
        ):
            if not getattr(self, name) > 0:
                raise ClusterError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if not self.hedge_delay >= 0:
            raise ClusterError(
                f"hedge_delay must be >= 0, got {self.hedge_delay}"
            )


@dataclass(frozen=True)
class ClusterResponse:
    """Outcome of one routed digest.

    ``status`` mirrors the service tier (``ok`` / ``degraded`` /
    ``error``); ``missing_labels`` names label blocks no live shard
    could serve, and ``reason`` names them with each failed leg's node
    and cause; ``seam_posts`` counts the posts whose labels spanned
    legs, and ``resolves`` is 1 when the router solved the legs' merged
    rows.
    """

    status: str
    result: Optional[DigestResult]
    algorithm: str
    latency_s: float = 0.0
    trace_id: str = ""
    shards: Tuple[str, ...] = ()
    missing_labels: Tuple[str, ...] = ()
    seam_posts: int = 0
    resolves: int = 0
    hedges: int = 0
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "result": None if self.result is None
            else self.result.to_dict(),
            "algorithm": self.algorithm,
            "latency_s": self.latency_s,
            "trace_id": self.trace_id,
            "shards": list(self.shards),
            "missing_labels": list(self.missing_labels),
            "seam_posts": self.seam_posts,
            "resolves": self.resolves,
            "hedges": self.hedges,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClusterResponse":
        result = payload.get("result")
        return cls(
            status=str(payload["status"]),
            result=None if result is None
            else DigestResult.from_dict(result),
            algorithm=str(payload.get("algorithm", "")),
            latency_s=float(payload.get("latency_s", 0.0)),
            trace_id=str(payload.get("trace_id", "")),
            shards=tuple(payload.get("shards", ())),
            missing_labels=tuple(payload.get("missing_labels", ())),
            seam_posts=int(payload.get("seam_posts", 0)),
            resolves=int(payload.get("resolves", 0)),
            hedges=int(payload.get("hedges", 0)),
            reason=str(payload.get("reason", "")),
        )


class NodeClient:
    """One multiplexed frame connection to a worker.

    Requests carry a per-connection ``rid``; a single reader task
    resolves pending futures as responses arrive in any order.  A dead
    connection fails every pending call with
    :class:`NodeUnavailableError` and the next call reconnects.
    """

    def __init__(
        self,
        name: str,
        address: Tuple[str, int],
        *,
        max_frame: int = MAX_FRAME,
    ):
        self.name = name
        self.address = tuple(address)
        self.max_frame = max_frame
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task"] = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._next_rid = 1
        self._connect_lock: Optional[asyncio.Lock] = None
        self.calls = 0
        self.failures = 0

    async def _ensure_connected(self) -> None:
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            if self._writer is not None and \
                    not self._writer.is_closing():
                return
            try:
                reader, writer = await asyncio.open_connection(
                    self.address[0], self.address[1]
                )
            except (ConnectionError, OSError) as error:
                raise NodeUnavailableError(
                    f"cannot connect to {self.name} at "
                    f"{self.address}: {error}"
                ) from None
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        reader = self._reader
        try:
            while reader is not None:
                frame = await read_frame(reader, self.max_frame)
                if frame is None:
                    break
                future = self._pending.pop(frame.get("rid"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except Exception:  # frame error / connection reset
            pass
        if self._reader is reader:  # not yet replaced by a reconnect
            self._fail_pending()

    def _fail_pending(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
        self._reader = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(NodeUnavailableError(
                    f"connection to {self.name} died mid-request"
                ))

    async def call(
        self,
        op: str,
        payload: Dict[str, Any],
        *,
        trace: Optional[Mapping[str, Any]] = None,
        want_spans: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request/response round trip; returns the response frame."""
        await self._ensure_connected()
        assert self._writer is not None
        rid = self._next_rid
        self._next_rid += 1
        future: "asyncio.Future" = \
            asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        frame = request_frame(
            op, rid, payload, trace=trace, want_spans=want_spans
        )
        self.calls += 1
        try:
            self._writer.write(encode_frame(frame, self.max_frame))
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._pending.pop(rid, None)
            self._fail_pending()
            self.failures += 1
            raise NodeUnavailableError(
                f"write to {self.name} failed: {error}"
            ) from None
        try:
            if timeout is not None:
                response = await asyncio.wait_for(future, timeout)
            else:
                response = await future
        except asyncio.TimeoutError:
            self.failures += 1
            raise ShardTimeoutError(
                f"{self.name} missed its {timeout}s deadline"
            ) from None
        except NodeUnavailableError:
            self.failures += 1
            raise
        finally:
            self._pending.pop(rid, None)
        if response.get("status") != "ok":
            raise WorkerFaultError(
                f"{self.name}: {response.get('error', 'unknown fault')}"
            )
        return response

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        self._fail_pending()


class ClusterRouter:
    """Scatter-gather front end over a set of :class:`WorkerNode`\\ s."""

    def __init__(
        self,
        queries: Sequence[TopicQuery],
        config: Optional[ClusterConfig] = None,
    ):
        self.config = config if config is not None else ClusterConfig()
        self.queries: Tuple[TopicQuery, ...] = tuple(queries)
        self._matcher = LabelMatcher(self.queries)
        self.labels: Tuple[str, ...] = tuple(sorted(
            q.label for q in self.queries
        ))
        self.ring = HashRing()
        self.membership = Membership(max_missed=self.config.max_missed)
        self._clients: Dict[str, NodeClient] = {}
        # labels being handed to a joining node: ingest dual-writes to
        # both old and new owners during the window, so the cutover
        # loses nothing (readers keep seeing old owners until the swap)
        self._joining: Dict[str, Set[str]] = {}
        # the newest document timestamp routed, matched or not: rows
        # legs count windows back from it, as one process does
        self._newest: Optional[float] = None
        # the windows pinned through set_view_window, by label set: a
        # node that comes to hold one of a set's labels is sent its pin
        self._pins: Dict[Tuple[str, ...], float] = {}
        self._clock = self.config.clock
        self._heartbeat_task: Optional["asyncio.Task"] = None
        # observability control plane (optional, attached post-init)
        self._collector: Optional[Collector] = None
        self._collector_task: Optional["asyncio.Task"] = None
        self._trace_pipeline: Optional[TracePipeline] = None
        # counters
        self.requests = 0
        self.errors = 0
        self.documents_ingested = 0
        self.documents_unrouted = 0
        self.scatter_legs = 0
        self.hedges = 0
        self.resolves = 0
        self.seam_requests = 0
        self.degraded_responses = 0
        self.failovers = 0
        self.rebalances = 0
        self._inflight = 0
        self._node_epochs: Dict[str, int] = {}

    # -- membership / topology --------------------------------------------

    def _client(self, name: str) -> NodeClient:
        try:
            return self._clients[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    async def add_worker(
        self, name: str, address: Tuple[str, int]
    ) -> Dict[str, Any]:
        """Join a node: register it and rebalance its labels onto it.

        Readers keep hitting the old owners until the ring swap at the
        end; ingest dual-writes to the joining node during the handoff,
        so the cutover is lossless (see ``docs/cluster.md``).
        """
        if name in self._clients:
            raise ClusterError(f"node {name!r} already joined")
        self.membership.add(name, address)
        self._clients[name] = NodeClient(
            name, address, max_frame=self.config.max_frame
        )
        if len(self.ring) == 0:
            await self._replay_pins(name, self.labels)
            self.ring.add(name)
            structlog.emit("cluster.node_joined", node=name, moved=0)
            return {"node": name, "moved_labels": []}
        target = HashRing(list(self.ring.nodes) + [name])
        gained = self.ring.moved_keys(
            self.labels, target, self.config.replication
        ).get(name, [])
        moved = await self._handoff(name, gained, source_ring=self.ring)
        await self._replay_pins(name, gained)
        self.ring = target
        self._joining.pop(name, None)
        self.rebalances += 1
        _obs.count("cluster.router.rebalances")
        structlog.emit(
            "cluster.node_joined", node=name, moved=len(moved),
        )
        return {"node": name, "moved_labels": sorted(moved)}

    async def remove_worker(self, name: str) -> Dict[str, Any]:
        """Graceful leave: hand the node's labels to their new owners,
        then drop it from the ring and the membership table."""
        if name not in self._clients:
            raise ClusterError(f"unknown node {name!r}")
        if len(self.ring) <= 1:
            raise ClusterError(
                "cannot remove the last node of the cluster"
            )
        remaining = [n for n in self.ring.nodes if n != name]
        target = HashRing(remaining)
        gains = self.ring.moved_keys(
            self.labels, target, self.config.replication
        )
        moved_total: List[str] = []
        for gainer, labels in sorted(gains.items()):
            if gainer == name:
                continue
            moved = await self._handoff(
                gainer, labels, source_ring=self.ring,
                prefer_source=name,
            )
            await self._replay_pins(gainer, labels)
            moved_total.extend(moved)
        self.ring = target
        client = self._clients.pop(name)
        await client.close()
        self.membership.remove(name)
        self._node_epochs.pop(name, None)
        self.rebalances += 1
        _obs.count("cluster.router.rebalances")
        structlog.emit(
            "cluster.node_left", node=name, moved=len(moved_total),
        )
        return {"node": name, "moved_labels": sorted(set(moved_total))}

    async def _handoff(
        self,
        target: str,
        labels: Sequence[str],
        *,
        source_ring: HashRing,
        prefer_source: Optional[str] = None,
    ) -> List[str]:
        """Copy the documents for ``labels`` onto ``target`` from their
        current live holders.  Returns the labels actually moved."""
        if not labels:
            return []
        self._joining.setdefault(target, set()).update(labels)
        by_source: Dict[str, List[str]] = {}
        moved: List[str] = []
        for label in sorted(set(labels)):
            holders = [
                node
                for node in source_ring.owners(
                    label, self.config.replication
                )
                if node != target and self.membership.is_alive(node)
            ]
            if prefer_source is not None and prefer_source in holders:
                holders = [prefer_source] + [
                    node for node in holders if node != prefer_source
                ]
            if not holders:
                # no live holder: nothing to copy (the label was
                # already dark); the new owner starts it empty
                continue
            by_source.setdefault(holders[0], []).append(label)
            moved.append(label)
        for source, source_labels in sorted(by_source.items()):
            response = await self._client(source).call(
                OP_EXPORT, {"labels": source_labels},
                timeout=self.config.request_timeout,
            )
            documents = response["payload"]["documents"]
            if documents:
                await self._client(target).call(
                    OP_INGEST, {"documents": documents},
                    timeout=self.config.request_timeout,
                )
        return moved

    async def _resync(self, name: str) -> None:
        """A crashed node came back: its corpus missed every ingest
        while it was down, so re-copy its owned labels from the live
        replicas (the worker's doc-id gate dedups the overlap)."""
        owned = [
            label for label in self.labels
            if name in self.ring.owners(label, self.config.replication)
        ]
        moved = await self._handoff(name, owned, source_ring=self.ring)
        await self._replay_pins(name, owned)
        self._joining.pop(name, None)
        structlog.emit(
            "cluster.node_resynced", node=name, labels=len(moved),
        )

    async def _replay_pins(self, node: str, labels: Iterable[str]) -> None:
        """Send ``node`` every pinned window whose label set holds one
        of ``labels``, the labels it has just come to hold: a joining
        node, a leave's gainer and a revived node start without them."""
        held = set(labels)
        for pinned, window in sorted(self._pins.items()):
            if held.intersection(pinned):
                await self._send_window(node, pinned, window)

    async def _send_window(
        self, node: str, labels: Sequence[str], window: Optional[float]
    ) -> Dict[str, Any]:
        response = await self._client(node).call(
            OP_SET_WINDOW, {"labels": list(labels), "window": window},
            timeout=self.config.request_timeout,
        )
        return response["payload"]

    def _window_holders(self, labels: Sequence[str]) -> Set[str]:
        """The live owners of ``labels`` and the nodes taking one of
        them over (a handoff under way), the nodes ingest writes to."""
        holders: Set[str] = set()
        for label in labels:
            holders.update(
                node
                for node in self.ring.owners(label, self.config.replication)
                if self.membership.is_alive(node)
            )
            holders.update(
                joiner for joiner, moving in self._joining.items()
                if label in moving
            )
        return holders

    # -- heartbeats --------------------------------------------------------

    async def heartbeat_once(self) -> Dict[str, str]:
        """Probe every member once; returns ``node -> up/down``.

        Piggybacks the membership snapshot and ring ownership summary
        so every worker can answer for cluster state.  Deterministic
        and directly callable — tests drive probes explicitly instead
        of sleeping through the background interval.
        """
        ring_summary = {
            node: labels for node, labels in self.ring.ownership(
                self.labels, self.config.replication
            ).items()
        } if len(self.ring) else {}
        snapshot = self.membership.snapshot()
        statuses: Dict[str, str] = {}
        for name in self.membership.members():
            try:
                response = await self._client(name).call(
                    OP_HEARTBEAT,
                    {"membership": snapshot, "ring": ring_summary},
                    timeout=self.config.heartbeat_timeout,
                )
                self._node_epochs[name] = int(
                    response["payload"].get("epoch", 0)
                )
                recovered = self.membership.record_success(name)
                if recovered:
                    structlog.emit(
                        "cluster.node_recovered", node=name,
                    )
                    _obs.count("cluster.router.recoveries")
                    await self._resync(name)
            except ClusterError:
                went_down = self.membership.record_failure(name)
                if went_down:
                    structlog.emit(
                        "cluster.node_down",
                        level=logging.WARNING, node=name,
                    )
                    _obs.count("cluster.router.nodes_down")
            state = self.membership.get(name)
            statuses[name] = state.status if state else "unknown"
        return statuses

    async def start_heartbeats(self) -> None:
        """Run :meth:`heartbeat_once` on the configured interval until
        :meth:`close`."""
        if self._heartbeat_task is not None:
            return

        async def beat() -> None:
            while True:
                await asyncio.sleep(self.config.heartbeat_interval)
                await self.heartbeat_once()

        self._heartbeat_task = asyncio.ensure_future(beat())

    async def close(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._collector_task is not None:
            self._collector_task.cancel()
            self._collector_task = None
        if self._trace_pipeline is not None:
            self._trace_pipeline.close()
        for client in self._clients.values():
            await client.close()

    # -- note request-path outcomes into the failure detector --------------

    def _note_failure(self, name: str) -> None:
        if self.membership.record_failure(name):
            structlog.emit(
                "cluster.node_down", level=logging.WARNING,
                node=name, via="request-path",
            )
            _obs.count("cluster.router.nodes_down")

    def _note_success(self, name: str) -> None:
        # request-path recovery only resets the miss counter; the full
        # down -> up flip (with resync) stays a heartbeat decision
        state = self.membership.get(name)
        if state is not None and state.status == "up":
            state.missed = 0

    # -- observability control plane ---------------------------------------

    def attach_trace_pipeline(self, pipeline: TracePipeline) -> None:
        """Route every finished digest through ``pipeline``.

        Attaching also turns on router-level head sampling: a request
        that loses the pipeline policy's coin flip records no span here,
        its merge re-solve included, and its legs carry its context
        marked unsampled, so no worker records a span for it either —
        the cheap path the p50 gate in ``BENCH_observability.json``
        measures."""
        self._trace_pipeline = pipeline

    def enable_collector(
        self,
        *,
        interval: float = 1.0,
        engine: Optional[Any] = None,
    ) -> Collector:
        """Build the fleet collector over the ``scrape`` op.

        The collector pulls every *live* member each cycle with a
        versioned cursor, feeds scrape outcomes into the same failure
        detector as the request path, and (with an ``engine``) raises
        anomaly alerts against the merged fleet state.  The caller owns
        the cadence: drive :meth:`collect_once` explicitly (tests) or
        :meth:`start_collector` for the background loop."""

        async def scrape(
            name: str, cursor: Optional[int]
        ) -> Dict[str, Any]:
            try:
                response = await self._client(name).call(
                    OP_SCRAPE, {"cursor": cursor},
                    timeout=self.config.request_timeout,
                )
            except ClusterError:
                self._note_failure(name)
                raise
            self._note_success(name)
            return response["payload"]

        self._collector = Collector(
            nodes=lambda: self.membership.alive(),
            scrape=scrape,
            interval=interval,
            engine=engine,
            fleet_state=lambda: {"dark_labels": self._dark_labels()},
        )
        return self._collector

    def _dark_labels(self) -> List[str]:
        """Labels whose every replica is down — requests for them are
        already degrading; the ``dark_shard`` rule alerts on this."""
        if len(self.ring) == 0:
            return list(self.labels)
        return [
            label for label in self.labels
            if not any(
                self.membership.is_alive(node)
                for node in self.ring.owners(
                    label, self.config.replication
                )
            )
        ]

    async def collect_once(self) -> Dict[str, Any]:
        """One explicit collector cycle (tests drive this directly)."""
        if self._collector is None:
            raise ClusterError(
                "no collector enabled; call enable_collector() first"
            )
        return await self._collector.collect_once()

    async def start_collector(self) -> None:
        """Run :meth:`collect_once` on the collector's interval until
        :meth:`close`."""
        if self._collector is None:
            raise ClusterError(
                "no collector enabled; call enable_collector() first"
            )
        if self._collector_task is not None:
            return

        async def pull() -> None:
            while True:
                await asyncio.sleep(self._collector.interval)
                try:
                    await self._collector.collect_once()
                except Exception:  # pragma: no cover - defensive
                    logging.getLogger(__name__).exception(
                        "collector cycle failed"
                    )

        self._collector_task = asyncio.ensure_future(pull())

    def federated_prometheus(self) -> str:
        """The fleet's one Prometheus page (collector required)."""
        if self._collector is None:
            raise ClusterError(
                "no collector enabled; call enable_collector() first"
            )
        return self._collector.to_prometheus()

    async def profile_node(
        self, name: str, *, seconds: float = 2.0, hz: int = 100
    ) -> Dict[str, Any]:
        """Capture ``seconds`` of wall-clock stack samples from a live
        node via the ``profile`` op."""
        response = await self._client(name).call(
            OP_PROFILE, {"seconds": seconds, "hz": hz},
            timeout=max(
                self.config.request_timeout, seconds + 5.0
            ),
        )
        return response["payload"]

    # -- ingest ------------------------------------------------------------

    async def ingest(
        self, documents: Iterable[Document]
    ) -> Dict[str, Any]:
        """Route a document batch to the owning shards.

        Every document goes to *all* live owners of each label it
        matches (replicas stay byte-identical for their labels), plus
        any joining node currently receiving those labels (the
        dual-write that makes rebalance lossless).  Unmatched documents
        are counted but shipped nowhere — no node needs them, and the
        router's tally keeps cluster digest counters identical to a
        single process that did see them.
        """
        batches: Dict[str, List[Dict[str, Any]]] = {}
        unrouted = 0
        total = 0
        for document in documents:
            total += 1
            if self._newest is None or document.timestamp > self._newest:
                self._newest = document.timestamp
            labels = self._matcher.match(document.text)
            if not labels:
                unrouted += 1
                continue
            targets: Set[str] = set()
            for label in labels:
                for node in self.ring.owners(
                    label, self.config.replication
                ):
                    if self.membership.is_alive(node):
                        targets.add(node)
                for joiner, moving in self._joining.items():
                    if label in moving:
                        targets.add(joiner)
            payload = document_to_dict(document)
            for node in sorted(targets):
                batches.setdefault(node, []).append(payload)
        self.documents_ingested += total
        self.documents_unrouted += unrouted
        _obs.count("cluster.router.ingested", total)
        results: Dict[str, Any] = {}
        failed: List[str] = []
        for node in sorted(batches):
            try:
                response = await self._client(node).call(
                    OP_INGEST, {"documents": batches[node]},
                    timeout=self.config.request_timeout,
                )
                self._note_success(node)
                payload = response["payload"]
                self._node_epochs[node] = int(payload.get("epoch", 0))
                results[node] = {
                    "accepted": payload.get("accepted", 0),
                    "skipped": payload.get("skipped", 0),
                    "epoch": payload.get("epoch", 0),
                }
            except ClusterError as error:
                self._note_failure(node)
                failed.append(node)
                results[node] = {"error": repr(error)}
        return {
            "documents": total,
            "unrouted": unrouted,
            "routed": results,
            "failed": failed,
        }

    # -- digest ------------------------------------------------------------

    def _resolve_labels(self, request: DigestRequest) -> Tuple[str, ...]:
        """The request's labels; raises for what no worker can answer.

        A foreign ``dimension`` stays the workers' decision: the router
        does not know their config."""
        request.check_lam()
        if request.algorithm is not None:
            # the registry the merge re-solves with
            lookup(request.algorithm)
        requested = request.labels
        if requested is None:
            return self.labels
        unknown = [
            label for label in requested if label not in self.labels
        ]
        if unknown:
            raise ClusterError(
                f"unknown labels {unknown}; this cluster answers over "
                f"{list(self.labels)}"
            )
        if not requested:
            raise ClusterError(
                "a digest request needs at least one label"
            )
        return requested

    def _live_owners(self, label: str) -> List[str]:
        """Replica-ordered live owners for ``label`` (primary first).

        A dead primary simply drops out — reads fail over to the next
        replica without any ownership change."""
        owners = self.ring.owners(label, self.config.replication)
        alive = [n for n in owners if self.membership.is_alive(n)]
        if len(alive) < len(owners):
            self.failovers += 1
            _obs.count("cluster.router.failovers")
        return alive

    async def digest(self, request: DigestRequest) -> ClusterResponse:
        """Serve one digest request across the cluster."""
        started = self._clock()
        ctx = TraceContext.mint(tenant=request.session)
        self.requests += 1
        _obs.count("cluster.router.requests")
        # router-level head sampling: with a trace pipeline attached,
        # the policy's deterministic coin flip decides *before* the
        # request runs whether this trace records spans anywhere
        traced = _obs.enabled() and (
            self._trace_pipeline is None
            or head_sample(
                ctx.trace_id, self._trace_pipeline.policy.rate
            )
        )
        if traced:
            with _obs.activate(ctx):
                with _obs.span(
                    "cluster.request", tenant=request.session,
                    lam=request.lam,
                ) as root:
                    response = await self._serve(
                        request,
                        ctx.at(getattr(root, "span_id", None)),
                        started,
                    )
        elif _obs.enabled():
            # unsampled: the request's context, marked so, stays active
            # through the merge, so not even a merge re-solve records a
            # span, and rides with every leg
            _obs.count("cluster.router.trace_unsampled")
            ctx = ctx.unsampled()
            with _obs.activate(ctx):
                response = await self._serve(request, ctx, started)
        else:
            response = await self._serve(request, ctx, started)
        if response.status == ERROR:
            self.errors += 1
            _obs.count("cluster.router.errors")
        elif response.status == DEGRADED:
            self.degraded_responses += 1
            _obs.count("cluster.router.degraded")
            structlog.emit(
                "cluster.degraded_response",
                level=logging.WARNING,
                trace_id=ctx.trace_id,
                tenant=request.session,
                missing_labels=list(response.missing_labels),
                dark_labels=self._dark_labels(),
            )
        if self._trace_pipeline is not None:
            bundle = _obs.active()
            self._trace_pipeline.offer(
                trace_id=ctx.trace_id,
                status=response.status,
                latency_s=response.latency_s,
                tracer=(
                    bundle.tracer
                    if traced and bundle is not None else None
                ),
                attributes={
                    "tenant": request.session,
                    "shards": list(response.shards),
                    "missing_labels": list(response.missing_labels),
                },
            )
        structlog.emit(
            f"cluster.{response.status}",
            level=logging.INFO if response.status == OK
            else logging.WARNING,
            trace_id=ctx.trace_id,
            tenant=request.session,
            shards=list(response.shards),
            missing=list(response.missing_labels),
            latency_s=response.latency_s,
        )
        return response

    def _error(
        self,
        ctx: TraceContext,
        started: float,
        reason: str,
        algorithm: str = "",
        **fields: Any,
    ) -> ClusterResponse:
        """An ``error`` response, stamped like every other exit."""
        return ClusterResponse(
            status=ERROR, result=None, algorithm=algorithm,
            latency_s=self._clock() - started,
            trace_id=ctx.trace_id or "", reason=reason, **fields,
        )

    async def _serve(
        self, request: DigestRequest, ctx: TraceContext, started: float
    ) -> ClusterResponse:
        try:
            labels = self._resolve_labels(request)
        except ReproError as error:
            return self._error(ctx, started, str(error))
        if len(self.ring) == 0:
            return self._error(ctx, started, "the cluster has no nodes")
        # the request's algorithm, else the service default: the router
        # solves a scatter with it, and a forward names it
        algorithm = request.algorithm or ServiceConfig.algorithm
        # group the requested labels by their live owner list: labels
        # sharing owners ride one scatter leg (and hedge together)
        groups: "OrderedDict[Tuple[str, ...], List[str]]" = OrderedDict()
        missing: List[str] = []
        for label in labels:
            owners = tuple(self._live_owners(label))
            if not owners:
                missing.append(label)
                continue
            groups.setdefault(owners, []).append(label)
        if not groups:
            return self._error(
                ctx, started, "no live shard owns any requested label",
                algorithm=algorithm, missing_labels=tuple(sorted(missing)),
            )
        self._inflight += 1
        if _obs.enabled():
            _obs.set_gauge("cluster.router.inflight", self._inflight)
        try:
            legs = await self._scatter(
                request, algorithm, labels, groups, ctx
            )
        finally:
            self._inflight -= 1
            if _obs.enabled():
                _obs.set_gauge(
                    "cluster.router.inflight", self._inflight
                )
        hedges = sum(leg["hedges"] for leg in legs)
        failed = [leg for leg in legs if leg["error"] is not None]
        served = [leg for leg in legs if leg["error"] is None]
        missing_labels = tuple(sorted(
            missing + [label for leg in failed for label in leg["labels"]]
        ))
        causes = "; ".join(
            f"{leg['node'] or '/'.join(leg['owners'])} "
            f"({', '.join(leg['labels'])}): {leg['error']}"
            for leg in failed
        )
        if not served:
            return self._error(
                ctx, started, "every scatter leg failed: " + causes,
                algorithm=algorithm, missing_labels=missing_labels,
                hedges=hedges,
            )
        reason = ""
        if missing_labels:
            reason = "partial cover: no live shard served " + \
                ", ".join(missing_labels) + (f" ({causes})" if causes else "")
        if len(groups) == 1:
            return self._forwarded(
                served[0], ctx, started,
                missing=missing_labels, hedges=hedges, reason=reason,
            )
        return self._merge(
            request, ctx, started, served, algorithm=algorithm,
            missing=missing_labels, hedges=hedges, reason=reason,
        )

    async def _scatter(
        self, request: DigestRequest, algorithm: str,
        labels: Tuple[str, ...],
        groups: "OrderedDict[Tuple[str, ...], List[str]]", ctx: TraceContext,
    ) -> List[Dict[str, Any]]:
        """Fan the label groups out: one group is forwarded whole as a
        digest; each of two or more reads its rows.  Every leg resolves
        to a dict of its labels, owners, node and hedges, and its
        ``response`` (a forward), ``columns`` (rows) or ``error``."""
        forward = len(groups) == 1
        lam = float(request.lam)

        async def leg(
            owners: Tuple[str, ...], leg_labels: List[str]
        ) -> Dict[str, Any]:
            self.scatter_legs += 1
            _obs.count("cluster.router.scatter_legs")
            if forward:
                op, payload = OP_DIGEST, {"request": DigestRequest(
                    lam=request.lam, labels=tuple(leg_labels),
                    algorithm=algorithm, dimension=request.dimension,
                    session=request.session,
                ).to_dict()}
            else:
                op, payload = OP_ROWS, {
                    "labels": leg_labels, "lam": lam,
                    "dimension": request.dimension,
                    "window_labels": list(labels), "newest": self._newest,
                }
            out: Dict[str, Any] = {
                "labels": leg_labels, "owners": owners, "node": None,
                "hedges": 0, "error": None,
            }
            try:
                out["node"], frame, out["hedges"] = \
                    await self._call_with_failover(owners, op, payload, ctx)
                spans = frame.get("spans")
                if spans:
                    bundle = _obs.active()
                    if bundle is not None:
                        # graft the worker's spans into this request's
                        # trace — the existing Tracer.adopt path.  No
                        # trace_id override: the worker span already
                        # carries this trace, and the service-side
                        # spans riding along keep their own trace so
                        # the link_trace_id hop stays resolvable
                        bundle.tracer.adopt(spans, parent_id=ctx.span_id)
                answer = frame["payload"]
                if forward:
                    response = ServiceResponse.from_dict(answer["response"])
                    if response.result is None:
                        # the worker refused the leg, in its own words
                        out["error"] = response.reason or response.status
                    else:
                        _check_leg(response.result.source, leg_labels,
                                   lam, out["node"])
                        out["response"] = response
                elif "reason" in answer:
                    out["error"] = str(answer["reason"])
                else:
                    columns = InstanceColumns.decode(answer["instance"])
                    _check_leg(columns, leg_labels, lam, out["node"])
                    out["columns"] = columns
            except (ReproError, KeyError, TypeError, ValueError) as error:
                # a leg that timed out and a leg whose payload does not
                # decode fail alike: their labels go missing
                out["error"] = repr(error)
            if out["error"] is not None:
                structlog.emit(
                    "cluster.leg_failed", level=logging.WARNING,
                    trace_id=ctx.trace_id, labels=leg_labels,
                    node=out["node"], reason=out["error"],
                )
            return out

        return list(await asyncio.gather(*(
            leg(owners, leg_labels)
            for owners, leg_labels in groups.items()
        )))

    async def _call_with_failover(
        self,
        owners: Sequence[str],
        op: str,
        payload: Dict[str, Any],
        ctx: TraceContext,
    ) -> Tuple[str, Dict[str, Any], int]:
        """Hedged replica fan-out: start the primary, start the next
        replica after ``hedge_delay`` (or on failure), first success
        wins.  The per-shard ``request_timeout`` bounds the whole leg.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.request_timeout
        want_spans = _obs.enabled() and ctx.sampled
        # the sampling verdict rides with every leg: a sampled request's
        # context for the worker's spans to join, an unsampled one's
        # marked so, for the worker to record none
        trace = ctx.to_dict() if _obs.enabled() else None
        pending: Dict["asyncio.Future", str] = {}
        errors: List[str] = []
        hedges = 0
        index = 0
        try:
            while True:
                now = loop.time()
                if now >= deadline:
                    for task in pending:
                        task.cancel()
                    for node in pending.values():
                        self._note_failure(node)
                    tried = errors or list(owners)
                    raise ShardTimeoutError(
                        f"shard deadline exhausted after {tried}"
                    )
                if index < len(owners) and (
                    not pending or index > 0
                ):
                    # launch the next replica: immediately when nothing
                    # is in flight, as a hedge otherwise
                    node = owners[index]
                    index += 1
                    if pending:
                        hedges += 1
                        self.hedges += 1
                        _obs.count("cluster.router.hedges")
                        structlog.emit(
                            "cluster.hedged_retry",
                            trace_id=ctx.trace_id,
                            node=node,
                            attempt=index,
                            op=op,
                            hedge_delay_s=self.config.hedge_delay,
                        )
                    task = asyncio.ensure_future(self._client(node).call(
                        op, payload, trace=trace,
                        want_spans=want_spans,
                    ))
                    pending[task] = node
                wait_for = deadline - now
                if index < len(owners):
                    wait_for = min(
                        wait_for, self.config.hedge_delay or 0.001
                    )
                done, _ = await asyncio.wait(
                    set(pending), timeout=wait_for,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in done:
                    node = pending.pop(task)
                    try:
                        frame = task.result()
                    except Exception as error:
                        errors.append(f"{node}: {error!r}")
                        self._note_failure(node)
                        structlog.emit(
                            "cluster.inline_failover",
                            level=logging.WARNING,
                            trace_id=ctx.trace_id,
                            node=node,
                            op=op,
                            reason=repr(error),
                            remaining=len(pending)
                            + max(0, len(owners) - index),
                        )
                        continue
                    self._note_success(node)
                    return node, frame, hedges
                if not pending and index >= len(owners):
                    raise NodeUnavailableError(
                        "every replica failed: " + "; ".join(errors)
                    )
        finally:
            for task in pending:
                task.cancel()

    # -- merge -------------------------------------------------------------

    def _forwarded(
        self, leg: Dict[str, Any], ctx: TraceContext, started: float, *,
        missing: Tuple[str, ...], hedges: int, reason: str,
    ) -> ClusterResponse:
        """The one owner group's digest as its worker served it, a
        worker's own degrade and its reason included; only the
        cluster-wide counters are rewritten."""
        response: ServiceResponse = leg["response"]
        result = _dc_replace(
            response.result,
            duplicates_dropped=0,
            unmatched_dropped=max(
                0, self.documents_ingested - response.result.matched
            ),
            trace_id=ctx.trace_id,
        )
        degraded = missing or response.status == DEGRADED \
            or result.downgrades
        return ClusterResponse(
            status=DEGRADED if degraded else OK,
            result=result, algorithm=response.algorithm,
            latency_s=self._clock() - started,
            trace_id=ctx.trace_id or "",
            shards=(leg["node"],), missing_labels=missing, hedges=hedges,
            reason="; ".join(filter(None, (reason, response.reason))),
        )

    def _merge(
        self, request: DigestRequest, ctx: TraceContext, started: float,
        legs: List[Dict[str, Any]], *, algorithm: str,
        missing: Tuple[str, ...], hedges: int, reason: str,
    ) -> ClusterResponse:
        """Merge the served legs' rows, one or more, and solve them: one
        process's answer over the served labels."""
        served_labels = tuple(sorted(
            label for leg in legs for label in leg["labels"]
        ))
        shards = tuple(sorted({leg["node"] for leg in legs}))
        with _obs.span(
            "cluster.merge", legs=len(legs), labels=len(served_labels),
        ) as span:
            # merge the legs on their decoded columns, building no post
            try:
                merged, seams = _merge_legs(
                    [leg["columns"] for leg in legs],
                    float(request.lam), served_labels,
                )
            except ClusterError as error:
                return self._error(
                    ctx, started, str(error), algorithm=algorithm,
                    shards=shards, missing_labels=missing, hedges=hedges,
                )
            if seams:
                self.seam_requests += 1
                _obs.count("cluster.router.seam_requests")
            solution = solve(algorithm, merged)
            self.resolves += 1
            _obs.count("cluster.router.resolves")
            span.set_attribute("seams", seams)
            result = DigestResult(
                solution=solution,
                source=merged,
                matched=len(merged.uids),
                duplicates_dropped=0,
                unmatched_dropped=max(
                    0, self.documents_ingested - len(merged.uids)
                ),
                trace_id=ctx.trace_id,
            )
        return ClusterResponse(
            status=DEGRADED if missing else OK,
            result=result, algorithm=algorithm,
            latency_s=self._clock() - started,
            trace_id=ctx.trace_id or "",
            shards=shards, missing_labels=missing,
            seam_posts=seams, resolves=1, hedges=hedges, reason=reason,
        )

    # -- per-view windows across the cluster --------------------------------

    async def set_view_window(
        self,
        labels: Iterable[str],
        window: Optional[float],
    ) -> Dict[str, Any]:
        """Pin a view horizon for one label set on every owning shard
        (the per-tenant-partition window override), and on every node
        taking one of its labels over.  The router keeps the pin before
        it sends it (``None`` drops it) and sends it to each node that
        later comes to hold one of its labels (a join, a leave's
        gainers, a revived node).  Every holder is tried; when one did
        not take the pin, the call then raises
        :class:`NodeUnavailableError` naming it, and the pin stays kept
        for its resync.  A worker that refuses the window (a config
        without views) raises :class:`WorkerFaultError`, and the
        router's pin goes back to what it was."""
        labels = tuple(sorted(set(labels)))
        unknown = [l for l in labels if l not in self.labels]
        if unknown:
            raise ClusterError(f"unknown labels {unknown}")
        # `not >` refuses NaN too, as the service does
        if window is not None and not window > 0:
            raise ClusterError(f"view_window must be positive, got {window}")
        previous = self._pins.get(labels)
        self._set_pin(labels, window)
        acks: Dict[str, Any] = {}
        failed: Dict[str, str] = {}

        async def send(nodes: Iterable[str]) -> None:
            for node in sorted(nodes):
                try:
                    acks[node] = await self._send_window(
                        node, labels, window
                    )
                except WorkerFaultError:
                    self._set_pin(labels, previous)
                    raise
                except ClusterError as error:
                    failed[node] = str(error)

        targets = self._window_holders(labels)
        await send(targets)
        # a node that joined while the sends awaited took the pin from
        # its join's replay; send it here too, so the ack names it
        await send(self._window_holders(labels) - targets)
        if failed:
            raise NodeUnavailableError(
                f"window {window} on {list(labels)} not taken by "
                f"{sorted(failed)} ({'; '.join(failed.values())}); the "
                f"router keeps it for their resync"
            )
        return {"labels": list(labels), "window": window,
                "nodes": acks}

    def _set_pin(
        self, labels: Tuple[str, ...], window: Optional[float]
    ) -> None:
        if window is None:
            self._pins.pop(labels, None)
        else:
            self._pins[labels] = window

    # -- remote health -----------------------------------------------------

    async def node_health(self, name: str) -> Dict[str, Any]:
        response = await self._client(name).call(
            OP_HEALTH, {}, timeout=self.config.request_timeout
        )
        return response["payload"]

    async def node_introspect(self, name: str) -> Dict[str, Any]:
        response = await self._client(name).call(
            OP_INTROSPECT, {}, timeout=self.config.request_timeout
        )
        return response["payload"]

    # -- local health ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The router's vitals: role, ring, liveness, scatter state."""
        return {
            "cluster": {
                "role": "router",
                "nodes": list(self.ring.nodes),
                "alive": self.membership.alive(),
                "replication": self.config.replication,
                "ring": {
                    node: len(labels)
                    for node, labels in self.ring.ownership(
                        self.labels, self.config.replication
                    ).items()
                } if len(self.ring) else {},
                "inflight_scatters": self._inflight,
                "node_epochs": dict(self._node_epochs),
            },
            "requests": self.requests,
            "errors": self.errors,
            "degraded": self.degraded_responses,
            "documents": self.documents_ingested,
            "unrouted": self.documents_unrouted,
            "fleet": (
                self._collector.fleet()
                if self._collector is not None else None
            ),
        }

    def introspect(self) -> Dict[str, Any]:
        """Everything an operator asks a router first."""
        return {
            "role": "router",
            "labels": list(self.labels),
            "ring": {
                "virtual_nodes": self.ring.virtual_nodes,
                "replication": self.config.replication,
                "ownership": self.ring.ownership(
                    self.labels, self.config.replication
                ) if len(self.ring) else {},
            },
            "membership": self.membership.snapshot(),
            "queues": {
                "inflight_scatters": self._inflight,
            },
            "counters": {
                "requests": self.requests,
                "errors": self.errors,
                "degraded_responses": self.degraded_responses,
                "scatter_legs": self.scatter_legs,
                "hedges": self.hedges,
                "resolves": self.resolves,
                "seam_requests": self.seam_requests,
                "failovers": self.failovers,
                "rebalances": self.rebalances,
                "documents_ingested": self.documents_ingested,
                "documents_unrouted": self.documents_unrouted,
            },
            "clients": {
                name: {"calls": client.calls,
                       "failures": client.failures}
                for name, client in sorted(self._clients.items())
            },
            "node_epochs": dict(self._node_epochs),
            "joining": {
                node: sorted(labels)
                for node, labels in self._joining.items()
            },
            "fleet": (
                self._collector.fleet()
                if self._collector is not None else None
            ),
            "alerts": (
                self._collector.engine.snapshot()
                if self._collector is not None
                and self._collector.engine is not None else None
            ),
            "traces": (
                self._trace_pipeline.snapshot()
                if self._trace_pipeline is not None else None
            ),
        }
