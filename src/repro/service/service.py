"""The asyncio multi-tenant serving front end.

:class:`DiversificationService` is the tier the paper's motivating
scenario calls for — an online digest service where many sessions
subscribe to label sets and continuously receive lambda-covered
summaries — implemented over the existing stack end to end:

* **digest requests** flow through admission control
  (:mod:`~repro.service.admission`), the epoch-keyed result cache
  (:mod:`~repro.service.cache`) and single-flight coalescing
  (:mod:`~repro.service.coalescer`); a cold solve takes one hop to the
  event loop's default executor and runs the :mod:`repro.core` solver
  over an instance materialized from the post store
  (:class:`~repro.incremental.PostStore`) ingest maintains, and a
  maintained view answers with its cover and a store snapshot whose
  instance is built only if something reads it;
* **stream traffic** feeds one supervised pipeline
  (:class:`~repro.resilience.supervisor.StreamSupervisor` underneath),
  so hostile arrivals are quarantined or repaired rather than crashing
  the tier, and emissions fan out to per-session label-filtered
  :class:`Subscription` queues;
* **pressure degrades before it fails**: the soft watermark steps
  requests down the batch ladder (GreedySC -> Scan+ -> Scan), the hard
  watermark and token bucket shed, and supervisor faults surface as
  quarantine counts and degraded responses — never unhandled exceptions;
* **one record per request**: the :class:`ServiceResponse` a digest
  returns names the path that served it, and every per-request signal
  is derived from it once — the tenant's SLO sample, the always-on
  per-service ``telemetry`` (request and status counters,
  ``service.latency_s`` and its per-path split, federated by
  :meth:`DiversificationService.scrape`), the auditor's offer and one
  ``service.{status}`` event.  With the :mod:`repro.observability`
  facade on, per-stage spans and the components' own counters (cache,
  views, admission, coalescing) join them.

Corpus versioning is the invariant the cache hangs off: any mutation of
what a digest could see — batch ingest, an admitted stream arrival, a
checkpoint restore — bumps the corpus epoch, which atomically unreaches
every cached digest computed against the old corpus.
"""

from __future__ import annotations

import asyncio
import logging
import time as _time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    Optional, Sequence, Tuple

from ..core.instance import Instance
from ..core.registry import lookup
from ..core.streaming import _STREAM_FACTORIES
from ..errors import ReproError
from ..incremental import MAX_VIEWS, DocumentProjector, PostStore, \
    ViewRegistry
from ..index.inverted_index import Document
from ..index.query import TopicQuery
from ..observability import facade as _obs
from ..observability import structlog
from ..observability.collector import ScrapeLedger
from ..observability.metrics import MetricsRegistry
from ..observability.slo import SLOMonitor
from ..observability.traces import head_sample
from ..observability.tracing import TraceContext
from ..pipeline import DigestResult, DiversificationPipeline, \
    _resolve_dimension, solve_instance
from ..resilience.checkpoint import Checkpoint
from ..resilience.policies import SanitizationPolicy
from ..resilience.supervisor import ResilienceConfig, StreamSupervisor
from ..stream.events import Emission
from .admission import ADMIT, DEGRADE, SHED, AdmissionController, \
    TokenBucket
from .auditor import DigestAuditor
from .cache import CacheKey, ResultCache
from .coalescer import MicroBatcher, RequestCoalescer

__all__ = [
    "DigestRequest",
    "DiversificationService",
    "ServiceConfig",
    "ServiceResponse",
    "Subscription",
]

# the batch rungs pressure steps a request down, one per soft watermark
DEFAULT_DEGRADE_LADDER: Tuple[str, ...] = ("greedy_sc", "scan+", "scan")
# pending emissions a subscription holds before it drops the oldest
SUBSCRIPTION_DEPTH = 256

OK = "ok"
DEGRADED = "degraded"
ERROR = "error"
# SHED is reused from .admission as a response status

# each path that serves a digest, with the auditor's name for it
_SERVED_PATHS = {"cache_hit": "cache", "view_hit": "view", "solve": "batch"}


def _caller_sampled() -> bool:
    """False when the caller's active trace context is marked unsampled
    (read only with observability on)."""
    caller = _obs.current_context()
    return caller is None or caller.sampled


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`DiversificationService`.

    See ``docs/serving.md`` for the tuning guide.  The defaults are
    conservative: cache on, rate limiting off, watermarks sized for a
    single-process deployment.  What no deployment tunes is a constant
    (the guide lists them), and coalescing has no knob: identical
    requests always share an in-flight solve.
    """

    # solving
    algorithm: str = "greedy_sc"
    dimension: str = "time"
    dedup_distance: Optional[int] = 3
    # cache
    cache_capacity: int = 256
    # admission
    rate: Optional[float] = None
    burst: Optional[float] = None
    soft_watermark: int = 32
    hard_watermark: int = 128
    # streaming
    stream_lam: float = 60.0
    stream_algorithm: str = "stream_scan+"
    tau: float = 0.0
    resilience: Optional[ResilienceConfig] = None
    # quality auditing (0.0 = off; 1.0 = audit every served digest)
    audit_sample: float = 0.0
    audit_seed: int = 0
    # incremental materialized cover views (the CQRS read path):
    # ingest applies deltas, digest() reads a maintained cover.  A view
    # past its drift bound is routed back through the batch engine and
    # re-seeded.  views=False drops only the views, not the post store
    # cold solves read.
    # view_window slides the corpus: posts older than (newest -
    # view_window) expire from views AND from batch solves, keeping both
    # paths on one window; it requires dedup off (SimHash kept-sets
    # cannot be unwound when their anchor documents expire) and the
    # time dimension (the window is an age).
    views: bool = True
    view_window: Optional[float] = None
    # head-based trace sampling: None = trace every request when the
    # facade is on; 0.1 = spans for ~10 % of requests, chosen
    # deterministically from the trace id so every tier agrees
    trace_sample: Optional[float] = None
    # time
    clock: Callable[[], float] = _time.perf_counter

    def __post_init__(self) -> None:
        lookup(self.algorithm)
        if self.stream_algorithm not in _STREAM_FACTORIES:
            raise ReproError(
                f"unknown streaming algorithm {self.stream_algorithm!r}"
            )
        # `not >=` refuses NaN too, on which a stream never drains
        if not self.stream_lam >= 0:
            raise ReproError(
                f"stream_lam must be >= 0, got {self.stream_lam}"
            )
        if not self.tau >= 0:
            raise ReproError(f"tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.audit_sample <= 1.0:
            raise ReproError(
                f"audit_sample must be in [0, 1], got {self.audit_sample}"
            )
        if self.trace_sample is not None \
                and not 0.0 <= self.trace_sample <= 1.0:
            raise ReproError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.view_window is not None:
            # `not >` refuses NaN too, which would serve with no window
            if not self.view_window > 0:
                raise ReproError(
                    f"view_window must be positive, got {self.view_window}"
                )
            if not self.views:
                raise ReproError("view_window requires views=True")
            if self.dimension != "time":
                raise ReproError(
                    "view_window is an age bound; it requires the "
                    f"'time' dimension, got {self.dimension!r}"
                )
            if self.dedup_distance is not None:
                raise ReproError(
                    "view_window requires dedup_distance=None: SimHash "
                    "kept-sets are order-sensitive and cannot be "
                    "unwound when anchor documents expire"
                )


@dataclass(frozen=True)
class DigestRequest:
    """One tenant's digest query.

    ``labels=None`` requests the full topic universe; otherwise a subset
    of the service's labels.  ``algorithm=None`` uses the service
    default.  ``session`` is an opaque tenant tag for per-session
    accounting only — it deliberately does NOT enter the cache/coalesce
    key, which is what lets different tenants share one solver run.
    """

    lam: float
    labels: Optional[Tuple[str, ...]] = None
    algorithm: Optional[str] = None
    dimension: Optional[str] = None
    session: str = "anonymous"

    def __post_init__(self) -> None:
        if self.labels is not None:
            object.__setattr__(
                self, "labels", tuple(sorted(set(self.labels)))
            )

    def check_lam(self) -> None:
        """Raise :class:`ReproError` unless ``lam`` is a non-negative
        number: the refusal the service and the cluster router share."""
        # `not >=` refuses NaN too, whose cache key nothing can hit
        if not self.lam >= 0:
            raise ReproError(
                f"lambda must be a non-negative number, got {self.lam}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation — what the cluster router puts on
        the wire when it forwards a request to a worker shard."""
        return {
            "lam": self.lam,
            "labels": None if self.labels is None
            else list(self.labels),
            "algorithm": self.algorithm,
            "dimension": self.dimension,
            "session": self.session,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DigestRequest":
        labels = payload.get("labels")
        return cls(
            lam=float(payload["lam"]),
            labels=None if labels is None else tuple(labels),
            algorithm=payload.get("algorithm"),
            dimension=payload.get("dimension"),
            session=str(payload.get("session", "anonymous")),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """Outcome of one digest request — the request's one record.

    ``status`` is ``"ok"``, ``"degraded"`` (served at a lower ladder
    rung), ``"shed"`` (refused; ``result`` is None) or ``"error"``
    (solver failure surfaced as data, not as an exception).  ``path``
    names what answered it.
    """

    status: str
    result: Optional[DigestResult]
    algorithm: str
    cached: bool = False
    coalesced: bool = False
    view: bool = False
    latency_s: float = 0.0
    epoch: int = 0
    reason: str = ""
    # The request's own trace (always minted, even with observability
    # off).  A coalesced/cached response's *result* additionally carries
    # the producing trace's id — the two differ exactly when this
    # request did not do the solving itself.
    trace_id: str = ""

    @property
    def path(self) -> str:
        """What answered the request: ``"shed"``, ``"error"``,
        ``"cache_hit"``, ``"view_hit"`` or ``"solve"`` (a coalesced
        follower shares its leader's solve).  Derived from the fields,
        so it is not on the wire."""
        if self.status in (SHED, ERROR):
            return self.status
        if self.cached:
            return "cache_hit"
        return "view_hit" if self.view else "solve"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation — the service's wire format."""
        return {
            "status": self.status,
            "result": None if self.result is None else
            self.result.to_dict(),
            "algorithm": self.algorithm,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "view": self.view,
            "latency_s": self.latency_s,
            "epoch": self.epoch,
            "reason": self.reason,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceResponse":
        """Inverse of :meth:`to_dict` — the router reconstructs a
        worker's response from its wire frame."""
        result = payload.get("result")
        return cls(
            status=str(payload["status"]),
            result=None if result is None
            else DigestResult.from_dict(result),
            algorithm=str(payload.get("algorithm", "")),
            cached=bool(payload.get("cached", False)),
            coalesced=bool(payload.get("coalesced", False)),
            view=bool(payload.get("view", False)),
            latency_s=float(payload.get("latency_s", 0.0)),
            epoch=int(payload.get("epoch", 0)),
            reason=str(payload.get("reason", "")),
            trace_id=str(payload.get("trace_id", "")),
        )


class Subscription:
    """A session-scoped, label-filtered stream of emissions.

    The service offers every stream emission to every subscription; the
    subscription keeps those intersecting its label filter (``None``
    keeps everything).  The queue is bounded: on overflow the *oldest*
    pending emission is dropped (freshness beats completeness in a live
    digest) and ``dropped`` is incremented.  The bound is
    :data:`SUBSCRIPTION_DEPTH`.

    Deliberately not an :class:`asyncio.Queue`: on Python 3.9 a Queue
    binds its event loop at construction, and subscriptions are created
    from synchronous code, possibly before (or between) loops.  A deque
    plus waiter futures created inside :meth:`next` is loop-agnostic.
    """

    def __init__(
        self,
        sid: int,
        session: str,
        labels: Optional[Iterable[str]] = None,
    ):
        self.sid = sid
        self.session = session
        self.labels = None if labels is None else frozenset(labels)
        self._items: "deque" = deque()
        self._waiters: "deque" = deque()
        self.delivered = 0
        self.dropped = 0
        self.filtered = 0

    def _offer(self, emission: Emission) -> bool:
        if self.labels is not None and not (
            emission.post.labels & self.labels
        ):
            self.filtered += 1
            return False
        self._items.append(emission)
        self.delivered += 1
        if len(self._items) > SUBSCRIPTION_DEPTH:
            self._items.popleft()
            self.dropped += 1
            _obs.count("service.subscription.dropped")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break
        return True

    async def next(self) -> Emission:
        """Wait for the next matching emission."""
        while not self._items:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            finally:
                if not waiter.done():
                    waiter.cancel()
        return self._items.popleft()

    def drain(self) -> List[Emission]:
        """Every emission currently queued, without waiting."""
        out = list(self._items)
        self._items.clear()
        return out

    def __len__(self) -> int:
        return len(self._items)


class DiversificationService:
    """Async multi-tenant serving layer over the diversification stack.

    Parameters
    ----------
    queries:
        The topic universe this service answers over.  Requests select
        label subsets of it.
    config:
        A :class:`ServiceConfig`; defaults are sensible for tests and
        small deployments.
    """

    def __init__(
        self,
        queries: Sequence[TopicQuery],
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.queries: Tuple[TopicQuery, ...] = tuple(queries)
        self._by_label: Dict[str, TopicQuery] = {
            q.label: q for q in self.queries
        }
        if len(self._by_label) != len(self.queries):
            raise ReproError("duplicate labels in service query set")
        self.labels: Tuple[str, ...] = tuple(sorted(self._by_label))
        self._clock = self.config.clock
        self.cache = ResultCache(capacity=self.config.cache_capacity)
        bucket = None
        if self.config.rate is not None:
            bucket = TokenBucket(
                self.config.rate, self.config.burst, clock=self._clock
            )
        self.admission = AdmissionController(
            bucket=bucket,
            soft_watermark=self.config.soft_watermark,
            hard_watermark=self.config.hard_watermark,
        )
        self.coalescer = RequestCoalescer()
        self.batcher = MicroBatcher()
        self._resilience = (
            self.config.resilience
            if self.config.resilience is not None
            else ResilienceConfig(policy=SanitizationPolicy())
        )
        # The projected-post store every cold solve materializes its
        # instance from, plus (with views on) the registry of maintained
        # cover views over the same store.
        self._store = self._build_store()
        self._views: Optional[ViewRegistry] = None
        if self.config.views:
            self._views = ViewRegistry(
                self._store, default_window=self.config.view_window
            )
        # The reason, once the corpus reached a state the store cannot
        # represent (e.g. duplicate uids across ingest and stream — batch
        # solves fail on it too): views stay dark and cold digests answer
        # errors until a rebuild (restore) reprojects a clean corpus.
        self._views_poisoned: Optional[str] = None
        # rows reads (:meth:`rows`) of the store and version in _rows_at
        self._rows: Dict[Tuple, Instance] = {}
        self._rows_at: Tuple[Optional[PostStore], int] = (None, -1)
        self._stream_pipeline = self._build_stream_pipeline()
        # Corpus: batch-ingested and stream-admitted documents, separate
        # so checkpoint restore can roll back exactly the streamed part.
        self._ingested: List[Document] = []
        self._streamed: List[Document] = []
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_sid = 1
        self._pending = 0
        self.solves = 0
        # Always-on service state: per-tenant SLO accounting and the
        # quality auditor.  Neither is behind the observability facade
        # — SLOs are a service feature.
        self.slo = SLOMonitor(clock=self._clock)
        self.auditor = DigestAuditor(
            sample_rate=self.config.audit_sample,
            seed=self.config.audit_seed,
        )
        # Per-service telemetry: the always-on registry the cluster
        # `scrape` op federates.  Deliberately NOT the process-global
        # facade registry — in-process cluster harnesses share that one
        # across every worker, which would defeat per-node federation.
        self.telemetry = telemetry = MetricsRegistry(clock=self._clock)
        self._telemetry_ledger = ScrapeLedger(telemetry)
        # the instruments every request writes, bound once so that
        # accounting a request looks nothing up
        self._requests = telemetry.counter("service.requests")
        self._by_status = {
            status: telemetry.counter(f"service.status.{status}")
            for status in (OK, DEGRADED, SHED, ERROR)
        }
        self._cache_hits = telemetry.counter("service.cache_hits")
        self._view_hits = telemetry.counter("service.view_hits")
        self._latency = telemetry.histogram("service.latency_s")
        self._latency_by_path = {
            path: telemetry.histogram(f"service.latency_s.{path}")
            for path in _SERVED_PATHS
        }
        # When this service runs as a cluster worker, the node sets
        # this to a callable returning its role/ring/peer summary —
        # health() and introspect() surface it as a "cluster" section.
        self.cluster_info: Optional[Callable[[], Dict[str, Any]]] = None

    # -- construction ------------------------------------------------------

    def _build_store(self) -> PostStore:
        return PostStore(DocumentProjector(
            self.queries,
            dedup_distance=self.config.dedup_distance,
            value_of=_resolve_dimension(self.config.dimension),
        ))

    def _build_stream_pipeline(self) -> DiversificationPipeline:
        return DiversificationPipeline(
            self.queries,
            lam=self.config.stream_lam,
            stream_algorithm=self.config.stream_algorithm,
            tau=self.config.tau,
            dimension=self.config.dimension,
            dedup_distance=self.config.dedup_distance,
            resilience=self._resilience,
        )

    # -- corpus ------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The corpus version all cache keys embed."""
        return self.cache.epoch

    def corpus(self) -> Tuple[Document, ...]:
        """Every document a digest may currently see."""
        return tuple(self._ingested) + tuple(self._streamed)

    def corpus_size(self) -> int:
        return len(self._ingested) + len(self._streamed)

    def ingest(self, documents: Iterable[Document]) -> int:
        """Add a document batch to the corpus; invalidates the cache.

        View deltas are applied before the epoch bump, and the bump is
        label-targeted: cached digests whose labels the batch did not
        touch survive into the new epoch.  Returns the new corpus epoch.
        """
        documents = list(documents)
        self._ingested.extend(documents)
        _obs.count("service.ingested", len(documents))
        affected = self._apply_view_deltas(documents, source="ingest")
        epoch = self.cache.bump_epoch("ingest", labels=affected)
        if self._views is not None:
            self._views.commit(epoch)
        return epoch

    def _apply_view_deltas(
        self,
        documents: Sequence[Document],
        source: str,
    ) -> Optional[Iterable[str]]:
        """Project new documents into the post store and fan deltas out
        to the views.

        Returns the labels of the projected posts (plus those of views
        whose window moved) for fine-grained cache invalidation, or
        ``None`` when everything must be purged (the projection had to
        be rebuilt wholesale, or is poisoned).
        """
        if self._views_poisoned:
            return None
        if (
            self.config.dedup_distance is not None
            and source == "ingest"
            and self._streamed
        ):
            # SimHash kept-sets are order-sensitive: the batch corpus
            # is ingested-then-streamed, but these documents arrived
            # *after* streamed ones — the incremental projection would
            # diverge from what a batch solve sees.  Reproject the whole
            # corpus in batch order and purge conservatively.
            self._rebuild_views("ingest-after-stream")
            return None
        store, views = self._store, self._views
        affected: set = set()
        try:
            for document in documents:
                post = store.ingest_document(document)
                if post is None:
                    continue
                affected |= post.labels
                if views is not None:
                    views.apply_insert(post)
            if views is None:
                return affected
            retention = views.retention()
            if retention is not None and store.max_value is not None:
                # physical expiry at the *widest* window any view needs
                removed = store.expire(store.max_value - retention)
                for post in removed:
                    affected |= post.labels
                views.apply_expire(removed)
            # narrower per-view windows slide their own horizons; a
            # moved horizon changes that view's answer even when the
            # batch touched none of its labels, so those labels join
            # the invalidation set
            affected |= views.advance(store.max_value)
        except ReproError as error:
            # e.g. duplicate uids across ingest and stream — a corpus
            # state batch solves fail on too.  Views go dark rather
            # than taking the write path down.
            self._poison_views(repr(error))
            return None
        return affected

    def set_view_window(
        self,
        labels: Iterable[str],
        window: Optional[float],
    ) -> int:
        """Override the sliding window for one label set.

        Same preconditions as ``ServiceConfig.view_window`` (views on,
        time dimension, dedup off); ``None`` clears the override.  The
        store keeps retaining at the widest window of any view; a
        narrower override clips that label set's reads at its own
        horizon.  Invalidate-then-commit: affected cached digests are
        dropped and the label set's views re-seed from the next batch
        solve.  Returns the new corpus epoch.
        """
        if self._views is None:
            raise ReproError("view windows require views=True")
        if self.config.dimension != "time":
            raise ReproError(
                "view windows are age bounds; they require the 'time' "
                f"dimension, got {self.config.dimension!r}"
            )
        if self.config.dedup_distance is not None:
            raise ReproError(
                "view windows require dedup_distance=None: SimHash "
                "kept-sets are order-sensitive and cannot be unwound "
                "when anchor documents expire"
            )
        labels = tuple(sorted(set(labels)))
        unknown = [lbl for lbl in labels if lbl not in self._by_label]
        if unknown:
            raise ReproError(
                f"unknown labels {unknown}; this service answers over "
                f"{list(self.labels)}"
            )
        if not labels:
            raise ReproError("a view window needs at least one label")
        # `not >` refuses NaN too, which would serve with no window
        if window is not None and not window > 0:
            raise ReproError(
                f"view_window must be positive, got {window}"
            )
        self._views.set_window(labels, window)
        store = self._store
        if store.max_value is not None:
            # apply the new horizon right away: physical expiry at the
            # (possibly changed) widest window, then per-view horizons
            retention = self._views.retention()
            if retention is not None:
                removed = store.expire(store.max_value - retention)
                self._views.apply_expire(removed)
            self._views.advance(store.max_value)
        epoch = self.cache.bump_epoch("view-window", labels=labels)
        self._views.commit(epoch)
        structlog.emit(
            "service.view_window_set",
            labels=list(labels),
            window=window,
            epoch=epoch,
        )
        return epoch

    def _poison_views(self, reason: str) -> None:
        self._views_poisoned = reason
        if self._views is not None:
            self._views.invalidate_all("poisoned")
        _obs.count("service.views.poisoned")
        structlog.emit(
            "service.views_poisoned",
            level=logging.WARNING,
            reason=reason,
        )

    def _rebuild_views(self, reason: str) -> None:
        """Reproject the whole corpus into a fresh store and invalidate
        every view (they re-seed from the next batch solve)."""
        store = self._build_store()
        try:
            for document in self.corpus():
                store.ingest_document(document)
            retention = None if self._views is None \
                else self._views.retention()
            if retention is not None and store.max_value is not None:
                store.expire(store.max_value - retention)
        except ReproError as error:
            self._poison_views(repr(error))
            return
        self._store = store
        self._views_poisoned = None
        if self._views is not None:
            self._views.rebind(store)
        _obs.count("service.views.rebuilds")
        structlog.emit(
            "service.views_rebuilt",
            reason=reason,
            posts=len(store),
        )

    # -- digest path -------------------------------------------------------

    def _resolve_labels(self, request: DigestRequest) -> Tuple[str, ...]:
        """The request's labels; raises for what no solve can answer."""
        request.check_lam()
        if request.dimension not in (None, self.config.dimension):
            raise ReproError(
                f"dimension {request.dimension!r}: this service projects "
                f"values on the {self.config.dimension!r} dimension only"
            )
        requested = request.labels
        if requested is None:
            return self.labels
        unknown = [lbl for lbl in requested if lbl not in self._by_label]
        if unknown:
            raise ReproError(
                f"unknown labels {unknown}; this service answers over "
                f"{list(self.labels)}"
            )
        if not requested:
            raise ReproError("a digest request needs at least one label")
        return requested

    def _degraded_algorithm(self, algorithm: str, steps: int) -> str:
        ladder = DEFAULT_DEGRADE_LADDER
        try:
            start = ladder.index(algorithm)
        except ValueError:
            # requested algorithm is off-ladder: pressure maps straight
            # onto the ladder from the top
            start = -1
        return ladder[min(start + steps, len(ladder) - 1)]

    def _horizon(
        self, store: PostStore, labels: Sequence[str],
        newest: Optional[float] = None,
    ) -> Optional[float]:
        """The oldest value a batch solve over ``labels`` reads: the store
        keeps posts for the *widest* view window, and a narrower
        per-label-set window clips further, back from the store's newest
        value or the later ``newest``.  Raises while the store is
        poisoned."""
        if self._views_poisoned:
            raise ReproError(f"post store poisoned: {self._views_poisoned}")
        horizon = store.horizon
        if self._views is not None:
            window = self._views.window_for(labels)
            anchor = store.max_value
            if newest is not None and (anchor is None or newest > anchor):
                anchor = newest
            if window is not None and anchor is not None:
                own = anchor - window
                horizon = own if horizon is None else max(horizon, own)
        return horizon

    def rows(
        self, request: DigestRequest, window_labels: Sequence[str],
        newest: Optional[float] = None,
    ) -> Instance:
        """The instance a batch solve over ``request``'s labels reads,
        clipped at the window of ``window_labels`` (a cluster digest's
        whole label set) back from ``newest``; no admission, cache, view
        or solve.  Memoized per labels, λ and horizon at one store
        object and version, :data:`MAX_VIEWS` at most.  Raises
        :class:`ReproError` for what a digest would refuse."""
        labels = self._resolve_labels(request)
        store = self._store
        horizon = self._horizon(store, window_labels, newest)
        # the version before the read: a write in between makes this
        # entry one no later read asks for
        at = (store, store.version)
        if self._rows_at != at or len(self._rows) >= MAX_VIEWS:
            self._rows, self._rows_at = {}, at
        key = (labels, float(request.lam), horizon)
        instance = self._rows.get(key)
        if instance is None:
            instance = self._rows[key] = store.snapshot(
                labels, request.lam, min_value=horizon
            ).instance
        return instance

    def _solve_job(
        self,
        algorithm: str,
        instance: Instance,
        counters: Dict[str, int],
        ctx: TraceContext,
    ) -> DigestResult:
        """The synchronous work unit a cold solve runs off the loop.

        Runs on an executor thread with no inherited trace state, so the
        leader's context is re-activated explicitly; the produced digest
        is stamped with the trace that computed it, which is what lets
        followers and cache hits link back to the actual solve.
        """
        with _obs.activate(ctx):
            with _obs.span(
                "service.solve", algorithm=algorithm,
                labels=len(instance.labels), posts=len(instance.posts),
            ) as span:
                solution, _, downgrades = solve_instance(
                    instance, algorithm, self.config.resilience
                )
        return DigestResult(
            solution=solution,
            instance=instance,
            downgrades=downgrades,
            trace_id=ctx.trace_id,
            solve_span_id=getattr(span, "span_id", None),
            **counters,
        )

    @staticmethod
    def _carried(
        result: DigestResult, store: PostStore, horizon: Optional[float]
    ) -> DigestResult:
        """A cache hit as the read at ``horizon`` sees it.  The entry's
        cover, instance and ``matched`` stand: no write since its solve
        touched its labels, and the cache served it at the horizon it
        was solved at.  Documents outside its labels may have come or
        gone, so the drop counters are the store's now."""
        counters = store.counters(result.matched, horizon)
        if counters["unmatched_dropped"] == result.unmatched_dropped \
                and counters["duplicates_dropped"] \
                == result.duplicates_dropped:
            return result
        return replace(result, **counters)

    def _read_view(self, key: CacheKey) -> Optional[DigestResult]:
        """The maintained-view digest for this cache key, or ``None``.

        The registry enforces the epoch discipline — a view is served
        only at the exact corpus version it was committed at."""
        if self._views is None or self._views_poisoned:
            return None
        view = self._views.read(
            ViewRegistry.key_for(
                key.labels, key.lam, key.algorithm, key.dimension
            ),
            key.epoch,
        )
        if view is None:
            return None
        snapshot, solution = view.materialize()
        return DigestResult(
            solution=solution, source=snapshot, **snapshot.counters
        )

    def _account(
        self, request: DigestRequest, response: ServiceResponse
    ) -> None:
        """Derive every per-request signal from the request's one
        record: the tenant's SLO sample, the per-node telemetry
        (the counters :meth:`scrape` federates, ``service.latency_s``
        and its per-path split), the auditor's offer and the one
        ``service.{status}`` event."""
        path, latency = response.path, response.latency_s
        self.slo.record(
            request.session, response.algorithm,
            latency_s=latency, status=response.status,
            cached=response.cached,
        )
        self._requests.inc()
        self._by_status[response.status].inc()
        if response.cached:
            self._cache_hits.inc()
        if response.view:
            self._view_hits.inc()
        self._latency.observe(latency)
        if response.result is not None:
            # a served digest, on its path; shed and error have none
            self._latency_by_path[path].observe(latency)
            self.auditor.observe(
                response.result,
                tenant=request.session,
                algorithm=response.algorithm,
                epoch=response.epoch,
                source=_SERVED_PATHS[path],
            )
        level = logging.INFO if response.status in (OK, DEGRADED) \
            else logging.WARNING
        structlog.emit(
            f"service.{response.status}",
            level=level,
            trace_id=response.trace_id,
            tenant=request.session,
            epoch=response.epoch,
            algorithm=response.algorithm,
            path=path,
            latency_s=latency,
            cached=response.cached,
            coalesced=response.coalesced,
            reason=response.reason,
        )

    async def digest(self, request: DigestRequest) -> ServiceResponse:
        """Serve one digest request end to end.

        Never raises for overload or solver failure: pressure and faults
        come back as ``shed`` / ``degraded`` / ``error`` responses.
        Every response carries a freshly minted trace_id; with
        observability enabled its assembled span tree explains the
        whole request.
        """
        started = self._clock()
        ctx = TraceContext.mint(tenant=request.session)
        # Head-based trace sampling: metrics stay exact for every
        # request; spans are only recorded for the sampled fraction.
        # The decision hashes the trace id.  A request served under a
        # caller's unsampled context (a cluster leg whose router left
        # the request out) follows that verdict instead.
        traced = _obs.enabled() and (
            self.config.trace_sample is None
            or head_sample(ctx.trace_id, self.config.trace_sample)
        ) and _caller_sampled()
        if traced:
            with _obs.activate(ctx):
                with _obs.span(
                    "service.request",
                    tenant=request.session,
                    lam=request.lam,
                ) as root:
                    outcome = await self._serve(
                        request, ctx.at(getattr(root, "span_id", None))
                    )
                    latency = self._clock() - started
        elif _obs.enabled():
            # unsampled: the request's context, marked so, stays active
            # down to the solve's executor thread, and no span opens
            # under it — the solver's own included
            _obs.count("service.trace_unsampled")
            ctx = ctx.unsampled()
            with _obs.activate(ctx):
                outcome = await self._serve(request, ctx, traced=False)
            latency = self._clock() - started
        else:
            outcome = await self._serve(request, ctx, traced=False)
            latency = self._clock() - started
        response = ServiceResponse(
            **outcome, latency_s=latency, trace_id=ctx.trace_id or ""
        )
        self._account(request, response)
        return response

    async def _serve(
        self,
        request: DigestRequest,
        ctx: TraceContext,
        *,
        traced: bool = True,
    ) -> Dict[str, Any]:
        """Decide one request: the :class:`ServiceResponse` fields
        other than the latency and trace id, which :meth:`digest`
        stamps."""
        decision = self.admission.admit(self._pending)
        algorithm = request.algorithm or self.config.algorithm
        if decision.action == SHED:
            return dict(
                status=SHED, result=None, algorithm=algorithm,
                epoch=self.epoch, reason=decision.reason,
            )
        try:
            labels = self._resolve_labels(request)
        except ReproError as error:
            return dict(
                status=ERROR, result=None, algorithm=algorithm,
                epoch=self.epoch, reason=str(error),
            )
        degraded = decision.action == DEGRADE
        if degraded:
            requested = algorithm
            algorithm = self._degraded_algorithm(
                algorithm, decision.degrade_steps
            )
            structlog.emit(
                "service.degrade",
                trace_id=ctx.trace_id,
                tenant=request.session,
                epoch=self.epoch,
                requested=requested,
                algorithm=algorithm,
                steps=decision.degrade_steps,
                reason=decision.reason,
            )
        status = DEGRADED if degraded else OK
        store = self._store
        key = self.cache.key_for(labels, request.lam, algorithm,
                                 self.config.dimension)
        # the horizon is read only when the query has an entry: the
        # cache holds none while the store is poisoned
        cached = self.cache.get(key, lambda: self._horizon(store, labels))
        if cached is not None:
            cached = self._carried(
                cached, store, self._horizon(store, labels)
            )
            if traced:
                # link-span: this request served the digest that trace
                # computed — the assembled tree can follow it
                with _obs.span(
                    "service.cache_hit",
                    link_trace_id=cached.trace_id,
                    link_span_id=cached.solve_span_id,
                ):
                    pass
            return dict(
                status=status, result=cached, algorithm=algorithm,
                cached=True, epoch=key.epoch, reason=decision.reason,
            )
        view_result = self._read_view(key)
        if view_result is not None:
            if traced:
                with _obs.span(
                    "service.view_hit",
                    view_size=len(view_result.solution.posts),
                ):
                    pass
            return dict(
                status=status, result=view_result, algorithm=algorithm,
                view=True, epoch=key.epoch, reason=decision.reason,
            )

        async def compute() -> Tuple[DigestResult, Optional[float]]:
            """The digest and the horizon its solve read from."""
            # before the first await, so at the corpus state key.epoch
            # names, and paid by the coalescing leader only
            horizon = self._horizon(store, labels)
            snapshot = store.snapshot(labels, request.lam, min_value=horizon)
            instance = snapshot.instance
            self.solves += 1
            _obs.count("service.solves")
            return await self.batcher.run(lambda: self._solve_job(
                algorithm, instance, snapshot.counters, ctx
            )), horizon

        self._pending += 1
        if _obs.enabled():
            _obs.set_gauge("service.pending", self._pending)
        try:
            (result, horizon), coalesced = await self.coalescer.submit(
                key, compute
            )
        except Exception as error:  # solver failure becomes data, not a crash
            return dict(
                status=ERROR, result=None, algorithm=algorithm,
                epoch=key.epoch, reason=repr(error),
            )
        finally:
            self._pending -= 1
            if _obs.enabled():
                _obs.set_gauge("service.pending", self._pending)
        if coalesced and traced and \
                result.trace_id != ctx.trace_id:
            # follower: the solve happened in the leader's trace
            with _obs.span(
                "service.coalesced_wait",
                link_trace_id=result.trace_id,
                link_span_id=result.solve_span_id,
            ):
                pass
        if not coalesced:
            stored = self.cache.put(key, result, horizon)
            if (
                self._views is not None
                and not self._views_poisoned
                and not result.downgrades
            ):
                # a clean solve at the current epoch doubles as a view
                # seed: the cover becomes the maintained baseline (the
                # registry refuses dead-epoch seeds, mirroring put())
                self._views.seed(
                    ViewRegistry.key_for(
                        key.labels, key.lam, key.algorithm,
                        key.dimension,
                    ),
                    result.solution.posts,
                    len(result.solution.posts),
                    epoch=key.epoch,
                )
            if not stored:
                # cache-invalidation race: the epoch moved while this
                # solve was in flight; the digest is served but must
                # not be published — record the drop, correlated
                structlog.emit(
                    "service.cache_stale_drop",
                    level=logging.WARNING,
                    trace_id=ctx.trace_id,
                    tenant=request.session,
                    epoch=self.epoch,
                    key_epoch=key.epoch,
                    algorithm=algorithm,
                )
        return dict(
            status=DEGRADED if result.downgrades else status,
            result=result, algorithm=algorithm, coalesced=coalesced,
            epoch=key.epoch, reason=decision.reason,
        )

    # -- streaming path ----------------------------------------------------

    def subscribe(
        self,
        labels: Optional[Iterable[str]] = None,
        session: str = "anonymous",
    ) -> Subscription:
        """Register a session-scoped, label-filtered emission stream."""
        if labels is not None:
            unknown = sorted(set(labels) - set(self.labels))
            if unknown:
                raise ReproError(
                    f"unknown labels {unknown}; this service answers "
                    f"over {list(self.labels)}"
                )
        subscription = Subscription(
            sid=self._next_sid, session=session, labels=labels,
        )
        self._next_sid += 1
        self._subscriptions[subscription.sid] = subscription
        _obs.count("service.subscriptions")
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        self._subscriptions.pop(subscription.sid, None)

    def _fan_out(self, emissions: List[Emission]) -> int:
        delivered = 0
        for emission in emissions:
            for subscription in self._subscriptions.values():
                if subscription._offer(emission):
                    delivered += 1
        if delivered and _obs.enabled():
            _obs.count("service.fanned_out", delivered)
        return delivered

    def _feed_document(self, document: Document) -> List[Emission]:
        """The synchronous feed path shared by :meth:`feed` and durable
        ingest replay: supervise, append admitted arrivals to the
        streamed corpus, bump the epoch, fan emissions out."""
        with _obs.span("service.feed"):
            supervisor_before = self._stream_pipeline.supervisor
            accepted_before = (
                supervisor_before is not None
                and supervisor_before.accepted(document.doc_id)
            )
            emissions = self._stream_pipeline.feed(document)
            supervisor = self._stream_pipeline.supervisor
            accepted = (
                supervisor is not None
                and supervisor.accepted(document.doc_id)
            )
            if accepted and not accepted_before:
                self._streamed.append(document)
                affected = self._apply_view_deltas(
                    [document], source="stream"
                )
                epoch = self.cache.bump_epoch(
                    "stream-advance", labels=affected
                )
                if self._views is not None:
                    self._views.commit(epoch)
            if emissions:
                self._fan_out(emissions)
        return emissions

    async def feed(self, document: Document) -> List[Emission]:
        """Push one stream arrival through the supervised pipeline.

        Sanitization faults (corrupt values, unknown labels, duplicates,
        disorder) are absorbed by the supervisor per its policy — this
        call does not raise for hostile input.  Admitted documents join
        the digest corpus and bump the epoch; emissions fan out to every
        matching subscription before being returned.
        """
        return self._feed_document(document)

    async def flush_stream(self) -> List[Emission]:
        """Drain pending stream state (reorder buffer, deadlines) and fan
        the tail emissions out.  The supervisor stays live."""
        supervisor = self._stream_pipeline.supervisor
        if supervisor is None:
            return []
        emissions = supervisor.flush()
        if emissions:
            self._fan_out(emissions)
        return emissions

    @property
    def supervisor(self) -> Optional[StreamSupervisor]:
        """The stream supervisor (None until the first feed)."""
        return self._stream_pipeline.supervisor

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the streaming state (see resilience.checkpoint)."""
        supervisor = self._stream_pipeline.supervisor
        if supervisor is None:
            raise ReproError(
                "nothing to checkpoint: the stream has not started"
            )
        return supervisor.checkpoint()

    def restore(self, checkpoint: Checkpoint) -> int:
        """Adopt a restored supervisor and roll the corpus back to it.

        The cache epoch is bumped **before** any request can observe the
        restored state: digests cached against the pre-restore corpus —
        including ones computed from stream state *newer* than the
        checkpoint — become unreachable, so a rolled-back service can
        never serve results from a future it no longer remembers.  A
        solve in flight across the restore finishes on its thread and is
        served at its key's epoch, but the cache and the view registry
        refuse to publish it, as they do for one in flight across an
        ingest.  Returns the new epoch.
        """
        supervisor = StreamSupervisor.restore(
            checkpoint,
            policy=self._resilience.policy,
            arrival_budget=self._resilience.arrival_budget,
            clock=self._resilience.clock,
        )
        self._stream_pipeline = self._build_stream_pipeline()
        self._stream_pipeline.adopt_supervisor(supervisor)
        self._streamed = [
            Document(post.uid, post.value, post.text)
            for post in checkpoint.journal
        ]
        # The store and views were maintained against the pre-restore
        # corpus; reproject the rolled-back corpus and invalidate the
        # views (they re-seed from the first post-restore batch solve).
        self._rebuild_views("checkpoint-restore")
        _obs.count("service.restores")
        epoch = self.cache.bump_epoch("checkpoint-restore")
        if self._views is not None:
            self._views.commit(epoch)
        return epoch

    def durable_ingest(
        self,
        directory: "Any",
        config: "Optional[Any]" = None,
    ) -> "Any":
        """Wire this service as the apply target of a durable
        :class:`~repro.ingest.pipeline.IngestPipeline` rooted at
        ``directory``.

        Stream arrivals applied through the returned pipeline go through
        the same supervised feed path as :meth:`feed` — admitted
        documents join the corpus and **bump the cache epoch**, so a
        digest computed before a crash can never be served after the
        replay that re-derived the corpus.  Recovery
        (:meth:`~repro.ingest.pipeline.IngestPipeline.recover`) restores
        the service through :meth:`restore`, which also bumps the epoch.
        """
        from ..ingest.pipeline import IngestPipeline, IngestTarget

        def _checkpoint() -> Optional[Checkpoint]:
            supervisor = self._stream_pipeline.supervisor
            return None if supervisor is None \
                else supervisor.checkpoint()

        target = IngestTarget(
            apply=self._feed_document,
            checkpoint=_checkpoint,
            restore=lambda checkpoint: self.restore(checkpoint),
            supervisor=lambda: self._stream_pipeline.supervisor,
        )
        return IngestPipeline(target, directory, config)

    # -- lifecycle / health ------------------------------------------------

    async def finish(self) -> List[Emission]:
        """End the stream: drain everything, fan out the tail."""
        emissions = self._stream_pipeline.finish()
        if emissions:
            self._fan_out(emissions)
        return emissions

    def close(self) -> None:
        """Retire the service.  A no-op: the service holds no pool (a
        cold solve runs on the event loop's default executor), so there
        is nothing to release.  Kept so callers that own a service can
        retire it without knowing that; idempotent, and not terminal.
        """

    # -- observability control plane ---------------------------------------

    def _slo_burn_summary(self) -> Dict[str, float]:
        """Worst-case burn rates across tenants — the SLO block a
        scrape ships, holding what the collector and its anomaly
        engine read and nothing more."""
        max_fast, max_slow = self.slo.max_burn_rates()
        return {"max_fast_burn": max_fast, "max_slow_burn": max_slow}

    def scrape(self, cursor: Optional[int] = None) -> Dict[str, Any]:
        """One federation scrape of this service's telemetry.

        Counters and histogram buckets come back as deltas against the
        presented ``cursor`` (or a full ``reset`` snapshot when the
        cursor is unknown — see
        :class:`~repro.observability.collector.ScrapeLedger`); gauges
        are refreshed point-in-time here, and the SLO burn summary plus
        a small ``service`` state block ride along for the anomaly
        rules.  The cluster ``scrape`` op is a thin wrapper over this.
        """
        telemetry = self.telemetry
        telemetry.gauge("service.corpus").set(self.corpus_size())
        telemetry.gauge("service.pending").set(self._pending)
        telemetry.gauge("service.cache_entries").set(len(self.cache))
        telemetry.gauge("service.epoch").set(self.epoch)
        if self._views is not None:
            telemetry.gauge("service.views").set(len(self._views))
        payload = self._telemetry_ledger.scrape(cursor)
        payload["slo"] = self._slo_burn_summary()
        payload["service"] = {
            "epoch": self.epoch,
            "corpus": self.corpus_size(),
            "pending": self._pending,
            "soft_watermark": self.admission.soft_watermark,
            "hard_watermark": self.admission.hard_watermark,
            "views_poisoned": 1 if self._views_poisoned else 0,
            "view_stale_reads": (
                None if self._views is None
                else self._views.stale_reads
            ),
        }
        return payload

    @property
    def requests(self) -> int:
        """Digest requests answered, whatever their status."""
        return self._requests.value

    @property
    def errors(self) -> int:
        """Digest requests answered with an ``error`` response."""
        return self._by_status[ERROR].value

    def health(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the tier's vitals."""
        supervisor = self._stream_pipeline.supervisor
        return {
            "epoch": self.epoch,
            "corpus": {
                "ingested": len(self._ingested),
                "streamed": len(self._streamed),
            },
            "requests": self.requests,
            "errors": self.errors,
            "solves": self.solves,
            "pending": self._pending,
            "cache": self.cache.stats.as_dict(),
            "cache_entries": len(self.cache),
            "views": None if self._views is None else {
                "poisoned": self._views_poisoned is not None,
                "count": len(self._views),
                "hits": self._views.hits,
                "misses": self._views.misses,
                "stale_reads": self._views.stale_reads,
                "rebuild_reads": self._views.rebuild_reads,
                "seeds": self._views.seeds,
                "hit_rate": self._views.hit_rate(),
            },
            "admission": dict(self.admission.decisions),
            "subscriptions": {
                sub.sid: {
                    "session": sub.session,
                    "delivered": sub.delivered,
                    "dropped": sub.dropped,
                    "filtered": sub.filtered,
                    "queued": len(sub),
                }
                for sub in self._subscriptions.values()
            },
            "supervisor": (
                None if supervisor is None
                else supervisor.health.as_dict()
            ),
            "cluster": (
                None if self.cluster_info is None
                else self.cluster_info()
            ),
        }

    def introspect(self) -> Dict[str, Any]:
        """The debug endpoint: everything an operator asks first.

        Extends :meth:`health` with the observability-era state — queue
        depths, cache occupancy and epoch, admission decisions and token
        balance, per-tenant SLO snapshots, auditor stats, and (when a
        tracer is active) the currently-open spans.  JSON-safe.
        """
        bundle = _obs.active()
        bucket = self.admission.bucket
        supervisor = self._stream_pipeline.supervisor
        return {
            "epoch": self.epoch,
            "corpus": {
                "ingested": len(self._ingested),
                "streamed": len(self._streamed),
            },
            "queues": {
                "pending": self._pending,
                "coalescer_inflight": self.coalescer.inflight(),
                "subscriptions": {
                    sub.sid: len(sub)
                    for sub in self._subscriptions.values()
                },
            },
            "cache": {
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "epoch": self.cache.epoch,
                "hit_rate": self.cache.hit_rate(),
                "stats": self.cache.stats.as_dict(),
            },
            "admission": {
                "decisions": dict(self.admission.decisions),
                "soft_watermark": self.admission.soft_watermark,
                "hard_watermark": self.admission.hard_watermark,
                "tokens": (
                    None if bucket is None else bucket.available()
                ),
            },
            "views": (
                None if self._views is None
                else self._views.snapshot()
            ),
            "slo": self.slo.snapshot(),
            "auditor": self.auditor.snapshot(),
            "supervisor": (
                None if supervisor is None
                else supervisor.health.as_dict()
            ),
            "observability_enabled": bundle is not None,
            "open_spans": (
                [] if bundle is None else bundle.tracer.open_spans()
            ),
            "telemetry": {
                "scrapes": self._telemetry_ledger.scrapes,
                "version": self._telemetry_ledger.version,
                "resets": self._telemetry_ledger.resets,
                "instruments": len(self.telemetry.names()),
            },
            "cluster": (
                None if self.cluster_info is None
                else self.cluster_info()
            ),
        }

    def slo_prometheus(self) -> str:
        """Per-tenant SLO series in Prometheus exposition format."""
        return self.slo.to_prometheus()
