"""The high-level facade: documents in, diversified digest out.

The examples wire tokenizer -> SimHash -> matcher -> instance -> solver by
hand to show the moving parts; applications should not have to.
:class:`DiversificationPipeline` packages the full Figure 1 flow behind
two calls:

* :meth:`~DiversificationPipeline.digest` — the batch path: a document
  collection becomes a :class:`DigestResult` (the selected posts, the
  instance they cover, and what the dedup stage dropped);
* :meth:`~DiversificationPipeline.feed` — the streaming path: push
  documents one at a time (timestamp-ordered) and receive emissions as
  the underlying streaming algorithm decides, with
  :meth:`~DiversificationPipeline.finish` draining the tail.

The diversity dimension is pluggable: ``dimension="time"`` (default),
``"sentiment"`` (lexicon polarity), or any callable mapping a
:class:`~repro.index.inverted_index.Document` to a float.  Note the
streaming path requires a dimension that is non-decreasing in arrival
order — time is, sentiment is not — and refuses otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    Optional, Sequence, Tuple, Union

from .core.instance import Instance, InstanceColumns
from .core.post import Post
from .core.registry import solve
from .core.solution import Solution
from .core.streaming import _STREAM_FACTORIES
from .errors import ReproError, StreamOrderError
from .index.inverted_index import Document
from .index.query import LabelMatcher, TopicQuery
from .observability import facade as _obs
from .index.simhash import SimHashIndex, simhash
from .resilience.ladder import DowngradeEvent, solve_with_ladder
from .resilience.supervisor import ResilienceConfig, StreamSupervisor
from .stream.events import Emission
from .text.sentiment import sentiment_score

__all__ = ["DiversificationPipeline", "DigestResult", "solve_instance"]

Dimension = Union[str, Callable[[Document], float]]


def _resolve_dimension(dimension: Dimension) -> Callable[[Document], float]:
    if callable(dimension):
        return dimension
    if dimension == "time":
        return lambda document: document.timestamp
    if dimension == "sentiment":
        return lambda document: sentiment_score(document.text)
    raise ReproError(
        f"unknown dimension {dimension!r}; use 'time', 'sentiment' or a "
        "callable"
    )


def solve_instance(
    instance: Instance,
    algorithm: str,
    resilience: Optional[ResilienceConfig] = None,
    start_rung: int = 0,
) -> Tuple[Solution, int, Tuple[DowngradeEvent, ...]]:
    """A digest's solve step: ``solve(algorithm, instance)``, or with a
    resilience config its batch ladder from ``start_rung``.  Returns
    ``(solution, rung, downgrades)`` like ``solve_with_ladder``."""
    if resilience is None:
        return solve(algorithm, instance), start_rung, ()
    return solve_with_ladder(
        instance, resilience.batch_ladder or (algorithm,),
        budget=resilience.digest_budget, clock=resilience.clock,
        start_rung=start_rung,
    )


@dataclass(frozen=True, init=False)
class DigestResult:
    """Outcome of a batch digest.

    The digest is its cover and counters; the instance is the input the
    cover was computed over.  ``source`` holds that instance, or a
    deferred source that :attr:`instance` builds it from on first
    access: for a maintained-view read a
    :class:`~repro.incremental.store.StoreSnapshot` of the store's rows
    at the read, for a digest decoded off the wire (:meth:`from_dict`)
    its checked :class:`~repro.core.instance.InstanceColumns`, and for
    a router's scatter merge the merged columns.  Either kind carries
    ``labels`` and ``lam`` unbuilt.  Pass ``instance=`` for
    an instance, ``source=`` for a deferred source.  ``repr``,
    ``==`` and ``dataclasses.replace`` never build it: ``source`` is
    left out of the repr and compared by identity, as the instance was.

    ``downgrades`` is empty unless the pipeline runs with a
    :class:`~repro.resilience.supervisor.ResilienceConfig` whose batch
    ladder had to step down (budget overrun or solver error).
    """

    solution: Solution
    matched: int
    duplicates_dropped: int
    unmatched_dropped: int
    downgrades: Tuple[DowngradeEvent, ...] = ()
    # Trace provenance, stamped by the serving layer: the trace that
    # actually computed this digest and its solve span.  A coalesced
    # follower or cache hit carries the *producer's* ids, which is what
    # lets its own trace link back to the run that did the work.
    trace_id: Optional[str] = None
    solve_span_id: Optional[int] = None
    source: Any = field(default=None, repr=False)

    def __init__(
        self,
        solution: Solution,
        instance: Optional[Instance] = None,
        *,
        matched: int,
        duplicates_dropped: int,
        unmatched_dropped: int,
        downgrades: Tuple[DowngradeEvent, ...] = (),
        trace_id: Optional[str] = None,
        solve_span_id: Optional[int] = None,
        source: Any = None,
    ):
        if (instance is None) == (source is None):
            raise ReproError(
                "a digest result takes exactly one of instance and source"
            )
        set_field = object.__setattr__  # the class is frozen
        set_field(self, "solution", solution)
        set_field(self, "matched", matched)
        set_field(self, "duplicates_dropped", duplicates_dropped)
        set_field(self, "unmatched_dropped", unmatched_dropped)
        set_field(self, "downgrades", downgrades)
        set_field(self, "trace_id", trace_id)
        set_field(self, "solve_span_id", solve_span_id)
        set_field(self, "source", instance if source is None else source)

    @property
    def instance(self) -> Instance:
        """The instance the cover was computed over (a deferred source
        builds it here, once)."""
        source = self.source
        return source if isinstance(source, Instance) else source.instance

    @property
    def posts(self):
        """The digest posts, in dimension order."""
        return self.solution.posts

    @property
    def size(self) -> int:
        return self.solution.size

    # -- wire format -------------------------------------------------------

    @cached_property
    def _cover_uids(self) -> Tuple[int, ...]:
        """The cover's uids, once each cover post is checked to equal
        the instance's post with its uid.  The result is frozen and its
        cover and instance immutable, so the check runs once per result
        (a worker's cache hits re-ship one result); a failed check
        caches nothing and raises again."""
        instance = self.instance
        for post in self.solution.posts:
            try:
                own = instance.post(post.uid)
            except KeyError:
                own = None
            if own is not post and own != post:
                raise ReproError(
                    f"cover post {post!r} is not the instance's post "
                    f"{own!r}"
                )
        return tuple(post.uid for post in self.solution.posts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation — the serving layer's wire format.

        The instance travels as columns (:meth:`Instance.to_dict`) and
        the cover as the uids of its instance posts.  Raises
        :class:`ReproError` when a cover post does not equal the
        instance's post with its uid: the uids must decode to exactly
        the posts that were computed.
        """
        return {
            "solution": {
                "algorithm": self.solution.algorithm,
                "uids": list(self._cover_uids),
                "elapsed": self.solution.elapsed,
            },
            "instance": self.instance.to_dict(),
            "matched": self.matched,
            "duplicates_dropped": self.duplicates_dropped,
            "unmatched_dropped": self.unmatched_dropped,
            "downgrades": [d.to_dict() for d in self.downgrades],
            "trace_id": self.trace_id,
            "solve_span_id": self.solve_span_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DigestResult":
        """Inverse of :meth:`to_dict`.  The instance's columns are
        checked here (:meth:`InstanceColumns.decode`) and kept as the
        result's deferred ``source``: only the cover's posts are built
        now, and :attr:`instance`, built on first read, holds those very
        posts.  Raises :class:`InvalidInstanceError` on a malformed
        instance and :class:`ReproError` on a cover uid the instance
        does not hold, or a cover out of ``(value, uid)`` order."""
        columns = InstanceColumns.decode(payload["instance"])
        encoded = payload["solution"]
        try:
            rows = list(map(columns.rows.__getitem__, encoded["uids"]))
        except KeyError as error:
            raise ReproError(
                f"cover uid {error.args[0]!r} is not in the instance"
            ) from None
        except TypeError as error:
            raise ReproError(
                f"cover uids are not instance uids: {error}"
            ) from None
        # the instance's rows are strictly increasing in (value, uid)
        if not all(map(operator.lt, rows, rows[1:])):
            raise ReproError(
                "cover is not strictly increasing in (value, uid)"
            )
        return cls(
            solution=Solution(
                algorithm=str(encoded["algorithm"]),
                posts=columns.posts_at(rows),
                elapsed=float(encoded.get("elapsed", 0.0)),
            ),
            source=columns,
            matched=int(payload["matched"]),
            duplicates_dropped=int(payload["duplicates_dropped"]),
            unmatched_dropped=int(payload["unmatched_dropped"]),
            downgrades=tuple(
                DowngradeEvent.from_dict(d)
                for d in payload.get("downgrades", [])
            ),
            trace_id=payload.get("trace_id"),
            solve_span_id=payload.get("solve_span_id"),
        )


class DiversificationPipeline:
    """Documents -> (dedup) -> matching -> diversification.

    Parameters
    ----------
    queries:
        The user's topics (labels with keyword sets).
    lam:
        Coverage threshold on the chosen dimension.
    algorithm:
        Batch solver name for :meth:`digest` (any registry name) —
        default ``"greedy_sc"``.
    stream_algorithm:
        Streaming solver name for :meth:`feed` — default
        ``"stream_scan+"``.
    tau:
        Streaming decision delay.
    dimension:
        ``"time"``, ``"sentiment"`` or a ``Document -> float`` callable.
    dedup_distance:
        SimHash Hamming budget; ``None`` disables deduplication.
    resilience:
        Optional :class:`~repro.resilience.supervisor.ResilienceConfig`.
        When set, :meth:`feed` routes posts through a
        :class:`~repro.resilience.supervisor.StreamSupervisor`
        (sanitization, quarantine, watchdog, checkpointing — reachable
        via :attr:`supervisor`) and :meth:`digest` solves down a
        degradation ladder under the configured time budget.  Batch
        degradation is sticky: once a digest steps down a rung, later
        digests start from that rung.
    """

    def __init__(
        self,
        queries: Sequence[TopicQuery],
        lam: float,
        algorithm: str = "greedy_sc",
        stream_algorithm: str = "stream_scan+",
        tau: float = 0.0,
        dimension: Dimension = "time",
        dedup_distance: Optional[int] = 3,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.matcher = LabelMatcher(queries)
        self.lam = float(lam)
        self.algorithm = algorithm
        if stream_algorithm not in _STREAM_FACTORIES:
            raise ReproError(
                f"unknown streaming algorithm {stream_algorithm!r}; "
                f"choose from {sorted(_STREAM_FACTORIES)}"
            )
        self.stream_algorithm = stream_algorithm
        self.tau = float(tau)
        self.dimension = dimension
        self._value_of = _resolve_dimension(dimension)
        self.dedup_distance = dedup_distance
        self.resilience = resilience
        # batch degradation is sticky across digests
        self._batch_rung = 0
        # streaming state, created lazily on the first feed()
        self._stream = None
        self._supervisor: Optional[StreamSupervisor] = None
        self._stream_dedup: Optional[SimHashIndex] = None
        self._last_value = float("-inf")

    @property
    def supervisor(self) -> Optional[StreamSupervisor]:
        """The active stream supervisor (health, quarantine, checkpoints).

        ``None`` until the first supervised :meth:`feed`, and again after
        :meth:`finish`.
        """
        return self._supervisor

    def adopt_supervisor(self, supervisor: StreamSupervisor) -> None:
        """Adopt a restored supervisor as this pipeline's stream state.

        The checkpoint-recovery path (see :mod:`repro.service`): a
        supervisor rebuilt by
        :meth:`~repro.resilience.supervisor.StreamSupervisor.restore`
        becomes the live stream, replacing whatever state this pipeline
        had.  The SimHash dedup index is rebuilt from the supervisor's
        journal so near-duplicates of already-admitted posts keep being
        dropped after recovery.  Requires a resilience config (an
        unsupervised pipeline has nowhere to put a supervisor).
        """
        if self.resilience is None:
            raise ReproError(
                "adopt_supervisor requires a pipeline constructed with a "
                "resilience config"
            )
        self._stream = None
        self._supervisor = supervisor
        self._stream_dedup = None
        self._last_value = float("-inf")
        if self.dedup_distance is not None:
            self._stream_dedup = SimHashIndex(
                max_distance=self.dedup_distance
            )
            for post in supervisor.journal:
                fingerprint = simhash(post.text)
                if not self._stream_dedup.query(fingerprint):
                    self._stream_dedup.add(post.uid, fingerprint)

    # -- batch path --------------------------------------------------------------

    def digest(self, documents: Iterable[Document]) -> DigestResult:
        """Run the full batch pipeline over a document collection."""
        documents = list(documents)
        with _obs.span(
            "pipeline.digest", algorithm=self.algorithm,
            documents=len(documents),
        ) as span:
            duplicates = 0
            if self.dedup_distance is not None:
                dedup = SimHashIndex(max_distance=self.dedup_distance)
                kept_ids, dropped = dedup.deduplicate(
                    (doc.doc_id, doc.text) for doc in documents
                )
                duplicates = len(dropped)
                kept = set(kept_ids)
                documents = [d for d in documents if d.doc_id in kept]
            posts = self.matcher.to_posts_with_value(
                documents, value_of=self._value_of
            )
            unmatched = len(documents) - len(posts)
            instance = Instance(posts, self.lam, labels=self.matcher.labels)
            solution, self._batch_rung, downgrades = solve_instance(
                instance, self.algorithm, self.resilience, self._batch_rung
            )
            span.set_attribute("digest_size", solution.size)
        if _obs.enabled():
            _obs.count("pipeline.digests")
            _obs.count("pipeline.documents", len(documents) + duplicates)
            _obs.count("pipeline.duplicates_dropped", duplicates)
            _obs.count("pipeline.unmatched_dropped", unmatched)
        return DigestResult(
            solution=solution,
            instance=instance,
            matched=len(posts),
            duplicates_dropped=duplicates,
            unmatched_dropped=unmatched,
            downgrades=downgrades,
        )

    # -- streaming path -----------------------------------------------------------

    def _ensure_stream(self):
        if self._stream is None and self._supervisor is None:
            if self.resilience is not None:
                ladder = (
                    self.resilience.stream_ladder
                    or (self.stream_algorithm,)
                )
                self._supervisor = StreamSupervisor(
                    self.matcher.labels,
                    self.lam,
                    self.tau,
                    ladder=ladder,
                    policy=self.resilience.policy,
                    arrival_budget=self.resilience.arrival_budget,
                    clock=self.resilience.clock,
                )
            else:
                factory = _STREAM_FACTORIES[self.stream_algorithm]
                self._stream = factory(
                    self.matcher.labels, self.lam, self.tau
                )
            if self.dedup_distance is not None:
                self._stream_dedup = SimHashIndex(
                    max_distance=self.dedup_distance
                )
        return self._stream

    def _dedup_probe(self, document: Document):
        """Check the stream SimHash index without registering.

        Returns ``(is_duplicate, fingerprint)``; the fingerprint is
        ``None`` when dedup is disabled.  Registration is deferred to the
        caller — a document must only enter the index once it is actually
        *admitted* (matched, in order, sanitization-approved).  Registering
        earlier lets a document the solver never sees shadow a later
        legitimate post: an unmatched or order-violating arrival would
        silently swallow its admitted near-twin.
        """
        if self._stream_dedup is None:
            return False, None
        fingerprint = simhash(document.text)
        return bool(self._stream_dedup.query(fingerprint)), fingerprint

    def _dedup_register(self, document: Document, fingerprint) -> None:
        if self._stream_dedup is not None and fingerprint is not None:
            self._stream_dedup.add(document.doc_id, fingerprint)

    def feed(self, document: Document) -> List[Emission]:
        """Push one document through the streaming path.

        Returns the emissions this arrival (plus any deadlines it
        overtook) triggered.  Documents must arrive in non-decreasing
        dimension order; time does naturally, anything else raises —
        unless the pipeline is supervised, in which case the
        sanitization policy decides.

        The stream clock advances only on *admitted* documents: a
        near-duplicate or unmatched document never reaches the solver,
        so it neither tightens the monotonicity gate nor fires
        deadlines.  Acting on its dimension value would let a document
        the solver never sees (whose value may be garbage — think a
        mis-parsed timestamp on an unmatched post) poison the gate for
        every later arrival.  The SimHash index obeys the same rule: a
        document's fingerprint is registered only once the document is
        admitted, so a dropped arrival can never shadow a later
        legitimate near-twin.
        """
        stream = self._ensure_stream()
        value = float(self._value_of(document))
        observed = _obs.enabled()
        if observed:
            _obs.count("pipeline.fed")
        duplicate, fingerprint = self._dedup_probe(document)
        if duplicate:
            if observed:
                _obs.count("pipeline.stream_duplicates_dropped")
            return []
        if self._supervisor is not None:
            # The supervisor owns ordering, dedup-by-uid and malformed
            # values; SimHash near-duplicate dropping stays here.
            labels = self.matcher.match(document.text)
            post = Post(
                uid=document.doc_id, value=value, labels=labels,
                text=document.text,
            )
            was_accepted = self._supervisor.accepted(post.uid)
            emissions = self._supervisor.ingest(post)
            # Register only on the transition into acceptance: a
            # quarantined arrival must not shadow a later near-twin, and
            # a duplicate-uid re-delivery must not re-register.
            if not was_accepted and self._supervisor.accepted(post.uid):
                self._dedup_register(document, fingerprint)
            return emissions
        labels = self.matcher.match(document.text)
        if not labels:
            if observed:
                _obs.count("pipeline.stream_unmatched_dropped")
            return []
        if value < self._last_value:
            raise StreamOrderError(
                f"document {document.doc_id} regresses on the "
                f"{self.dimension!r} dimension ({value} < "
                f"{self._last_value}); streaming needs a monotone "
                "dimension"
            )
        self._dedup_register(document, fingerprint)
        emissions: List[Emission] = []
        # fire deadlines the wall clock has passed
        while True:
            deadline = stream.next_deadline()
            if deadline is None or deadline >= value:
                break
            emissions.extend(stream.on_deadline(deadline))
        self._last_value = value
        post = Post(
            uid=document.doc_id, value=value, labels=labels,
            text=document.text,
        )
        emissions.extend(stream.on_arrival(post))
        if observed and emissions:
            _obs.count("pipeline.stream_emissions", len(emissions))
        return emissions

    def finish(self) -> List[Emission]:
        """Drain the streaming state at end of stream."""
        if self._stream is None and self._supervisor is None:
            return []
        if self._supervisor is not None:
            emissions = self._supervisor.flush()
        else:
            emissions = self._stream.flush()
        self._stream = None
        self._supervisor = None
        self._stream_dedup = None
        self._last_value = float("-inf")
        return emissions
