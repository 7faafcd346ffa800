"""The service's one document → post projection: projector + post store.

The batch pipeline recomputes the whole document → post projection on
every solve: SimHash dedup over the corpus in arrival order, keyword
matching, value extraction, then an :class:`~repro.core.instance.Instance`
sort.  At serving scale that projection *is* repeated work — the corpus
only ever changes by appends (and, with a sliding window, expiries at the
old end), so the serving tier maintains the projected post set once, on
every ingest, and every cold solve and every materialized cover view
reads its instance from it — the index path of the paper's Figure 1.

Two pieces:

* :class:`DocumentProjector` — the incremental twin of
  ``DiversificationPipeline.digest``'s preprocessing.  One document in,
  at most one post out, with the same SimHash kept-set semantics (a
  dropped near-twin never registers its fingerprint, so later arrivals
  dedup against exactly the posts the batch path would keep) and the
  same matcher/value extraction; posts with equal label sets share one
  frozenset.  Because SimHash kept-sets depend on arrival order, the
  projector is only equivalent to the batch path when it sees documents
  in the batch corpus order — the service falls back to a full
  reprojection when that order diverges (ingest after stream).
* :class:`PostStore` — the projected posts in ``(value, uid)`` order
  with per-label sorted value indexes, supporting append, window expiry
  at the old end, ±λ neighborhood queries (for bounded view repair) and O(n)
  relabeled materialization into a trusted
  :meth:`~repro.core.instance.Instance.from_sorted` instance — no
  re-sort, no re-validation on the read path.

A read need not build that instance at all: :meth:`PostStore.snapshot`
takes the rows (one list slice) and the batch pipeline's counters under
one hold of the lock, and the :class:`StoreSnapshot` it returns builds
the instance through :meth:`PostStore.materialize` only when something
reads it.  ``matched`` comes from a per-label-set index of sorted values
(one bisect per distinct label set), and the store tracks the values of
*unmatched* kept documents, so ``unmatched_dropped`` stays exact even
after window expiry removed some of them.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, \
    Sequence, Set, Tuple

from ..core.instance import Instance, window
from ..core.post import Post
from ..errors import ReproError
from ..index.inverted_index import Document
from ..index.query import LabelMatcher, TopicQuery
from ..index.simhash import SimHashIndex, simhash

__all__ = ["DocumentProjector", "PostStore", "StoreSnapshot"]


class DocumentProjector:
    """Incremental document → post projection (dedup, match, value).

    Mirrors the preprocessing of ``DiversificationPipeline.digest`` one
    document at a time: a document is dropped as a near-duplicate iff a
    previously *kept* document's fingerprint is within ``dedup_distance``
    (kept-set semantics — dropped documents never register), then matched
    against the full query set; label-less documents are dropped.
    """

    def __init__(
        self,
        queries: Sequence[TopicQuery],
        *,
        dedup_distance: Optional[int] = None,
        value_of: Optional[Callable[[Document], float]] = None,
    ):
        self.matcher = LabelMatcher(queries)
        self.dedup_distance = dedup_distance
        self._dedup: Optional[SimHashIndex] = (
            None if dedup_distance is None
            else SimHashIndex(max_distance=dedup_distance)
        )
        self._value_of = (
            value_of if value_of is not None
            else (lambda document: document.timestamp)
        )
        self.documents = 0
        self.duplicates_dropped = 0
        self.unmatched = 0
        # one frozenset per distinct label set, shared by every post
        # (and every relabeled post) carrying it
        self._label_sets: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def intern(self, labels: FrozenSet[str]) -> FrozenSet[str]:
        """The one shared frozenset equal to ``labels``."""
        return self._label_sets.setdefault(labels, labels)

    def project(self, document: Document) -> Optional[Post]:
        """Project one document; ``None`` when deduped or unmatched."""
        self.documents += 1
        if self._dedup is not None:
            fingerprint = simhash(document.text)
            if self._dedup.query(fingerprint):
                self.duplicates_dropped += 1
                return None
            self._dedup.add(document.doc_id, fingerprint)
        labels = self.matcher.match(document.text)
        if not labels:
            self.unmatched += 1
            return None
        return Post(
            uid=document.doc_id,
            value=float(self._value_of(document)),
            labels=self.intern(labels),
            text=document.text,
        )


class StoreSnapshot:
    """One read of a :class:`PostStore`: its rows from the read's
    horizon on, and the batch pipeline's counters for them.

    ``rows`` is a slice of the store's post list taken under its lock —
    a list the store never mutates, of immutable posts — so the snapshot
    stays exact after later ingests, expiries and rebuilds.
    :attr:`instance` builds the read's instance from it through
    :meth:`PostStore.materialize` on first access, once; nothing else
    here builds it, ``repr`` included.
    """

    __slots__ = ("labels", "lam", "rows", "counters", "_store",
                 "_instance")

    def __init__(
        self,
        store: "PostStore",
        labels: FrozenSet[str],
        lam: float,
        rows: List[Post],
        counters: Dict[str, int],
    ):
        self.labels = labels
        self.lam = lam
        self.rows = rows
        # matched / unmatched_dropped / duplicates_dropped
        self.counters = counters
        self._store = store
        self._instance: Optional[Instance] = None

    @property
    def instance(self) -> Instance:
        """``store.materialize(labels, lam, min_value=horizon)`` as it
        was at the read, built on first access and kept (two threads
        reading at once build it once)."""
        with self._store._lock:
            if self._instance is None:
                self._instance = self._store.materialize(
                    self.labels, self.lam, rows=self.rows
                )
            return self._instance

    @property
    def posts(self) -> Tuple[Post, ...]:
        """The instance's posts (builds it)."""
        return self.instance.posts

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot(rows={len(self.rows)}, "
            f"labels={sorted(self.labels)}, lam={self.lam:g}, "
            f"built={self._instance is not None})"
        )


class PostStore:
    """Projected posts in ``(value, uid)`` order, shared by all views.

    Thread-safe: the write path appends from ingest/feed (possibly WAL
    consumer threads) while views materialize reads under the same lock.
    ``version`` moves on every change a read can see: the rows and the
    unmatched / duplicate tallies behind the counters.
    """

    def __init__(self, projector: Optional[DocumentProjector] = None):
        self.projector = projector
        self._lock = threading.RLock()
        self._keys: List[Tuple[float, int]] = []
        self._posts: List[Post] = []
        # per label: its posts' sorted values and the posts, index-aligned
        self._by_label: Dict[str, Tuple[List[float], List[Post]]] = {}
        # per distinct label set: its posts' sorted values — count()
        # answers a read's matched counter from it
        self._by_label_set: Dict[FrozenSet[str], List[float]] = {}
        self._by_uid: Dict[int, Post] = {}
        # values of kept-but-unmatched documents, sorted — expired with
        # the window so views report exact unmatched_dropped counters
        self._unmatched_values: List[float] = []
        self._max_value: Optional[float] = None
        self.version = 0
        self.expired = 0
        self.horizon: Optional[float] = None

    # -- write path --------------------------------------------------------

    def add(self, post: Post) -> None:
        """Insert one projected post (uids must be unique)."""
        with self._lock:
            if post.uid in self._by_uid:
                raise ReproError(
                    f"duplicate post uid {post.uid} in view store"
                )
            if not post.labels:
                raise ReproError(
                    f"post {post.uid} has an empty label set"
                )
            key = (post.value, post.uid)
            idx = bisect.bisect_left(self._keys, key)
            self._keys.insert(idx, key)
            self._posts.insert(idx, post)
            for label in post.labels:
                values, posts = self._by_label.setdefault(label, ([], []))
                at = bisect.bisect_right(values, post.value)
                values.insert(at, post.value)
                posts.insert(at, post)
            bisect.insort(
                self._by_label_set.setdefault(post.labels, []), post.value
            )
            self._by_uid[post.uid] = post
            self._note_value(post.value)
            self.version += 1

    def ingest_document(self, document: Document) -> Optional[Post]:
        """Project and store one document.

        Returns the stored post, or ``None`` when the projector dropped
        it (duplicate / unmatched).  Requires a projector.
        """
        if self.projector is None:
            raise ReproError("this store has no projector attached")
        with self._lock:
            unmatched_before = self.projector.unmatched
            post = self.projector.project(document)
            if post is None:
                if self.projector.unmatched > unmatched_before:
                    # kept but label-less: it still counts against the
                    # batch path's document tally, so track its value —
                    # windowed unmatched_dropped counters stay exact
                    value = float(self.projector._value_of(document))
                    bisect.insort(self._unmatched_values, value)
                    self._note_value(value)
                # a counter moved (unmatched or duplicates_dropped)
                self.version += 1
                return None
            self.add(post)
            return post

    def _note_value(self, value: float) -> None:
        if self._max_value is None or value > self._max_value:
            self._max_value = value

    def expire(self, cutoff: float) -> List[Post]:
        """Drop every post with ``value < cutoff``; returns them.

        Also trims the unmatched-value ledger and records ``cutoff`` as
        the store horizon — the service uses the same horizon to filter
        the batch path's corpus, so both paths see one window.
        """
        with self._lock:
            self.horizon = cutoff if self.horizon is None \
                else max(self.horizon, cutoff)
            idx = bisect.bisect_left(self._keys, (cutoff,))
            removed: List[Post] = []
            if idx > 0:
                removed = self._posts[:idx]
                del self._keys[:idx]
                del self._posts[:idx]
                label_sets: Set[FrozenSet[str]] = set()
                for post in removed:
                    del self._by_uid[post.uid]
                    label_sets.add(post.labels)
                for label in set().union(*label_sets):
                    values, posts = self._by_label[label]
                    dead = bisect.bisect_left(values, cutoff)
                    del values[:dead]
                    del posts[:dead]
                for label_set in label_sets:
                    values = self._by_label_set[label_set]
                    del values[:bisect.bisect_left(values, cutoff)]
                    if not values:
                        del self._by_label_set[label_set]
                self.expired += len(removed)
                self.version += 1
            dead = bisect.bisect_left(self._unmatched_values, cutoff)
            if dead:
                del self._unmatched_values[:dead]
                self.version += 1
            return removed

    # -- read path ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._posts)

    @property
    def max_value(self) -> Optional[float]:
        """Largest value of any kept document ever seen (incl. expired)."""
        return self._max_value

    @property
    def live_documents(self) -> int:
        """Kept documents inside the window (matched + unmatched)."""
        return len(self._posts) + len(self._unmatched_values)

    def live_documents_since(self, min_value: Optional[float]) -> int:
        """Kept documents with value ``>= min_value`` — the corpus size
        a view with its own (narrower) horizon reports counters against.
        ``None`` counts the whole physical window."""
        if min_value is None:
            return self.live_documents
        with self._lock:
            posts = len(self._keys) - bisect.bisect_left(
                self._keys, (min_value,)
            )
            unmatched = len(self._unmatched_values) - bisect.bisect_left(
                self._unmatched_values, min_value
            )
            return posts + unmatched

    def count(
        self, labels: Iterable[str], min_value: Optional[float] = None
    ) -> int:
        """How many posts ``materialize(labels, lam, min_value)`` holds —
        the live posts with a label in ``labels`` and value ``>=
        min_value`` — from one bisect per distinct label set, without
        building anything."""
        universe = frozenset(labels)
        with self._lock:
            total = 0
            for label_set, values in self._by_label_set.items():
                if not universe.isdisjoint(label_set):
                    total += len(values)
                    if min_value is not None:
                        total -= bisect.bisect_left(values, min_value)
            return total

    def post(self, uid: int) -> Optional[Post]:
        return self._by_uid.get(uid)

    def posts_near(
        self, label: str, center: float, lam: float
    ) -> List[Post]:
        """Live posts carrying ``label`` with value within ``lam`` of
        ``center``, by the coverage verifier's exact test, in value
        order."""
        with self._lock:
            entry = self._by_label.get(label)
            if entry is None:
                return []
            values, posts = entry
            lo, hi = window(values, center, lam)
            return posts[lo:hi]

    def _rows_since(self, min_value: Optional[float]) -> List[Post]:
        """The live rows with value ``>= min_value``: a new list (call
        under the lock)."""
        if min_value is None:
            return self._posts[:]
        return self._posts[bisect.bisect_left(self._keys, (min_value,)):]

    def counters(
        self, matched: int, min_value: Optional[float] = None
    ) -> Dict[str, int]:
        """The batch pipeline's counters for a read from ``min_value``
        on that matched ``matched`` posts: a kept document in the window
        either matched or was dropped unmatched, and duplicates count
        over the whole corpus."""
        return {
            "matched": matched,
            "unmatched_dropped":
                self.live_documents_since(min_value) - matched,
            "duplicates_dropped": 0 if self.projector is None
            else self.projector.duplicates_dropped,
        }

    def snapshot(
        self,
        labels: Iterable[str],
        lam: float,
        min_value: Optional[float] = None,
    ) -> StoreSnapshot:
        """One read for ``labels`` from ``min_value`` on: the rows and
        the batch pipeline's :meth:`counters`, from one hold of the
        lock, so all of it describes one store version.  Builds no
        instance."""
        universe = frozenset(labels)
        with self._lock:
            counters = self.counters(self.count(universe, min_value),
                                     min_value)
            return StoreSnapshot(
                self, universe, lam, self._rows_since(min_value), counters
            )

    def materialize(
        self,
        labels: Iterable[str],
        lam: float,
        min_value: Optional[float] = None,
        rows: Optional[List[Post]] = None,
    ) -> Instance:
        """The instance a batch solve over ``labels`` would see.

        Posts are relabeled to the requested subset (per-query matching
        is independent, so subset matching equals full matching
        intersected with the subset) and handed to the trusted
        constructor — already sorted, already validated.  Posts whose
        labels all lie in the subset are handed out as they are; each
        distinct label set is intersected once per call, and relabeled
        posts share the projector's interned frozensets, so an instance
        holds one label set per distinct combination.  ``min_value``
        additionally clips the old end — how a view with a narrower
        per-label-set window reads a store whose physical retention is
        the widest window of any view.  ``rows`` builds from a
        :class:`StoreSnapshot`'s rows instead of the live ones (and
        ignores ``min_value``, which the snapshot already applied): the
        one build path, for live and deferred reads alike.
        """
        universe: FrozenSet[str] = frozenset(labels)
        with self._lock:
            if rows is None:
                rows = self._rows_since(min_value)
            # label keys are never dropped, so this also holds for the
            # rows of an earlier snapshot
            if universe.issuperset(self._by_label):
                return Instance.from_sorted(rows, lam, universe)
            intern = None if self.projector is None \
                else self.projector.intern
            # a post's label set -> its labels inside the subset: all of
            # them (keep the post), fewer (relabel it to the interned
            # subset) or none (skip it)
            relabel: Dict[FrozenSet[str], FrozenSet[str]] = {}
            selected: List[Post] = []
            for post in rows:
                own = post.labels
                inter = relabel.get(own)
                if inter is None:
                    inter = own & universe
                    if intern is not None and 0 < len(inter) < len(own):
                        inter = intern(inter)
                    relabel[own] = inter
                if len(inter) == len(own):
                    selected.append(post)
                elif inter:
                    selected.append(Post(
                        uid=post.uid, value=post.value,
                        labels=inter, text=post.text,
                    ))
            return Instance.from_sorted(selected, lam, universe)

    def stats(self) -> Dict[str, object]:
        """JSON-safe store vitals for ``service.introspect()``."""
        with self._lock:
            projector = self.projector
            return {
                "posts": len(self._posts),
                "labels": len(self._by_label),
                "unmatched_live": len(self._unmatched_values),
                "version": self.version,
                "expired": self.expired,
                "horizon": self.horizon,
                "documents": None if projector is None
                else projector.documents,
                "duplicates_dropped": None if projector is None
                else projector.duplicates_dropped,
            }
